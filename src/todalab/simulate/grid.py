"""Uniform 1D grid with a Courant-limited explicit time step."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ValidationError


@dataclass(frozen=True)
class Grid1D:
    x_min: float
    x_max: float
    n_cells: int
    courant: float = 0.5

    def __post_init__(self):
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)):
            raise ValidationError("x_min and x_max must be finite")
        if self.x_max <= self.x_min:
            raise ValidationError("x_max must exceed x_min")
        if self.n_cells < 16:
            raise ValidationError("need at least 16 cells")
        if not 0.0 < self.courant <= 0.9:
            raise ValidationError("Courant ratio must lie in (0, 0.9]")

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / self.n_cells

    @property
    def dt(self) -> float:
        return self.courant * self.h

    def nodes(self, periodic: bool = False) -> np.ndarray:
        """Node coordinates; periodic grids drop the duplicate endpoint."""
        if periodic:
            return self.x_min + self.h * np.arange(self.n_cells)
        return np.linspace(self.x_min, self.x_max, self.n_cells + 1)
