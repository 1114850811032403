"""Boundary conditions for half-line and interval geometries.

Each spec provides the normal-derivative function dB(phi): the condition is
``d_x phi = -dB`` at a right endpoint and ``d_x phi = +dB`` at a left one,
imposed through second-order ghost cells.  Robin with ``lam = 0`` is Neumann;
an optional constant offset gives the inhomogeneous Robin variant.

``bind(model)`` returns dB with the model's data resolved once per run, as
a function from the list of boundary values (Python floats, one per
component) to the list of dB components, with the arithmetic of ``db``; it
is None where dB vanishes identically.  ``energy(model)`` does the same for
the boundary energy B(phi), with the arithmetic of ``value``; ``db`` and
``value`` stay the per-call reference forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from ..errors import ValidationError
from .models import AffineToda, SinhGordon


@dataclass(frozen=True)
class Neumann:
    def db(self, model, phi_b: np.ndarray) -> np.ndarray:
        return np.zeros_like(phi_b)

    def bind(self, model) -> None:
        return None

    def value(self, model, phi_b: np.ndarray) -> float:
        return 0.0

    def energy(self, model) -> None:
        return None


@dataclass(frozen=True)
class Robin:
    lam: float
    offset: float = 0.0

    def db(self, model, phi_b: np.ndarray) -> np.ndarray:
        return self.lam * phi_b - self.offset

    def bind(self, model):
        lam, offset = self.lam, self.offset

        def db(phi_b: list[float]) -> list[float]:
            # db() node by node, in scalar arithmetic
            return [lam * x - offset for x in phi_b]

        return db

    def value(self, model, phi_b: np.ndarray) -> float:
        return float(np.sum(0.5 * self.lam * phi_b**2 - self.offset * phi_b))

    def energy(self, model):
        if model.n_components != 1:
            return partial(self.value, model)
        half_lam, offset = 0.5 * self.lam, self.offset

        def energy(phi_b: np.ndarray) -> float:
            # value() on a one-element array, in scalar arithmetic
            x = float(phi_b[0])
            return half_lam * (x * x) - offset * x

        return energy


@dataclass(frozen=True)
class TodaBoundary:
    """B(phi) = (m / beta^2) sum_i b_i exp(beta alpha_i . phi / 2).

    With this scale the coefficients b_i are exactly the normalized-unit
    constants of the K-matrix analysis (see CONVENTIONS.md); for the
    hyperbolic scalar model the exponents reduce to +-beta phi / 2 with
    b = (b_0, b_1).
    """

    b: tuple[float, ...]

    def _data(self, model):
        if isinstance(model, SinhGordon):
            alpha = np.array([[-np.sqrt(2.0)], [np.sqrt(2.0)]])
            beta_t = model.beta / np.sqrt(2.0)
            m_t = model.m / 2.0
        elif isinstance(model, AffineToda):
            alpha = model._alpha
            beta_t, m_t = model.beta, model.m
        else:
            raise ValidationError(
                f"Toda boundary needs a SinhGordon or AffineToda bulk, got {type(model).__name__}"
            )
        if len(self.b) != len(alpha):
            raise ValidationError(
                f"Toda boundary needs {len(alpha)} coefficients, got {len(self.b)}"
            )
        return np.asarray(self.b, dtype=float), alpha, m_t, beta_t

    def db(self, model, phi_b: np.ndarray) -> np.ndarray:
        return np.asarray(self.bind(model)(phi_b))

    def bind(self, model):
        b, alpha, m_t, beta_t = self._data(model)
        scale = m_t / (2.0 * beta_t)

        def db(phi_b) -> list[float]:
            exps = np.exp(beta_t * (alpha @ phi_b) / 2.0)
            return (scale * (alpha.T @ (b * exps))).tolist()

        return db

    def value(self, model, phi_b: np.ndarray) -> float:
        b, alpha, m_t, beta_t = self._data(model)
        exps = np.exp(beta_t * (alpha @ phi_b) / 2.0)
        return float((m_t / beta_t**2) * np.dot(b, exps))

    def energy(self, model):
        b, alpha, m_t, beta_t = self._data(model)
        scale = m_t / beta_t**2

        def energy(phi_b: np.ndarray) -> float:
            exps = np.exp(beta_t * (alpha @ phi_b) / 2.0)
            return float(scale * np.dot(b, exps))

        return energy


BoundarySpec = Neumann | Robin | TodaBoundary
