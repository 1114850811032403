"""Boundary conditions for half-line and interval geometries.

Each spec provides the normal-derivative function dB(phi): the condition is
``d_x phi = -dB`` at a right endpoint and ``d_x phi = +dB`` at a left one,
imposed through second-order ghost cells.  Robin with ``lam = 0`` is Neumann;
an optional constant offset gives the inhomogeneous Robin variant.

``bind(model)`` returns dB with the model's data resolved once per run, as
a function from the list of boundary values (Python floats, one per
component) to the list of dB components; it is None where dB vanishes
identically.  ``energy(model)`` does the same for the boundary energy
B(phi), a function of the array of boundary values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import PoleError, ValidationError
from .models import toda_units


@dataclass(frozen=True)
class Neumann:
    def bind(self, model) -> None:
        return None

    def energy(self, model) -> None:
        return None


@dataclass(frozen=True)
class Robin:
    """B(phi) = sum over components of (lam/2) phi^2 - offset phi."""

    lam: float
    offset: float = 0.0

    def bind(self, model):
        lam, offset = self.lam, self.offset

        def db(phi_b: list[float]) -> list[float]:
            return [lam * x - offset for x in phi_b]

        return db

    def energy(self, model):
        half_lam, offset = 0.5 * self.lam, self.offset
        if model.n_components != 1:
            return lambda phi_b: float(np.sum(half_lam * phi_b**2 - offset * phi_b))

        def energy(phi_b: np.ndarray) -> float:
            # the array form on one element, in scalar arithmetic
            x = float(phi_b[0])
            return half_lam * (x * x) - offset * x

        return energy


@dataclass(frozen=True)
class TodaBoundary:
    """B(phi) = (m / beta^2) sum_i b_i exp(beta alpha_i . phi / 2).

    (alpha, m, beta) are the model's affine Toda form (``toda_units``).  With
    this scale the coefficients b_i are exactly the normalized-unit constants
    of the K-matrix analysis (see CONVENTIONS.md); for the hyperbolic scalar
    model the exponents reduce to +-beta phi / 2 with b = (b_0, b_1).
    """

    b: tuple[float, ...]

    def _data(self, model):
        rs, m_t, beta_t = toda_units(model)
        alpha = rs.affine_rootspace
        if len(self.b) != len(alpha):
            raise ValidationError(
                f"Toda boundary needs {len(alpha)} coefficients, got {len(self.b)}"
            )
        return np.asarray(self.b, dtype=float), alpha, m_t, beta_t

    def bind(self, model):
        b, alpha, m_t, beta_t = self._data(model)
        scale = m_t / (2.0 * beta_t)

        def db(phi_b) -> list[float]:
            exps = np.exp(beta_t * (alpha @ phi_b) / 2.0)
            return (scale * (alpha.T @ (b * exps))).tolist()

        return db

    def energy(self, model):
        b, alpha, m_t, beta_t = self._data(model)
        scale = m_t / beta_t**2

        def energy(phi_b: np.ndarray) -> float:
            exps = np.exp(beta_t * (alpha @ phi_b) / 2.0)
            return float(scale * np.dot(b, exps))

        return energy

    def k_matrix(self, lam: complex) -> np.ndarray:
        """K(lambda) of a rank-one boundary, b = (b0, b1), in normalized units
        (CONVENTIONS.md); a pole of the prefactor at lambda^4 = 1 is flagged."""
        if len(self.b) != 2:
            raise ValidationError(f"the closed-form K is rank one's, b = (b0, b1); got {len(self.b)} coefficients")
        b0, b1 = self.b
        lam = complex(lam)
        denom = 1.0 - lam**4
        if abs(denom) < 1e-12 * max(1.0, abs(lam) ** 4):
            raise PoleError(f"a1 K-matrix undefined at lambda^4 = 1 (lambda={lam})")
        g = lam / denom
        return np.array(
            [[1.0, g * (b1 - lam**2 * b0)], [g * (b0 - lam**2 * b1), 1.0]],
            dtype=complex,
        )


BoundarySpec = Neumann | Robin | TodaBoundary
