"""Internal-boundary (defect) potentials and their sewing data.

The sewing conditions at x = 0 are

    d_x phi = d_t psi - dB/dphi,        d_x psi = d_t phi + dB/dpsi,

with B(phi, psi) = f(phi + psi) + g(phi - psi).  The split form guarantees
B_phiphi = B_psipsi; together with (1/2)(B_phi^2 - B_psi^2) = V(phi) - W(psi)
it makes P + U conserved, where U = f - g evaluated at the interface.  Both
built-in defects carry their own analytic first and second derivatives and a
sampling check of the two constraint identities.

Every method takes arrays or scalars.  Scalars (the interface Newton solve
calls with Python floats) are evaluated with ``math``, arrays with numpy,
through the same expressions: squares are written as products, so a scalar
gives the same bits as that value in a one-element array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ValidationError
from .models import KleinGordon, SineGordon


def _sin(x):
    if isinstance(x, np.ndarray):
        return np.sin(x)
    try:
        return math.sin(x)
    except ValueError:  # +-inf: numpy's nan, without its warning
        return math.nan


def _cos(x):
    if isinstance(x, np.ndarray):
        return np.cos(x)
    try:
        return math.cos(x)
    except ValueError:
        return math.nan


@dataclass(frozen=True)
class FreeDefect:
    """Pair of free fields with equal mass; extra parameter lam free.

    B = (m lam / 4)(phi + psi)^2 + (m / 4 lam)(phi - psi)^2; the defect
    disappears as lam -> 0 (fields match across x = 0 in that limit).
    """

    lam: float
    m: float = 1.0

    def __post_init__(self):
        if self.lam == 0:
            raise ValidationError("defect parameter lam must be nonzero")

    def bulk_model(self) -> KleinGordon:
        return KleinGordon(m=self.m)

    def validate_model(self, model) -> None:
        if not isinstance(model, KleinGordon) or model.m != self.m:
            raise ValidationError("free defect requires KleinGordon bulk with matching mass")

    def b_value(self, phi, psi):
        s, d = phi + psi, phi - psi
        return (self.m * self.lam / 4.0) * (s * s) + (self.m / (4.0 * self.lam)) * (d * d)

    def b_phi(self, phi, psi):
        return (self.m * self.lam / 2.0) * (phi + psi) + (self.m / (2.0 * self.lam)) * (phi - psi)

    def b_psi(self, phi, psi):
        return (self.m * self.lam / 2.0) * (phi + psi) - (self.m / (2.0 * self.lam)) * (phi - psi)

    def b_phiphi(self, phi, psi):
        return self.m * self.lam / 2.0 + self.m / (2.0 * self.lam) + 0.0 * phi

    def b_psipsi(self, phi, psi):
        # d(b_psi)/dpsi, derived independently of b_phiphi
        return self.m * self.lam / 2.0 - (self.m / (2.0 * self.lam)) * (-1.0) + 0.0 * psi

    def b_phipsi(self, phi, psi):
        return self.m * self.lam / 2.0 - self.m / (2.0 * self.lam) + 0.0 * phi

    def u_value(self, phi, psi):
        s, d = phi + psi, phi - psi
        return (self.m * self.lam / 4.0) * (s * s) - (self.m / (4.0 * self.lam)) * (d * d)

    def potential_left(self, phi):
        return 0.5 * self.m**2 * (phi * phi)

    def potential_right(self, psi):
        return 0.5 * self.m**2 * (psi * psi)


@dataclass(frozen=True)
class SineGordonBacklund:
    """Backlund transformation frozen at x = 0 as the defect condition.

    B = -(2 m lam / beta^2) cos(beta (phi + psi)/2)
        -(2 m / (beta^2 lam)) cos(beta (phi - psi)/2).
    """

    lam: float
    m: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        if self.lam == 0:
            raise ValidationError("defect parameter lam must be nonzero")

    def bulk_model(self) -> SineGordon:
        return SineGordon(m=self.m, beta=self.beta)

    def validate_model(self, model) -> None:
        if (
            not isinstance(model, SineGordon)
            or model.m != self.m
            or model.beta != self.beta
        ):
            raise ValidationError(
                "Backlund defect requires SineGordon bulk with matching (m, beta)"
            )

    def _pre(self):
        m, b, lam = self.m, self.beta, self.lam
        return 2.0 * m * lam / b**2, 2.0 * m / (b**2 * lam)

    def b_value(self, phi, psi):
        cf, cg = self._pre()
        b = self.beta
        return -cf * _cos(b * (phi + psi) / 2.0) - cg * _cos(b * (phi - psi) / 2.0)

    def b_phi(self, phi, psi):
        m, b, lam = self.m, self.beta, self.lam
        return (m * lam / b) * _sin(b * (phi + psi) / 2.0) + (m / (b * lam)) * _sin(
            b * (phi - psi) / 2.0
        )

    def b_psi(self, phi, psi):
        m, b, lam = self.m, self.beta, self.lam
        return (m * lam / b) * _sin(b * (phi + psi) / 2.0) - (m / (b * lam)) * _sin(
            b * (phi - psi) / 2.0
        )

    def b_phiphi(self, phi, psi):
        m, b, lam = self.m, self.beta, self.lam
        return (m * lam / 2.0) * _cos(b * (phi + psi) / 2.0) + (m / (2.0 * lam)) * _cos(
            b * (phi - psi) / 2.0
        )

    def b_psipsi(self, phi, psi):
        # d(b_psi)/dpsi, derived independently of b_phiphi
        m, b, lam = self.m, self.beta, self.lam
        return (m * lam / b) * (b / 2.0) * _cos(b * (phi + psi) / 2.0) - (
            m / (b * lam)
        ) * (-b / 2.0) * _cos(b * (phi - psi) / 2.0)

    def b_phipsi(self, phi, psi):
        m, b, lam = self.m, self.beta, self.lam
        return (m * lam / 2.0) * _cos(b * (phi + psi) / 2.0) - (m / (2.0 * lam)) * _cos(
            b * (phi - psi) / 2.0
        )

    def u_value(self, phi, psi):
        cf, cg = self._pre()
        b = self.beta
        return -cf * _cos(b * (phi + psi) / 2.0) + cg * _cos(b * (phi - psi) / 2.0)

    def potential_left(self, phi):
        return (self.m**2 / self.beta**2) * (1.0 - _cos(self.beta * phi))

    def potential_right(self, psi):
        return (self.m**2 / self.beta**2) * (1.0 - _cos(self.beta * psi))


DefectSpec = FreeDefect | SineGordonBacklund


def constraint_residuals(defect: DefectSpec, phi: np.ndarray, psi: np.ndarray) -> tuple[float, float]:
    """Max residuals of the two defect-potential identities on samples.

    First: B_phiphi - B_psipsi, with both second partials evaluated from
    their own analytic expressions.  Second: (1/2)(B_phi^2 - B_psi^2) -
    (V(phi) - W(psi)).
    """
    wave = np.max(np.abs(defect.b_phiphi(phi, psi) - defect.b_psipsi(phi, psi)))
    alg = 0.5 * (defect.b_phi(phi, psi) ** 2 - defect.b_psi(phi, psi) ** 2) - (
        defect.potential_left(phi) - defect.potential_right(psi)
    )
    return float(wave), float(np.max(np.abs(alg)))
