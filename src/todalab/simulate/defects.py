"""Internal-boundary (defect) potentials and their sewing data.

The sewing conditions at x = 0 are

    d_x phi = d_t psi - dB/dphi,        d_x psi = d_t phi + dB/dpsi,

with B(phi, psi) = f(phi + psi) + g(phi - psi).  Each defect states f, g and
their first two derivatives; ``SplitDefect`` derives every partial of B and
U = f - g from them, so B_phiphi = B_psipsi = f'' + g'' holds by
construction.  Each defect's ``bulk`` is the model on both sides, so
W = V, and the model a run steps must be that bulk.  Together with
(1/2)(B_phi^2 - B_psi^2) = V(phi) - W(psi), which ``constraint_residuals``
samples with the bulk's own ``potential``, the split makes P + U conserved.

Every method takes arrays or scalars.  Scalars (the interface Newton solve
calls with Python floats) are evaluated with ``math``, arrays with numpy,
through the same expressions: squares are written as products, so a scalar
gives the same bits as that value in a one-element array.  The Newton reads
B's gradient through ``b_grad`` once per point it visits, and B's Hessian
through ``b_phiphi`` (which is ``b_psipsi``) and ``b_phipsi`` once per
iteration.
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


class SplitDefect:
    """B(phi, psi) = f(phi + psi) + g(phi - psi) and its derivatives.

    A defect states f, g and their first two derivatives (``df``, ``d2f``,
    ``dg``, ``d2g``) as functions of one argument, and its ``bulk``, the
    model on both sides, so W = V.
    """

    def validate_model(self, model) -> None:
        """Refuse any model but ``bulk``: another class, or other parameters."""
        bulk = self.bulk
        if model != bulk:
            got = type(model).__name__
            raise ValidationError(f"{type(self).__name__} requires a bulk matching {bulk!r}; got a {got}")

    def b_value(self, phi, psi):
        return self.f(phi + psi) + self.g(phi - psi)

    def b_phi(self, phi, psi):
        return self.df(phi + psi) + self.dg(phi - psi)

    def b_grad(self, phi, psi):
        """(B_phi, B_psi) from one f' and one g': the bits of ``b_phi`` and
        ``b_psi``."""
        df, dg = self.df(phi + psi), self.dg(phi - psi)
        return df + dg, df - dg

    def b_psi(self, phi, psi):
        return self.df(phi + psi) - self.dg(phi - psi)

    def b_phiphi(self, phi, psi):
        return self.d2f(phi + psi) + self.d2g(phi - psi)

    b_psipsi = b_phiphi

    def b_phipsi(self, phi, psi):
        return self.d2f(phi + psi) - self.d2g(phi - psi)

    def u_value(self, phi, psi):
        return self.f(phi + psi) - self.g(phi - psi)


@dataclass(frozen=True)
class FreeDefect(SplitDefect):
    """Pair of free fields with equal mass; extra parameter lam free.

    f(s) = (m lam / 4) s^2, g(d) = (m / 4 lam) d^2; the defect disappears as
    lam -> 0 (fields match across x = 0 in that limit).
    """

    lam: float
    m: float = 1.0

    def __post_init__(self):
        if self.lam == 0:
            raise ValidationError("defect parameter lam must be nonzero")

    @property
    def bulk(self) -> KleinGordon:
        return KleinGordon(self.m)

    def f(self, s):
        return (self.m * self.lam / 4.0) * (s * s)

    def df(self, s):
        return (self.m * self.lam / 2.0) * s

    def d2f(self, s):
        return self.m * self.lam / 2.0 + 0.0 * s

    def g(self, d):
        return (self.m / (4.0 * self.lam)) * (d * d)

    def dg(self, d):
        return (self.m / (2.0 * self.lam)) * d

    def d2g(self, d):
        return self.m / (2.0 * self.lam) + 0.0 * d


@dataclass(frozen=True)
class SineGordonBacklund(SplitDefect):
    """Backlund transformation frozen at x = 0 as the defect condition.

    f(s) = -(2 m lam / beta^2) cos(beta s / 2),
    g(d) = -(2 m / (beta^2 lam)) cos(beta d / 2).
    """

    lam: float
    m: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        if self.lam == 0:
            raise ValidationError("defect parameter lam must be nonzero")

    @property
    def bulk(self) -> SineGordon:
        return SineGordon(self.m, self.beta)

    def f(self, s):
        return -(2.0 * self.m * self.lam / self.beta**2) * _cos(self.beta * s / 2.0)

    def df(self, s):
        return (self.m * self.lam / self.beta) * _sin(self.beta * s / 2.0)

    def d2f(self, s):
        return (self.m * self.lam / 2.0) * _cos(self.beta * s / 2.0)

    def g(self, d):
        return -(2.0 * self.m / (self.beta**2 * self.lam)) * _cos(self.beta * d / 2.0)

    def dg(self, d):
        return (self.m / (self.beta * self.lam)) * _sin(self.beta * d / 2.0)

    def d2g(self, d):
        return (self.m / (2.0 * self.lam)) * _cos(self.beta * d / 2.0)


DefectSpec = FreeDefect | SineGordonBacklund


def constraint_residuals(defect: DefectSpec, phi: np.ndarray, psi: np.ndarray) -> float:
    """Max residual of the defect-potential identity (1/2)(B_phi^2 -
    B_psi^2) = V(phi) - W(psi) on samples, with V = W the bulk's potential
    on the samples taken as one row."""
    potential = defect.bulk.potential
    alg = 0.5 * (defect.b_phi(phi, psi) ** 2 - defect.b_psi(phi, psi) ** 2) - (
        potential(np.reshape(phi, (1, -1))) - potential(np.reshape(psi, (1, -1)))
    )
    return float(np.max(np.abs(alg)))
