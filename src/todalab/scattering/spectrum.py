"""Two-boundary quantization and the boundary bound-state frequency."""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from math import atan2, pi, sqrt

import numpy as np
from scipy.optimize import brentq

from ..errors import NumericalError, ValidationError
from .blocks import free_reflection


@dataclass(frozen=True)
class SpectrumProblem:
    """Massive free field on -L < x < L with Robin parameters at each end."""

    m: float
    half_length: float
    lam_plus: float
    lam_minus: float
    n_max: int

    def __post_init__(self):
        if self.half_length <= 0:
            raise ValidationError("half-length must be positive")
        if self.m < 0:
            raise ValidationError("mass must be nonnegative")
        if self.n_max < 1:
            raise ValidationError("n_max must be at least 1")


def _phase(k, four_l: float, lam_plus: float, lam_minus: float, arctan2=atan2):
    """Continuous total phase of e^{4ikL} R_+ R_- at k > 0 (a float, or an
    array with ``arctan2=np.arctan2``).

    With the half-line reflection factor R = (ik+lam)/(ik-lam) at both ends,
    arg R = pi + 2 atan2(k, lam) (mod 2 pi), and this branch is continuous
    for k > 0, so the total phase 4kL + sum_+- (pi + 2 atan2(k, lam_+-))
    needs no unwrapping.  Closure e^{4ikL} R_+ R_- = 1 (equivalently
    e^{4ikL} = R'_+ R'_- for the factors in the outgoing convention
    R' = 1/R) is phase = 2 pi n; this orientation is pinned by direct
    eigenfunction solves and by the simulated interval spectra.
    """
    phase = four_l * k
    phase += pi + 2.0 * arctan2(k, lam_plus)
    phase += pi + 2.0 * arctan2(k, lam_minus)
    return phase


def interval_spectrum(problem: SpectrumProblem) -> list[float]:
    """First ``n_max`` positive roots of the two-boundary phase condition.

    The closed-form phase (``_phase``) is sampled on a grid of step
    pi/(40 L) from k = 1e-9; every 2 pi n crossing within a grid cell is
    bracketed and solved with ``brentq`` to 1e-12 relative accuracy.  Roots
    come out strictly increasing; a crossing that repeats the previous root
    (on a shared grid node) is dropped.  Each root is then checked against
    the reflection factors themselves (``_check_closure``).
    """
    length = problem.half_length
    args = (4.0 * length, problem.lam_plus, problem.lam_minus)
    dk = pi / (40.0 * length)
    k_floor = 1e-9
    two_pi = 2.0 * pi

    def f(k: float, target: float) -> float:
        return _phase(k, *args) - target

    roots: list[float] = []
    n_points = 400
    start = 0
    max_rounds = 200
    for _ in range(max_rounds):
        k_grid = k_floor + dk * np.arange(start, start + n_points + 1)
        phase = _phase(k_grid, *args, np.arctan2)
        lo, hi = phase[:-1], phase[1:]
        n_from = np.ceil(np.minimum(lo, hi) / two_pi - 1e-12).astype(int)
        n_to = np.floor(np.maximum(lo, hi) / two_pi + 1e-12).astype(int)
        for i in np.flatnonzero(n_from <= n_to):
            a, b = float(k_grid[i]), float(k_grid[i + 1])
            for n in range(n_from[i], n_to[i] + 1):
                target = two_pi * n
                if (lo[i] - target) * (hi[i] - target) > 0:
                    continue
                fa, fb = f(a, target), f(b, target)
                if fa * fb > 0:
                    # np.arctan2 and math.atan2 may differ in the last bit:
                    # the crossing sits on a grid node, within rounding
                    root = a if abs(fa) < abs(fb) else b
                else:
                    try:
                        root = brentq(f, a, b, args=(target,), xtol=1e-15, rtol=1e-12, maxiter=200)
                    except RuntimeError as exc:
                        raise NumericalError(
                            f"root did not converge on branch n={n} in [{a}, {b}]"
                        ) from exc
                if root > k_floor * 10 and (not roots or root - roots[-1] > 1e-10):
                    roots.append(float(root))
                if len(roots) >= problem.n_max:
                    _check_closure(problem, roots)
                    return roots
        start += n_points
    raise NumericalError(
        f"found only {len(roots)} of {problem.n_max} requested roots"
    )


def _check_closure(problem: SpectrumProblem, roots: list[float]) -> None:
    """Each root closes e^{4ikL} R_+ R_- = 1 with the reflection factors
    themselves, which pins the closed-form phase to their convention."""
    four_l = 4.0 * problem.half_length
    for k in roots:
        closure = (
            cmath.exp(1j * four_l * k)
            * free_reflection(k, problem.lam_plus)
            * free_reflection(k, problem.lam_minus)
        )
        # the phase carries rounding ~ 4kL eps and the root 1e-12 relative
        if abs(closure - 1.0) > 1e-9 * (1.0 + four_l * k):
            raise NumericalError(
                f"root k={k!r} does not close e^(4ikL) R+ R- = 1 "
                f"(residual {abs(closure - 1.0):.3g})"
            )


def bound_state_frequency(m: float, lam_b: float) -> float:
    """omega = sqrt(m^2 - lam_b^2) for -m < lam_b < 0."""
    if not -m < lam_b < 0.0:
        raise ValidationError(
            f"boundary bound state requires -m < lam_b < 0 (m={m}, lam_b={lam_b})"
        )
    return sqrt(m**2 - lam_b**2)
