"""Two-boundary quantization and the boundary bound-state frequency."""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from math import ceil, isfinite, pi, sqrt
from sys import float_info

import numpy as np

from ..errors import NumericalError, ValidationError
from .blocks import free_reflection

# the k grid has 20 cells per root (step pi/(40 L), roots pi/(2 L) apart);
# at most 20 * (MAX_ROOTS + 4) cells bound it for any L
MAX_ROOTS = 4000


@dataclass(frozen=True)
class SpectrumProblem:
    """Massive free field on -L < x < L with Robin parameters at each end."""

    m: float
    half_length: float
    lam_plus: float
    lam_minus: float
    n_max: int

    def __post_init__(self):
        if not all(isfinite(v) for v in (self.m, self.half_length, self.lam_plus, self.lam_minus)):
            raise ValidationError("mass, half-length and Robin parameters must be finite")
        if self.half_length <= 0:
            raise ValidationError("half-length must be positive")
        if self.m < 0:
            raise ValidationError("mass must be nonnegative")
        if not 1 <= self.n_max <= MAX_ROOTS:
            raise ValidationError(f"n_max must lie in [1, {MAX_ROOTS}]")


def _phase(k: np.ndarray, four_l: float, lam_plus: float, lam_minus: float) -> np.ndarray:
    """Continuous total phase of e^{4ikL} R_+ R_- at k > 0.

    With the half-line reflection factor R = (ik+lam)/(ik-lam) at both ends,
    arg R = pi + 2 atan2(k, lam) (mod 2 pi), and this branch is continuous
    for k > 0, so the total phase 4kL + sum_+- (pi + 2 atan2(k, lam_+-))
    needs no unwrapping.  Closure e^{4ikL} R_+ R_- = 1 (equivalently
    e^{4ikL} = R'_+ R'_- for the factors in the outgoing convention
    R' = 1/R) is phase = 2 pi n; this orientation is pinned by direct
    eigenfunction solves and by the simulated interval spectra.
    """
    phase = four_l * k
    phase += pi + 2.0 * np.arctan2(k, lam_plus)
    phase += pi + 2.0 * np.arctan2(k, lam_minus)
    return phase


def interval_spectrum(problem: SpectrumProblem) -> list[float]:
    """First ``n_max`` positive roots of the two-boundary phase condition.

    The closed-form phase (``_phase``) is sampled once on a grid of step
    dk = pi/(40 L) from k_floor up to k_hi = 10 k_floor + 2 pi (n_max + 4)/(4 L):
    as 4kL + 2 pi < phase < 4kL + 6 pi, the first ``n_max`` roots lie below.
    The phase is a multiple of 2 pi at k = 0; that crossing stays out, as
    the grid starts at k_floor = min(1e-9, dk) and roots below 10 k_floor
    are dropped.  With Neumann ends root 1 lies at 20 dk, so a floor that
    follows dk at large L drops none.
    Every 2 pi n crossing within a grid cell is bracketed, and all brackets
    are bisected at once, each in its cell's rising or falling direction,
    until their ends are adjacent doubles.  A crossing within 1e-10 relative
    of the previous root (on a shared grid node) is dropped; each root is then
    checked against the reflection factors themselves (``_check_closure``).
    """
    length = problem.half_length
    args = (4.0 * length, problem.lam_plus, problem.lam_minus)
    dk = pi / (40.0 * length)
    if not dk >= float_info.min:
        raise ValidationError(f"half-length {length!r} is out of range: the k grid step is not a normal double")
    k_floor = min(1e-9, dk)
    two_pi = 2.0 * pi

    # (k_hi - k_floor) / dk, written so that no term overflows, and capped
    n_cells = min(ceil(360.0 * k_floor * length / pi) + 20 * (problem.n_max + 4), 20 * (MAX_ROOTS + 4))
    # the phase stays below 4 k L + 6 pi; past 2^53 doubles cannot tell its branches apart
    if not args[0] * (k_floor + dk * n_cells) < 2.0**53:
        raise ValidationError(f"half-length {length!r} is out of range: the phase passes 2^53 on the k grid")
    k_grid = k_floor + dk * np.arange(n_cells + 1)
    phase = _phase(k_grid, *args)
    lo, hi = phase[:-1], phase[1:]
    n_from = np.ceil(np.minimum(lo, hi) / two_pi - 1e-12).astype(np.int64)
    n_to = np.floor(np.maximum(lo, hi) / two_pi + 1e-12).astype(np.int64)
    count = np.maximum(n_to - n_from + 1, 0)
    cell = np.repeat(np.arange(n_cells), count)
    branch = n_from[cell] + np.arange(cell.size) - np.repeat(np.cumsum(count) - count, count)
    target = two_pi * branch
    crossed = (lo[cell] - target) * (hi[cell] - target) <= 0
    cell, target = cell[crossed], target[crossed]

    # direction * (phase - target) stays < 0 at a (or 0 on a grid node), >= 0 at b
    direction = np.sign(hi[cell] - lo[cell])
    a, b = k_grid[cell], k_grid[cell + 1]
    mid = 0.5 * (a + b)
    while ((a < mid) & (mid < b)).any():
        below = direction * (_phase(mid, *args) - target) < 0
        a, b = np.where(below, mid, a), np.where(below, b, mid)
        mid = 0.5 * (a + b)

    roots = np.sort(b)
    roots = roots[roots > k_floor * 10]
    roots = roots[np.diff(roots, prepend=-np.inf) > 1e-10 * roots][: problem.n_max].tolist()
    if len(roots) < problem.n_max:
        raise NumericalError(f"found only {len(roots)} of {problem.n_max} requested roots")
    _check_closure(problem, roots)
    return roots


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
        # the phase, and with it the root, carries rounding ~ 4kL eps
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
