"""Interval spectrum against 40-digit roots, and the inputs it refuses."""

import math

import mpmath
import numpy as np
import pytest

from todalab.errors import ValidationError
from todalab.scattering import SpectrumProblem, interval_spectrum


def _exact_root(half_length, lam_plus, lam_minus, k):
    """The 40-digit root of 4kL + sum (pi + 2 atan2(k, lam)) = 2 pi n on the
    branch n of the double root ``k``."""
    with mpmath.workdps(40):
        L, lp, lm = (mpmath.mpf(v) for v in (half_length, lam_plus, lam_minus))

        def phase(q):
            return 4 * q * L + 2 * mpmath.pi + 2 * mpmath.atan2(q, lp) + 2 * mpmath.atan2(q, lm)

        n = mpmath.nint(phase(mpmath.mpf(k)) / (2 * mpmath.pi))
        return mpmath.findroot(lambda q: phase(q) - 2 * mpmath.pi * n, mpmath.mpf(k))


@pytest.mark.parametrize("half_length, lam_plus, lam_minus", [(5.0, 0.5, 0.25), (3.7, -0.4, 1.2)])
def test_first_roots_match_40_digit_roots(half_length, lam_plus, lam_minus):
    """Bisection to adjacent doubles leaves each root within a few ulps of
    the exact one: 1e-15 relative."""
    p = SpectrumProblem(m=1.0, half_length=half_length, lam_plus=lam_plus, lam_minus=lam_minus, n_max=50)
    for k in interval_spectrum(p):
        exact = _exact_root(half_length, lam_plus, lam_minus, k)
        assert abs((mpmath.mpf(k) - exact) / exact) <= 1e-15


@pytest.mark.parametrize("field", ["m", "half_length", "lam_plus", "lam_minus"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_problem_refuses_non_finite_fields(field, value):
    fields = {"m": 1.0, "half_length": 5.0, "lam_plus": 0.0, "lam_minus": 0.0, "n_max": 3}
    fields[field] = value
    with pytest.raises(ValidationError, match="must be finite"):
        SpectrumProblem(**fields)


@pytest.mark.parametrize("lam_plus, lam_minus", [(0.5, 0.25), (-0.4, 1.2), (-0.9, -0.9)])
def test_4000_roots_are_found_and_4001_refused(lam_plus, lam_minus):
    p = SpectrumProblem(m=1.0, half_length=3.0, lam_plus=lam_plus, lam_minus=lam_minus, n_max=4000)
    assert len(interval_spectrum(p)) == 4000
    with pytest.raises(ValidationError, match=r"n_max must lie in \[1, 4000\]"):
        SpectrumProblem(m=1.0, half_length=3.0, lam_plus=lam_plus, lam_minus=lam_minus, n_max=4001)


@pytest.mark.parametrize("half_length", [1e-306, 1e307])
def test_half_length_whose_grid_leaves_double_range_is_refused(half_length):
    """At L = 1e-306 the grid top overflows; at L = 1e307 the grid step
    pi/(40 L) is below the smallest normal double."""
    p = SpectrumProblem(m=1.0, half_length=half_length, lam_plus=0.0, lam_minus=0.0, n_max=4000)
    with pytest.raises(ValidationError, match="out of range"):
        interval_spectrum(p)


@pytest.mark.parametrize("half_length", [1e-300, 2e10])
def test_neumann_roots_at_extreme_half_lengths_are_each_found_once(half_length):
    """At L = 1e-300 the roots sit on grid nodes near k = 1e300, where one
    ulp is far above 1e-10; at L = 2e10 they lie less than 1e-10 apart.
    Either way every branch gives one root: k_n = (n0 + n) pi/(2L), where
    n0 counts the roots below the k floor."""
    p = SpectrumProblem(m=1.0, half_length=half_length, lam_plus=0.0, lam_minus=0.0, n_max=40)
    steps = np.asarray(interval_spectrum(p)) / (np.pi / (2.0 * half_length))
    n0 = round(steps[0]) - 1
    assert np.max(np.abs(steps - (n0 + np.arange(1, 41)))) < 1e-9 * (n0 + 40)


def test_bisection_follows_a_falling_phase(monkeypatch):
    """Each bracket is bisected in its cell's direction: with the phase
    mirrored to 2 pi K - phase, which crosses 2 pi n exactly where the
    phase crosses 2 pi (K - n), every cell falls and the roots stay put."""
    from todalab.scattering import spectrum

    p = SpectrumProblem(m=1.0, half_length=2.5, lam_plus=0.7, lam_minus=-0.3, n_max=30)
    rising = np.asarray(interval_spectrum(p))
    phase = spectrum._phase
    monkeypatch.setattr(spectrum, "_phase", lambda k, *args: 2.0 * np.pi * 64 - phase(k, *args))
    falling = np.asarray(interval_spectrum(p))
    assert np.max(np.abs(falling - rising) / rising) < 1e-12
