"""Two-boundary quantization: exact cases, symmetry, completeness."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from todalab.errors import ValidationError
from todalab.scattering import SpectrumProblem, bound_state_frequency, interval_spectrum


def test_neumann_neumann_standing_waves():
    """R = 1 at both ends: k_n = n pi / (2L) to 1e-10 relative."""
    L = 5.0
    p = SpectrumProblem(m=1.0, half_length=L, lam_plus=0.0, lam_minus=0.0, n_max=6)
    roots = interval_spectrum(p)
    for n, k in enumerate(roots, start=1):
        assert abs(k - n * np.pi / (2.0 * L)) / (n * np.pi / (2.0 * L)) < 1e-10


def test_roots_strictly_increasing_and_complete():
    p = SpectrumProblem(m=1.0, half_length=5.0, lam_plus=0.5, lam_minus=0.25, n_max=8)
    roots = interval_spectrum(p)
    assert len(roots) == 8
    assert all(b > a for a, b in zip(roots, roots[1:]))
    # no skipped branch: consecutive roots are separated by about pi/(2L)
    gaps = np.diff(roots)
    assert np.all(gaps < 2.2 * np.pi / (2.0 * 5.0))
    assert np.all(gaps > 0.3 * np.pi / (2.0 * 5.0))


def test_equal_parameters_match_single_boundary_doubling():
    """lam+ = lam-: the condition factorizes into e^{2ikL} R = +-1 branches."""
    L, lam = 4.0, 0.6
    p = SpectrumProblem(m=1.0, half_length=L, lam_plus=lam, lam_minus=lam, n_max=6)
    roots = interval_spectrum(p)
    from todalab.scattering import free_reflection

    for k in roots:
        val = np.exp(2j * k * L) * free_reflection(k, lam)
        assert abs(val.imag) < 1e-8
        assert abs(abs(val.real) - 1.0) < 1e-8  # lands on the +1 or -1 branch


def test_spectrum_problem_validation():
    with pytest.raises(ValidationError):
        SpectrumProblem(m=1.0, half_length=-1.0, lam_plus=0.0, lam_minus=0.0, n_max=3)
    with pytest.raises(ValidationError):
        SpectrumProblem(m=-1.0, half_length=1.0, lam_plus=0.0, lam_minus=0.0, n_max=3)
    with pytest.raises(ValidationError):
        SpectrumProblem(m=1.0, half_length=1.0, lam_plus=0.0, lam_minus=0.0, n_max=0)


def test_bound_state_frequency_values():
    assert bound_state_frequency(1.0, -0.6) == pytest.approx(0.8)
    assert bound_state_frequency(1.0, -1e-9) == pytest.approx(1.0)
    with pytest.raises(ValidationError, match="-m < lam_b < 0"):
        bound_state_frequency(1.0, 0.3)
    with pytest.raises(ValidationError, match="-m < lam_b < 0"):
        bound_state_frequency(1.0, -1.2)


_lam = st.one_of(st.just(0.0), st.floats(min_value=-0.9, max_value=1.5))


@given(
    st.floats(min_value=1.0, max_value=10.0),
    _lam,
    _lam,
    st.integers(min_value=1, max_value=40),
)
@settings(max_examples=60, deadline=None)
def test_roots_close_the_quantization_condition(L, lam_plus, lam_minus, n_max):
    """Every root closes e^{4ikL} R_+ R_- = 1 with R = (ik+lam)/(ik-lam),
    and the roots come out strictly increasing."""
    p = SpectrumProblem(m=1.0, half_length=L, lam_plus=lam_plus, lam_minus=lam_minus, n_max=n_max)
    roots = interval_spectrum(p)
    assert len(roots) == n_max
    assert all(b > a for a, b in zip(roots, roots[1:]))
    for k in roots:
        r_plus = (1j * k + lam_plus) / (1j * k - lam_plus)
        r_minus = (1j * k + lam_minus) / (1j * k - lam_minus)
        assert abs(np.exp(4j * k * L) * r_plus * r_minus - 1.0) < 1e-9


_PINNED = json.loads((Path(__file__).parent / "data" / "interval_roots.json").read_text())


@pytest.mark.parametrize(
    "case", _PINNED, ids=lambda c: f"L={c['half_length']},{c['lambda_plus']},{c['lambda_minus']}"
)
def test_first_roots_match_the_unwrapping_solver(case):
    """The first 50 roots agree to 1e-11 relative with those of the earlier
    solver, which unwrapped the numerically evaluated phase of R_+ R_- and
    bisected; the pinned values were computed with it."""
    p = SpectrumProblem(
        m=1.0,
        half_length=case["half_length"],
        lam_plus=case["lambda_plus"],
        lam_minus=case["lambda_minus"],
        n_max=len(case["roots"]),
    )
    roots = np.asarray(interval_spectrum(p))
    pinned = np.asarray(case["roots"])
    assert np.max(np.abs(roots - pinned) / pinned) <= 1e-11


@pytest.mark.parametrize("direction", [np.inf, -np.inf])
def test_crossing_on_a_grid_node_survives_grid_rounding(monkeypatch, direction):
    """With L = 1e9 pi/40 the grid step is 1e-9 and every Neumann root
    k_n = n pi/(2L) sits on a grid node, where the phase may land a last bit
    above or below 2 pi n; a one-ulp shift of the phase must not lose or
    break those roots."""
    from todalab.scattering import spectrum

    phase = spectrum._phase

    def grid_shifted(k, *args):
        value = phase(k, *args)
        return np.nextafter(value, direction) if isinstance(k, np.ndarray) else value

    monkeypatch.setattr(spectrum, "_phase", grid_shifted)
    L = 1e9 * np.pi / 40.0
    roots = interval_spectrum(SpectrumProblem(m=1.0, half_length=L, lam_plus=0.0, lam_minus=0.0, n_max=4))
    expected = np.arange(1, 5) * np.pi / (2.0 * L)
    assert np.max(np.abs(np.asarray(roots) - expected) / expected) < 1e-12


@pytest.mark.parametrize("L", [1e9, 1e300])
def test_neumann_roots_from_the_first_at_a_huge_half_length(L):
    """The k floor follows the grid step pi/(40 L): with a fixed floor of
    1e-9 and the near-zero cut at 1e-8, L = 1e9 started at root 7,
    7 pi/(2L), and L = 1e300 was refused."""
    roots = np.asarray(interval_spectrum(SpectrumProblem(m=1.0, half_length=L, lam_plus=0.0, lam_minus=0.0, n_max=6)))
    expected = np.arange(1, 7) * np.pi / (2.0 * L)
    assert np.max(np.abs(roots - expected) / expected) < 1e-12
