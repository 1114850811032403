"""Defect sewing conditions, conservation of E and P + U, and transmission."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from todalab.errors import StepFailure, ValidationError
from todalab.simulate import (
    FreeDefect,
    Grid1D,
    KleinGordon,
    SineGordon,
    SineGordonBacklund,
    constraint_residuals,
    diagnostics,
    evolve,
    init_soliton,
    init_wavepacket,
    line,
    step,
    with_defect,
)


@pytest.mark.parametrize(
    "defect",
    [FreeDefect(lam=0.8, m=1.0), SineGordonBacklund(lam=1.2, m=1.0, beta=1.0)],
)
def test_constraint_identities_on_random_samples(defect):
    """(1/2)(B_phi^2 - B_psi^2) = V - W holds to 1e-12 at 200 samples."""
    rng = np.random.default_rng(42)
    phi = rng.uniform(-3.0, 3.0, size=200)
    psi = rng.uniform(-3.0, 3.0, size=200)
    assert constraint_residuals(defect, phi, psi) < 1e-12


@pytest.mark.parametrize(
    "defect",
    [FreeDefect(lam=0.7, m=1.0), SineGordonBacklund(lam=0.9, m=1.0, beta=1.0)],
)
def test_analytic_derivatives_match_finite_differences(defect):
    rng = np.random.default_rng(1)
    eps = 1e-6
    for _ in range(10):
        phi, psi = rng.uniform(-2.0, 2.0, size=2)
        fd_phi = (defect.b_value(phi + eps, psi) - defect.b_value(phi - eps, psi)) / (2 * eps)
        fd_psi = (defect.b_value(phi, psi + eps) - defect.b_value(phi, psi - eps)) / (2 * eps)
        assert defect.b_phi(phi, psi) == pytest.approx(fd_phi, rel=1e-6, abs=1e-9)
        assert defect.b_psi(phi, psi) == pytest.approx(fd_psi, rel=1e-6, abs=1e-9)
        fd_pp = (defect.b_phi(phi + eps, psi) - defect.b_phi(phi - eps, psi)) / (2 * eps)
        fd_ps = (defect.b_phi(phi, psi + eps) - defect.b_phi(phi, psi - eps)) / (2 * eps)
        assert defect.b_phiphi(phi, psi) == pytest.approx(fd_pp, rel=1e-5, abs=1e-8)
        assert defect.b_phipsi(phi, psi) == pytest.approx(fd_ps, rel=1e-5, abs=1e-8)
        # b_psipsi is b_phiphi by construction: check it against b_psi itself
        fd_ss = (defect.b_psi(phi, psi + eps) - defect.b_psi(phi, psi - eps)) / (2 * eps)
        assert defect.b_psipsi(phi, psi) == pytest.approx(fd_ss, rel=1e-5, abs=1e-8)
        # U = f - g: U_phi = B_psi and U_psi = B_phi
        fd_u_phi = (defect.u_value(phi + eps, psi) - defect.u_value(phi - eps, psi)) / (2 * eps)
        fd_u_psi = (defect.u_value(phi, psi + eps) - defect.u_value(phi, psi - eps)) / (2 * eps)
        assert defect.b_psi(phi, psi) == pytest.approx(fd_u_phi, rel=1e-6, abs=1e-9)
        assert defect.b_phi(phi, psi) == pytest.approx(fd_u_psi, rel=1e-6, abs=1e-9)


def test_defect_parameter_must_be_nonzero():
    with pytest.raises(ValidationError, match="nonzero"):
        FreeDefect(lam=0.0, m=1.0)


def test_defect_model_mismatch_rejected():
    grid = Grid1D(-10.0, 10.0, 100)
    geom = with_defect(grid, FreeDefect(lam=0.5, m=1.0), sponge_fraction=0.0)
    state = init_wavepacket(geom, KleinGordon(m=1.0), k0=1.0, width=1.5, x0=-5.0, amplitude=0.05)
    with pytest.raises(ValidationError, match="matching"):
        step(state, KleinGordon(m=2.0), geom)
    with pytest.raises(ValidationError, match="KleinGordon"):
        step(state, SineGordon(m=1.0), geom)


def test_state_of_the_wrong_kind_is_refused():
    """A state fits only the geometry it was built on: a defect's two-sided
    row is one node longer than the grid, so a line state on a defect (which
    would run as a plain line with its defect silently dropped) and a defect
    row on a line are both refused by their shape."""
    model = SineGordon(m=1.0, beta=1.0)
    grid = Grid1D(-10.0, 10.0, 100)
    defect_geom = with_defect(grid, SineGordonBacklund(lam=1.0), sponge_fraction=0.0)
    line_geom = line(grid, sponge_fraction=0.0)
    cases = [
        (init_soliton(line_geom, model, velocity=0.5, x0=-3.0), defect_geom),
        (init_soliton(defect_geom, model, velocity=0.5, x0=-3.0), line_geom),
    ]
    for state, geom in cases:
        calls = [
            lambda: step(state, model, geom),
            lambda: evolve(state, model, geom, 50),
            lambda: diagnostics(state, model, geom),
        ]
        for call in calls:
            with pytest.raises(ValidationError, match="does not fit") as err:
                call()
            assert "\n" not in str(err.value)


def test_interface_must_sit_on_a_node():
    with pytest.raises(ValidationError, match="grid node"):
        with_defect(Grid1D(-10.3, 10.0, 100), FreeDefect(lam=0.5, m=1.0))


@pytest.mark.parametrize("x_min, x_max", [(-0.1, 9.9), (-9.9, 0.1)])
def test_interface_needs_two_cells_on_each_side(x_min, x_max):
    """The sewing stencils reach two nodes into each side: the geometry is
    refused when it is built, before anything steps or observes it."""
    with pytest.raises(ValidationError, match="at least two cells on each side"):
        with_defect(Grid1D(x_min, x_max, 100), FreeDefect(lam=0.5, m=1.0))


def test_free_defect_conserves_energy_and_p_plus_u():
    model = KleinGordon(m=1.0)
    grid = Grid1D(-40.0, 40.0, 2000)
    geom = with_defect(grid, FreeDefect(lam=0.5, m=1.0), sponge_fraction=0.0)
    state = init_wavepacket(geom, model, k0=1.0, width=4.0, x0=-20.0, amplitude=0.1)
    d0 = diagnostics(state, model, geom)
    n_steps = int(30.0 / grid.dt)
    drift_e = drift_pu = 0.0
    for k in range(n_steps):
        state = step(state, model, geom)
        if (k + 1) % 100 == 0:
            d = diagnostics(state, model, geom)
            drift_e = max(drift_e, abs(d.energy - d0.energy))
            drift_pu = max(drift_pu, abs(d.p_plus_u - d0.p_plus_u))
    assert drift_e / d0.energy < 1e-3
    assert drift_pu / d0.energy < 1e-3
    # plain P is not conserved across the crossing (the defect breaks
    # translation invariance)
    d_end = diagnostics(state, model, geom)
    assert abs(d_end.momentum - d0.momentum) > 10.0 * drift_pu


def test_free_defect_transmission_approaches_identity():
    """As lam -> 0 the transmitted field converges to the defect-free run."""
    model = KleinGordon(m=1.0)
    grid = Grid1D(-40.0, 40.0, 2000)
    ref_geom = line(grid, sponge_fraction=0.0)
    ref_state = init_wavepacket(ref_geom, model, k0=1.0, width=4.0, x0=-20.0, amplitude=0.1)
    n_steps = int(30.0 / grid.dt)
    ref, _ = evolve(ref_state, model, ref_geom, n_steps)
    errs = []
    for lam in (0.4, 0.2, 0.1):
        geom = with_defect(grid, FreeDefect(lam=lam, m=1.0), sponge_fraction=0.0)
        state = init_wavepacket(geom, model, k0=1.0, width=4.0, x0=-20.0, amplitude=0.1)
        out, _ = evolve(state, model, geom, n_steps)
        i0 = geom.interface_index
        errs.append(float(np.sqrt(np.mean((out.phi[0, i0 + 1 :] - ref.phi[0, i0:]) ** 2))))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 0.45 * errs[0]


def test_free_defect_energy_drift_is_second_order():
    """Total E (bulk + defect B) drift shrinks by about 4 under (h, dt)/2."""
    model = KleinGordon(m=1.0)

    def drift(n_cells):
        grid = Grid1D(-30.0, 30.0, n_cells)
        geom = with_defect(grid, FreeDefect(lam=0.6, m=1.0), sponge_fraction=0.0)
        state = init_wavepacket(geom, model, k0=1.0, width=3.0, x0=-12.0, amplitude=0.1)
        e0 = diagnostics(state, model, geom).energy
        worst = 0.0
        for k in range(int(20.0 / grid.dt)):
            state = step(state, model, geom)
            if (k + 1) % 25 == 0:
                worst = max(worst, abs(diagnostics(state, model, geom).energy - e0))
        return worst / e0

    coarse, fine = drift(600), drift(1200)
    assert 2.5 < coarse / fine < 6.0


def test_backlund_defect_conserves_charge_and_converged_conditions():
    """Kink crossing: E, P+U, and field + stored topological charge conserved;
    the converged interface values satisfy the sewing conditions."""
    m, beta, lam_d = 1.0, 1.0, 1.2
    model = SineGordon(m=m, beta=beta)
    grid = Grid1D(-40.0, 40.0, 3200)
    defect = SineGordonBacklund(lam=lam_d, m=m, beta=beta)
    geom = with_defect(grid, defect, sponge_fraction=0.0)
    state = init_soliton(geom, model, velocity=0.5, x0=-15.0)
    d0 = diagnostics(state, model, geom)
    h = grid.h
    n_steps = int(60.0 / grid.dt)
    cut = geom.interface_index + 1  # the two sides of the two-sided row
    worst_sew = 0.0
    for k in range(n_steps):
        prev = state
        state = step(state, model, geom)
        if (k + 1) % 400 == 0:
            # the converged interface values satisfy the trapezoidal form of
            # the two sewing conditions to the Newton tolerance
            dt = grid.dt
            old_phi, old_psi = prev.phi[0, :cut], prev.phi[0, cut:]
            new_phi, new_psi = state.phi[0, :cut], state.phi[0, cut:]
            d_phi_old = (3 * old_phi[-1] - 4 * old_phi[-2] + old_phi[-3]) / (2 * h)
            d_phi_new = (3 * new_phi[-1] - 4 * new_phi[-2] + new_phi[-3]) / (2 * h)
            d_psi_old = (-3 * old_psi[0] + 4 * old_psi[1] - old_psi[2]) / (2 * h)
            d_psi_new = (-3 * new_psi[0] + 4 * new_psi[1] - new_psi[2]) / (2 * h)
            rhs1 = 0.5 * (
                (d_psi_old - defect.b_psi(old_phi[-1], old_psi[0]))
                + (d_psi_new - defect.b_psi(new_phi[-1], new_psi[0]))
            )
            rhs2 = 0.5 * (
                (d_phi_old + defect.b_phi(old_phi[-1], old_psi[0]))
                + (d_phi_new + defect.b_phi(new_phi[-1], new_psi[0]))
            )
            r1 = (new_phi[-1] - old_phi[-1]) / dt - rhs1
            r2 = (new_psi[0] - old_psi[0]) / dt - rhs2
            worst_sew = max(worst_sew, abs(r1), abs(r2))
    d = diagnostics(state, model, geom)
    assert abs(d.energy - d0.energy) / d0.energy < 1e-3
    assert abs(d.p_plus_u - d0.p_plus_u) / d0.energy < 1e-3
    # total charge (field + defect storage) conserved exactly up to ends
    assert d.topological_charge == pytest.approx(d0.topological_charge, abs=1e-5)
    # this parameter choice converts the kink: the field charge flips while
    # the defect stores two units
    assert d.field_charge == pytest.approx(-1.0, abs=1e-2)
    assert worst_sew < 1e-8  # Newton tolerance, scaled by 1/dt


class _HostileDefect(SineGordonBacklund):
    """Wildly oscillatory sewing data in the (f, g) split, so every partial
    of B that the Newton solve reads sees it: no iteration can settle."""

    def df(self, s):
        return 1e6 * np.sin(1e6 * s)

    def dg(self, d):
        return 1e6 * np.cos(1e6 * d)


def test_newton_failure_raises_step_failure():
    """Non-convergence in 25 iterations reports failure with a state dump."""

    m, beta = 1.0, 1.0
    defect = _HostileDefect(lam=1.0, m=m, beta=beta)
    grid = Grid1D(-10.0, 10.0, 64)
    geom = with_defect(grid, defect, sponge_fraction=0.0)
    model = SineGordon(m=m, beta=beta)
    state = init_soliton(geom, model, velocity=0.5, x0=-3.0)
    with pytest.raises(StepFailure, match="Newton") as err:
        for _ in range(50):
            state = step(state, model, geom)
    assert set(err.value.state_dump) == {"t", "phi0", "psi0", "u_phi", "u_psi"}


# ---------------------------------------------------------------------------
# scalar and array evaluation of the defect potentials

_PAIR_METHODS = ("b_value", "b_phi", "b_psi", "b_grad", "b_phiphi", "b_psipsi", "b_phipsi", "u_value")
_field = st.floats(min_value=-50.0, max_value=50.0)
_lam = st.one_of(st.floats(min_value=-5.0, max_value=-0.1), st.floats(min_value=0.1, max_value=5.0))
_positive = st.floats(min_value=0.2, max_value=3.0)


def _make_defect(kind, lam, m, beta):
    return FreeDefect(lam=lam, m=m) if kind == "free" else SineGordonBacklund(lam=lam, m=m, beta=beta)


@given(st.sampled_from(["free", "backlund"]), _lam, _positive, _positive, _field, _field)
# x ** 2 through libm pow differs from x * x for this x (and for x / 2)
@example("free", 0.8, 1.0, 1.0, 25.163621, 0.0)
@settings(max_examples=200, deadline=None)
def test_scalar_defect_values_have_the_bits_of_one_element_arrays(kind, lam, m, beta, phi, psi):
    """The Newton solve evaluates on Python floats, the diagnostics on numpy
    scalars, the constraint check on arrays: all three give the same bits."""
    defect = _make_defect(kind, lam, m, beta)
    calls = [(name, (phi, psi)) for name in _PAIR_METHODS]
    calls += [("potential_left", (phi,)), ("potential_right", (psi,))]
    for name, args in calls:
        method = getattr(defect, name)
        # b_grad gives the pair (B_phi, B_psi); every other method one value
        want = _parts(method(*(np.array([a]) for a in args)))
        assert all(w.shape == (1,) for w in want)
        for scalars in (args, tuple(np.float64(a) for a in args)):
            got = _parts(method(*scalars))
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert np.ndim(g) == 0
                assert np.float64(g).tobytes() == w.tobytes(), (name, scalars)


def _parts(value):
    return value if isinstance(value, tuple) else (value,)


@pytest.mark.parametrize("pair", [(math.inf, 0.0), (0.0, -math.inf), (math.inf, math.inf)])
def test_b_grad_of_an_infinite_pair_is_nan_without_an_error(pair):
    """The scalar sine of +-inf is numpy's nan, not a math domain error, so a
    Newton solve that meets an infinite interface value fails as a StepFailure."""
    b_phi, b_psi = SineGordonBacklund(lam=1.0).b_grad(*pair)
    assert math.isnan(b_phi) and math.isnan(b_psi)


# The hand-written derivatives the (f, g) split replaced, kept as the
# reference whose bits the derived methods must reproduce.


def _ref_sin(x):
    return np.sin(x) if isinstance(x, np.ndarray) else math.sin(x)


def _ref_cos(x):
    return np.cos(x) if isinstance(x, np.ndarray) else math.cos(x)


class _HandWrittenFree:
    def __init__(self, lam, m):
        self.lam, self.m = lam, m

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


class _HandWrittenBacklund:
    def __init__(self, lam, m, beta):
        self.lam, self.m, self.beta = lam, m, beta

    def _pre(self):
        m, b, lam = self.m, self.beta, self.lam
        return 2.0 * m * lam / b**2, 2.0 * m / (b**2 * lam)

    def b_value(self, phi, psi):
        cf, cg = self._pre()
        b = self.beta
        return -cf * _ref_cos(b * (phi + psi) / 2.0) - cg * _ref_cos(b * (phi - psi) / 2.0)

    def b_phi(self, phi, psi):
        m, b, lam = self.m, self.beta, self.lam
        return (m * lam / b) * _ref_sin(b * (phi + psi) / 2.0) + (m / (b * lam)) * _ref_sin(
            b * (phi - psi) / 2.0
        )

    def b_psi(self, phi, psi):
        m, b, lam = self.m, self.beta, self.lam
        return (m * lam / b) * _ref_sin(b * (phi + psi) / 2.0) - (m / (b * lam)) * _ref_sin(
            b * (phi - psi) / 2.0
        )

    def b_phiphi(self, phi, psi):
        m, b, lam = self.m, self.beta, self.lam
        return (m * lam / 2.0) * _ref_cos(b * (phi + psi) / 2.0) + (m / (2.0 * lam)) * _ref_cos(
            b * (phi - psi) / 2.0
        )

    def b_psipsi(self, phi, psi):
        m, b, lam = self.m, self.beta, self.lam
        return (m * lam / b) * (b / 2.0) * _ref_cos(b * (phi + psi) / 2.0) - (
            m / (b * lam)
        ) * (-b / 2.0) * _ref_cos(b * (phi - psi) / 2.0)

    def b_phipsi(self, phi, psi):
        m, b, lam = self.m, self.beta, self.lam
        return (m * lam / 2.0) * _ref_cos(b * (phi + psi) / 2.0) - (m / (2.0 * lam)) * _ref_cos(
            b * (phi - psi) / 2.0
        )

    def u_value(self, phi, psi):
        cf, cg = self._pre()
        b = self.beta
        return -cf * _ref_cos(b * (phi + psi) / 2.0) + cg * _ref_cos(b * (phi - psi) / 2.0)

    def potential_left(self, phi):
        return (self.m**2 / self.beta**2) * (1.0 - _ref_cos(self.beta * phi))

    def potential_right(self, psi):
        return (self.m**2 / self.beta**2) * (1.0 - _ref_cos(self.beta * psi))


def _bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


@given(st.sampled_from(["free", "backlund"]), _lam, _positive, _positive, _field, _field)
@settings(max_examples=200, deadline=None)
def test_derived_defect_methods_have_the_bits_of_the_hand_written_forms(kind, lam, m, beta, phi, psi):
    """Every method derived from (f, g) gives the hand-written form's bits on
    floats and on one-element arrays, and b_grad those of (b_phi, b_psi).  b_psipsi is b_phiphi itself; the old
    separate form rounded differently, so it agrees to 1e-15 of
    |f''| + |g''| = max(|B_phiphi|, |B_phipsi|)."""
    defect = _make_defect(kind, lam, m, beta)
    ref = _HandWrittenFree(lam, m) if kind == "free" else _HandWrittenBacklund(lam, m, beta)
    assert type(defect).b_psipsi is type(defect).b_phiphi
    for a, b in ((phi, psi), (np.array([phi]), np.array([psi]))):
        for name in ("b_value", "b_phi", "b_psi", "b_phiphi", "b_phipsi", "u_value"):
            assert _bits(getattr(defect, name)(a, b)) == _bits(getattr(ref, name)(a, b)), name
        b_phi, b_psi = defect.b_grad(a, b)
        assert (_bits(b_phi), _bits(b_psi)) == (_bits(ref.b_phi(a, b)), _bits(ref.b_psi(a, b)))
        assert _bits(defect.potential_left(a)) == _bits(ref.potential_left(a))
        assert _bits(defect.potential_right(b)) == _bits(ref.potential_right(b))
        assert _bits(defect.b_psipsi(a, b)) == _bits(defect.b_phiphi(a, b))
        scale = max(abs(defect.b_phiphi(a, b)), abs(defect.b_phipsi(a, b)))
        assert abs(defect.b_psipsi(a, b) - ref.b_psipsi(a, b)) <= 1e-15 * scale


@given(st.sampled_from(["free", "backlund"]), _lam, _positive, _positive, _field, _field)
@settings(max_examples=200, deadline=None)
def test_defect_potential_identity_holds_on_random_samples(kind, lam, m, beta, phi, psi):
    """(1/2)(B_phi^2 - B_psi^2) = V(phi) - W(psi) to 1e-12 of the size of its terms."""
    defect = _make_defect(kind, lam, m, beta)
    b_phi2, b_psi2 = defect.b_phi(phi, psi) ** 2, defect.b_psi(phi, psi) ** 2
    v, w = defect.potential_left(phi), defect.potential_right(psi)
    scale = max(1.0, b_phi2, b_psi2, abs(v), abs(w))
    assert abs(0.5 * (b_phi2 - b_psi2) - (v - w)) <= 1e-12 * scale


def test_newton_failure_dump_holds_plain_floats():
    import json

    defect = _HostileDefect(lam=1.0, m=1.0, beta=1.0)
    geom = with_defect(Grid1D(-10.0, 10.0, 64), defect, sponge_fraction=0.0)
    model = SineGordon(m=1.0, beta=1.0)
    state = init_soliton(geom, model, velocity=0.5, x0=-3.0)
    with pytest.raises(StepFailure) as err:
        for _ in range(50):
            state = step(state, model, geom)
    dump = err.value.state_dump
    assert set(dump) == {"t", "phi0", "psi0", "u_phi", "u_psi"}
    assert all(type(v) is float for v in dump.values())
    assert json.loads(json.dumps(dump)).keys() == dump.keys()


def test_non_finite_interface_fails_the_newton_solve():
    """Fields are checked for finiteness only at observation points, so the
    Newton solve can meet an infinite interface value: it reports a
    StepFailure, not a math domain error from the scalar sine."""
    model = SineGordon(m=1.0, beta=1.0)
    geom = with_defect(Grid1D(-10.0, 10.0, 64), SineGordonBacklund(lam=1.0), sponge_fraction=0.0)
    state = init_soliton(geom, model, velocity=0.5, x0=-3.0)
    phi = state.phi.copy()
    phi[0, geom.interface_index] = np.inf  # the left side's interface entry
    hand_built = type(state)(t=0.0, phi=phi, pi=state.pi)
    with pytest.raises(StepFailure, match="Newton"), np.errstate(invalid="ignore"):
        step(hand_built, model, geom)
