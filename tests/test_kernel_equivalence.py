"""The planned, force-reusing step and the buffered diagnostics against the
plain two-force velocity-Verlet step and the np.gradient/np.trapezoid
diagnostics they replace: same arithmetic in the same order, so the
results must be equal bit for bit."""

import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from todalab.algebra import build_root_system
from todalab.errors import StepFailure, ValidationError
from todalab.simulate import stepper
from todalab.simulate.diagnostics import _ObservePlan, _Segment
from todalab.simulate import (
    AffineToda,
    Diagnostics,
    FieldState,
    FreeDefect,
    Grid1D,
    KleinGordon,
    Neumann,
    Robin,
    SineGordon,
    SineGordonBacklund,
    SinhGordon,
    TodaBoundary,
    diagnostics,
    evolve,
    half_line,
    init_boundary_mode,
    init_cosine,
    init_gaussian,
    init_soliton,
    init_vacuum,
    init_wavepacket,
    interval,
    line,
    periodic_line,
    step,
    toda_units,
    with_defect,
)

# ---------------------------------------------------------------------------
# oracle: the two-force step and the unbuffered diagnostics


def _sponge_profile(geometry):
    frac = geometry.sponge_fraction
    if frac <= 0.0:
        return None
    x = geometry.x
    width = frac * (geometry.grid.x_max - geometry.grid.x_min)
    sigma = np.zeros_like(x)
    if geometry.kind in ("line", "defect"):
        ends = ("left", "right")
    elif geometry.kind == "halfline":
        ends = ("left",)
    else:
        return None
    # d clamped at 1: np.where discards the nodes past the sponge, whose
    # square could overflow
    if "left" in ends:
        d = np.minimum((x - geometry.grid.x_min) / width, 1.0)
        sigma = np.where(d < 1.0, geometry.sponge_strength * (1.0 - d) ** 2, sigma)
    if "right" in ends:
        d = np.minimum((geometry.grid.x_max - x) / width, 1.0)
        sigma = np.where(d < 1.0, geometry.sponge_strength * (1.0 - d) ** 2, sigma)
    return np.exp(-sigma * geometry.grid.dt)


def _toda_data(boundary, model):
    rs, m_t, beta_t = toda_units(model)
    return np.asarray(boundary.b, dtype=float), rs.affine_rootspace, m_t, beta_t


def _boundary_db(boundary, model, phi_b):
    """dB at the boundary values phi_b, in array arithmetic."""
    if isinstance(boundary, Neumann):
        return np.zeros_like(phi_b)
    if isinstance(boundary, Robin):
        return boundary.lam * phi_b - boundary.offset
    b, alpha, m_t, beta_t = _toda_data(boundary, model)
    scale = m_t / (2.0 * beta_t)
    exps = np.exp(beta_t * (alpha @ phi_b) / 2.0)
    return scale * (alpha.T @ (b * exps))


def _boundary_energy(boundary, model, phi_b):
    """B at the boundary values phi_b, in array arithmetic."""
    if isinstance(boundary, Neumann):
        return 0.0
    if isinstance(boundary, Robin):
        return float(np.sum(0.5 * boundary.lam * phi_b**2 - boundary.offset * phi_b))
    b, alpha, m_t, beta_t = _toda_data(boundary, model)
    exps = np.exp(beta_t * (alpha @ phi_b) / 2.0)
    return float((m_t / beta_t**2) * np.dot(b, exps))


def _laplacian(phi, geometry, model):
    h = geometry.grid.h
    lap = np.empty_like(phi)
    if geometry.kind == "periodic":
        lap[:] = (np.roll(phi, -1, axis=-1) - 2.0 * phi + np.roll(phi, 1, axis=-1)) / h**2
        return lap
    lap[..., 1:-1] = (phi[..., 2:] - 2.0 * phi[..., 1:-1] + phi[..., :-2]) / h**2
    left = geometry.left if geometry.kind == "interval" else None
    right = geometry.right if geometry.kind in ("interval", "halfline") else None
    db_left = _boundary_db(left, model, phi[..., 0]) if left is not None else 0.0
    db_right = _boundary_db(right, model, phi[..., -1]) if right is not None else 0.0
    lap[..., 0] = (2.0 * phi[..., 1] - 2.0 * phi[..., 0] - 2.0 * h * db_left) / h**2
    lap[..., -1] = (2.0 * phi[..., -2] - 2.0 * phi[..., -1] - 2.0 * h * db_right) / h**2
    return lap


def _force(phi, geometry, model):
    return _laplacian(phi, geometry, model) - model.gradient(phi)


def _interior_force(phi, model, h, fixed_end):
    lap = np.empty_like(phi)
    lap[1:-1] = (phi[2:] - 2.0 * phi[1:-1] + phi[:-2]) / h**2
    if fixed_end == "right":
        lap[0] = (2.0 * phi[1] - 2.0 * phi[0]) / h**2
        lap[-1] = 0.0
    else:
        lap[-1] = (2.0 * phi[-2] - 2.0 * phi[-1]) / h**2
        lap[0] = 0.0
    return lap - model.gradient(phi[None, :])[0]


def _sides(state, geometry):
    """Copies of (phi, pi_phi, psi, pi_psi), the two sides of a defect
    state's two-sided row, split at ``geometry.interface_index``."""
    cut = geometry.interface_index + 1
    row, pi = state.phi[0], state.pi[0]
    return row[:cut].copy(), pi[:cut].copy(), row[cut:].copy(), pi[cut:].copy()


def _two_sided(t, phi, pi_phi, psi, pi_psi):
    """The defect state whose two-sided row joins the two sides."""
    row, pi = np.concatenate([phi, psi]), np.concatenate([pi_phi, pi_psi])
    return FieldState(t=t, phi=row[None, :], pi=pi[None, :])


def oracle_step(state, model, geometry, newton=None):
    """The two-force step.  On a defect, ``newton`` (a list) gets the step's
    (Newton iterations, line-search trials, exhausted line searches)."""
    if geometry.kind == "defect":
        return _oracle_defect_step(state, model, geometry, newton)
    dt = geometry.grid.dt
    phi, pi = state.phi, state.pi
    pi_half = pi + 0.5 * dt * _force(phi, geometry, model)
    phi_new = phi + dt * pi_half
    pi_new = pi_half + 0.5 * dt * _force(phi_new, geometry, model)
    damp = _sponge_profile(geometry)
    if damp is not None:
        pi_new = pi_new * damp
    return FieldState(t=state.t + dt, phi=phi_new, pi=pi_new)


def _oracle_defect_step(state, model, geometry, newton=None):
    defect = geometry.defect
    defect.validate_model(model)
    dt = geometry.grid.dt
    h = geometry.grid.h
    phi, pi_phi, psi, pi_psi = _sides(state, geometry)
    phi0_old, psi0_old = phi[-1], psi[0]
    dphi_old = (3.0 * phi[-1] - 4.0 * phi[-2] + phi[-3]) / (2.0 * h)
    dpsi_old = (-3.0 * psi[0] + 4.0 * psi[1] - psi[2]) / (2.0 * h)
    f_phi = _interior_force(phi, model, h, fixed_end="right")
    f_psi = _interior_force(psi, model, h, fixed_end="left")
    pi_phi[:-1] += 0.5 * dt * f_phi[:-1]
    pi_psi[1:] += 0.5 * dt * f_psi[1:]
    phi[:-1] += dt * pi_phi[:-1]
    psi[1:] += dt * pi_psi[1:]
    rhs_phi = phi0_old + 0.5 * dt * (dpsi_old - defect.b_psi(phi0_old, psi0_old))
    rhs_psi = psi0_old + 0.5 * dt * (dphi_old + defect.b_phi(phi0_old, psi0_old))
    dphi_known = (-4.0 * phi[-2] + phi[-3]) / (2.0 * h)
    dpsi_known = (4.0 * psi[1] - psi[2]) / (2.0 * h)
    cp, cm = 3.0 / (2.0 * h), -3.0 / (2.0 * h)
    u_phi, u_psi = phi0_old, psi0_old
    scale = max(1.0, abs(rhs_phi), abs(rhs_psi))
    converged = False
    iters = trials = exhausted = 0
    for _ in range(25):
        g1 = u_phi - 0.5 * dt * ((dpsi_known + cm * u_psi) - defect.b_psi(u_phi, u_psi)) - rhs_phi
        g2 = u_psi - 0.5 * dt * ((dphi_known + cp * u_phi) + defect.b_phi(u_phi, u_psi)) - rhs_psi
        res = max(abs(g1), abs(g2))
        if res < 1e-12 * scale:
            converged = True
            break
        iters += 1
        j11 = 1.0 + 0.5 * dt * defect.b_phipsi(u_phi, u_psi)
        j12 = -0.5 * dt * (cm - defect.b_psipsi(u_phi, u_psi))
        j21 = -0.5 * dt * (cp + defect.b_phiphi(u_phi, u_psi))
        j22 = 1.0 - 0.5 * dt * defect.b_phipsi(u_phi, u_psi)
        det = j11 * j22 - j12 * j21
        if det == 0.0 or not np.isfinite(det):
            break
        du_phi = -(j22 * g1 - j12 * g2) / det
        du_psi = -(-j21 * g1 + j11 * g2) / det
        lam = 1.0
        for _ in range(8):
            trials += 1
            t_phi, t_psi = u_phi + lam * du_phi, u_psi + lam * du_psi
            n1 = t_phi - 0.5 * dt * ((dpsi_known + cm * t_psi) - defect.b_psi(t_phi, t_psi)) - rhs_phi
            n2 = t_psi - 0.5 * dt * ((dphi_known + cp * t_phi) + defect.b_phi(t_phi, t_psi)) - rhs_psi
            if max(abs(n1), abs(n2)) < res:
                break
            lam *= 0.5
        else:
            exhausted += 1
        u_phi += lam * du_phi
        u_psi += lam * du_psi
    if newton is not None:
        newton.append((iters, trials, exhausted))
    assert converged
    phi[-1], psi[0] = u_phi, u_psi
    f_phi = _interior_force(phi, model, h, fixed_end="right")
    f_psi = _interior_force(psi, model, h, fixed_end="left")
    pi_phi[:-1] += 0.5 * dt * f_phi[:-1]
    pi_psi[1:] += 0.5 * dt * f_psi[1:]
    pi_phi[-1] = (dpsi_known + cm * u_psi) - defect.b_psi(u_phi, u_psi)
    pi_psi[0] = (dphi_known + cp * u_phi) + defect.b_phi(u_phi, u_psi)
    damp = _sponge_profile(geometry)
    if damp is not None:
        i0 = geometry.interface_index
        pi_phi *= damp[: i0 + 1]
        pi_psi *= damp[i0:]
    return _two_sided(state.t + dt, phi, pi_phi, psi, pi_psi)


def _gradient_x(arr, h, periodic):
    if periodic:
        return (np.roll(arr, -1, axis=-1) - np.roll(arr, 1, axis=-1)) / (2.0 * h)
    return np.gradient(arr, h, axis=-1)


def _trapz(values, h, periodic):
    if periodic:
        return float(np.sum(values) * h)
    return float(np.trapezoid(values, dx=h))


def oracle_diagnostics(state, model, geometry, probes=()):
    h = geometry.grid.h
    periodic = geometry.kind == "periodic"
    beta = getattr(model, "beta", 0.0)
    x = geometry.x
    if geometry.kind == "defect":
        defect = geometry.defect
        i0 = geometry.interface_index
        phi, pi_phi, psi, pi_psi = _sides(state, geometry)
        e = p = 0.0
        for arr, pi in ((phi, pi_phi), (psi, pi_psi)):
            grad = _gradient_x(arr, h, periodic=False)
            dens = 0.5 * pi**2 + 0.5 * grad**2 + model.potential(arr[None, :])
            e += _trapz(dens, h, periodic=False)
            p += _trapz(pi * grad, h, periodic=False)
        phi0, psi0 = phi[-1], psi[0]
        e += float(defect.b_value(phi0, psi0))
        u = float(defect.u_value(phi0, psi0))
        if beta:
            coeff = beta / (2.0 * np.pi)
            field_charge = coeff * ((phi0 - phi[0]) + (psi[-1] - psi0))
            total_charge = coeff * (psi[-1] - phi[0])
        else:
            field_charge = total_charge = 0.0
        probe_vals = []
        for px in probes:
            if px < 0:
                probe_vals.append(float(phi[int(np.argmin(np.abs(x[: i0 + 1] - px)))]))
            else:
                probe_vals.append(float(psi[int(np.argmin(np.abs(x[i0:] - px)))]))
        return Diagnostics(state.t, e, p, u, p + u, total_charge, field_charge, tuple(probe_vals))
    phi, pi = state.phi, state.pi
    grad = _gradient_x(phi, h, periodic)
    dens = 0.5 * np.sum(pi**2, axis=0) + 0.5 * np.sum(grad**2, axis=0) + model.potential(phi)
    e = _trapz(dens, h, periodic)
    p = _trapz(np.sum(pi * grad, axis=0), h, periodic)
    if geometry.kind in ("interval", "halfline"):
        if geometry.right is not None:
            e += _boundary_energy(geometry.right, model, phi[:, -1])
        if geometry.kind == "interval" and geometry.left is not None:
            e += _boundary_energy(geometry.left, model, phi[:, 0])
    charge = 0.0
    if beta and not periodic:
        charge = float(beta / (2.0 * np.pi) * (phi[0, -1] - phi[0, 0]))
    probe_vals = tuple(float(phi[0, int(np.argmin(np.abs(x - px)))]) for px in probes)
    return Diagnostics(state.t, e, p, 0.0, p, charge, charge, probe_vals)


# ---------------------------------------------------------------------------
# cases


def _a2_state(geometry):
    x = geometry.x
    span = x[-1] - x[0]
    phi = np.stack([0.2 * np.cos(2 * np.pi * x / span), 0.15 * np.sin(4 * np.pi * x / span)])
    return FieldState(t=0.0, phi=phi, pi=0.05 * np.cos(np.pi * x / span) * np.ones_like(phi))


# a sponge on every kind of geometry: it damps only the open ends, so the
# periodic and interval runs step as without it
_SPONGED = {
    "periodic-sponge": "periodic",
    "halfline-robin-sponge": "halfline-robin",
    "interval-sponge": "interval-robin",
}


def _case(name):
    if name in _SPONGED:
        model, geom, state = _case(_SPONGED[name])
        return model, replace(geom, sponge_fraction=0.15), state
    if name == "periodic":
        geom = periodic_line(Grid1D(0.0, 16.0, 128))
        model = SinhGordon(m=1.0, beta=1.0)
        return model, geom, init_cosine(geom, model, amplitude=0.3, mode=1, amplitude2=0.15, mode2=2)
    if name == "line-sponge":
        geom = line(Grid1D(-20.0, 20.0, 400), sponge_fraction=0.2)
        model = KleinGordon(m=1.0)
        return model, geom, init_wavepacket(geom, model, k0=2.0, width=2.0, x0=8.0, amplitude=0.1)
    if name == "halfline-robin":
        geom = half_line(Grid1D(-20.0, 0.0, 400), right=Robin(lam=-0.6))
        model = KleinGordon(m=1.0)
        return model, geom, init_boundary_mode(geom, model, lambda_b=-0.6, amplitude=0.05)
    if name == "halfline-toda-sinh":
        model = SinhGordon(m=2.0, beta=np.sqrt(2.0))
        geom = half_line(Grid1D(-12.0, 0.0, 240), right=TodaBoundary(b=(0.7, 0.7)))
        return model, geom, init_gaussian(geom, model, amplitude=0.1, width=0.8, x0=-2.0)
    if name == "halfline-toda-a2":
        model = AffineToda(rs=build_root_system("A", 2), m=1.0, beta=0.7)
        geom = half_line(Grid1D(-12.0, 0.0, 240), right=TodaBoundary(b=(0.5, -0.3, 0.4)))
        return model, geom, _a2_state(geom)
    if name == "interval-robin":
        right = Robin(lam=0.5, offset=0.01)
        geom = interval(Grid1D(-5.0, 5.0, 200), left=Robin(lam=0.25), right=right)
        model = KleinGordon(m=1.0)
        return model, geom, init_gaussian(geom, model, amplitude=0.1, width=0.8, x0=0.7)
    if name == "defect-free":
        model = KleinGordon(m=1.0)
        defect = FreeDefect(lam=0.7, m=1.0)
        geom = with_defect(Grid1D(-20.0, 20.0, 400), defect, sponge_fraction=0.1)
        return model, geom, init_wavepacket(geom, model, k0=1.5, width=2.0, x0=-4.0, amplitude=0.1)
    if name == "defect-backlund":
        model = SineGordon(m=1.0, beta=1.0)
        defect = SineGordonBacklund(lam=1.2, m=1.0, beta=1.0)
        geom = with_defect(Grid1D(-16.0, 16.0, 256), defect, sponge_fraction=0.0)
        return model, geom, init_soliton(geom, model, velocity=0.5, x0=-4.0)
    if name == "defect-backlund-off-centre":  # unequal halves: 101 nodes left, 301 right
        model = SineGordon(m=1.0, beta=1.0)
        defect = SineGordonBacklund(lam=0.9, m=1.0, beta=1.0)
        geom = with_defect(Grid1D(-10.0, 30.0, 400), defect, sponge_fraction=0.1)
        return model, geom, init_soliton(geom, model, velocity=0.4, x0=-3.0)
    if name == "defect-free-hand-built":  # the two sides jump at x = 0
        model = KleinGordon(m=1.0)
        geom = with_defect(Grid1D(-20.0, 20.0, 400), FreeDefect(lam=0.7, m=1.0), sponge_fraction=0.1)
        i0 = geom.interface_index
        xl, xr = geom.x[: i0 + 1], geom.x[i0:]
        state = _two_sided(
            0.0,
            phi=0.1 * np.exp(-((xl + 3.0) ** 2)),
            pi_phi=0.05 * np.sin(xl) * np.exp(-((xl + 3.0) ** 2)),
            psi=0.08 * np.exp(-((xr - 2.0) ** 2)),
            pi_psi=np.zeros_like(xr),
        )
        return model, geom, state
    raise KeyError(name)


CASES = [
    "periodic",
    "periodic-sponge",
    "line-sponge",
    "halfline-robin",
    "halfline-robin-sponge",
    "halfline-toda-sinh",
    "halfline-toda-a2",
    "interval-robin",
    "interval-sponge",
    "defect-free",
    "defect-backlund",
    "defect-backlund-off-centre",
    "defect-free-hand-built",
]


def _assert_same_state(a, b):
    assert type(a) is type(b)
    assert a.t == b.t
    for x, y in ((a.phi, b.phi), (a.pi, b.pi)):
        assert x.shape == y.shape
        assert np.array_equal(x, y)


def _assert_same_diagnostics(state, ref, model, geom, probes):
    got = diagnostics(state, model, geom, probes)
    assert got == oracle_diagnostics(ref, model, geom, probes)


def _assert_same_sponge(geom):
    got, want = stepper._sponge_profile(geom), _sponge_profile(geom)
    if geom.kind in ("periodic", "interval"):
        assert got is None
    if want is None:
        assert got is None
        return
    if geom.kind == "defect":  # the oracle's profile on x, the step's on state_x
        i0 = geom.interface_index
        want = np.concatenate([want[: i0 + 1], want[i0:]])
    assert np.array_equal(got, want)


@pytest.mark.parametrize("name", CASES)
def test_step_and_diagnostics_match_two_force_oracle(name):
    model, geom, state = _case(name)
    _assert_same_sponge(geom)
    lo, hi = geom.grid.x_min, geom.grid.x_max
    h = geom.grid.h
    # x = 0 and +-h/3 pin the side a defect probe reads, x_min - h the
    # probe left of every node
    probes = (lo + 0.25 * (hi - lo), lo + 0.75 * (hi - lo), hi, 0.0, h / 3, -h / 3, lo - h)
    ref = state
    for k in range(300):
        state = step(state, model, geom)
        ref = oracle_step(ref, model, geom)
        if k % 50 == 49:
            _assert_same_diagnostics(state, ref, model, geom, probes)
    _assert_same_state(state, ref)
    _assert_same_diagnostics(state, ref, model, geom, probes)


def test_step_results_are_read_only_and_step_on_like_the_oracle():
    model, geom, state = _case("halfline-robin")
    out = step(state, model, geom)
    for arr in (out.phi, out.pi):
        assert not arr.flags.writeable  # the plan's reused half-kick stays that of these fields
    ref = oracle_step(oracle_step(state, model, geom), model, geom)
    _assert_same_state(step(out, model, geom), ref)


def test_a_field_state_is_its_cauchy_data_and_read_only():
    phi, pi = np.zeros((1, 8)), np.ones((1, 8))
    state = FieldState(t=0.5, phi=phi, pi=pi)
    assert [f.name for f in fields(FieldState)] == ["t", "phi", "pi"]
    assert state.phi is phi and state.pi is pi  # no copy
    for arr in (state.phi, state.pi):
        with pytest.raises(ValueError):
            arr[0, 0] = 2.0


@pytest.mark.parametrize("swap", ["model", "geometry"])
def test_force_is_recomputed_under_another_plan(swap):
    """The last state of the (model, geometry) plan, stepped under a
    different one, must match a step from a fresh copy of it."""
    model, geom, state = _case("halfline-robin")
    other_model, other_geom = model, geom
    if swap == "model":
        other_model = KleinGordon(m=0.8)
    else:
        other_geom = half_line(geom.grid, right=Robin(lam=-0.3))
    last = step(state, model, geom)
    fresh = FieldState(t=last.t, phi=last.phi.copy(), pi=last.pi.copy())
    out = step(last, other_model, other_geom)
    _assert_same_state(out, step(fresh, other_model, other_geom))
    _assert_same_state(out, oracle_step(fresh, other_model, other_geom))


def test_defect_force_is_recomputed_under_another_plan():
    model, geom, state = _case("defect-backlund")
    defect = SineGordonBacklund(lam=0.9, m=1.0, beta=1.0)
    other = with_defect(geom.grid, defect, sponge_fraction=0.0)
    last = step(state, model, geom)
    fresh = FieldState(t=last.t, phi=last.phi.copy(), pi=last.pi.copy())
    _assert_same_state(step(last, model, other), oracle_step(fresh, model, other))


def test_evolve_history_matches_oracle_snapshots():
    model, geom, state = _case("periodic")
    out, history = evolve(state, model, geom, 64, save_every=16)
    ref, times, snaps = state, [state.t], [state.phi.copy()]
    for k in range(64):
        ref = oracle_step(ref, model, geom)
        if (k + 1) % 16 == 0:
            times.append(ref.t)
            snaps.append(ref.phi.copy())
    _assert_same_state(out, ref)
    assert list(history.times) == times
    assert np.array_equal(history.phi, np.asarray(snaps))


def test_non_finite_state_raises_step_failure_with_first_node():
    phi = np.zeros((1, 20))
    phi[0, 7] = np.nan
    state = FieldState(t=1.5, phi=phi, pi=np.zeros((1, 20)))
    with pytest.raises(StepFailure) as err:
        state.check_finite()
    assert err.value.state_dump["t"] == 1.5
    assert err.value.state_dump["field"] == "phi"
    assert err.value.state_dump["node"] == 7


# ---------------------------------------------------------------------------
# the two-sided defect layout


def test_defect_step_results_are_read_only_views_of_two_sided_arrays():
    model, geom, state = _case("defect-backlund")
    out = step(state, model, geom)
    assert out.phi.shape == out.pi.shape == (1, len(geom.state_x))
    cut = geom.interface_index + 1
    for arr in (out.phi, out.pi):
        for side in (arr[0, :cut], arr[0, cut:]):
            assert np.shares_memory(side, arr)
            assert not side.flags.writeable
            with pytest.raises(ValueError):
                side[0] = 1.0
    ref = oracle_step(oracle_step(state, model, geom), model, geom)
    _assert_same_state(step(out, model, geom), ref)
    # the one force is the two half-domain forces side by side
    h = geom.grid.h
    phi, _, psi, _ = _sides(out, geom)
    halves = [_interior_force(phi, model, h, "right"), _interior_force(psi, model, h, "left")]
    force = stepper._StepPlan(model, geom).force(out.phi)
    assert np.array_equal(force, np.concatenate(halves)[None, :])


@pytest.mark.parametrize("name", ["halfline-robin", "halfline-toda-a2", "defect-backlund"])
def test_step_and_observe_scratch_is_64_byte_aligned(name):
    """Where the heap puts a plan's long-lived buffers must not decide how
    fast the loops over them run."""
    model, geom, state = _case(name)
    plan = stepper._StepPlan(model, geom)
    buffers = [plan.phi, plan.pi, plan.kick, plan.grad, plan.roots]
    segments = _ObservePlan(model, geom, state, ()).segments + [_Segment(model, None, 7, geom.grid.h, False)]
    for seg in segments:
        buffers += [seg.grad, seg.work, seg.pot, seg.roots, seg.dens, seg.flux, *seg.pair, seg.sums]
    for buf in buffers:
        if buf is not None:  # ``work`` of a one-component field, ``roots`` of a model without roots
            assert buf.ctypes.data % 64 == 0


@pytest.mark.parametrize("name", ["periodic", "halfline-robin", "interval-robin", "defect-backlund", "halfline-toda-a2"])
def test_an_observation_allocates_less_than_one_row(name):
    """Every array ``diagnostics`` writes belongs to its plan: a second
    observation of a 4000-cell state allocates less than one row's bytes
    at its peak."""
    model, geom, _ = _case(name)
    geom = replace(geom, grid=replace(geom.grid, n_cells=4000))
    x = geom.state_x
    phi = np.stack([0.1 * np.cos(x + c) for c in range(model.n_components)])
    state = FieldState(t=0.0, phi=phi, pi=0.05 * np.sin(x) * np.ones_like(phi))
    lo, hi = geom.grid.x_min, geom.grid.x_max
    probes = (lo, 0.5 * (lo + hi), hi)
    first = diagnostics(state, model, geom, probes)
    tracemalloc.start()
    try:
        again = diagnostics(state, model, geom, probes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert again == first == oracle_diagnostics(state, model, geom, probes)
    assert peak < 8 * len(x)


@pytest.mark.parametrize("rank", [2, 3])
def test_a_toda_force_allocates_less_than_one_row(rank):
    """The step plan owns the buffers of an affine Toda gradient, its root
    exponentials included: a second force evaluation on a 4000-cell A_r
    half-line allocates less than one row's bytes at its peak."""
    model = AffineToda(rs=build_root_system("A", rank), m=1.0, beta=0.7)
    b = (0.5, -0.3, 0.4, 0.2)[: rank + 1]
    geom = half_line(Grid1D(-12.0, 0.0, 4000), right=TodaBoundary(b=b))
    x = geom.state_x
    phi = np.stack([0.2 * np.cos(x + c) for c in range(rank)])
    plan = stepper._StepPlan(model, geom)
    first = plan.force(phi).copy()
    tracemalloc.start()
    try:
        again = plan.force(phi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert again.tobytes() == first.tobytes() == _force(phi, geom, model).tobytes()
    assert peak < 8 * len(x)


def test_a_non_finite_initial_state_is_refused_before_any_observer():
    model, geom, state = _case("periodic")
    phi = state.phi.copy()
    phi[0, 3] = np.inf
    seen = []
    with pytest.raises(ValidationError, match=r"initial state: non-finite field values at t=0.0 \(first at phi\[0, 3\]\)"):
        stepper._drive(FieldState(t=0.0, phi=phi, pi=state.pi), model, geom, 5, [(1, True, seen.append)])
    assert seen == []


@pytest.mark.parametrize("name", ["line-sponge", "defect-backlund-off-centre"])
def test_half_kick_is_reused_only_from_the_plans_last_state(name):
    model, geom, state = _case(name)
    ref1 = oracle_step(state, model, geom)
    ref2 = oracle_step(ref1, model, geom)
    ref3 = oracle_step(ref2, model, geom)
    s1 = step(state, model, geom)
    s2 = step(s1, model, geom)  # continues from the plan's last state
    s2_again = step(s1, model, geom)  # s2 came after s1
    s3 = step(s2, model, geom)  # s2_again came after s2
    for got, ref in ((s2, ref2), (s2_again, ref2), (s3, ref3)):
        _assert_same_state(got, ref)


# ---------------------------------------------------------------------------
# the in-place contract: a run steps the plan's buffers, no caller keeps them


def _oracle_run(state, model, geom, n_steps):
    states = [state]
    for _ in range(n_steps):
        states.append(oracle_step(states[-1], model, geom))
    return states


@pytest.mark.parametrize("name", ["halfline-toda-a2", "defect-backlund-off-centre"])
def test_snapshots_equal_the_oracle_and_never_alias_the_live_buffers(name):
    model, geom, state = _case(name)
    plan = stepper._plan(model, geom)
    seen = []

    def views(s):  # a stepped state is a read-only view of the plan's buffers
        seen.append(s.t)
        if s.t > 0.0:
            assert np.shares_memory(s.phi, plan.phi) and np.shares_memory(s.pi, plan.pi)
            assert not (s.phi.flags.writeable or s.pi.flags.writeable)

    snaps = stepper._Snapshots()
    out = stepper._drive(state, model, geom, 40, [(5, False, snaps), (5, False, views)])
    assert len(seen) == len(snaps.times) == 9
    for row in snaps.phi + snaps.pi:
        assert not np.shares_memory(row, plan.phi) and not np.shares_memory(row, plan.pi)
    refs = _oracle_run(state, model, geom, 40)[::5]
    for t, phi, pi, ref in zip(snaps.times, snaps.phi, snaps.pi, refs):
        _assert_same_state(FieldState(t, phi, pi), ref)
    _assert_same_state(out, refs[-1])
    _, history = evolve(state, model, geom, 40, save_every=5)
    assert np.array_equal(history.phi, np.asarray([r.phi for r in refs]))
    assert np.array_equal(history.pi, np.asarray([r.pi for r in refs]))


@pytest.mark.parametrize("name", ["line-sponge", "defect-free"])
def test_returned_states_keep_their_bytes_after_a_later_run(name):
    model, geom, state = _case(name)
    stepped = step(state, model, geom)
    evolved, _ = evolve(state, model, geom, 25)
    before = [arr.tobytes() for s in (stepped, evolved) for arr in (s.phi, s.pi)]
    other = FieldState(t=0.0, phi=0.5 * state.phi, pi=state.pi.copy())
    evolve(other, model, geom, 30, save_every=3)
    step(other, model, geom)
    assert [arr.tobytes() for s in (stepped, evolved) for arr in (s.phi, s.pi)] == before
    refs = _oracle_run(state, model, geom, 25)
    _assert_same_state(stepped, refs[1])
    _assert_same_state(evolved, refs[-1])
    _assert_same_state(step(evolved, model, geom), oracle_step(refs[-1], model, geom))


def test_a_run_evaluates_the_force_once_per_step_plus_once_in_its_first_step(monkeypatch):
    _, geom, state = _case("halfline-robin")
    inside, calls = [], []

    class CountingKleinGordon(KleinGordon):
        def gradient(self, phi, out=None):
            calls.append(bool(inside))
            return super().gradient(phi, out=out)

    def counted_step(*args):
        inside.append(True)
        try:
            return real_step(*args)
        finally:
            inside.pop()

    real_step = stepper.step
    monkeypatch.setattr(stepper, "step", counted_step)
    model = CountingKleinGordon(m=1.0)
    out, _ = evolve(state, model, geom, 40)
    assert calls == [True] * 41
    refs = _oracle_run(state, KleinGordon(m=1.0), geom, 41)
    _assert_same_state(out, refs[40])
    # stepping on from the copy the run returned reuses its half-kick
    _assert_same_state(step(out, model, geom), refs[41])
    assert len(calls) == 42


def _oscillatory_backlund(amplitude, k):
    """A defect whose f' and g' oscillate as amplitude * sin(k s) and
    amplitude * cos(k d): steep enough that Newton steps overshoot."""

    class Oscillatory(SineGordonBacklund):
        def df(self, s):
            return amplitude * np.sin(k * s)

        def dg(self, d):
            return amplitude * np.cos(k * d)

        def d2f(self, s):
            return amplitude * k * np.cos(k * s)

        def d2g(self, d):
            return -amplitude * k * np.sin(k * d)

    return Oscillatory


# defect class, steps: the Backlund kink needs only full Newton steps; the
# milder oscillatory data rejects some line-search trials and converges; the
# steeper exhausts line searches and fails in its first step
_NEWTON_COUNT_CASES = {
    "backlund": (SineGordonBacklund, 160),
    "trials-rejected": (_oscillatory_backlund(1.0, 100.0), 40),
    "searches-exhausted": (_oscillatory_backlund(10.0, 100.0), 40),
}


@pytest.mark.parametrize("name", list(_NEWTON_COUNT_CASES))
def test_the_newton_reads_b_grad_once_per_point_and_the_hessian_once_per_iteration(name):
    """Per step, B's gradient is read once at the old interface pair and once
    per line-search trial (once more after a line search that no trial
    passes), and B_phiphi and B_phipsi once per Newton iteration, as the
    oracle counts them.  A profiler that counts Newton iterations by the
    calls of ``b_phiphi`` relies on this."""
    kind, n_steps = _NEWTON_COUNT_CASES[name]
    calls = []

    class Counting(kind):
        pass

    for method in ("b_grad", "b_phi", "b_psi", "b_phiphi", "b_psipsi", "b_phipsi"):

        def counted(self, phi, psi, _name=method, _fn=getattr(kind, method)):
            calls.append(_name)
            return _fn(self, phi, psi)

        setattr(Counting, method, counted)

    model = SineGordon(m=1.0, beta=1.0)
    grid = Grid1D(-16.0, 16.0, 256)
    plain = with_defect(grid, kind(lam=1.2), sponge_fraction=0.0)
    geom = with_defect(grid, Counting(lam=1.2), sponge_fraction=0.0)
    state = ref = init_soliton(geom, model, velocity=0.5, x0=-4.0)
    seen = []
    for _ in range(n_steps):
        del calls[:]
        newton = []
        try:
            state = step(state, model, geom)
        except StepFailure:
            with pytest.raises(AssertionError):
                oracle_step(ref, model, plain, newton)
            failed = True
        else:
            ref = oracle_step(ref, model, plain, newton)
            _assert_same_state(state, ref)
            failed = False
        [(iters, trials, exhausted)] = newton
        assert calls.count("b_phiphi") == calls.count("b_phipsi") == iters
        assert calls.count("b_grad") == 1 + trials + exhausted
        assert len(calls) == 2 * iters + 1 + trials + exhausted  # nothing else
        seen.append((iters, trials, exhausted))
        if failed:
            break
    iters, trials, exhausted = (sum(c) for c in zip(*seen))
    if name == "backlund":
        assert len(seen) == n_steps and iters > n_steps and trials == iters and not exhausted
    elif name == "trials-rejected":
        assert len(seen) == n_steps and trials > iters and not exhausted
    else:
        assert seen[-1][0] == 25 and exhausted > 0


def test_a_fresh_run_after_a_failed_one_matches_the_oracle():
    """A run that blows up mid-way leaves the plan's buffers at the failed
    step; the next run on the geometry must start from its own state."""
    geom = periodic_line(Grid1D(0.0, 16.0, 128))
    model = SinhGordon(m=1.0, beta=1.0)
    blow_up = init_cosine(geom, model, amplitude=40.0, mode=1)
    with pytest.raises(StepFailure, match="non-finite field values"):
        evolve(blow_up, model, geom, 400, save_every=1)
    assert stepper._plan(model, geom).live is None
    state = init_cosine(geom, model, amplitude=0.3, mode=1, amplitude2=0.15, mode2=2)
    out, history = evolve(state, model, geom, 60, save_every=20)
    refs = _oracle_run(state, model, geom, 60)
    _assert_same_state(out, refs[-1])
    assert np.array_equal(history.phi, np.asarray([r.phi for r in refs[::20]]))


def test_an_observer_cannot_step_the_geometry_of_its_run():
    """One run at a time owns the plan's buffers: a step of another state
    from inside a run is refused, and the run stays usable afterwards."""
    model, geom, state = _case("line-sponge")

    def meddle(s):
        if s.t > 0.0:
            step(state, model, geom)

    with pytest.raises(ValidationError, match="a run is stepping this model on this geometry"):
        stepper._drive(state, model, geom, 4, [(2, False, meddle)])
    out, _ = evolve(state, model, geom, 4)
    _assert_same_state(out, _oracle_run(state, model, geom, 4)[-1])


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    n_cells=st.integers(16, 80),
    data=st.data(),
    sponge=st.floats(0.0, 0.3),
    backlund=st.booleans(),
)
def test_defect_steps_match_oracle_on_random_grids(n_cells, data, sponge, backlund):
    """On any defect grid the one step equals the two-half-domain oracle, and
    every two-sided array follows Geometry.state_x."""
    i0 = data.draw(st.integers(2, n_cells - 2), label="interface node")
    h = 0.125  # a power of two: x = 0 falls exactly on node i0
    grid = Grid1D(-i0 * h, (n_cells - i0) * h, n_cells)
    if backlund:
        model = SineGordon(m=1.0, beta=1.0)
        geom = with_defect(grid, SineGordonBacklund(lam=1.1, m=1.0, beta=1.0), sponge_fraction=sponge)
    else:
        model = KleinGordon(m=1.0)
        geom = with_defect(grid, FreeDefect(lam=0.7, m=1.0), sponge_fraction=sponge)
    x0 = data.draw(st.floats(grid.x_min, grid.x_max), label="x0")
    state = init_gaussian(geom, model, amplitude=0.3, width=0.4, x0=x0)

    # the layout: [left nodes | right nodes], x = 0 twice
    x, state_x = geom.x, geom.state_x
    assert geom.interface_index == i0
    assert np.array_equal(state_x[: i0 + 1], x[: i0 + 1])
    assert np.array_equal(state_x[i0 + 1 :], x[i0:])
    profile = 0.3 * np.exp(-((state_x - x0) ** 2) / (2.0 * 0.4**2))
    assert np.array_equal(state.phi, profile[None, :])
    assert np.array_equal(state.pi, np.zeros((1, len(state_x))))
    assert init_vacuum(geom, model).phi.shape == (1, len(state_x))

    ref = state
    for _ in range(30):
        state = step(state, model, geom)
        ref = oracle_step(ref, model, geom)
    _assert_same_state(state, ref)

    _, history = evolve(ref, model, geom, 4, save_every=2)
    assert np.array_equal(history.x, state_x)
    assert history.phi.shape == (3, 1, len(state_x))


# ---------------------------------------------------------------------------
# diagnostics on random states

_MODELS = {
    "klein-gordon": KleinGordon(m=1.0),
    "sine-gordon": SineGordon(m=1.0, beta=1.0),
    "sinh-gordon": SinhGordon(m=2.0, beta=np.sqrt(2.0)),
    "a2-toda": AffineToda(rs=build_root_system("A", 2), m=1.0, beta=0.7),
}
_TODA_B = {"sinh-gordon": (0.7, 0.7), "a2-toda": (0.5, -0.3, 0.4)}
_GEOMETRY_MODELS = (
    [(g, m) for g in ("periodic", "line-sponge", "halfline-robin", "interval-robin") for m in _MODELS]
    + [("halfline-toda", m) for m in _TODA_B]
    + [("defect-free", "klein-gordon"), ("defect-backlund", "sine-gordon")]
)

# 0 and |x| in [1e-100, 5]: no square, density or trapezoid addend is
# subnormal, where the doubled-density form is not proven equal
_VALUES = st.one_of(
    st.just(0.0),
    st.builds(lambda x, neg: -x if neg else x, st.floats(1e-100, 5.0), st.booleans()),
)


def _random_geometry(name, model_name, n_cells):
    grid = Grid1D(-3.0, 2.0, n_cells)
    if name == "periodic":
        return periodic_line(grid)
    if name == "line-sponge":
        return line(grid, sponge_fraction=0.2)
    if name == "halfline-robin":
        return half_line(Grid1D(-5.0, 0.0, n_cells), right=Robin(lam=-0.6, offset=0.01))
    if name == "halfline-toda":
        return half_line(Grid1D(-5.0, 0.0, n_cells), right=TodaBoundary(b=_TODA_B[model_name]))
    if name == "interval-robin":
        return interval(grid, left=Robin(lam=0.25), right=Robin(lam=0.5, offset=0.01))
    symmetric = Grid1D(-2.5, 2.5, n_cells)
    if name == "defect-free":
        return with_defect(symmetric, FreeDefect(lam=0.7, m=1.0), sponge_fraction=0.1)
    return with_defect(symmetric, SineGordonBacklund(lam=1.2, m=1.0, beta=1.0), sponge_fraction=0.0)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_diagnostics_match_oracle_on_random_states(data):
    geom_name, model_name = data.draw(st.sampled_from(_GEOMETRY_MODELS))
    model = _MODELS[model_name]
    geom = _random_geometry(geom_name, model_name, 2 * data.draw(st.integers(8, 40)))

    def field(shape):
        return data.draw(arrays(np.float64, shape, elements=_VALUES))

    t = data.draw(st.floats(0.0, 100.0))
    shape = (model.n_components, len(geom.state_x))
    state = FieldState(t=t, phi=field(shape), pi=field(shape))
    lo, hi = geom.grid.x_min, geom.grid.x_max
    probes = (lo, 0.3 * lo + 0.7 * hi, hi)
    assert diagnostics(state, model, geom, probes) == oracle_diagnostics(state, model, geom, probes)


# ---------------------------------------------------------------------------
# the finite check


def _first_bad(t, fields):
    """The StepFailure dump of a full node-by-node scan."""
    for name, arr in fields.items():
        bad = np.argwhere(~np.isfinite(arr))
        if len(bad):
            *component, node = (int(i) for i in bad[0])
            dump = {"t": t, "field": name, "node": node}
            if component:
                dump["component"] = component[0]
            return dump
    return None


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "name, component, node",
    [("phi", 0, 0), ("phi", 2, 19), ("pi", 1, 7), ("pi", 0, 19)],
)
def test_one_non_finite_node_gives_the_scan_dump(bad, name, component, node):
    rng = np.random.default_rng(3)
    fields = {"phi": rng.normal(size=(3, 20)), "pi": rng.normal(size=(3, 20))}
    fields[name][component, node] = bad
    fields["phi"][1, 3] = 1e200  # a large finite value ahead of the bad one
    state = FieldState(t=2.25, **fields)
    with pytest.raises(StepFailure) as err, np.errstate(over="ignore"):
        state.check_finite()
    expected = {"t": 2.25, "field": name, "node": node, "component": component}
    assert err.value.state_dump == expected == _first_bad(2.25, fields)


_DEFECT = with_defect(Grid1D(-10.0, 10.0, 20), FreeDefect(lam=0.7, m=1.0))
_N_LEFT = _DEFECT.interface_index + 1  # 11 entries on either side


@pytest.mark.parametrize("name", ["phi", "pi_phi", "psi", "pi_psi"])
@pytest.mark.parametrize("node", [0, 5, 10])
def test_one_non_finite_defect_node_gives_the_scan_dump(name, node):
    """A non-finite value at ``node`` of one side's field (phi, psi) or
    momentum (pi_phi, pi_psi) is dumped as field phi or pi at its entry of
    the two-sided row: its index in ``Geometry.state_x``, the column of
    ``snapshots.csv``.  Left node 10 and right node 0 are the two interface
    entries, n_left - 1 and n_left."""
    field = "phi" if name in ("phi", "psi") else "pi"
    left = name in ("phi", "pi_phi")
    entry = node if left else _N_LEFT + node
    assert _DEFECT.state_x[entry] == _DEFECT.x[node if left else _N_LEFT - 1 + node]
    fields = {key: np.linspace(-1.0, 1.0, len(_DEFECT.state_x))[None, :] for key in ("phi", "pi")}
    fields[field][0, entry] = np.nan
    state = FieldState(t=0.5, **fields)
    with pytest.raises(StepFailure) as err:
        state.check_finite()
    expected = {"t": 0.5, "field": field, "component": 0, "node": entry}
    assert err.value.state_dump == expected == _first_bad(0.5, fields)


def test_finite_state_whose_sum_of_squares_overflows_passes():
    rng = np.random.default_rng(4)
    phi = 1e200 * rng.uniform(0.5, 2.0, size=(2, 50))
    pi = -phi
    flat = phi.ravel()
    side = phi[0]
    # the stepping loop checks under this error state
    with np.errstate(over="ignore"):
        assert not np.isfinite(np.dot(flat, flat))
        FieldState(t=1.0, phi=phi, pi=pi).check_finite()
        _two_sided(1.0, phi=side, pi_phi=side, psi=side, pi_psi=side).check_finite()
