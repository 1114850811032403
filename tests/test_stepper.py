"""Leapfrog evolution: fixed points, conservation orders, boundary handling."""

import warnings

import numpy as np
import pytest

from todalab.errors import ValidationError
from todalab.simulate import stepper
from todalab.simulate.experiment import _build_geometry, resolve_config
from todalab.simulate.state import BOUNDARY_SIDES, Geometry
from todalab.simulate import (
    FreeDefect,
    Grid1D,
    KleinGordon,
    Neumann,
    Robin,
    SinhGordon,
    diagnostics,
    evolve,
    half_line,
    init_cosine,
    init_gaussian,
    init_vacuum,
    init_wavepacket,
    interval,
    line,
    measure_frequency,
    periodic_line,
    step,
    with_defect,
)


def test_vacuum_is_a_fixed_point():
    geom = periodic_line(Grid1D(0.0, 10.0, 50))
    model = KleinGordon(m=1.0)
    state = init_vacuum(geom, model)
    out, _ = evolve(state, model, geom, 200)
    assert np.all(out.phi == 0.0) and np.all(out.pi == 0.0)


def test_periodic_energy_drift_scales_with_dt_squared():
    """Halving dt reduces the bulk energy drift by 4 (+-20%).

    The scaling is measured on the exact invariant of the spatial
    semi-discretization (staggered gradient energy), which isolates the
    integrator's O(dt^2) error from the h^2 quadrature floor of the physical
    diagnostic; the physical diagnostic is checked to stay small alongside.
    """
    model = SinhGordon(m=1.0, beta=1.0)

    def discrete_energy(state, h):
        grad = (np.roll(state.phi, -1, axis=1) - state.phi) / h
        return float(
            h * np.sum(0.5 * state.pi**2 + 0.5 * grad**2)
            + h * np.sum(model.potential(state.phi))
        )

    drifts = []
    for courant in (0.5, 0.25):
        geom = periodic_line(Grid1D(0.0, 16.0, 128, courant=courant))
        state = init_cosine(geom, model, amplitude=0.4, mode=1)
        h = geom.grid.h
        e0 = discrete_energy(state, h)
        d0 = diagnostics(state, model, geom).energy
        worst = worst_phys = 0.0
        for _ in range(int(6.0 / geom.grid.dt)):
            state = step(state, model, geom)
            worst = max(worst, abs(discrete_energy(state, h) - e0))
            worst_phys = max(worst_phys, abs(diagnostics(state, model, geom).energy - d0))
        drifts.append(worst / e0)
        assert worst_phys / d0 < 2e-3
    ratio = drifts[0] / drifts[1]
    assert 4.0 * 0.8 <= ratio <= 4.0 * 1.2


def test_kg_dispersion_relation():
    """Traveling periodic mode oscillates at omega^2 = k^2 + m^2 to O(h^2)."""
    m = 1.0
    geom = periodic_line(Grid1D(0.0, 20.0, 200))
    model = KleinGordon(m=m)
    state = init_cosine(geom, model, amplitude=0.01, mode=2, traveling=True)
    k = 2.0 * np.pi * 2 / 20.0
    probe = []
    n_steps = int(60.0 / geom.grid.dt)
    for _ in range(n_steps):
        state = step(state, model, geom)
        probe.append(state.phi[0, 11])
    omega = measure_frequency(np.asarray(probe), geom.grid.dt)
    expected = np.sqrt(k**2 + m**2)
    assert omega == pytest.approx(expected, rel=2e-3)


def test_robin_with_zero_lambda_matches_neumann():
    model = KleinGordon(m=1.0)
    grid = Grid1D(-10.0, 0.0, 100)
    state = init_gaussian(half_line(grid, right=Neumann()), model, amplitude=0.1, width=1.0, x0=-5.0)
    out_n, _ = evolve(state, model, half_line(grid, right=Neumann()), 400)
    out_r, _ = evolve(state, model, half_line(grid, right=Robin(lam=0.0)), 400)
    assert np.array_equal(out_n.phi, out_r.phi)


def test_interval_robin_energy_conserved():
    model = KleinGordon(m=1.0)
    geom = interval(Grid1D(-5.0, 5.0, 200), left=Robin(lam=0.25), right=Robin(lam=0.5))
    state = init_gaussian(geom, model, amplitude=0.2, width=0.8, x0=0.7)
    d0 = diagnostics(state, model, geom).energy
    out, _ = evolve(state, model, geom, 4000)
    dN = diagnostics(out, model, geom).energy
    assert abs(dN - d0) / d0 < 5e-4


def test_sponge_absorbs_outgoing_packet():
    model = KleinGordon(m=1.0)
    grid = Grid1D(-40.0, 40.0, 800)
    state0 = init_wavepacket(line(grid, 0.0), model, k0=1.5, width=3.0, x0=0.0, amplitude=0.1)
    n_steps = int(80.0 / grid.dt)
    with_sponge, _ = evolve(state0, model, line(grid, sponge_fraction=0.15), n_steps)
    without, _ = evolve(state0, model, line(grid, sponge_fraction=0.0), n_steps)
    geom = line(grid, 0.0)
    e_sponge = diagnostics(with_sponge, model, geom).energy
    e_refl = diagnostics(without, model, geom).energy
    # the damped run has lost most of the packet energy; the undamped one
    # keeps it (Neumann ends reflect)
    assert e_sponge < 0.1 * e_refl


def test_sponge_narrower_than_a_cell_damps_the_end_nodes_without_overflow():
    """The profile divides only where the distance is below the sponge
    width, so a width near the smallest double overflows nothing."""
    geom = line(Grid1D(-10.0, 10.0, 100), sponge_fraction=5e-324)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        damp = stepper._sponge_profile(geom)
    assert damp[0] == damp[-1] < 1.0
    assert np.all(damp[1:-1] == 1.0)


def test_wavepacket_energy_conserved_away_from_ends():
    model = KleinGordon(m=1.0)
    geom = line(Grid1D(-40.0, 40.0, 800), sponge_fraction=0.0)
    state = init_wavepacket(geom, model, k0=1.0, width=3.0, x0=0.0, amplitude=0.1)
    d0 = diagnostics(state, model, geom).energy
    out, _ = evolve(state, model, geom, int(20.0 / geom.grid.dt))
    dN = diagnostics(out, model, geom).energy
    assert abs(dN - d0) / d0 < 1e-5


def test_multicomponent_toda_energy_conserved():
    """Rank-two exponential model on the periodic line: the evolution handles
    vector fields and conserves energy at the scheme level."""
    from todalab.algebra import build_root_system
    from todalab.simulate import AffineToda, FieldState

    rs = build_root_system("A", 2)
    model = AffineToda(rs=rs, m=1.0, beta=0.7)
    geom = periodic_line(Grid1D(0.0, 16.0, 256))
    x = geom.x
    phi = np.stack(
        [0.2 * np.cos(2 * np.pi * x / 16.0), 0.15 * np.sin(4 * np.pi * x / 16.0)]
    )
    state = FieldState(t=0.0, phi=phi, pi=np.zeros_like(phi))
    d0 = diagnostics(state, model, geom)
    out, _ = evolve(state, model, geom, int(6.0 / geom.grid.dt))
    dN = diagnostics(out, model, geom)
    assert d0.energy > 0.1
    assert abs(dN.energy - d0.energy) / d0.energy < 2e-3


def test_halfline_requires_right_boundary():
    from todalab.simulate.state import Geometry

    with pytest.raises(ValidationError, match="right boundary"):
        Geometry(kind="halfline", grid=Grid1D(-5.0, 0.0, 50))


def test_interval_requires_both_boundaries():
    from todalab.simulate.state import Geometry

    with pytest.raises(ValidationError, match="both boundary"):
        Geometry(kind="interval", grid=Grid1D(-5.0, 5.0, 50), left=Neumann())


def _specs(kind):
    """The boundary specs a geometry of ``kind`` needs, and its defect spec."""
    specs = {side: Neumann() for side in BOUNDARY_SIDES[kind]}
    return specs | ({"defect": FreeDefect(lam=0.5)} if kind == "defect" else {})


@pytest.mark.parametrize(
    "kind, side",
    [("periodic", "left"), ("line", "left"), ("line", "right"), ("halfline", "left"), ("defect", "right")],
)
def test_a_boundary_spec_on_an_end_without_a_boundary_term_is_refused(kind, side):
    """A spec the geometry would ignore is refused, not run as an open or
    periodic end: a stiff Robin end on a line once ran as the open line."""
    specs = _specs(kind) | {side: Robin(lam=50.0)}
    with pytest.raises(ValidationError, match=f"^{kind} geometry has no boundary term at its {side} end"):
        Geometry(kind=kind, grid=Grid1D(-5.0, 5.0, 50), **specs)


@pytest.mark.parametrize("kind", ["periodic", "line", "halfline", "interval"])
def test_a_defect_spec_on_a_geometry_without_a_defect_is_refused(kind):
    with pytest.raises(ValidationError, match=f"^{kind} geometry takes no defect spec$"):
        Geometry(kind=kind, grid=Grid1D(-5.0, 5.0, 50), defect=FreeDefect(lam=0.5), **_specs(kind))


@pytest.mark.parametrize("kind", ["periodic", "line", "halfline", "interval", "defect"])
def test_a_geometry_given_no_sponge_takes_its_kinds_default(kind):
    """``Geometry``, its factories and a config without ``sponge_fraction``
    read one rule: a sponge of 0.1 on a line or a defect, none elsewhere."""
    grid = Grid1D(-5.0, 5.0, 50)
    specs = _specs(kind)
    factories = {
        "periodic": lambda: periodic_line(grid),
        "line": lambda: line(grid),
        "halfline": lambda: half_line(grid, **specs),
        "interval": lambda: interval(grid, **specs),
        "defect": lambda: with_defect(grid, **specs),
    }
    raw = {
        "model": {"kind": "klein_gordon"},
        "grid": {"x_min": "-5.0", "x_max": "5.0", "n_cells": "50", "t_final": "1.0"},
        "geometry": {"kind": kind},
        "initial": {},
        "output": {},
    }
    built = [
        Geometry(kind=kind, grid=grid, **specs),
        factories[kind](),
        _build_geometry(resolve_config(raw)),
    ]
    want = 0.1 if kind in ("line", "defect") else 0.0
    assert [g.sponge_fraction for g in built] == [want] * 3


def test_each_observer_sees_its_due_steps_and_only_due_steps_are_checked(monkeypatch):
    """An observer ``(every, last, fn)`` sees the initial state, every step
    k with k % every == 0, and the last step when ``last`` is set; the
    finiteness check runs once at t = 0 and once on each step some observer
    is due, never on another."""
    from todalab.simulate import FieldState

    geom = periodic_line(Grid1D(0.0, 16.0, 32))
    model = KleinGordon(m=1.0)
    state = init_cosine(geom, model, amplitude=0.1, mode=1)
    dt = geom.grid.dt
    checked = []
    real_check = FieldState.check_finite

    def check(self):
        checked.append(round(self.t / dt))
        real_check(self)

    monkeypatch.setattr(FieldState, "check_finite", check)
    seen = {3: [], 5: [], 50: []}

    def observer(every):
        return lambda s: seen[every].append(round(s.t / dt))

    stepper._drive(state, model, geom, 17, [(3, True, observer(3)), (5, False, observer(5)), (50, True, observer(50))])
    assert seen == {3: [0, 3, 6, 9, 12, 15, 17], 5: [0, 5, 10, 15], 50: [0, 17]}
    assert checked == [0, 3, 5, 6, 9, 10, 12, 15, 17]
