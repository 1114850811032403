"""Initial-state constructors and their stated oracles."""

import numpy as np
import pytest

from todalab.errors import ValidationError
from todalab.simulate import (
    Grid1D,
    KleinGordon,
    Robin,
    SineGordon,
    diagnostics,
    evolve,
    half_line,
    init_boundary_mode,
    init_gaussian,
    init_noise,
    init_soliton,
    init_wavepacket,
    line,
    measure_frequency,
    periodic_line,
)


def kink_energy_by_quadrature(m, beta, v, x):
    """Oracle: trapezoid quadrature of the analytic moving-kink energy density."""
    gamma = 1.0 / np.sqrt(1.0 - v**2)
    u = m * gamma * x
    phi_x = (2.0 * m * gamma / beta) / np.cosh(u)
    phi_t = -v * phi_x
    pot = (m**2 / beta**2) * (1.0 - np.cos(4.0 * np.arctan(np.exp(u))))
    dens = 0.5 * phi_t**2 + 0.5 * phi_x**2 + pot
    return np.trapezoid(dens, x)


def test_zero_amplitude_packet_is_vacuum():
    geom = line(Grid1D(-20.0, 20.0, 100), 0.0)
    state = init_wavepacket(geom, KleinGordon(), k0=1.0, width=2.0, x0=0.0, amplitude=0.0)
    assert np.all(state.phi == 0.0) and np.all(state.pi == 0.0)


def test_packet_clearance_precondition():
    geom = line(Grid1D(-20.0, 20.0, 100), 0.0)
    with pytest.raises(ValidationError, match="clearance"):
        init_wavepacket(geom, KleinGordon(), k0=1.0, width=3.0, x0=-15.0, amplitude=0.1)


@pytest.mark.parametrize("width", [0.0, -1.0, float("nan")])
@pytest.mark.parametrize("kind", ["wavepacket", "gaussian", "noise"])
def test_gaussian_width_not_positive_is_refused(kind, width):
    """width = 0 made a non-finite t = 0 state, with RuntimeWarnings."""
    geom = line(Grid1D(-20.0, 20.0, 200))
    build = {
        "wavepacket": lambda: init_wavepacket(geom, KleinGordon(), k0=1.0, width=width, x0=0.0, amplitude=0.1),
        "gaussian": lambda: init_gaussian(geom, KleinGordon(), amplitude=0.1, width=width, x0=0.0),
        "noise": lambda: init_noise(geom, KleinGordon(), amplitude=0.1, width=width),
    }[kind]
    with pytest.raises(ValidationError, match=f"{kind} width must be > 0"):
        build()


def test_a_noise_kernel_may_fill_the_node_row_and_no_more():
    """On 128 ring nodes, h = 1/8: 3 width/h = 63 gives 127 taps, the
    widest kernel np.convolve's "same" mode keeps at the row's length;
    64 gives 129, which ended in np.interp's length-mismatch ValueError."""
    geom = periodic_line(Grid1D(0.0, 16.0, 128))
    state = init_noise(geom, KleinGordon(), amplitude=0.1, width=63 / 24, seed=3)
    assert state.phi.shape == (1, 128) and np.all(np.isfinite(state.phi))
    with pytest.raises(ValidationError, match="a kernel of <= 128 taps, got seed 3, width 2.66"):
        init_noise(geom, KleinGordon(), amplitude=0.1, width=64 / 24, seed=3)


def test_packet_carrier_frequency_measured_by_fft():
    """The carrier wavenumber survives a round trip through the spatial FFT."""
    geom = periodic_line(Grid1D(-40.0, 40.0, 1024))
    k0 = 1.5
    state = init_wavepacket(geom, KleinGordon(m=1.0), k0=k0, width=5.0, x0=0.0, amplitude=0.1)
    spec = np.abs(np.fft.rfft(state.phi[0]))
    freqs = 2.0 * np.pi * np.fft.rfftfreq(len(state.phi[0]), geom.grid.h)
    k_meas = freqs[np.argmax(spec)]
    bin_width = freqs[1] - freqs[0]
    assert abs(k_meas - k0) <= bin_width


def test_static_kink_center_stays_put():
    model = SineGordon(m=1.0, beta=1.0)
    geom = line(Grid1D(-30.0, 30.0, 1200), 0.0)
    state = init_soliton(geom, model, velocity=0.0, x0=0.0)
    out, _ = evolve(state, model, geom, 1000)
    x = geom.x
    center0 = x[np.argmin(np.abs(state.phi[0] - np.pi))]
    center1 = x[np.argmin(np.abs(out.phi[0] - np.pi))]
    assert abs(center1 - center0) <= geom.grid.h


def test_kink_charge_signs():
    model = SineGordon(m=1.0, beta=1.0)
    geom = line(Grid1D(-30.0, 30.0, 600), 0.0)
    kink = init_soliton(geom, model, velocity=0.2, x0=0.0, charge=1)
    anti = init_soliton(geom, model, velocity=0.2, x0=0.0, charge=-1)
    assert diagnostics(kink, model, geom).topological_charge == pytest.approx(1.0, abs=1e-6)
    assert diagnostics(anti, model, geom).topological_charge == pytest.approx(-1.0, abs=1e-6)


@pytest.mark.parametrize("v", [0.0, 0.5, 0.8])
def test_kink_energy_matches_quadrature_oracle(v):
    m, beta = 1.0, 1.0
    model = SineGordon(m=m, beta=beta)
    geom = line(Grid1D(-30.0, 30.0, 1200), 0.0)
    state = init_soliton(geom, model, velocity=v, x0=0.0)
    e_sim = diagnostics(state, model, geom).energy
    e_oracle = kink_energy_by_quadrature(m, beta, v, geom.x)
    assert e_sim == pytest.approx(e_oracle, rel=5e-4)
    # and the analytic value 8 m gamma / beta^2 within 1%
    assert e_sim == pytest.approx(8.0 * m / beta**2 / np.sqrt(1 - v**2), rel=1e-2)


def test_soliton_rejects_superluminal_speed():
    geom = line(Grid1D(-30.0, 30.0, 600), 0.0)
    with pytest.raises(ValidationError, match=r"\|v\| < 1"):
        init_soliton(geom, SineGordon(), velocity=1.0, x0=0.0)


def test_boundary_mode_window_enforced():
    geom = half_line(Grid1D(-20.0, 0.0, 200), right=Robin(lam=0.5))
    with pytest.raises(ValidationError, match="-m < lam_b < 0"):
        init_boundary_mode(geom, KleinGordon(m=1.0), lambda_b=0.5, amplitude=0.1)
    with pytest.raises(ValidationError, match="-m < lam_b < 0"):
        init_boundary_mode(geom, KleinGordon(m=1.0), lambda_b=-1.5, amplitude=0.1)


def test_boundary_mode_satisfies_robin_exactly():
    lam_b = -0.6
    geom = half_line(Grid1D(-20.0, 0.0, 400), right=Robin(lam=lam_b))
    state = init_boundary_mode(geom, KleinGordon(m=1.0), lambda_b=lam_b, amplitude=0.1)
    phi = state.phi[0]
    h = geom.grid.h
    d_num = (3.0 * phi[-1] - 4.0 * phi[-2] + phi[-3]) / (2.0 * h)
    assert d_num == pytest.approx(-lam_b * phi[-1], rel=1e-3)
    assert phi[-1] == pytest.approx(0.1)  # amplitude at the boundary
    assert phi[0] < 1e-5  # decayed far away


def test_boundary_mode_frequency_limit():
    """lam_b -> 0-: the oscillation frequency tends to the mass."""
    m = 1.0
    lam_b = -0.05
    geom = half_line(Grid1D(-60.0, 0.0, 1200), right=Robin(lam=lam_b))
    model = KleinGordon(m=m)
    state = init_boundary_mode(geom, model, lambda_b=lam_b, amplitude=0.05)
    probe = []
    from todalab.simulate import step

    n = int(120.0 / geom.grid.dt)
    for _ in range(n):
        state = step(state, model, geom)
        probe.append(state.phi[0, -1])
    omega = measure_frequency(np.asarray(probe), geom.grid.dt)
    assert omega == pytest.approx(np.sqrt(m**2 - lam_b**2), rel=5e-3)
    assert omega == pytest.approx(m, rel=5e-3)
