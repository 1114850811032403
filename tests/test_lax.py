"""Gauge components, zero-curvature residual, and monodromy diagnostics."""

import dataclasses

import numpy as np
import pytest
from scipy.linalg import expm

from todalab.algebra import build_root_system, defining_rep
from todalab.errors import ValidationError
from todalab.laxboundary import (
    curvature_residual,
    lax_components,
    lax_frame,
    monodromy_charge,
    toda_frame_for,
)
from todalab.simulate import (
    AffineToda,
    Grid1D,
    SineGordon,
    SinhGordon,
    TodaBoundary,
    evolve,
    half_line,
    init_cosine,
    init_gaussian,
    periodic_line,
    step,
)
from todalab.simulate.state import FieldHistory


@pytest.fixture(scope="module")
def frame1():
    return lax_frame(build_root_system("A", 1))


@pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
def test_frame_arrays_equal_the_exact_representation_converted(rank):
    """The frame's complex arrays are, bit for bit, the exact integer and
    ``Fraction`` matrices of the defining representation converted entry by
    entry through ``float``; its units are the normalized ones."""
    rs = build_root_system("A", rank)
    rep = defining_rep(rs)
    frame = lax_frame(rs)

    def converted(mats):
        return np.array([[[float(x) for x in row] for row in mat] for mat in mats]).astype(complex)

    e_plus, e_minus = rep.node_steps()
    h_dirs = [rep.cartan_element(list(map(float, row))) for row in rs.orthobasis]
    assert frame.e_plus.tobytes() == converted(e_plus).tobytes()
    assert frame.e_minus.tobytes() == converted(e_minus).tobytes()
    assert frame.h_dirs.tobytes() == converted(h_dirs).tobytes()
    assert (frame.n, frame.m, frame.beta) == (rank + 1, 1.0, 1.0)


def test_toda_frame_carries_the_models_toda_units():
    m, beta = 1.7, 0.6
    frame = toda_frame_for(SinhGordon(m=m, beta=beta))
    assert (frame.m, frame.beta) == (m / 2.0, beta / np.sqrt(2.0))
    a1 = lax_frame(build_root_system("A", 1))
    for name in ("e_plus", "e_minus", "h_dirs", "masses", "alpha_rootspace"):
        assert getattr(frame, name).tobytes() == getattr(a1, name).tobytes()
    rs = build_root_system("A", 2)
    frame = toda_frame_for(AffineToda(rs=rs, m=m, beta=beta))
    assert frame.rs is rs
    assert (frame.m, frame.beta) == (m, beta)


def test_vanishing_field_components(frame1):
    """phi = dphi = 0, lam = 1: a_x = E_+ + E_- summed over both nodes with
    masses 1/2; a_t = 0 because the lam and 1/lam parts cancel."""
    zero = np.zeros(1)
    comps = lax_components(frame1, zero, zero, zero, lam=1.0)
    assert np.allclose(comps.a_x, np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(comps.a_t, np.zeros((2, 2)))


def test_components_match_hand_assembly(frame1):
    """Random sample reproduced by an independently assembled matrix sum."""
    rng = np.random.default_rng(2)
    e12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    e21 = e12.T.copy()
    h = np.diag([1.0, -1.0]) / np.sqrt(2.0)  # Cartan matrix of the unit direction
    alpha = np.sqrt(2.0)
    for _ in range(5):
        phi, dtphi, dxphi = rng.uniform(-1, 1, size=3)
        lam = rng.uniform(0.3, 2.0)
        m, beta = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        up = np.exp(beta * alpha * phi / 2.0)
        dn = np.exp(-beta * alpha * phi / 2.0)
        a_t = (beta / 2.0) * dxphi * h + 0.5 * m * (
            up * (lam * e12 - e21 / lam) + dn * (lam * e21 - e12 / lam)
        )
        a_x = (beta / 2.0) * dtphi * h + 0.5 * m * (
            up * (lam * e12 + e21 / lam) + dn * (lam * e21 + e12 / lam)
        )
        frame = dataclasses.replace(frame1, m=m, beta=beta)
        comps = lax_components(frame, np.array([phi]), np.array([dtphi]), np.array([dxphi]), lam)
        assert np.allclose(comps.a_t, a_t, atol=1e-14)
        assert np.allclose(comps.a_x, a_x, atol=1e-14)


def test_t_x_difference_structure(frame1):
    """a_x - a_t = (beta/2) H.(dt - dx) + (2/lam) (lowering part): Cartan
    mismatch plus the sign flip of the 1/lam terms, nothing else."""
    rng = np.random.default_rng(4)
    phi = rng.uniform(-1, 1, size=(1,))
    dt_phi = rng.uniform(-1, 1, size=(1,))
    dx_phi = rng.uniform(-1, 1, size=(1,))
    lam = 0.9
    d1 = lax_components(frame1, phi, dt_phi, dx_phi, lam)
    d2 = lax_components(frame1, phi, dt_phi, dx_phi, 2.0 * lam)
    diff1 = d1.a_x - d1.a_t
    diff2 = d2.a_x - d2.a_t
    # H + M/lam at two lam values: isolate the pieces
    h_part = 2.0 * diff2 - diff1
    m_part = lam * (diff1 - h_part)
    expect_h = 0.5 * np.einsum("a,aij->ij", dt_phi - dx_phi, frame1.h_dirs)
    assert np.allclose(h_part, expect_h, atol=1e-13)
    assert np.allclose(np.diagonal(m_part), 0.0, atol=1e-13)
    # consistency: the same M/lam reproduces the second sample
    assert np.allclose(diff2, h_part + m_part / (2.0 * lam), atol=1e-13)


def test_rejects_zero_spectral_parameter(frame1):
    zero = np.zeros(1)
    with pytest.raises(ValidationError, match="nonzero"):
        lax_components(frame1, zero, zero, zero, lam=0.0)


def test_rejects_wrong_field_dimension(frame1):
    bad = np.zeros(2)
    with pytest.raises(ValidationError, match="components"):
        lax_components(frame1, bad, bad, bad, lam=1.0)


# ---------------------------------------------------------------------------
# curvature


def _sinh_history(n_cells: int, t_final: float = 4.0, snapshots: int = 32):
    grid = Grid1D(0.0, 16.0, n_cells)
    geom = periodic_line(grid)
    model = SinhGordon(m=1.0, beta=1.0)
    state = init_cosine(geom, model, amplitude=0.3, mode=1, amplitude2=0.15, mode2=2)
    n_steps = int(round(t_final / grid.dt))
    save = max(1, n_steps // snapshots)
    _, history = evolve(state, model, geom, n_steps, save_every=save)
    return history, model


def test_vacuum_curvature_is_roundoff(frame1):
    times = np.linspace(0.0, 1.0, 9)
    x = np.linspace(0.0, 8.0, 33)
    zeros = np.zeros((9, 1, 33))
    history = FieldHistory(times=times, x=x, phi=zeros, pi=zeros)
    res = curvature_residual(history, frame1, lam=0.7)
    assert res < 1e-14


def test_curvature_converges_at_second_order():
    hist_c, model = _sinh_history(128, snapshots=16)
    hist_f, _ = _sinh_history(256, snapshots=32)
    frame = toda_frame_for(model)
    for lam in (0.7, 1.0, 1.6):
        r_c = curvature_residual(hist_c, frame, lam)
        r_f = curvature_residual(hist_f, frame, lam)
        assert 3.0 < r_c / r_f < 5.0


def test_corrupted_solution_has_order_one_residual():
    hist, model = _sinh_history(128, snapshots=16)
    frame = toda_frame_for(model)
    good = curvature_residual(hist, frame, 0.9)
    rng = np.random.default_rng(0)
    bad_phi = hist.phi + rng.normal(0.0, 0.3, size=hist.phi.shape)
    bad = FieldHistory(times=hist.times, x=hist.x, phi=bad_phi, pi=hist.pi)
    r_bad = curvature_residual(bad, frame, 0.9)
    assert r_bad > 50.0 * good
    assert r_bad > 0.5  # order one, independent of the resolution
    # the violation does not shrink under refinement
    hist_f, _ = _sinh_history(256, snapshots=16)
    bad_f_phi = hist_f.phi + rng.normal(0.0, 0.3, size=hist_f.phi.shape)
    bad_f = FieldHistory(times=hist_f.times, x=hist_f.x, phi=bad_f_phi, pi=hist_f.pi)
    assert curvature_residual(bad_f, frame, 0.9) > 0.5


def test_curvature_rejects_tiny_grids(frame1):
    times = np.linspace(0, 1, 2)
    x = np.linspace(0, 1, 8)
    zeros = np.zeros((2, 1, 8))
    history = FieldHistory(times=times, x=x, phi=zeros, pi=zeros)
    with pytest.raises(ValidationError, match="3x3"):
        curvature_residual(history, frame1, lam=1.0)


def test_sine_gordon_has_no_real_lax_frame():
    with pytest.raises(ValidationError, match="real Lax frame"):
        toda_frame_for(SineGordon(m=1.0, beta=1.0))


# ---------------------------------------------------------------------------
# monodromy


def test_vacuum_monodromy_matches_matrix_exponential(frame1):
    """Constant a_x: Q equals tr expm(a_x * domain length) exactly."""
    grid = Grid1D(0.0, 8.0, 64)
    x = grid.nodes(periodic=True)
    phi = np.full((1, len(x)), 0.2)
    pi = np.zeros_like(phi)
    lam = 0.8
    comps = lax_components(frame1, np.array([0.2]), np.zeros(1), np.zeros(1), lam)
    expected = np.trace(expm(comps.a_x * 8.0))
    q = monodromy_charge(x, phi, pi, frame1, lam, geometry="periodic")
    assert q == pytest.approx(expected, rel=1e-10)


def test_bulk_monodromy_drift_shrinks_under_refinement():
    drifts = []
    for n_cells in (128, 256):
        hist, model = _sinh_history(n_cells, snapshots=8)
        frame = toda_frame_for(model)
        qs = np.array(
            [
                monodromy_charge(
                    hist.x, hist.phi[i], hist.pi[i], frame, 0.8,
                    geometry="periodic",
                )
                for i in range(len(hist.times))
            ]
        )
        drifts.append(np.max(np.abs(qs - qs[0])) / abs(qs[0]))
    assert drifts[0] / drifts[1] > 2.0


def test_time_reversed_snapshot_same_drift_bound():
    hist, model = _sinh_history(128, snapshots=8)
    frame = toda_frame_for(model)

    def drift(phi_arr, pi_arr):
        qs = np.array(
            [
                monodromy_charge(
                    hist.x, phi_arr[i], pi_arr[i], frame, 0.8,
                    geometry="periodic",
                )
                for i in range(len(hist.times))
            ]
        )
        return np.max(np.abs(qs - qs[0])) / abs(qs[0])

    forward = drift(hist.phi, hist.pi)
    # time reversal: reverse order and flip velocities; the reversed sequence
    # is also a solution, so its charge is conserved to the same scheme-error
    # bound (it is a different solution, so not the identical drift value)
    backward = drift(hist.phi[::-1], -hist.pi[::-1])
    assert backward < 3.0 * forward
    assert forward < 3.0 * backward
    assert backward < 1e-3


def test_boundary_monodromy_conserved_with_k_matrix():
    """Half-line run in normalized units: Q = tr(V K V_rev) drifts at the
    scheme order and the drift halves^2 under refinement."""
    m_sg, beta_sg = 2.0, np.sqrt(2.0)
    b0, b1 = 0.8, -0.5
    model = SinhGordon(m=m_sg, beta=beta_sg)
    lam = 0.6
    boundary = TodaBoundary(b=(b0, b1))
    kmat = boundary.k_matrix(lam)

    def drift(n_cells):
        grid = Grid1D(-20.0, 0.0, n_cells)
        geom = half_line(grid, right=boundary, sponge_fraction=0.0)
        state = init_gaussian(geom, model, amplitude=0.25, width=0.8, x0=-3.0)
        frame = toda_frame_for(model)
        qs = []
        n_steps = int(6.0 / grid.dt)
        every = n_steps // 10
        for i in range(n_steps):
            state = step(state, model, geom)
            if (i + 1) % every == 0:
                qs.append(
                    monodromy_charge(
                        geom.x, state.phi, state.pi, frame, lam,
                        geometry="halfline", kmat=kmat,
                    )
                )
        qs = np.array(qs)
        return float(np.max(np.abs(qs - qs[0])) / abs(qs[0]))

    coarse, fine = drift(400), drift(800)
    assert coarse < 1e-3
    assert coarse / fine > 2.5


def test_boundary_monodromy_requires_k(frame1):
    x = np.linspace(-4.0, 0.0, 32)
    phi = np.zeros((1, 32))
    with pytest.raises(ValidationError, match="K matrix"):
        monodromy_charge(x, phi, phi, frame1, 0.7, geometry="halfline")
