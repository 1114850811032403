"""Batched Lax transports: the numpy matrix exponential, the pairwise ordered
product, monodromy charges of whole histories, and the lax-check report."""

import json
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from todalab.algebra import build_root_system
from todalab.cli import main
from todalab.laxboundary import a1_k_matrix, lax, lax_frame, monodromy_charge, toda_frame_for
from todalab.simulate import Grid1D, SinhGordon, evolve, init_cosine, periodic_line

NORMS = (1e-3, 0.1, 1.0, 10.0, 50.0)
KINDS = ("general", "anti_hermitian", "upper_triangular")


def _stack(kind: str, n: int, norms, rng) -> np.ndarray:
    """One matrix per entry of ``norms``, each scaled to that 1-norm."""
    g = rng.normal(size=(len(norms), n, n)) + 1j * rng.normal(size=(len(norms), n, n))
    if kind == "anti_hermitian":
        g = g - np.conj(np.swapaxes(g, 1, 2))
    elif kind == "upper_triangular":  # real and non-normal for n > 1
        g = np.triu(g.real)
    return g * (np.asarray(norms) / np.abs(g).sum(axis=1).max(axis=1))[:, None, None]


def _assert_close_to_scipy(stack: np.ndarray) -> None:
    got, want = lax.expm(stack), scipy.linalg.expm(stack)
    assert got.shape == stack.shape
    rel = np.linalg.norm(got - want, axis=(1, 2)) / np.linalg.norm(want, axis=(1, 2))
    assert rel.max() <= 1e-12


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_expm_matches_scipy(kind, n):
    rng = np.random.default_rng(10 * n + KINDS.index(kind))
    for norm in NORMS:
        _assert_close_to_scipy(_stack(kind, n, [norm] * 8, rng))  # one norm per stack
        _assert_close_to_scipy(_stack(kind, n, [norm], rng))  # an N = 1 stack
    # one scaling exponent serves a stack whose norms span 1e-3 to 50
    _assert_close_to_scipy(_stack(kind, n, np.geomspace(1e-3, 50.0, 24), rng))


def test_expm_of_real_stack_is_real_and_of_zero_is_identity():
    out = lax.expm(np.zeros((3, 4, 4)))
    assert out.dtype == np.float64
    assert np.array_equal(out, np.broadcast_to(np.eye(4), (3, 4, 4)))


@pytest.mark.parametrize("shape", [(2, 2), (3, 2, 3), (2, 2, 2, 2)])
def test_expm_rejects_anything_but_a_stack_of_square_matrices(shape):
    with pytest.raises(ValueError, match="stack"):
        lax.expm(np.zeros(shape))


def _unitary_factors(rng, batch: int, m: int, n: int) -> np.ndarray:
    g = rng.normal(size=(batch, m, n, n)) + 1j * rng.normal(size=(batch, m, n, n))
    return np.linalg.qr(g)[0]  # unitary, so long products stay of order one


@given(
    m=st.integers(1, 300),
    n=st.integers(1, 4),
    batch=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_pairwise_product_matches_sequential(m, n, batch, seed):
    factors = _unitary_factors(np.random.default_rng(seed), batch, m, n)
    stack = np.moveaxis(factors, (2, 3), (0, 1))  # batch-last (n, n, batch, m)
    for reverse in (False, True):
        got = np.moveaxis(lax._ordered_product(stack, reverse=reverse), -1, 0)
        for b in range(batch):
            want = np.eye(n, dtype=complex)
            for k in range(m - 1, -1, -1) if reverse else range(m):
                want = want @ factors[b, k]
            np.testing.assert_allclose(got[b], want, rtol=0, atol=1e-12)


@pytest.fixture(scope="module")
def sinh_history():
    grid = Grid1D(0.0, 16.0, 64)
    geom = periodic_line(grid)
    model = SinhGordon(m=1.0, beta=1.0)
    state = init_cosine(geom, model, amplitude=0.3, mode=1, amplitude2=0.15, mode2=2)
    _, history = evolve(state, model, geom, 64, save_every=8)
    return history, model


@pytest.mark.parametrize("geometry", ["periodic", "line", "halfline"])
def test_batched_charges_equal_per_snapshot_calls(sinh_history, geometry):
    hist, model = sinh_history
    frame = toda_frame_for(model)
    lam = 0.8
    kmat = a1_k_matrix(lam, 0.8, -0.5) if geometry == "halfline" else None
    kw = dict(geometry=geometry, kmat=kmat)
    qs = monodromy_charge(hist.x, hist.phi, hist.pi, frame, lam, **kw)
    assert qs.shape == (len(hist.times),)
    one_by_one = [
        monodromy_charge(hist.x, hist.phi[i], hist.pi[i], frame, lam, **kw)
        for i in range(len(hist.times))
    ]
    assert all(isinstance(q, complex) for q in one_by_one)
    np.testing.assert_allclose(qs, one_by_one, rtol=1e-12)


def test_batched_charges_of_a_rank_two_frame():
    frame = lax_frame(build_root_system("A", 2))
    rng = np.random.default_rng(3)
    x = np.linspace(0.0, 6.0, 41)
    phi = 0.3 * rng.normal(size=(5, 2, 41))
    pi = 0.3 * rng.normal(size=(5, 2, 41))
    qs = monodromy_charge(x, phi, pi, frame, 1.3, geometry="line")
    one_by_one = [monodromy_charge(x, phi[i], pi[i], frame, 1.3, geometry="line") for i in range(5)]
    np.testing.assert_allclose(qs, one_by_one, rtol=1e-12)


@pytest.mark.parametrize("geometry, cells", [("periodic", 33), ("line", 32)])
def test_monodromy_hands_expm_one_stack_of_snapshots_times_cells(monkeypatch, geometry, cells):
    """The benchmark counts transport matrices as ``shape[0]`` of every stack
    passed to ``lax.expm``; a history must arrive as one 3-D stack."""
    shapes = []
    real = lax.expm

    def spy(stack):
        shapes.append(stack.shape)
        return real(stack)

    monkeypatch.setattr(lax, "expm", spy)
    frame = lax_frame(build_root_system("A", 1))
    x = np.linspace(0.0, 8.0, 33)
    phi = np.full((7, 1, 33), 0.2)
    monodromy_charge(x, phi, np.zeros_like(phi), frame, 0.8, geometry=geometry)
    assert shapes == [(7 * cells, 2, 2)]


def test_lax_check_keys_are_the_shortest_float_text(tmp_path):
    config = Path(__file__).resolve().parents[1] / "configs" / "sinh_bulk.ini"
    out = tmp_path / "lax"
    argv = ["lax-check", "--config", str(config), "--lambdas", "0.957,1.0,1.6", "--refine", "--out", str(out)]
    assert main(argv) == 0
    payload = json.loads((out / "lax_check.json").read_text())
    for section in ("base", "refined", "ratios"):
        assert list(payload[section]) == ["0.957", "1.0", "1.6"]
    for ratios in payload["ratios"].values():
        assert 3.0 <= ratios["curvature"] <= 5.0
        assert 3.0 <= ratios["monodromy"] <= 5.0
