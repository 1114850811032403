"""Boundary K(lambda) solver: exact expansion, constraints, closed-form check."""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from scipy.linalg import expm

from todalab.algebra import build_root_system
from todalab.errors import PoleError, ValidationError
from todalab.laxboundary import (
    ConstraintReport,
    adjacency_constraints,
    expansion_constraints,
    k_gauge_residual,
    solve_k_expansion,
)
from todalab.laxboundary._poly import Poly
from todalab.simulate import AffineToda, TodaBoundary

F = Fraction


def pmat_eval(a, values) -> np.ndarray:
    """Float matrix of a Poly matrix at the point ``values``."""
    return np.array(
        [[float(x.substitute(values)) for x in row] for row in a], dtype=float
    )


@pytest.fixture(scope="module")
def rs1():
    return build_root_system("A", 1)


@pytest.fixture(scope="module")
def exp1(rs1):
    return solve_k_expansion(rs1)


def test_rank_one_is_unconstrained(exp1):
    report = expansion_constraints(exp1)
    assert report.fixed == {}
    assert report.free == (0, 1)
    assert exp1.obstructions == []
    assert not report.fully_constrained


def test_rank_one_k1_and_k3_match_hand_expansion(exp1):
    # k1 = b1 E_+ + b0 E_-; k3 entries frozen from the hand-derived expansion
    # in the k2 = 0 gauge: k3 = (b0 b1^2/3 - b0) E_+ + (b0^2 b1/3 - b1) E_-.
    nv = 2
    b0, b1 = Poly.var(nv, 0), Poly.var(nv, 1)
    third = F(1, 3)
    assert exp1.k1[0][1] == b1 and exp1.k1[1][0] == b0
    assert exp1.k1[0][0].is_zero() and exp1.k1[1][1].is_zero()
    assert exp1.k3[0][1] == (b0 * b1 * b1).scale(third) - b0
    assert exp1.k3[1][0] == (b0 * b0 * b1).scale(third) - b1


def test_exp_series_satisfies_gauge_condition_to_truncation_order(rs1, exp1):
    """exp(lam k1 + lam^3 k3) solves the condition up to O(lam^4)."""
    rng = np.random.default_rng(7)
    for _ in range(3):
        b = rng.uniform(-2.0, 2.0, size=2)
        phi = rng.uniform(-1.0, 1.0, size=1)
        k1 = pmat_eval(exp1.k1, b)
        k3 = pmat_eval(exp1.k3, b)
        res = []
        for lam in (1e-2, 5e-3):
            kmat = expm(lam * k1 + lam**3 * k3).astype(complex)
            res.append(k_gauge_residual(rs1, kmat, b, phi, lam))
        # residual is O(lam^4) in the equation (O(lam^3) relative): halving
        # lam shrinks it by 16
        assert res[0] / res[1] == pytest.approx(16.0, rel=0.15)


def test_closed_form_rank_one_k_matrix_solves_gauge_condition(rs1):
    """The closed-form K with the recorded sign convention: residual < 1e-10
    at random (lam, phi, b0, b1) samples."""
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        b0, b1 = rng.uniform(-3.0, 3.0, size=2)
        lam = rng.uniform(0.1, 2.0)
        if abs(lam - 1.0) < 0.05:
            lam += 0.1
        phi = rng.uniform(-1.5, 1.5, size=1)
        kmat = TodaBoundary(b=(b0, b1)).k_matrix(lam)
        worst = max(worst, k_gauge_residual(rs1, kmat, [b0, b1], phi, lam))
    assert worst < 1e-10


def test_k_matrix_is_identity_at_lambda_zero():
    assert np.allclose(TodaBoundary(b=(1.7, -2.2)).k_matrix(0.0), np.eye(2))


def test_k_matrix_pole_at_unit_lambda():
    with pytest.raises(PoleError):
        TodaBoundary(b=(1.0, 1.0)).k_matrix(1.0)


@pytest.mark.parametrize("family, rank", [("A", 2), ("D", 4)])
def test_k_matrix_refuses_a_boundary_past_rank_one(family, rank):
    """The closed form is rank one's: any other count of b is one line."""
    boundary = adjacency_constraints(build_root_system(family, rank)).boundary([1] * (rank + 1))
    with pytest.raises(ValidationError, match=f"b = \\(b0, b1\\); got {rank + 1} coefficients") as info:
        boundary.k_matrix(0.6)
    assert len(str(info.value).splitlines()) == 1


def test_identity_k_is_equivalent_to_neumann(rs1):
    """K = 1 solves the condition iff the boundary-term gradient vanishes."""
    ident = np.eye(2, dtype=complex)
    phi = np.array([0.37])
    assert k_gauge_residual(rs1, ident, [0.0, 0.0], phi, lam=0.8) < 1e-14
    assert k_gauge_residual(rs1, ident, [1.0, 0.5], phi, lam=0.8) > 1e-3


def test_rank_two_obstructions_factor_as_adjacent_pairs():
    rs = build_root_system("A", 2)
    exp = solve_k_expansion(rs)
    report = expansion_constraints(exp)
    assert report.fixed == {0: 4, 1: 4, 2: 4}
    assert report.free == ()
    assert len(exp.obstructions) == 6  # ordered adjacent pairs of the triangle
    for poly in exp.obstructions:
        # s * (b_i^2 - 4): with the monomial common to every term divided
        # out, two terms, quadratic in one variable
        common = [min(exps) for exps in zip(*poly.terms)]
        stripped = {tuple(e - c for e, c in zip(mono, common)): v for mono, v in poly.terms.items()}
        assert len(stripped) == 2
        monos = sorted(stripped, key=sum)
        assert sum(monos[0]) == 0 and sum(monos[1]) == 2
        assert stripped[monos[0]] / stripped[monos[1]] == F(-4)


def test_all_sign_choices_solve_every_obstruction():
    rs = build_root_system("A", 3)
    exp = solve_k_expansion(rs)
    report = expansion_constraints(exp)
    assert report.fully_constrained
    choices = list(product((1, -1), repeat=4))
    assert len(set(choices)) == report.to_json_dict()["sign_choices"] == 2 ** 4
    for signs in choices:
        point = [F(2 * s) for s in signs]
        for poly in exp.obstructions:
            assert poly.substitute(point) == 0


@pytest.mark.parametrize("rank", range(1, 9))
def test_zero_boundary_solves_every_obstruction(rank):
    """b = 0, the Neumann end, solves every obstruction polynomial; one
    coefficient dropped to 0 from a sign choice does not."""
    exp = solve_k_expansion(build_root_system("A", rank))
    nnodes = rank + 1
    assert all(poly.substitute([F(0)] * nnodes) == 0 for poly in exp.obstructions)
    if rank >= 2:
        mixed = [F(2)] * rank + [F(0)]
        assert any(poly.substitute(mixed) != 0 for poly in exp.obstructions)


def test_matrix_route_rejects_other_families():
    with pytest.raises(ValidationError, match="family A"):
        solve_k_expansion(build_root_system("D", 4))


# ---------------------------------------------------------------------------
# boundary potentials


def _normalized(bp, rs):
    """B and dB of a boundary in normalized units (m = beta = 1)."""
    model = AffineToda(rs)
    return bp.energy(model), bp.bind(model)


def test_boundary_potential_rank_one_evaluation(rs1):
    bp = adjacency_constraints(rs1).boundary(signs=(1, 1), magnitudes=(2.0, 2.0))
    assert isinstance(bp, TodaBoundary)
    energy, db = _normalized(bp, rs1)
    assert energy(np.array([0.0])) == pytest.approx(4.0)
    # symmetric coefficients: gradient vanishes at the origin
    assert db([0.0]) == pytest.approx([0.0])


def test_boundary_potential_gradient_is_the_derivative(rs1):
    rs = build_root_system("A", 2)
    bp = adjacency_constraints(rs).boundary(signs=(1, -1, 1))
    energy, db = _normalized(bp, rs)
    rng = np.random.default_rng(3)
    for _ in range(5):
        phi = rng.uniform(-0.5, 0.5, size=2)
        grad = db(phi)
        eps = 1e-6
        for a in range(2):
            e = np.zeros(2)
            e[a] = eps
            fd = (energy(phi + e) - energy(phi - e)) / (2 * eps)
            assert grad[a] == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_boundary_terms_square_to_bulk_terms():
    """Each boundary term squared is proportional to the matching bulk term,
    with the same constant 4 n_i at every node and every field value."""
    rs = build_root_system("A", 2)
    bp = adjacency_constraints(rs).boundary(signs=(1, 1, 1))
    energy, _ = _normalized(bp, rs)
    rng = np.random.default_rng(5)
    alphas = [np.asarray(rs.to_rootspace(rs.affine_vector(i))) for i in range(3)]
    for _ in range(5):
        phi = rng.uniform(-0.7, 0.7, size=2)
        terms = []
        for i in range(3):
            term = bp.b[i] * np.exp(alphas[i] @ phi / 2.0)
            bulk = rs.marks[i] * np.exp(alphas[i] @ phi)
            assert term**2 / bulk == pytest.approx(4.0 * rs.marks[i])
            terms.append(term)
        # the terms are those of the boundary's own B
        assert energy(phi) == pytest.approx(sum(terms), rel=1e-14)


def test_boundary_potential_rejects_off_constraint_magnitudes():
    """A fully constrained report takes no magnitude, not even the fixed
    ones (accepted once); a free rank-one report takes exactly two."""
    rs = build_root_system("A", 2)
    report = adjacency_constraints(rs)
    for magnitudes in ((1.0, 1.0, 1.0), [2.0 * np.sqrt(n) for n in rs.marks], (2.0,)):
        with pytest.raises(ValidationError, match="at each free node \\[\\], got"):
            report.boundary(signs=(1, 1, 1), magnitudes=magnitudes)
    with pytest.raises(ValidationError, match="magnitude"):
        adjacency_constraints(build_root_system("A", 1)).boundary(signs=(1, 1))
    assert report.boundary(signs=(1, -1, 1)).b == (2.0, -2.0, 2.0)
    with pytest.raises(ValidationError, match="signs"):
        report.boundary(signs=(1, 0, 1))


def test_boundary_asks_for_exactly_the_free_magnitudes():
    """A rank >= 2 report with one node outside ``fixed`` takes that
    node's magnitude, and only that one: the report, not its rank, decides."""
    report = ConstraintReport(system="a3", rank=3, route="matrix", fixed={0: 4, 1: 4, 3: 4})
    assert report.free == (2,)
    assert report.boundary(signs=(1, -1, -1, 1), magnitudes=(0.7,)).b == (2.0, -2.0, -0.7, 2.0)
    for magnitudes in ((), (0.7, 0.7), (2.0, 2.0, 0.7, 2.0)):
        with pytest.raises(ValidationError, match=r"^a3 takes a magnitude at each free node \[2\], got") as info:
            report.boundary(signs=(1, 1, 1, 1), magnitudes=magnitudes)
        assert len(str(info.value).splitlines()) == 1


def test_boundary_potential_d4_uses_marks():
    rs = build_root_system("D", 4)
    bp = adjacency_constraints(rs).boundary(signs=tuple([1] * 5))
    expected = [2.0 * np.sqrt(n) for n in rs.marks]
    assert list(bp.b) == expected  # sqrt(4 n_i) is 2 sqrt(n_i) to the bit, also at n_i = 2
    # one coefficient per affine node: it binds to the D4 model
    energy, _ = _normalized(bp, rs)
    assert energy(np.zeros(4)) == pytest.approx(sum(expected))
