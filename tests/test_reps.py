"""Defining-representation matrices and their exact commutation relations."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from todalab.algebra import build_root_system, defining_rep, dot
from todalab.algebra.reps import anticommutator, commutator, is_zero, mmul, mscale, unit
from todalab.errors import ValidationError
from todalab.laxboundary._poly import Poly

F = Fraction


def test_a1_basis_matrices():
    rs = build_root_system("A", 1)
    rep = defining_rep(rs)
    alpha = rs.simple_roots[0]
    assert rep.step(alpha) == unit(2, 0, 1)
    assert rep.step(rs.alpha0) == unit(2, 1, 0)
    # H paired with alpha is diag(1, -1); the Cartan element (alpha/2).H
    # is then diag(1/2, -1/2)
    assert rep.cartan_element(alpha) == ((F(1), F(0)), (F(0), F(-1)))
    half = [x / 2 for x in alpha]
    assert rep.cartan_element(half) == ((F(1, 2), F(0)), (F(0), F(-1, 2)))


@pytest.mark.parametrize("rank", [2, 3, 5])
def test_commutation_relations_family_a(rank):
    """Direct matrix commutators for [H.u, E], [E, E^-] on every root."""
    rs = build_root_system("A", rank)
    rep = defining_rep(rs)  # construction re-verifies, but check independently
    for u in rs.simple_roots:
        h = rep.cartan_element(u)
        for root in rs.roots:
            e = rep.step(root.vector)
            assert commutator(h, e) == mscale(dot(root.vector, u), e)
    for root in rs.roots:
        e_plus = rep.step(root.vector)
        e_minus = rep.step(tuple(-x for x in root.vector))
        assert commutator(e_plus, e_minus) == rep.cartan_element(root.vector)


def test_cross_node_commutators_vanish():
    rs = build_root_system("A", 2)
    rep = defining_rep(rs)
    nodes = [rs.affine_vector(i) for i in range(3)]
    for i, ai in enumerate(nodes):
        for j, aj in enumerate(nodes):
            if i == j:
                continue
            c = commutator(rep.step(ai), rep.step(tuple(-x for x in aj)))
            assert is_zero(c)


def test_rejects_non_a_families():
    rs = build_root_system("D", 4)
    with pytest.raises(ValidationError, match="family A"):
        defining_rep(rs)


def test_step_rejects_non_roots():
    rs = build_root_system("A", 2)
    rep = defining_rep(rs)
    with pytest.raises(ValidationError, match="not a root"):
        rep.step((F(2), F(-2), F(0)))


_entries = st.one_of(
    st.just(F(0)),
    st.just(F(0)),
    st.just(F(0)),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
)


@st.composite
def _square_pair(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    mat = st.tuples(*[st.tuples(*[_entries] * n)] * n)
    return draw(mat), draw(mat)


@given(_square_pair())
@settings(max_examples=200, deadline=None)
def test_sparse_mmul_matches_textbook_product(pair):
    """Skipping zero entries leaves every exact sum unchanged."""
    a, b = pair
    n = len(a)
    textbook = tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(n)), F(0)) for j in range(n))
        for i in range(n)
    )
    got = mmul(a, b)
    assert got == textbook
    assert all(isinstance(x, F) for row in got for x in row)


_NV = 2
_coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_polys = st.one_of(
    st.just(Poly.zero(_NV)),
    st.dictionaries(
        st.tuples(*[st.integers(min_value=0, max_value=2)] * _NV), _coeffs, max_size=3
    ).map(lambda terms: Poly(_NV, terms)),
)


@st.composite
def _poly_pair(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    mat = st.tuples(*[st.tuples(*[_polys] * n)] * n)
    return draw(mat), draw(mat)


def _dense_product(a, b):
    n = len(a)
    out = [[Poly.zero(_NV) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[i][j] = out[i][j] + a[i][k] * b[k][j]
    return out


@given(_poly_pair(), st.one_of(st.integers(-5, 5), _coeffs))
@settings(max_examples=100, deadline=None)
def test_poly_matrices_match_dense_oracle(pair, k):
    """The exact matrix algebra runs unchanged on Poly entries."""
    a, b = pair
    ab, ba = _dense_product(a, b), _dense_product(b, a)
    n = len(a)
    idx = [(i, j) for i in range(n) for j in range(n)]
    assert all(mmul(a, b)[i][j] == ab[i][j] for i, j in idx)
    assert all(commutator(a, b)[i][j] == ab[i][j] - ba[i][j] for i, j in idx)
    assert all(anticommutator(a, b)[i][j] == ab[i][j] + ba[i][j] for i, j in idx)
    p = a[0][0]
    assert k * p == p * k == p.scale(k)
