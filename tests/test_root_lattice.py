"""Integer root-lattice construction against the rational height closure.

The oracle below builds every root system the way it was built in exact
``Fraction`` arithmetic: Euclidean simple roots, inner products by ``dot``,
and the height closure ``beta + alpha_i`` whenever ``beta . alpha_i == -1``.
The library builds the same data on integer simple-root coordinates through
the Cartan matrix; the two must agree exactly, root order included.
"""

from fractions import Fraction
from functools import lru_cache
from math import sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from todalab.algebra import affine_adjacency, build_root_system, dot, mass_coefficients
from todalab.laxboundary import adjacency_constraints, lax_frame
from todalab.simulate import AffineToda, SinhGordon, TodaBoundary, toda_units

F = Fraction

PAIRS = (
    [("A", r) for r in range(1, 11)]
    + [("D", r) for r in range(4, 11)]
    + [("E", r) for r in range(6, 9)]
)


def _simple_roots(family, rank):
    zero, one, half = F(0), F(1), F(1, 2)
    if family == "A":
        dim, chain = rank + 1, rank
    else:
        dim, chain = rank, rank - 1
    if family in ("A", "D"):
        roots = []
        for i in range(chain):
            v = [zero] * dim
            v[i], v[i + 1] = one, -one
            roots.append(tuple(v))
        if family == "D":
            v = [zero] * dim
            v[rank - 2] = v[rank - 1] = one
            roots.append(tuple(v))
        return roots
    a1 = (half, -half, -half, -half, -half, -half, -half, half)
    a2 = (one, one) + (zero,) * 6
    rest = []
    for i in range(6):
        v = [zero] * 8
        v[i], v[i + 1] = -one, one
        rest.append(tuple(v))
    return [a1, a2, *rest][:rank]


@lru_cache(maxsize=None)
def fraction_oracle(family, rank):
    """(simple roots, sorted (vector, coeffs, height) list) by the rational closure."""
    simple = _simple_roots(family, rank)
    known = {}
    frontier = {}
    for i, a in enumerate(simple):
        known[a] = frontier[a] = tuple(int(j == i) for j in range(rank))
    while frontier:
        nxt = {}
        for beta, coeffs in frontier.items():
            for i, alpha in enumerate(simple):
                if dot(beta, alpha) == F(-1):
                    gamma = tuple(x + y for x, y in zip(beta, alpha))
                    if gamma not in known:
                        c = tuple(n + (j == i) for j, n in enumerate(coeffs))
                        known[gamma] = nxt[gamma] = c
        frontier = nxt
    roots = []
    for vec, coeffs in known.items():
        h = sum(coeffs)
        roots.append((vec, coeffs, h))
        roots.append((tuple(-x for x in vec), tuple(-c for c in coeffs), -h))
    roots.sort(key=lambda r: (r[2], r[0]))
    return simple, roots


@pytest.mark.parametrize("family,rank", PAIRS)
def test_matches_fraction_oracle(family, rank):
    rs = build_root_system(family, rank)
    simple, roots = fraction_oracle(family, rank)
    assert rs.simple_roots == tuple(simple)
    assert [(r.vector, r.coeffs, r.height) for r in rs.roots] == roots
    assert all(isinstance(x, F) for r in rs.roots for x in r.vector)
    for r in rs.roots:
        total = tuple(
            sum((c * a[k] for c, a in zip(r.coeffs, simple)), F(0)) for k in range(len(simple[0]))
        )
        assert r.vector == total
    highest = roots[-1]
    assert rs.marks == (1,) + highest[1]
    assert rs.alpha0 == tuple(-x for x in highest[0])
    assert rs.cartan == tuple(
        tuple(int(2 * dot(a, b) / dot(b, b)) for b in simple) for a in simple
    )
    assert rs.coxeter_number == len(roots) // rank

    nodes = [rs.alpha0] + simple
    assert affine_adjacency(rs) == [
        (i, j)
        for i in range(rank + 1)
        for j in range(i + 1, rank + 1)
        if dot(nodes[i], nodes[j]) == F(-1)
    ]
    assert mass_coefficients(rs) == [
        sqrt(n * float(dot(v, v)) / 8.0) for n, v in zip(rs.marks, nodes)
    ]


@given(
    pair=st.sampled_from(PAIRS),
    coeffs=st.lists(st.integers(min_value=-3, max_value=3), min_size=10, max_size=10),
)
@settings(max_examples=300, deadline=None)
def test_lattice_points_against_rational_inner_products(pair, coeffs):
    """On any lattice point, the Cartan matrix gives the exact inner products
    and the roots are exactly the points of norm^2 2."""
    family, rank = pair
    rs = build_root_system(family, rank)
    simple, _ = fraction_oracle(family, rank)
    coeffs = tuple(coeffs[:rank])
    vec = tuple(
        sum((c * a[k] for c, a in zip(coeffs, simple)), F(0)) for k in range(len(simple[0]))
    )
    for i, a in enumerate(simple):
        assert dot(vec, a) == sum(c * row[i] for c, row in zip(coeffs, rs.cartan))
    assert rs.is_root(vec) == (dot(vec, vec) == 2)
    if rs.is_root(vec):
        assert rs.find(vec).coeffs == coeffs


@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 4), ("D", 5), ("E", 8)])
def test_affine_rootspace_matches_per_node_projection(family, rank):
    rs = build_root_system(family, rank)
    old = np.asarray(
        [rs.to_rootspace(rs.affine_vector(i)) for i in range(rs.rank + 1)], dtype=float
    )
    got = rs.affine_rootspace
    assert got.dtype == np.float64 and got.shape == (rank + 1, rank)
    assert np.array_equal(got, old)
    assert not got.flags.writeable
    assert rs.affine_rootspace is got


def test_models_share_the_cached_affine_rootspace():
    rs = build_root_system("A", 2)
    model = AffineToda(rs)
    assert model._alpha is rs.affine_rootspace
    assert lax_frame(rs).alpha_rootspace is rs.affine_rootspace
    bp = adjacency_constraints(rs).boundary((1, 1, 1))
    assert bp._data(model)[1] is rs.affine_rootspace
    # the scalar model binds through the one unit map to the A1 system
    m, beta = 1.3, 0.8
    sinh, a1 = SinhGordon(m, beta), AffineToda(build_root_system("A", 1), m / 2.0, beta / sqrt(2.0))
    boundary = TodaBoundary(b=(0.7, -0.4))
    assert toda_units(sinh)[1:] == (a1.m, a1.beta)
    # every sinh-Gordon model reads the one shared A1 system
    assert boundary._data(sinh)[1] is boundary._data(SinhGordon())[1]
    for phi in (0.0, 0.37, -1.2):
        assert boundary.bind(sinh)([phi]) == boundary.bind(a1)([phi])
        b_sinh = boundary.energy(sinh)(np.array([phi]))
        assert np.float64(b_sinh).tobytes() == np.float64(boundary.energy(a1)(np.array([phi]))).tobytes()
