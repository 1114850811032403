"""Root-system construction against independent enumeration oracles."""

from fractions import Fraction
from itertools import product
from math import sqrt

import pytest

from todalab.algebra import build_root_system, dot, mass_coefficients, to_json_dict
from todalab.errors import ValidationError

F = Fraction


def brute_force_roots(simple, bound):
    """Oracle: all integer combinations of simple roots with norm^2 == 2.

    Independent of the height-closure algorithm; scans the coefficient box
    [-bound, bound]^rank directly.
    """
    found = set()
    rank = len(simple)
    for coeffs in product(range(-bound, bound + 1), repeat=rank):
        vec = tuple(
            sum((F(c) * a[k] for c, a in zip(coeffs, simple)), F(0))
            for k in range(len(simple[0]))
        )
        if dot(vec, vec) == F(2):
            found.add(vec)
    return found


def classical_e8_roots():
    """Oracle: the textbook E8 root set in R^8.

    112 integer roots (two entries +-1) plus 128 half-integer roots with an
    even number of minus signs.
    """
    roots = set()
    for i in range(8):
        for j in range(i + 1, 8):
            for si in (1, -1):
                for sj in (1, -1):
                    v = [F(0)] * 8
                    v[i], v[j] = F(si), F(sj)
                    roots.add(tuple(v))
    for signs in product((F(1, 2), F(-1, 2)), repeat=8):
        if sum(1 for s in signs if s < 0) % 2 == 0:
            roots.add(signs)
    return roots


@pytest.mark.parametrize(
    "family,rank,count",
    [("A", 1, 2), ("A", 2, 6), ("A", 4, 20), ("D", 4, 24), ("E", 6, 72), ("E", 7, 126), ("E", 8, 240)],
)
def test_root_counts(family, rank, count):
    rs = build_root_system(family, rank)
    assert len(rs.roots) == count
    assert len(rs.positive_roots) == count // 2


def test_a2_matches_brute_force_enumeration():
    rs = build_root_system("A", 2)
    oracle = brute_force_roots(rs.simple_roots, bound=3)
    assert rs.root_set() == oracle
    assert len(oracle) == 6


def test_d4_matches_brute_force_enumeration():
    rs = build_root_system("D", 4)
    oracle = brute_force_roots(rs.simple_roots, bound=3)
    assert rs.root_set() == oracle


def test_e8_matches_classical_description():
    rs = build_root_system("E", 8)
    assert rs.root_set() == classical_e8_roots()


@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 3), ("D", 5), ("E", 6)])
def test_invariants(family, rank):
    rs = build_root_system(family, rank)
    # every root has length^2 = 2
    for r in rs.roots:
        assert dot(r.vector, r.vector) == F(2)
        # stored expansion reproduces the vector
        rebuilt = tuple(
            sum((F(c) * a[k] for c, a in zip(r.coeffs, rs.simple_roots)), F(0))
            for k in range(rs.dim)
        )
        assert rebuilt == r.vector
        assert r.height == sum(r.coeffs)
    # alpha0 + sum n_i alpha_i = 0 exactly
    acc = list(rs.alpha0)
    for n, a in zip(rs.marks[1:], rs.simple_roots):
        acc = [x + n * y for x, y in zip(acc, a)]
    assert all(x == 0 for x in acc)
    assert rs.marks[0] == 1
    # Cartan matrix is simply-laced
    for i, row in enumerate(rs.cartan):
        for j, entry in enumerate(row):
            assert entry in (2, 0, -1)
            assert entry == (2 if i == j else int(dot(rs.simple_roots[i], rs.simple_roots[j])))
    # Coxeter number consistency
    assert rs.coxeter_number == len(rs.roots) // rs.rank
    assert rs.coxeter_number == 1 + rs.highest_root.height


@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("D", 4)])
def test_closure_is_idempotent(family, rank):
    rs = build_root_system(family, rank)
    vectors = rs.root_set()
    for u in vectors:
        for v in vectors:
            s = tuple(a + b for a, b in zip(u, v))
            if dot(u, v) == F(-1):
                # simply-laced criterion: the sum must already be in the set
                assert s in vectors
            elif any(x != 0 for x in s):
                # non-adjacent pairs never produce new roots
                assert s not in vectors or dot(u, v) == F(-1)


def test_a1_reference_data():
    rs = build_root_system("A", 1)
    # alpha_1 has length sqrt(2), alpha_0 = -alpha_1, marks (1, 1)
    assert dot(rs.simple_roots[0], rs.simple_roots[0]) == F(2)
    assert rs.alpha0 == tuple(-x for x in rs.simple_roots[0])
    assert rs.marks == (1, 1)
    # 1-component coordinate of alpha_1 is sqrt(2)
    assert rs.to_rootspace(rs.simple_roots[0])[0] == pytest.approx(sqrt(2.0))


def test_rejects_unsupported_systems():
    for family, rank in [("A", 0), ("A", 129), ("D", 3), ("D", 129), ("E", 5), ("E", 9), ("B", 2), ("G", 2)]:
        with pytest.raises(ValidationError, match="A_r"):
            build_root_system(family, rank)


def test_mass_coefficients():
    # simply-laced with n_i = 1 gives m_i = 1/2 at every node
    rs = build_root_system("A", 3)
    assert mass_coefficients(rs) == pytest.approx([0.5] * 4)
    rs1 = build_root_system("A", 1)
    assert mass_coefficients(rs1) == pytest.approx([0.5, 0.5])
    # D4 central node carries mark 2: m = sqrt(2)/2
    rs4 = build_root_system("D", 4)
    masses = mass_coefficients(rs4)
    expect = [0.5 if n == 1 else sqrt(2.0) / 2.0 for n in rs4.marks]
    assert masses == pytest.approx(expect)
    assert sorted(rs4.marks) == [1, 1, 1, 1, 2]


def test_json_dump_shape():
    rs = build_root_system("A", 2)
    d = to_json_dict(rs)
    assert set(d) == {"family", "rank", "marks", "cartan", "roots"}
    assert d["rank"] == 2 and d["marks"] == [1, 1, 1]
    assert len(d["roots"]) == 6
    entry = d["roots"][0]
    assert set(entry) == {"vector", "coeffs", "height"}


def test_orthobasis_preserves_inner_products():
    rs = build_root_system("D", 4)
    import numpy as np

    for r in rs.roots[:8]:
        v = rs.to_rootspace(r.vector)
        assert np.dot(v, v) == pytest.approx(2.0, abs=1e-12)
