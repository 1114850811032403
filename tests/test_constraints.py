"""Adjacency-route constraints and cross-route agreement."""

from dataclasses import replace

import pytest

from todalab.algebra import affine_adjacency, build_root_system
from todalab.laxboundary import (
    adjacency_constraints,
    expansion_constraints,
    routes_agree,
    solve_k_expansion,
)


def test_rank_one_has_no_adjacent_pair_and_stays_free():
    rs = build_root_system("A", 1)
    report = adjacency_constraints(rs)
    assert affine_adjacency(rs) == []
    assert report.fixed == {}
    assert report.free == (0, 1)
    assert not report.fully_constrained


def test_a2_all_nodes_fixed_with_eight_sign_choices():
    report = adjacency_constraints(build_root_system("A", 2))
    assert report.fixed == {0: 4, 1: 4, 2: 4}
    assert report.free == ()
    assert report.to_json_dict()["sign_choices"] == 8


def test_d4_pattern_follows_the_marks():
    rs = build_root_system("D", 4)
    report = adjacency_constraints(rs)
    assert sorted(report.fixed.values()) == [4, 4, 4, 4, 8]
    assert report.fixed == {i: 4 * rs.marks[i] for i in range(5)}
    assert report.to_json_dict()["sign_choices"] == 32
    # affine node attaches to the mark-2 center only
    center = next(i for i, n in enumerate(rs.marks) if n == 2)
    assert (0, center) in affine_adjacency(rs)


@pytest.mark.parametrize("family,rank", [("E", 6), ("E", 7), ("E", 8), ("D", 5)])
def test_higher_systems_fully_constrained(family, rank):
    rs = build_root_system(family, rank)
    report = adjacency_constraints(rs)
    assert report.fully_constrained
    assert report.fixed == {i: 4 * rs.marks[i] for i in range(rank + 1)}


def _both_routes(family, rank):
    rs = build_root_system(family, rank)
    return adjacency_constraints(rs), expansion_constraints(solve_k_expansion(rs))


@pytest.mark.parametrize("rank", range(2, 9))
def test_matrix_and_adjacency_routes_agree_exactly(rank):
    assert routes_agree(*_both_routes("A", rank))


def test_matrix_route_rank_one_also_agrees():
    assert routes_agree(*_both_routes("A", 1))


def test_reports_that_differ_in_fixed_or_free_nodes_disagree():
    report = adjacency_constraints(build_root_system("A", 2))
    assert routes_agree(report, replace(report, route="matrix"))
    assert not routes_agree(report, replace(report, fixed={0: 4, 1: 4}))
    assert not routes_agree(report, replace(report, rank=3))


_ADJACENCY_SYSTEMS = (
    [("A", r) for r in range(1, 9)] + [("D", r) for r in range(4, 9)] + [("E", r) for r in (6, 7, 8)]
)


@pytest.mark.parametrize(
    "route,family,rank",
    [("adjacency", f, r) for f, r in _ADJACENCY_SYSTEMS] + [("matrix", "A", r) for r in range(1, 6)],
)
def test_free_and_fixed_nodes_partition_the_affine_nodes(route, family, rank):
    rs = build_root_system(family, rank)
    if route == "adjacency":
        report = adjacency_constraints(rs)
    else:
        report = expansion_constraints(solve_k_expansion(rs))
    assert report.route == route
    assert not set(report.free) & set(report.fixed)
    assert sorted([*report.free, *report.fixed]) == list(range(rank + 1))


def test_json_report_shape():
    report = adjacency_constraints(build_root_system("A", 2))
    d = report.to_json_dict()
    assert d["system"] == "a2"
    assert d["sign_choices"] == 8
    assert d["zero_solution"] == "b_i = 0 for i = 0..2"
    assert "sign_vectors" not in d
    assert d["free_parameters"] == []
    assert {c["node"] for c in d["constraints"]} == {0, 1, 2}
    assert all(c["b_squared"] == 4 for c in d["constraints"])

    free_report = adjacency_constraints(build_root_system("A", 1)).to_json_dict()
    assert free_report["free_parameters"] == ["b_0", "b_1"]
    assert free_report["sign_choices"] == 0
    assert free_report["constraints"] == []
    assert "zero_solution" not in free_report


def test_matrix_report_carries_route_label():
    report = expansion_constraints(solve_k_expansion(build_root_system("A", 2)))
    assert report.route == "matrix"
    assert report.fixed == {0: 4, 1: 4, 2: 4}
