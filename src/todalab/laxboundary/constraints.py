"""Both routes' verdicts on the boundary coefficients.

Adjacency route: every affine node with a neighbour on the affine diagram
(``alpha_i . alpha_j = -1``) has ``b_i^2 = 4 n_i``; the rank-one system has
no such pair and stays free.  Matrix route: the nodes that the obstructions
of ``kmatrix``'s K series fix.  The two must agree wherever both run.

A fully constrained report states its solution set as a rule and a count:
``b = 0``, or ``|b_i| = 2 sqrt(n_i)`` with the ``2**(rank + 1)`` independent
signs (Bowcock, Corrigan, Dorey & Rietdijk 1995).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as F

from ..algebra.roots import RootSystem, affine_adjacency
from ._poly import Poly
from .kmatrix import KExpansion


@dataclass(frozen=True, eq=False)
class ConstraintReport:
    system: str
    rank: int
    route: str
    fixed: dict[int, int]  # node -> forced b_i^2 (= 4 n_i)

    @property
    def free(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.rank + 1) if i not in self.fixed)

    @property
    def fully_constrained(self) -> bool:
        return len(self.fixed) == self.rank + 1

    def to_json_dict(self) -> dict:
        out = {
            "system": self.system,
            "route": self.route,
            "constraints": [
                {"node": i, "relation": f"b_{i}^2 = 4*n_{i}", "b_squared": v}
                for i, v in sorted(self.fixed.items())
            ],
            "free_parameters": [f"b_{i}" for i in self.free],
            "sign_choices": 2 ** (self.rank + 1) if self.fully_constrained else 0,
        }
        if self.fully_constrained:
            out["zero_solution"] = f"b_i = 0 for i = 0..{self.rank}"
        return out


def adjacency_constraints(rs: RootSystem) -> ConstraintReport:
    """Constraint report from affine Dynkin adjacency alone."""
    adj = affine_adjacency(rs)
    with_neighbor = sorted({i for pair in adj for i in pair})
    fixed = {i: 4 * rs.marks[i] for i in with_neighbor}
    return ConstraintReport(
        system=rs.name,
        rank=rs.rank,
        route="adjacency",
        fixed=fixed,
    )


def _constrained_nodes(obstructions: list[Poly], nnodes: int) -> dict[int, int]:
    """Which nodes are forced to b_i^2 = 4 by the obstruction set.

    Restrict all other variables to a valid sign choice (b_j = 2); the
    surviving univariate polynomials must vanish exactly at b_i = +-2, and the
    node counts as fixed when at least one of them is not identically zero.
    """
    fixed: dict[int, int] = {}
    for i in range(nnodes):
        others = {j: F(2) for j in range(nnodes) if j != i}
        forced = False
        for poly in obstructions:
            uni = poly.partial_substitute(others)
            if uni.is_zero():
                continue
            if uni.substitute([F(2)] * nnodes) != 0 or uni.substitute(
                [F(-2) if k == i else F(2) for k in range(nnodes)]
            ) != 0:
                raise AssertionError(
                    f"obstruction {poly} is not solved by b_i = +-2; "
                    "no integrable boundary of this form"
                )
            forced = True
        if forced:
            fixed[i] = 4
    return fixed


def expansion_constraints(exp: KExpansion) -> ConstraintReport:
    """Matrix-route constraint report of an already solved K series."""
    rs = exp.rs
    return ConstraintReport(
        system=rs.name,
        rank=rs.rank,
        route="matrix",
        fixed=_constrained_nodes(exp.obstructions, rs.rank + 1),
    )


def routes_agree(a: ConstraintReport, b: ConstraintReport) -> bool:
    """Exact agreement of two constraint reports: the same fixed
    coefficients of the same rank, hence the same free ones."""
    return a.rank == b.rank and a.fixed == b.fixed
