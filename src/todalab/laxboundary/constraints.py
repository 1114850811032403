"""Dynkin-adjacency route to the boundary-coefficient constraints.

For a simply-laced system, every affine node with a neighbour on the affine
diagram (``alpha_i . alpha_j = -1``) gets its coefficient pinned to
``b_i^2 = 4 n_i``; the rank-one system has no such pair and stays free.  This
is the combinatorial counterpart of the matrix route in ``kmatrix``; the two
must agree wherever both run.

A fully constrained report states its solution set as a rule and a count:
``b = 0``, or ``|b_i| = 2 sqrt(n_i)`` with the ``2**(rank + 1)`` independent
signs (Bowcock, Corrigan, Dorey & Rietdijk 1995).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..algebra.roots import RootSystem, affine_adjacency
from .kmatrix import KExpansion


@dataclass(frozen=True, eq=False)
class ConstraintReport:
    system: str
    rank: int
    route: str
    fixed: dict[int, int]  # node -> forced b_i^2 (= 4 n_i)
    free: tuple[int, ...]

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
    nnodes = rs.rank + 1
    with_neighbor = sorted({i for pair in adj for i in pair})
    fixed = {i: 4 * rs.marks[i] for i in with_neighbor}
    free = tuple(i for i in range(nnodes) if i not in fixed)
    return ConstraintReport(
        system=rs.name,
        rank=rs.rank,
        route="adjacency",
        fixed=fixed,
        free=free,
    )


def expansion_constraints(exp: KExpansion) -> ConstraintReport:
    """Matrix-route constraint report of an already solved K series."""
    rs = exp.rs
    return ConstraintReport(
        system=rs.name,
        rank=rs.rank,
        route="matrix",
        fixed=dict(exp.fixed_nodes),
        free=exp.free_nodes,
    )


def routes_agree(a: ConstraintReport, b: ConstraintReport) -> bool:
    """Exact agreement of two constraint reports: the same fixed
    coefficients and the same free ones."""
    return a.fixed == b.fixed and a.free == b.free
