"""Dynkin-adjacency route to the boundary-coefficient constraints.

For a simply-laced system, every affine node with a neighbour on the affine
diagram (``alpha_i . alpha_j = -1``) gets its coefficient pinned to
``b_i^2 = 4 n_i``; the rank-one system has no such pair and stays free.  This
is the combinatorial counterpart of the matrix route in ``kmatrix``; the two
must agree wherever both run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

from ..algebra.roots import RootSystem, affine_adjacency
from ..errors import ValidationError
from .kmatrix import KExpansion

# a report refuses to list the 2**(rank + 1) sign vectors past this many
MAX_SIGN_VECTORS = 2**17


def check_sign_choices(rank: int, name: str = "rank") -> None:
    """Raise a ValidationError, before any list is built, when the sign
    vectors of a rank-``rank`` report would pass ``MAX_SIGN_VECTORS``;
    ``name`` is what the message calls the rank."""
    if rank + 1 > math.log2(MAX_SIGN_VECTORS):
        raise ValidationError(
            f"{name} {rank}: the report would list 2**{rank + 1} sign choices, more than {MAX_SIGN_VECTORS}"
        )


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

    def sign_vectors(self) -> list[tuple[int, ...]] | None:
        if not self.fully_constrained:
            return None
        check_sign_choices(self.rank)
        return list(product((1, -1), repeat=self.rank + 1))

    def to_json_dict(self) -> dict:
        vecs = self.sign_vectors()
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
        if vecs is not None:
            out["sign_vectors"] = [list(v) for v in vecs]
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
