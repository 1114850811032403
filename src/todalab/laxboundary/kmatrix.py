"""Order-by-order solver for the boundary group element K(lambda).

Working in normalized units (mass scale and coupling set to one), the gauge
condition relating the two half-line connections reduces, per spectral order
n and per node exponential, to the linear matrix equations

    m_i [K_n+1, E_{-alpha_i}]  =  (b_i/4) [K_n, alpha_i . H]_+  +  m_i [K_n-1, E_{alpha_i}]

for the Taylor coefficients K_n of K (K_0 = 1).  The boundary coefficients
b_i are kept symbolic over the rationals, so the orders solved here are exact:
the first order pins k_1 = sum_i b_i E_{alpha_i} (equivalently the displayed
gradient of the boundary term), the second shows K_2 - k_1^2/2 is central
(k_2 = 0 after normalization), and the third either solves for k_3 or emits
polynomial obstructions whose vanishing constrains the b_i.  The series
and its obstructions are returned; ``constraints`` decides what they fix.
``k_gauge_residual`` measures how far a K is from solving the condition: the
test oracle of the series and of ``TodaBoundary.k_matrix``.

The matrix arithmetic (products, commutators, anticommutators) is that of
``algebra.reps``, run on ``Poly`` entries; this module only sets up and
solves the linear systems.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from ..algebra.reps import (
    Matrix,
    MatrixRep,
    anticommutator,
    commutator,
    defining_rep,
    madd,
    mmul,
    mscale,
    msub,
)
from ..algebra.roots import RootSystem
from ..errors import ValidationError
from ..simulate import AffineToda, TodaBoundary
from ._poly import Poly
from .lax import lax_frame

F = Fraction

# The matrix route's time grows about as rank**4.7: A16, A24 and A32 took
# 0.79 s, 3.7 s and 15 s (peak RSS 36, 49 and 80 MB) on a 2-CPU x86-64 host,
# so A128 would take hours.
MAX_MATRIX_RANK = 32

PolyMatrix = Matrix  # entries are Poly


# ---------------------------------------------------------------------------
# exact sparse linear algebra with polynomial right-hand sides


class ExactLinearSolver:
    """RREF of a rational matrix, reusable against polynomial right-hand sides.

    Rows are sparse dicts {column: Fraction}.  An identity block is carried
    through the elimination, so for any right-hand side the transformed values
    (and hence the obstructions in the cokernel) come from a single pass.
    """

    def __init__(self, rows: list[dict[int, F]], ncols: int):
        self.ncols = ncols
        self.nrows = len(rows)
        reduced: list[dict[int, F]] = []  # rows with a pivot, fully reduced
        pivots: dict[int, int] = {}  # pivot col -> index into reduced
        null_combos: list[dict[int, F]] = []  # aug parts of rows that vanished
        for r_idx, source in enumerate(rows):
            row = {c: v for c, v in source.items() if v != 0}
            row[ncols + r_idx] = F(1)
            while True:
                lead = min((c for c in row if c < ncols), default=None)
                if lead is None or lead not in pivots:
                    break
                factor = row[lead]
                for c, v in reduced[pivots[lead]].items():
                    s = row.get(c, F(0)) - factor * v
                    if s == 0:
                        row.pop(c, None)
                    else:
                        row[c] = s
            if lead is None:
                null_combos.append({c - ncols: v for c, v in row.items()})
                continue
            factor = row[lead]
            if factor != 1:
                row = {c: v / factor for c, v in row.items()}
            # back-eliminate the new pivot column from earlier rows
            for other in reduced:
                if lead in other:
                    f = other[lead]
                    for c, v in row.items():
                        s = other.get(c, F(0)) - f * v
                        if s == 0:
                            other.pop(c, None)
                        else:
                            other[c] = s
            pivots[lead] = len(reduced)
            reduced.append(row)
        self.pivots = pivots
        self.reduced = reduced
        self.null_combos = null_combos

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def solve(self, rhs: Sequence[Poly]) -> tuple[list[Poly], list[Poly]]:
        """Particular solution (free variables = 0) and cokernel obstructions."""
        if len(rhs) != self.nrows:
            raise ValidationError("rhs length does not match system")
        nvars = rhs[0].nvars if rhs else 0
        zero = Poly.zero(nvars)

        def combine(aug: dict[int, F]) -> Poly:
            total = zero
            for k, coeff in aug.items():
                if k >= 0 and rhs[k]:
                    total = total + rhs[k].scale(coeff)
            return total

        obstructions = [p for p in (combine(c) for c in self.null_combos) if p]
        solution = [zero] * self.ncols
        for pcol, idx in self.pivots.items():
            aug = {
                c - self.ncols: v
                for c, v in self.reduced[idx].items()
                if c >= self.ncols
            }
            solution[pcol] = combine(aug)
        return solution, obstructions


# ---------------------------------------------------------------------------
# the solver


@dataclass(frozen=True, eq=False)
class KExpansion:
    """Result of the order-by-order solve (coefficients symbolic in b_i)."""

    rs: RootSystem
    k1: PolyMatrix
    k3: PolyMatrix
    obstructions: list[Poly]


def _node_data(rs: RootSystem, rep: MatrixRep):
    nodes = range(rs.rank + 1)
    e_plus, e_minus = rep.node_steps()
    alpha_h = [rep.cartan_element(rs.affine_vector(i)) for i in nodes]
    # family A is simply-laced with unit marks: m_i = 1/2 exactly
    masses = [F(1, 2) for _ in nodes]
    return e_plus, e_minus, alpha_h, masses


def _adjoint_system(e_minus: Sequence[Matrix], masses: Sequence[F]) -> ExactLinearSolver:
    """Rows of X -> (m_i [X, E_{-alpha_i}])_i over flattened X."""
    n = len(e_minus[0])
    rows: list[dict[int, F]] = []
    for i, e in enumerate(e_minus):
        for p in range(n):
            for q in range(n):
                row: dict[int, F] = {}
                for a in range(n):
                    # coefficient of X[p][a] from X @ E
                    if e[a][q] != 0:
                        col = p * n + a
                        row[col] = row.get(col, F(0)) + masses[i] * e[a][q]
                    # coefficient of X[a][q] from -E @ X
                    if e[p][a] != 0:
                        col = a * n + q
                        row[col] = row.get(col, F(0)) - masses[i] * e[p][a]
                rows.append({c: v for c, v in row.items() if v != 0})
    return ExactLinearSolver(rows, n * n)


def _flatten_rhs(mats: list[PolyMatrix]) -> list[Poly]:
    return [x for m in mats for row in m for x in row]


def _unflatten(vec: list[Poly], n: int) -> PolyMatrix:
    return tuple(tuple(vec[i * n : (i + 1) * n]) for i in range(n))


def _remove_trace(mat: PolyMatrix) -> PolyMatrix:
    n = len(mat)
    tr = mat[0][0]
    for i in range(1, n):
        tr = tr + mat[i][i]
    shift = tr.scale(F(1, n))
    return tuple(
        tuple(x - shift if i == j else x for j, x in enumerate(row))
        for i, row in enumerate(mat)
    )


def _is_central(mat: PolyMatrix) -> bool:
    n = len(mat)
    first = mat[0][0]
    for i in range(n):
        for j in range(n):
            if i == j:
                if mat[i][j] != first:
                    return False
            elif mat[i][j]:
                return False
    return True


def solve_k_expansion(rs: RootSystem) -> KExpansion:
    """Solve the gauge condition order by order in the defining representation.

    Family A up to ``MAX_MATRIX_RANK`` (the matrix route).  Returns the
    exact expansion data; ``expansion_constraints`` reads its constraint
    report, to cross-check against ``adjacency_constraints`` for the
    combinatorial route.
    """
    if rs.family != "A" or rs.rank > MAX_MATRIX_RANK:
        raise ValidationError(f"matrix route requires family A of rank <= {MAX_MATRIX_RANK}, not {rs.name}")
    rep = defining_rep(rs)
    n = rep.n
    nnodes = rs.rank + 1  # one symbol b_i per affine node
    e_plus, e_minus, alpha_h, masses = _node_data(rs, rep)
    solver = _adjoint_system(e_minus, masses)

    if solver.ncols - solver.rank != 1:
        raise AssertionError("adjoint system kernel is not one-dimensional")

    b = [Poly.var(nnodes, i) for i in range(nnodes)]
    # constant generators as Poly matrices, so both orders of a product
    # sum Poly entries
    one = Poly.const(nnodes, 1)
    alpha_h_p = [mscale(one, m) for m in alpha_h]
    e_plus_p = [mscale(one, m) for m in e_plus]

    # order lambda^0: m_i [K1, E_{-i}] = (b_i/2) alpha_i.H
    rhs0 = [mscale(b[i].scale(F(1, 2)), alpha_h_p[i]) for i in range(nnodes)]
    sol, obs = solver.solve(_flatten_rhs(rhs0))
    if obs:
        raise AssertionError("unexpected obstruction at order lambda^0")
    k1 = _remove_trace(_unflatten(sol, n))
    expected_k1 = mscale(b[0], e_plus_p[0])
    for i in range(1, nnodes):
        expected_k1 = madd(expected_k1, mscale(b[i], e_plus_p[i]))
    if k1 != expected_k1:
        raise AssertionError("k1 does not reproduce the boundary-gradient form")

    # order lambda^1: m_i [K2, E_{-i}] = (b_i/4) [k1, alpha_i.H]_+
    rhs1 = [
        mscale(b[i].scale(F(1, 4)), anticommutator(k1, alpha_h_p[i]))
        for i in range(nnodes)
    ]
    sol, obs = solver.solve(_flatten_rhs(rhs1))
    if obs:
        raise AssertionError("unexpected obstruction at order lambda^1")
    k1_sq = mmul(k1, k1)
    if not _is_central(msub(_unflatten(sol, n), mscale(F(1, 2), k1_sq))):
        raise AssertionError("K2 - k1^2/2 is not central; k2 does not vanish")

    # order lambda^2: m_i [K3, E_{-i}] = (b_i/8) [k1^2, alpha_i.H]_+ + m_i [k1, E_i]
    rhs2 = [
        madd(
            mscale(b[i].scale(F(1, 8)), anticommutator(k1_sq, alpha_h_p[i])),
            mscale(masses[i], commutator(k1, e_plus_p[i])),
        )
        for i in range(nnodes)
    ]
    sol, obstructions = solver.solve(_flatten_rhs(rhs2))

    # rhs2 was assembled with K2 = k1^2/2, i.e. in the gauge k2 = 0 where
    # K3 = k3 + k1^3/6; the remaining scalar-rescale freedom only shifts the
    # trace, which is removed.
    k1_cu = mmul(k1_sq, k1)
    k3 = _remove_trace(msub(_unflatten(sol, n), mscale(F(1, 6), k1_cu)))

    return KExpansion(
        rs=rs,
        k1=k1,
        k3=k3,
        obstructions=obstructions,
    )


# ---------------------------------------------------------------------------
# the gauge-condition residual, the test oracle of a K


def k_gauge_residual(
    rs: RootSystem,
    kmat: np.ndarray,
    b: Sequence[float],
    phi: Sequence[float],
    lam: complex,
) -> float:
    """Max-norm residual of the boundary gauge condition in normalized units.

    lhs = (1/2) [K, dB/dphi . H]_+ , rhs = -[K, sum_i m_i (lam E_i -
    E_{-i}/lam) e^{alpha_i . phi / 2}] with B = sum_i b_i e^{alpha_i . phi/2},
    the ``TodaBoundary`` with coefficients b bound to ``AffineToda(rs)``.
    """
    frame = lax_frame(rs)
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (rs.rank,):
        raise ValidationError(f"phi must have {rs.rank} components")
    db = np.asarray(TodaBoundary(b=tuple(b)).bind(AffineToda(rs))(phi))
    expf = np.exp(frame.alpha_rootspace @ phi / 2.0)
    m_mat = np.einsum("a,aij->ij", db, frame.h_dirs).astype(complex)
    n_mat = np.einsum(
        "i,ijk->jk",
        frame.masses * expf,
        lam * frame.e_plus - frame.e_minus / lam,
    )
    lhs = 0.5 * (kmat @ m_mat + m_mat @ kmat)
    rhs = -(kmat @ n_mat - n_mat @ kmat)
    return float(np.max(np.abs(lhs - rhs)))
