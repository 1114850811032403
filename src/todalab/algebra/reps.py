"""Exact defining representation of the A-family algebras.

Matrices are nested tuples of exact numbers.  The A-family roots have
integer coordinates, so the representation itself is integer: step operators
``E_{e_i - e_j}`` are integer matrix units and the Cartan generators are
``H_a = diag(alpha_a)`` with integer entries (one per simple root).  The
Cartan element dual to any embedding-space vector ``v`` is ``diag(v)`` with
``Fraction`` entries, so that ``[H(u), E_beta] = (beta . u) E_beta`` and
``[E_beta, E_{-beta}] = H(beta)`` hold exactly (all roots have length^2 = 2
here).  Ints compare and hash equal to the ``Fraction`` of the same value,
so integer and rational matrices mix freely.

The generators have at most r+1 nonzero entries each, so products skip
zero entries (``mmul``); the arithmetic stays exact, and every relation
``defining_rep`` verifies is checked on the full matrices, in integers.
The same functions serve matrices of polynomials in the boundary
coefficients (``laxboundary.kmatrix``): they only add, subtract and
multiply entries, and test them for zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from ..errors import ValidationError
from .roots import RootSystem, Vector

Matrix = tuple[tuple[int | Fraction, ...], ...]


def diag(values: Sequence[int | Fraction]) -> Matrix:
    """Diagonal matrix of ``values``; its zeros have the type of the values."""
    n = len(values)
    return tuple(
        tuple(values[i] if i == j else 0 * values[i] for j in range(n))
        for i in range(n)
    )


def unit(n: int, i: int, j: int) -> Matrix:
    """Integer matrix unit with a 1 at (i, j)."""
    return tuple(
        tuple(1 if (a, b) == (i, j) else 0 for b in range(n)) for a in range(n)
    )


def madd(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def msub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mscale(c: Fraction, a: Matrix) -> Matrix:
    return tuple(tuple(c * x for x in row) for row in a)


def mmul(a: Matrix, b: Matrix) -> Matrix:
    """Exact product ``a @ b``, summing over the nonzero entries only.

    The generators are nearly all zeros, so each nonzero ``a[i][k]`` is
    multiplied into the nonzero entries of row ``k`` of ``b`` (listed once
    per call); the sums are the textbook ones without their zero terms.
    They start from the zero of ``a``'s entries, so integer matrices multiply
    in ints and ``Fraction`` matrices give ``Fraction`` entries throughout.
    """
    ncols = len(b[0]) if b else 0
    zero = 0 * a[0][0] if a and a[0] else 0
    b_rows = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for row in a:
        acc = [zero] * ncols
        for x, b_row in zip(row, b_rows):
            if x:
                for j, y in b_row:
                    acc[j] += x * y
        out.append(tuple(acc))
    return tuple(out)


def commutator(a: Matrix, b: Matrix) -> Matrix:
    return msub(mmul(a, b), mmul(b, a))


def anticommutator(a: Matrix, b: Matrix) -> Matrix:
    return madd(mmul(a, b), mmul(b, a))


def is_zero(a: Matrix) -> bool:
    return all(x == 0 for row in a for x in row)


@dataclass(frozen=True, eq=False)
class MatrixRep:
    """Defining representation: dimension and step operators."""

    rs: RootSystem
    n: int
    e_mats: dict[Vector, Matrix]

    def step(self, vec: Sequence[Fraction]) -> Matrix:
        key = tuple(Fraction(x) for x in vec)
        try:
            return self.e_mats[key]
        except KeyError:
            raise ValidationError(f"{vec} is not a root of {self.rs.name}") from None

    def node_steps(self) -> tuple[tuple[Matrix, ...], tuple[Matrix, ...]]:
        """(E_{alpha_i}, E_{-alpha_i}) for the affine nodes i = 0..r."""
        nodes = [self.rs.affine_vector(i) for i in range(self.rs.rank + 1)]
        return (
            tuple(self.step(v) for v in nodes),
            tuple(self.step([-x for x in v]) for v in nodes),
        )

    def cartan_element(self, vec: Sequence[Fraction]) -> Matrix:
        """diag(v): the Cartan-subalgebra element paired with embedding vector v."""
        return diag([Fraction(x) for x in vec])


def defining_rep(rs: RootSystem) -> MatrixRep:
    """(r+1) x (r+1) defining representation; family A only.

    Every commutation relation used by the Lax machinery is re-verified
    exactly before the representation is returned.
    """
    if rs.family != "A":
        raise ValidationError(
            f"matrix representation implemented for family A only, got {rs.family}"
        )
    n = rs.rank + 1
    e_mats: dict[Vector, Matrix] = {}
    for root in rs.roots:
        iv = tuple(int(x) for x in root.vector)
        e_mats[root.vector] = unit(n, iv.index(1), iv.index(-1))
    rep = MatrixRep(rs=rs, n=n, e_mats=e_mats)
    _verify(rep)
    return rep


def _verify(rep: MatrixRep) -> None:
    """Check the relations on the full matrices of ``rep``, in integers."""
    # step operators keyed by the integer coordinates of their roots
    by_ints = {tuple(int(x) for x in vec): e for vec, e in rep.e_mats.items()}
    rs = rep.rs
    nodes = [tuple(int(x) for x in rs.affine_vector(i)) for i in range(rs.rank + 1)]
    for a in nodes[1:]:
        h = diag(a)
        for iv, e in by_ints.items():
            want = mscale(sum(x * y for x, y in zip(iv, a)), e)
            if commutator(h, e) != want:
                raise AssertionError("[H_a, E_beta] != (beta.a) E_beta")
    for iv, e in by_ints.items():
        got = commutator(e, by_ints[tuple(-x for x in iv)])
        if got != diag(iv):
            raise AssertionError("[E_beta, E_{-beta}] != beta.H")
    e_plus, e_minus = rep.node_steps()
    for i, e in enumerate(e_plus):
        for j, f in enumerate(e_minus):
            if i != j and not is_zero(commutator(e, f)):
                raise AssertionError("[E_{alpha_i}, E_{-alpha_j}] != 0 for i != j")
