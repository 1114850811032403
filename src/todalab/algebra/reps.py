"""Exact defining representation of the A-family algebras.

Matrices are nested tuples of ``Fraction``.  Cartan generators are stored as
``H_a = diag(alpha_a)`` (rational, one per simple root); the Cartan element
dual to any embedding-space vector ``v`` is ``diag(v)``, so that
``[H(u), E_beta] = (beta . u) E_beta`` and ``[E_beta, E_{-beta}] = H(beta)``
hold exactly (all roots have length^2 = 2 here).

The generators have at most r+1 nonzero entries each, so products skip
zero entries (``mmul``); the arithmetic stays exact, and every relation
``defining_rep`` verifies is checked on the full matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from ..errors import ValidationError
from .roots import RootSystem, Vector, dot, _vneg

Matrix = tuple[tuple[Fraction, ...], ...]


def zeros(n: int) -> Matrix:
    return tuple(tuple(Fraction(0) for _ in range(n)) for _ in range(n))


def eye(n: int) -> Matrix:
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
    )


def diag(values: Sequence[Fraction]) -> Matrix:
    n = len(values)
    return tuple(
        tuple(Fraction(values[i]) if i == j else Fraction(0) for j in range(n))
        for i in range(n)
    )


def unit(n: int, i: int, j: int) -> Matrix:
    return tuple(
        tuple(Fraction(1 if (a, b) == (i, j) else 0) for b in range(n))
        for a in range(n)
    )


def msub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mscale(c: Fraction, a: Matrix) -> Matrix:
    return tuple(tuple(c * x for x in row) for row in a)


def mmul(a: Matrix, b: Matrix) -> Matrix:
    """Exact product ``a @ b``, summing over the nonzero entries only.

    The generators are nearly all zeros, so each nonzero ``a[i][k]`` is
    multiplied into the nonzero entries of row ``k`` of ``b`` (listed once
    per call); the sums are the textbook ones without their zero terms.
    """
    ncols = len(b[0]) if b else 0
    b_rows = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for row in a:
        acc = [Fraction(0)] * ncols
        for x, b_row in zip(row, b_rows):
            if x:
                for j, y in b_row:
                    acc[j] += x * y
        out.append(tuple(acc))
    return tuple(out)


def commutator(a: Matrix, b: Matrix) -> Matrix:
    return msub(mmul(a, b), mmul(b, a))


def is_zero(a: Matrix) -> bool:
    return all(x == 0 for row in a for x in row)


@dataclass(frozen=True, eq=False)
class MatrixRep:
    """Defining representation: dimension, Cartan generators, step operators."""

    rs: RootSystem
    n: int
    h_mats: tuple[Matrix, ...]
    e_mats: dict[Vector, Matrix]

    def step(self, vec: Sequence[Fraction]) -> Matrix:
        key = tuple(Fraction(x) for x in vec)
        try:
            return self.e_mats[key]
        except KeyError:
            raise ValidationError(f"{vec} is not a root of {self.rs.name}") from None

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
        i = root.vector.index(Fraction(1))
        j = root.vector.index(Fraction(-1))
        e_mats[root.vector] = unit(n, i, j)
    h_mats = tuple(diag(a) for a in rs.simple_roots)
    rep = MatrixRep(rs=rs, n=n, h_mats=h_mats, e_mats=e_mats)
    _verify(rep)
    return rep


def _verify(rep: MatrixRep) -> None:
    rs = rep.rs
    for a, h in zip(rs.simple_roots, rep.h_mats):
        for root in rs.roots:
            want = mscale(dot(root.vector, a), rep.e_mats[root.vector])
            if commutator(h, rep.e_mats[root.vector]) != want:
                raise AssertionError("[H_a, E_beta] != (beta.a) E_beta")
    for root in rs.roots:
        got = commutator(rep.e_mats[root.vector], rep.e_mats[_vneg(root.vector)])
        if got != rep.cartan_element(root.vector):
            raise AssertionError("[E_beta, E_{-beta}] != beta.H")
    nodes = [rs.affine_vector(i) for i in range(rs.rank + 1)]
    for i, ai in enumerate(nodes):
        for j, aj in enumerate(nodes):
            if i == j:
                continue
            got = commutator(rep.e_mats[ai], rep.e_mats[_vneg(aj)])
            if not is_zero(got):
                raise AssertionError("[E_{alpha_i}, E_{-alpha_j}] != 0 for i != j")
