"""Sign cocycle epsilon(alpha, beta) on the root lattice.

Built from the asymmetric bilinear form B on the simple-root basis:
``B[i][i] = 1``, ``B[i][j] = alpha_i . alpha_j`` for i < j, ``0`` for i > j,
extended biadditively; then ``epsilon = (-1)**B``.  Any consistent choice of
this kind works for structure constants ``[E_a, E_b] = eps(a,b) E_{a+b}``;
tests pin the consistency properties (antisymmetry, bilinearity, Jacobi), not
a particular sign table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from ..errors import ValidationError
from .roots import Root, RootSystem, _vadd


@dataclass(frozen=True, eq=False)
class Cocycle:
    """epsilon(alpha, beta) in {+1, -1} for roots with alpha + beta a root."""

    rs: RootSystem
    _bform: tuple[tuple[int, ...], ...]

    def epsilon(self, alpha: Root | Sequence[Fraction], beta: Root | Sequence[Fraction]) -> int:
        """Sign for a pair of roots whose sum is again a root."""
        a = self._as_root(alpha)
        b = self._as_root(beta)
        if not self.rs.is_root(_vadd(a.vector, b.vector)):
            raise ValidationError(
                f"epsilon undefined: {a.vector} + {b.vector} is not a root"
            )
        return self.sign_on_lattice(a.coeffs, b.coeffs)

    def sign_on_lattice(self, a_coeffs: Sequence[int], b_coeffs: Sequence[int]) -> int:
        """The raw bilinear sign, defined for any two lattice points."""
        total = 0
        for i, m in enumerate(a_coeffs):
            if m == 0:
                continue
            for j, n in enumerate(b_coeffs):
                if n == 0:
                    continue
                total += m * n * self._bform[i][j]
        return -1 if total % 2 else 1

    def _as_root(self, x: Root | Sequence[Fraction]) -> Root:
        if isinstance(x, Root):
            return x
        return self.rs.find(x)


def build_cocycle(rs: RootSystem) -> Cocycle:
    """Cocycle from the total order in which the simple roots are stored."""
    r = rs.rank
    bform = []
    for i in range(r):
        row = []
        for j in range(r):
            if i == j:
                row.append(1)
            elif i < j:
                row.append(rs.cartan[i][j] % 2)
            else:
                row.append(0)
        bform.append(tuple(row))
    return Cocycle(rs=rs, _bform=tuple(bform))


def epsilon(c: Cocycle, alpha, beta) -> int:
    """Functional form of ``Cocycle.epsilon``."""
    return c.epsilon(alpha, beta)
