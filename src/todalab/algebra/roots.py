"""Simply-laced root systems (A, D, E) in exact rational arithmetic.

Simple roots use the standard Euclidean embeddings (integer and half-integer
coordinates), so every inner product is an exact ``Fraction``.  The full root
set is generated height-by-height: for roots of a simply-laced system,
``beta + alpha_i`` is a root iff ``beta . alpha_i == -1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import sqrt
from typing import Sequence

import numpy as np

from ..errors import ValidationError

Vector = tuple[Fraction, ...]

SUPPORTED_SYSTEMS = "A_r (r >= 1), D_r (r >= 4), E_6, E_7, E_8"

# Expected root-set sizes, used as a construction self-check.
_ROOT_COUNT = {
    "A": lambda r: r * (r + 1),
    "D": lambda r: 2 * r * (r - 1),
    "E": lambda r: {6: 72, 7: 126, 8: 240}[r],
}


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    """Exact Euclidean inner product."""
    if len(u) != len(v):
        raise ValidationError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def _vadd(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def _vneg(u: Vector) -> Vector:
    return tuple(-a for a in u)


@dataclass(frozen=True)
class Root:
    """A root: embedding vector, expansion over simple roots, and height."""

    vector: Vector
    coeffs: tuple[int, ...]
    height: int


@dataclass(frozen=True, eq=False)
class RootSystem:
    """Immutable simply-laced root system with affine data.

    ``marks`` is indexed by affine node: ``marks[0] == 1`` is the affine mark,
    ``marks[i]`` for ``i = 1..rank`` are the marks of the simple roots, so
    ``alpha0 == -sum(marks[i] * simple_roots[i-1])`` exactly.
    """

    family: str
    rank: int
    simple_roots: tuple[Vector, ...]
    marks: tuple[int, ...]
    alpha0: Vector
    cartan: tuple[tuple[int, ...], ...]
    coxeter_number: int
    roots: tuple[Root, ...]
    orthobasis: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return len(self.simple_roots[0])

    @property
    def positive_roots(self) -> tuple[Root, ...]:
        return tuple(r for r in self.roots if r.height > 0)

    @property
    def highest_root(self) -> Root:
        return max(self.roots, key=lambda r: r.height)

    def root_set(self) -> frozenset[Vector]:
        return frozenset(r.vector for r in self.roots)

    def is_root(self, vec: Sequence[Fraction]) -> bool:
        return tuple(Fraction(x) for x in vec) in self._index()

    def find(self, vec: Sequence[Fraction]) -> Root:
        key = tuple(Fraction(x) for x in vec)
        try:
            return self._index()[key]
        except KeyError:
            raise ValidationError(f"{vec} is not a root of {self.name}") from None

    def _index(self) -> dict[Vector, Root]:
        cache = getattr(self, "_root_index", None)
        if cache is None:
            cache = {r.vector: r for r in self.roots}
            object.__setattr__(self, "_root_index", cache)
        return cache

    @property
    def name(self) -> str:
        return f"{self.family.lower()}{self.rank}"

    def affine_vector(self, i: int) -> Vector:
        """Root vector of affine node ``i``: alpha0 for i=0, alpha_i otherwise."""
        if i == 0:
            return self.alpha0
        return self.simple_roots[i - 1]

    def to_rootspace(self, vec: Sequence[Fraction]) -> np.ndarray:
        """Coordinates of an embedding-space vector in the orthonormal basis."""
        return self.orthobasis @ np.asarray([float(x) for x in vec])


def affine_adjacency(rs: RootSystem) -> list[tuple[int, int]]:
    """Pairs (i, j), i < j, of affine Dynkin nodes with ``alpha_i . alpha_j == -1``."""
    vecs = [rs.affine_vector(i) for i in range(rs.rank + 1)]
    return [
        (i, j)
        for i in range(rs.rank + 1)
        for j in range(i + 1, rs.rank + 1)
        if dot(vecs[i], vecs[j]) == Fraction(-1)
    ]


def _simple_root_vectors(family: str, rank: int) -> list[Vector]:
    zero = Fraction(0)
    one = Fraction(1)
    half = Fraction(1, 2)
    if family == "A":
        dim = rank + 1
        roots = []
        for i in range(rank):
            v = [zero] * dim
            v[i], v[i + 1] = one, -one
            roots.append(tuple(v))
        return roots
    if family == "D":
        dim = rank
        roots = []
        for i in range(rank - 1):
            v = [zero] * dim
            v[i], v[i + 1] = one, -one
            roots.append(tuple(v))
        v = [zero] * dim
        v[rank - 2] = one
        v[rank - 1] = one
        roots.append(tuple(v))
        return roots
    # E_r as the first r Bourbaki simple roots of E8, embedded in R^8.
    a1 = tuple([half, -half, -half, -half, -half, -half, -half, half])
    a2 = tuple([one, one] + [zero] * 6)
    chain = []
    for i in range(6):
        v = [zero] * 8
        v[i], v[i + 1] = -one, one
        chain.append(tuple(v))  # e_{i+2} - e_{i+1}
    all8 = [a1, a2] + chain
    return all8[:rank]


def _close_positive_roots(simple: list[Vector]) -> dict[Vector, tuple[int, ...]]:
    """All positive roots with their simple-root expansions, by height closure."""
    rank = len(simple)
    known: dict[Vector, tuple[int, ...]] = {}
    frontier: dict[Vector, tuple[int, ...]] = {}
    for i, a in enumerate(simple):
        coeffs = tuple(1 if j == i else 0 for j in range(rank))
        known[a] = coeffs
        frontier[a] = coeffs
    while frontier:
        nxt: dict[Vector, tuple[int, ...]] = {}
        for beta, coeffs in frontier.items():
            for i, alpha in enumerate(simple):
                if dot(beta, alpha) == Fraction(-1):
                    gamma = _vadd(beta, alpha)
                    if gamma not in known:
                        c = tuple(
                            coeffs[j] + (1 if j == i else 0) for j in range(rank)
                        )
                        known[gamma] = c
                        nxt[gamma] = c
        frontier = nxt
    return known


def build_root_system(family: str, rank: int) -> RootSystem:
    """Construct the simply-laced root system of the given family and rank.

    Raises ``ValidationError`` for anything outside A_r (r>=1), D_r (r>=4),
    E_6, E_7, E_8.
    """
    fam = str(family).upper().strip()
    ok = (
        (fam == "A" and rank >= 1)
        or (fam == "D" and rank >= 4)
        or (fam == "E" and rank in (6, 7, 8))
    )
    if not ok:
        raise ValidationError(
            f"unsupported root system {family!r} rank {rank}; "
            f"supported: {SUPPORTED_SYSTEMS}"
        )

    simple = _simple_root_vectors(fam, rank)
    for a in simple:
        if dot(a, a) != Fraction(2):
            raise AssertionError(f"simple root {a} does not have length^2 = 2")

    positives = _close_positive_roots(simple)
    roots: list[Root] = []
    for vec, coeffs in positives.items():
        h = sum(coeffs)
        roots.append(Root(vec, coeffs, h))
        roots.append(Root(_vneg(vec), tuple(-c for c in coeffs), -h))
    roots.sort(key=lambda r: (r.height, r.vector))

    expected = _ROOT_COUNT[fam](rank)
    if len(roots) != expected:
        raise AssertionError(
            f"{fam}{rank}: generated {len(roots)} roots, expected {expected}"
        )

    highest = max(roots, key=lambda r: r.height)
    marks = (1,) + highest.coeffs
    alpha0 = _vneg(highest.vector)
    if _vadd(alpha0, highest.vector) != tuple([Fraction(0)] * len(alpha0)):
        raise AssertionError("alpha0 is not minus the highest root")

    cartan = tuple(
        tuple(int(2 * dot(a, b) / dot(b, b)) for b in simple) for a in simple
    )
    coxeter = len(roots) // rank
    if coxeter != highest.height + 1:
        raise AssertionError("Coxeter number mismatch between |roots|/r and height")

    return RootSystem(
        family=fam,
        rank=rank,
        simple_roots=tuple(simple),
        marks=marks,
        alpha0=alpha0,
        cartan=cartan,
        coxeter_number=coxeter,
        roots=tuple(roots),
        orthobasis=_gram_schmidt(simple),
    )


def _gram_schmidt(simple: list[Vector]) -> np.ndarray:
    """Orthonormal basis (rows) of the span of the simple roots, float64."""
    vecs = np.asarray([[float(x) for x in v] for v in simple])
    basis: list[np.ndarray] = []
    for v in vecs:
        w = v.copy()
        for b in basis:
            w -= (w @ b) * b
        norm = np.linalg.norm(w)
        if norm < 1e-12:
            raise AssertionError("simple roots are not linearly independent")
        basis.append(w / norm)
    out = np.asarray(basis)
    out.setflags(write=False)
    return out


def mass_coefficients(rs: RootSystem) -> list[float]:
    """Node masses m_i = sqrt(n_i |alpha_i|^2 / 8), i = 0..rank (positive branch)."""
    out = []
    for i in range(rs.rank + 1):
        norm2 = dot(rs.affine_vector(i), rs.affine_vector(i))
        out.append(sqrt(rs.marks[i] * float(norm2) / 8.0))
    return out


def to_json_dict(rs: RootSystem) -> dict:
    """Root-system dump: {family, rank, marks, cartan, roots:[...]}.

    All coordinate values are integers or half-integers, hence exact as JSON
    numbers.
    """
    return {
        "family": rs.family,
        "rank": rs.rank,
        "marks": list(rs.marks),
        "cartan": [list(row) for row in rs.cartan],
        "roots": [
            {
                "vector": [float(x) for x in r.vector],
                "coeffs": list(r.coeffs),
                "height": r.height,
            }
            for r in rs.roots
        ],
    }
