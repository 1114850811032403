"""Simply-laced root systems (A, D, E) on the integer root lattice.

Every root is an integer combination of simple roots, and the integer
Cartan matrix gives every inner product: ``beta . alpha_i = sum_j c_j C_ji``
for ``beta = sum_j c_j alpha_j``.  The positive roots are closed
height-by-height on these integer coefficient tuples: for roots of a
simply-laced system, ``beta + alpha_i`` is a root iff ``beta . alpha_i == -1``.

Simple roots use the standard Euclidean embeddings, whose coordinates are
integers or half-integers, so the embedding vectors are computed doubled, in
integers, and turned into exact ``Fraction`` coordinates once, as the output
view (``Root.vector``, ``simple_roots``, ``alpha0``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import sqrt
from typing import Sequence

import numpy as np

from ..errors import ValidationError

Vector = tuple[Fraction, ...]

# the positive roots are built one by one, about r**2 of them for A_r and D_r;
# the build of D128 takes 2 s and 150 MB on one x86-64 core, and time grows
# about as r**3
MAX_RANK = 128

SUPPORTED_SYSTEMS = f"A_r (1 <= r <= {MAX_RANK}), D_r (4 <= r <= {MAX_RANK}), E_6, E_7, E_8"

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
        return tuple(Fraction(x) for x in vec) in self._index

    def find(self, vec: Sequence[Fraction]) -> Root:
        key = tuple(Fraction(x) for x in vec)
        try:
            return self._index[key]
        except KeyError:
            raise ValidationError(f"{vec} is not a root of {self.name}") from None

    @cached_property
    def _index(self) -> dict[Vector, Root]:
        return {r.vector: r for r in self.roots}

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

    @cached_property
    def affine_rootspace(self) -> np.ndarray:
        """Read-only (rank + 1, rank) float64 array; row i is the affine root i
        in the orthonormal basis, ``to_rootspace(affine_vector(i))``."""
        out = np.asarray(
            [self.to_rootspace(self.affine_vector(i)) for i in range(self.rank + 1)],
            dtype=float,
        )
        out.setflags(write=False)
        return out


def affine_adjacency(rs: RootSystem) -> list[tuple[int, int]]:
    """Pairs (i, j), i < j, of affine Dynkin nodes with ``alpha_i . alpha_j == -1``.

    Read from the integers: ``alpha_i . alpha_j = C_ij`` for simple roots, and
    ``alpha0 = -sum_i n_i alpha_i`` gives ``alpha0 . alpha_j = -sum_i n_i C_ij``.
    """
    r, cartan = rs.rank, rs.cartan
    pairs = [
        (0, j + 1)
        for j in range(r)
        if -sum(rs.marks[i + 1] * cartan[i][j] for i in range(r)) == -1
    ]
    pairs += [(i + 1, j + 1) for i in range(r) for j in range(i + 1, r) if cartan[i][j] == -1]
    return pairs


def _doubled_simple_roots(family: str, rank: int) -> list[tuple[int, ...]]:
    """Simple roots with every coordinate doubled, so all entries are integers."""
    if family == "A":
        dim = rank + 1
        roots = []
        for i in range(rank):
            v = [0] * dim
            v[i], v[i + 1] = 2, -2
            roots.append(tuple(v))
        return roots
    if family == "D":
        dim = rank
        roots = []
        for i in range(rank - 1):
            v = [0] * dim
            v[i], v[i + 1] = 2, -2
            roots.append(tuple(v))
        v = [0] * dim
        v[rank - 2] = 2
        v[rank - 1] = 2
        roots.append(tuple(v))
        return roots
    # E_r as the first r Bourbaki simple roots of E8, embedded in R^8.
    a1 = (1, -1, -1, -1, -1, -1, -1, 1)
    a2 = (2, 2, 0, 0, 0, 0, 0, 0)
    chain = []
    for i in range(6):
        v = [0] * 8
        v[i], v[i + 1] = -2, 2
        chain.append(tuple(v))  # e_{i+2} - e_{i+1}
    all8 = [a1, a2] + chain
    return all8[:rank]


def _close_positive_roots(cartan: tuple[tuple[int, ...], ...]) -> list[tuple[int, ...]]:
    """Simple-root expansions of all positive roots, by height closure.

    Each root ``beta = sum_j c_j alpha_j`` carries its inner products
    ``beta . alpha_i = sum_j c_j C_ji`` with the simple roots; adding
    ``alpha_i`` to ``beta`` adds row ``i`` of the Cartan matrix to them.
    """
    rank = len(cartan)
    frontier: dict[tuple[int, ...], tuple[int, ...]] = {
        tuple(1 if j == i else 0 for j in range(rank)): cartan[i] for i in range(rank)
    }
    known = dict(frontier)
    while frontier:
        nxt: dict[tuple[int, ...], tuple[int, ...]] = {}
        for coeffs, prods in frontier.items():
            for i, p in enumerate(prods):
                if p == -1:
                    c = coeffs[:i] + (coeffs[i] + 1,) + coeffs[i + 1 :]
                    if c not in known:
                        known[c] = nxt[c] = tuple(x + y for x, y in zip(prods, cartan[i]))
        frontier = nxt
    return list(known)


# Fraction(k, 2) for every doubled coordinate a root of norm^2 2 can have.
_HALVES = {k: Fraction(k, 2) for k in range(-2, 3)}


def build_root_system(family: str, rank: int) -> RootSystem:
    """Construct the simply-laced root system of the given family and rank.

    Raises ``ValidationError``, before any root is built, for anything
    outside ``SUPPORTED_SYSTEMS``.
    """
    fam = str(family).upper().strip()
    ok = (
        (fam == "A" and 1 <= rank <= MAX_RANK)
        or (fam == "D" and 4 <= rank <= MAX_RANK)
        or (fam == "E" and rank in (6, 7, 8))
    )
    if not ok:
        raise ValidationError(
            f"unsupported root system {family!r} rank {rank}; "
            f"supported: {SUPPORTED_SYSTEMS}"
        )

    simple2 = _doubled_simple_roots(fam, rank)
    cartan = tuple(
        tuple(sum(x * y for x, y in zip(a, b)) // 4 for b in simple2) for a in simple2
    )
    for i, row in enumerate(cartan):
        if row[i] != 2:
            raise AssertionError(f"simple root {i + 1} does not have length^2 = 2")

    positives = _close_positive_roots(cartan)
    doubled = (np.asarray(positives) @ np.asarray(simple2)).tolist()  # exact int64
    keyed = []  # (height, doubled vector, coeffs)
    for coeffs, vec2 in zip(positives, doubled):
        h = sum(coeffs)
        keyed.append((h, tuple(vec2), coeffs))
        keyed.append((-h, tuple(-x for x in vec2), tuple(-c for c in coeffs)))
    keyed.sort()
    roots = [Root(tuple(_HALVES[x] for x in v), c, h) for h, v, c in keyed]

    expected = _ROOT_COUNT[fam](rank)
    if len(roots) != expected:
        raise AssertionError(
            f"{fam}{rank}: generated {len(roots)} roots, expected {expected}"
        )

    # the lowest root is minus the highest one
    highest, lowest = roots[-1], roots[0]
    marks = (1,) + highest.coeffs
    coxeter = len(roots) // rank
    if coxeter != highest.height + 1:
        raise AssertionError("Coxeter number mismatch between |roots|/r and height")

    return RootSystem(
        family=fam,
        rank=rank,
        simple_roots=tuple(tuple(_HALVES[x] for x in a) for a in simple2),
        marks=marks,
        alpha0=lowest.vector,
        cartan=cartan,
        coxeter_number=coxeter,
        roots=tuple(roots),
        orthobasis=_gram_schmidt(simple2),
    )


def _gram_schmidt(simple2: list[tuple[int, ...]]) -> np.ndarray:
    """Orthonormal basis (rows) of the span of the simple roots, float64."""
    vecs = np.asarray(simple2, dtype=float) / 2.0
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
    # every affine root of a simply-laced system has |alpha_i|^2 = 2
    return [sqrt(n * 2.0 / 8.0) for n in rs.marks]


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
