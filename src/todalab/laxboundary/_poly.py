"""Minimal multivariate polynomials over exact rationals.

Just enough for the boundary K-matrix solver: sums, products, scalar
multiples, monomial-content stripping, and point evaluation, all with
``Fraction`` coefficients.  Monomials are exponent tuples.  A number on
either side of ``*`` scales, so the exact matrices of ``algebra.reps`` take
``Poly`` entries as they are.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

Monomial = tuple[int, ...]


class Poly:
    """Immutable polynomial: {exponent tuple: Fraction}, zero terms dropped."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Monomial, Fraction] | None = None):
        self.nvars = nvars
        clean = {}
        if terms:
            for mono, coeff in terms.items():
                c = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
                if c != 0:
                    clean[tuple(mono)] = c
        self.terms = clean

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars)

    @classmethod
    def const(cls, nvars: int, value) -> "Poly":
        return cls(nvars, {tuple([0] * nvars): Fraction(value)})

    @classmethod
    def var(cls, nvars: int, index: int, power: int = 1) -> "Poly":
        mono = [0] * nvars
        mono[index] = power
        return cls(nvars, {tuple(mono): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for mono, c in other.terms.items():
            s = out.get(mono, Fraction(0)) + c
            if s == 0:
                out.pop(mono, None)
            else:
                out[mono] = s
        return Poly(self.nvars, out)

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def scale(self, factor) -> "Poly":
        f = Fraction(factor)
        if f == 0:
            return Poly.zero(self.nvars)
        return Poly(self.nvars, {m: c * f for m, c in self.terms.items()})

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            return self.scale(other)
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(a + b for a, b in zip(m1, m2))
                s = out.get(mono, Fraction(0)) + c1 * c2
                if s == 0:
                    out.pop(mono, None)
                else:
                    out[mono] = s
        return Poly(self.nvars, out)

    __rmul__ = __mul__

    def substitute(self, values: Iterable) -> Fraction:
        """Exact evaluation at a full point (one value per variable)."""
        vals = [Fraction(v) for v in values]
        total = Fraction(0)
        for mono, coeff in self.terms.items():
            term = coeff
            for v, e in zip(vals, mono):
                term *= v**e
            total += term
        return total

    def partial_substitute(self, fixed: Mapping[int, Fraction]) -> "Poly":
        """Substitute exact values for a subset of the variables."""
        out: dict[Monomial, Fraction] = {}
        for mono, coeff in self.terms.items():
            c = coeff
            new = list(mono)
            for idx, val in fixed.items():
                c *= Fraction(val) ** mono[idx]
                new[idx] = 0
            key = tuple(new)
            s = out.get(key, Fraction(0)) + c
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = s
        return Poly(self.nvars, out)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono, coeff in sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0])):
            factors = []
            for i, e in enumerate(mono):
                if e == 1:
                    factors.append(f"b{i}")
                elif e > 1:
                    factors.append(f"b{i}^{e}")
            body = "*".join(factors)
            if not body:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(body)
            elif coeff == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{coeff}*{body}")
        joined = " + ".join(parts)
        return joined.replace("+ -", "- ")

    __repr__ = __str__
