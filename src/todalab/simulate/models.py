"""Bulk field models: potential, gradient, and component count.

Fields are arrays of shape (n_components, n_nodes); scalar models use a
single component.  A model's potential is V = c T: its
``potential_coefficient`` c (m^2/2, or m^2/beta^2) times its
``potential_terms`` T(phi), the sum over the terms of the potential
without c.  ``gradient(phi, out)``, ``potential(phi, out)`` and
``potential_terms(phi, out)`` write into ``out`` when given, by the same
operations in the same order, so their bits do not depend on ``out``.
``AffineToda`` evaluates its root exponentials exp(beta alpha_i . phi) in
one routine, for both its gradient and its potential terms, and takes
``work``, a buffer of shape (r + 1, n_nodes), for them in both: with
``out`` and ``work`` given, neither allocates a field-sized array.  One
base class holds what the models share: one component, the parameter
check, c = m^2/beta^2 and ``potential`` = T c.  A power of two times c
applied to T gives exactly that multiple of V wherever neither is
subnormal; the energy density takes 2V so, and ``_check_parameters`` keeps
2c finite.  The multi-component exponential model reduces to the
hyperbolic scalar one at rank one: AffineToda(A1, m, b) evolves
identically to SinhGordon(2m, b*sqrt(2)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from ..algebra.roots import RootSystem, build_root_system
from ..errors import ValidationError


def _one_row(phi: np.ndarray) -> np.ndarray:
    """The row of a one-component model's field."""
    if len(phi) != 1:
        raise ValidationError(f"a one-component model takes a field of one row, not {len(phi)}")
    return phi[0]


def _check_parameters(model) -> None:
    """Refuse a non-finite mass or coupling, the coupling beta = 0 that the
    potentials divide by, and parameters whose potential coefficients m^2,
    m^2/beta, m^2/beta^2 and 2 m^2/beta^2 (the doubled potential coefficient
    of the energy density) are not finite floats.  Klein-Gordon has no
    coupling and only m^2, which is also its doubled coefficient
    2 (m^2/2)."""
    name = type(model).__name__
    m = model.m
    if not math.isfinite(m):
        raise ValidationError(f"{name} mass m = {m!r} is not finite")
    m2 = m * m  # inf where m**2 would raise OverflowError
    coefficients = {"m^2": m2}
    beta = getattr(model, "beta", None)
    if beta is not None:
        if not math.isfinite(beta) or beta == 0.0:
            raise ValidationError(f"{name} coupling beta = {beta!r} must be finite and nonzero")
        beta2 = beta * beta
        coefficients["m^2/beta"] = m2 / beta
        coefficients["m^2/beta^2"] = c = m2 / beta2 if beta2 else math.inf  # beta^2 underflows to 0
        coefficients["2 m^2/beta^2"] = 2.0 * c
    for label, value in coefficients.items():
        if not math.isfinite(value):
            where = f"m = {m!r}" if beta is None else f"m = {m!r}, beta = {beta!r}"
            raise ValidationError(f"{name} potential coefficient {label} is not finite at {where}")


class _Model:
    """What the four models share: one component, the parameter check, the
    potential coefficient m^2/beta^2 and V = c T."""

    n_components = 1

    def __post_init__(self):
        _check_parameters(self)

    @property
    def potential_coefficient(self) -> float:
        return self.m**2 / self.beta**2

    def potential(self, phi: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        terms = self.potential_terms(phi, out)
        return np.multiply(terms, self.potential_coefficient, out=terms)


@dataclass(frozen=True)
class KleinGordon(_Model):
    m: float = 1.0

    @property
    def potential_coefficient(self) -> float:
        return 0.5 * self.m**2

    def potential_terms(self, phi: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return np.square(_one_row(phi), out=out)

    def gradient(self, phi: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return np.multiply(self.m**2, phi, out=out)


@dataclass(frozen=True)
class SineGordon(_Model):
    m: float = 1.0
    beta: float = 1.0

    def potential_terms(self, phi: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        terms = np.multiply(self.beta, _one_row(phi), out=out)
        np.cos(terms, out=terms)
        return np.subtract(1.0, terms, out=terms)

    def gradient(self, phi: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        out = np.multiply(self.beta, phi, out=out)
        np.sin(out, out=out)
        return np.multiply(self.m**2 / self.beta, out, out=out)


@dataclass(frozen=True)
class SinhGordon(_Model):
    m: float = 1.0
    beta: float = 1.0

    def potential_terms(self, phi: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        terms = np.multiply(self.beta, _one_row(phi), out=out)
        np.cosh(terms, out=terms)
        return np.subtract(terms, 1.0, out=terms)

    def gradient(self, phi: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        out = np.multiply(self.beta, phi, out=out)
        np.sinh(out, out=out)
        return np.multiply(self.m**2 / self.beta, out, out=out)


@dataclass(frozen=True, eq=False)
class AffineToda(_Model):
    rs: RootSystem
    m: float = 1.0
    beta: float = 1.0
    _alpha: np.ndarray = field(init=False, repr=False)
    _marks: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "_alpha", self.rs.affine_rootspace)
        object.__setattr__(self, "_marks", np.asarray(self.rs.marks, dtype=float))

    @property
    def n_components(self) -> int:
        return self.rs.rank

    def _root_exps(self, phi: np.ndarray, work: np.ndarray | None) -> np.ndarray:
        """exp(beta alpha_i . phi) for the r + 1 affine roots alpha_i, into
        ``work`` when given."""
        exps = np.einsum("ia,a...->i...", self._alpha, phi, out=work)
        np.multiply(self.beta, exps, out=exps)
        return np.exp(exps, out=exps)

    def potential_terms(
        self, phi: np.ndarray, out: np.ndarray | None = None, work: np.ndarray | None = None
    ) -> np.ndarray:
        exps = self._root_exps(phi, work)
        np.subtract(exps, 1.0, out=exps)
        return np.einsum("i,i...->...", self._marks, exps, out=out)

    def gradient(
        self, phi: np.ndarray, out: np.ndarray | None = None, work: np.ndarray | None = None
    ) -> np.ndarray:
        out = np.einsum("i,ia,i...->a...", self._marks, self._alpha, self._root_exps(phi, work), out=out)
        return np.multiply(self.m**2 / self.beta, out, out=out)


Model = KleinGordon | SineGordon | SinhGordon | AffineToda


@cache
def _a1() -> RootSystem:
    """The one A1 system behind every hyperbolic scalar model."""
    return build_root_system("A", 1)


def toda_units(model) -> tuple[RootSystem, float, float]:
    """(root system, m, beta) of the affine Toda form of a model.

    The hyperbolic scalar model is the rank-one system with ``m -> m/2`` and
    ``beta -> beta/sqrt(2)``; AffineToda passes through.  Models with a
    trigonometric potential have no real-coupling Toda form.
    """
    if isinstance(model, SinhGordon):
        return _a1(), model.m / 2.0, model.beta / np.sqrt(2.0)
    if isinstance(model, AffineToda):
        return model.rs, model.m, model.beta
    raise ValidationError(
        f"{type(model).__name__} has no real Lax frame or Toda boundary; "
        "use SinhGordon or AffineToda"
    )


def make_model(kind: str, m: float = 1.0, beta: float = 1.0, family: str = "A", rank: int = 1) -> Model:
    kind = kind.lower().replace("-", "_")
    if kind == "klein_gordon":
        return KleinGordon(m=m)
    if kind == "sine_gordon":
        return SineGordon(m=m, beta=beta)
    if kind == "sinh_gordon":
        return SinhGordon(m=m, beta=beta)
    if kind == "affine_toda":
        return AffineToda(rs=build_root_system(family, rank), m=m, beta=beta)
    raise ValidationError(f"unknown model kind {kind!r}")
