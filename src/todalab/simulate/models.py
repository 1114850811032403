"""Bulk field models: potential, gradient, and component count.

Fields are arrays of shape (n_components, n_nodes); scalar models use a
single component.  ``gradient(phi, out)`` writes into ``out`` when given,
by the same operations in the same order, so its bits do not depend on
``out``.  The multi-component exponential model reduces to the hyperbolic
scalar one at rank one: AffineToda(A1, m, b) evolves identically to
SinhGordon(2m, b*sqrt(2)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from ..algebra.roots import RootSystem, build_root_system
from ..errors import ValidationError


def _scaled_row_sum(scale: float, terms: np.ndarray) -> np.ndarray:
    """scale * np.sum(terms, axis=0), written into the fresh array ``terms``
    or its row sum.  The terms are never -0.0, so one row is its own sum,
    without a pass that adds it to zero."""
    total = terms[0] if len(terms) == 1 else np.add.reduce(terms, axis=0)
    return np.multiply(total, scale, out=total)


def _check_parameters(model) -> None:
    """Refuse a non-finite mass or coupling, the coupling beta = 0 that the
    potentials divide by, and parameters whose potential coefficients m^2,
    m^2/beta and m^2/beta^2 are not finite floats (Klein-Gordon has no
    coupling and only m^2)."""
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
        coefficients["m^2/beta^2"] = m2 / beta2 if beta2 else math.inf  # beta^2 underflows to 0
    for label, value in coefficients.items():
        if not math.isfinite(value):
            where = f"m = {m!r}" if beta is None else f"m = {m!r}, beta = {beta!r}"
            raise ValidationError(f"{name} potential coefficient {label} is not finite at {where}")


@dataclass(frozen=True)
class KleinGordon:
    m: float = 1.0
    n_components = 1

    def __post_init__(self):
        _check_parameters(self)

    def potential(self, phi: np.ndarray) -> np.ndarray:
        return _scaled_row_sum(0.5 * self.m**2, phi**2)

    def gradient(self, phi: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return np.multiply(self.m**2, phi, out=out)


@dataclass(frozen=True)
class SineGordon:
    m: float = 1.0
    beta: float = 1.0
    n_components = 1

    def __post_init__(self):
        _check_parameters(self)

    def potential(self, phi: np.ndarray) -> np.ndarray:
        return _scaled_row_sum(self.m**2 / self.beta**2, 1.0 - np.cos(self.beta * phi))

    def gradient(self, phi: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        out = np.multiply(self.beta, phi, out=out)
        np.sin(out, out=out)
        return np.multiply(self.m**2 / self.beta, out, out=out)


@dataclass(frozen=True)
class SinhGordon:
    m: float = 1.0
    beta: float = 1.0
    n_components = 1

    def __post_init__(self):
        _check_parameters(self)

    def potential(self, phi: np.ndarray) -> np.ndarray:
        return _scaled_row_sum(self.m**2 / self.beta**2, np.cosh(self.beta * phi) - 1.0)

    def gradient(self, phi: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        out = np.multiply(self.beta, phi, out=out)
        np.sinh(out, out=out)
        return np.multiply(self.m**2 / self.beta, out, out=out)


@dataclass(frozen=True, eq=False)
class AffineToda:
    rs: RootSystem
    m: float = 1.0
    beta: float = 1.0
    _alpha: np.ndarray = field(init=False, repr=False)
    _marks: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        _check_parameters(self)
        object.__setattr__(self, "_alpha", self.rs.affine_rootspace)
        object.__setattr__(self, "_marks", np.asarray(self.rs.marks, dtype=float))

    @property
    def n_components(self) -> int:
        return self.rs.rank

    def potential(self, phi: np.ndarray) -> np.ndarray:
        exps = np.exp(self.beta * np.einsum("ia,a...->i...", self._alpha, phi))
        return (self.m**2 / self.beta**2) * np.einsum("i,i...->...", self._marks, exps - 1.0)

    def gradient(self, phi: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        exps = np.exp(self.beta * np.einsum("ia,a...->i...", self._alpha, phi))
        grad = (self.m**2 / self.beta) * np.einsum("i,ia,i...->a...", self._marks, self._alpha, exps)
        if out is None:
            return grad
        np.copyto(out, grad)
        return out


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
