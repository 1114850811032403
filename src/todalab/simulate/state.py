"""Field states, geometries, and evolution histories."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import StepFailure, ValidationError
from .boundaries import BoundarySpec
from .defects import DefectSpec
from .grid import Grid1D

# The ends of each kind of geometry that carry a boundary term.  Every other
# end of a non-periodic kind is open: Neumann, and damped by the sponge.
BOUNDARY_SIDES = {
    "periodic": (),
    "line": (),
    "halfline": ("right",),
    "interval": ("left", "right"),
    "defect": (),
}


@dataclass(frozen=True, eq=False)
class Geometry:
    """Grid plus boundary/defect layout.

    ``halfline`` puts the physical boundary at the right endpoint (domain
    x < x_max, conventionally x_max = 0).  ``sponge_fraction`` > 0 switches on
    momentum damping over that fraction of the domain at each of
    ``open_ends``; a geometry without open ends range-checks it and damps
    nothing.  Left as None, it is the one default: 0.1 on a line or a
    defect, else 0.  A boundary spec on an end without a boundary term
    (``BOUNDARY_SIDES``), or a defect spec on a geometry that is not a
    defect, is refused.
    """

    kind: str
    grid: Grid1D
    left: BoundarySpec | None = None
    right: BoundarySpec | None = None
    defect: DefectSpec | None = None
    sponge_fraction: float | None = None
    sponge_strength: float = 2.0
    # run data derived from this geometry (step and observation plans), by key
    plans: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if self.kind not in BOUNDARY_SIDES:
            raise ValidationError(f"unknown geometry kind {self.kind!r}")
        sides = BOUNDARY_SIDES[self.kind]
        if any(getattr(self, side) is None for side in sides):
            need = "both boundary specs" if len(sides) == 2 else f"the {sides[0]} boundary spec"
            raise ValidationError(f"{self.kind} geometry needs {need}")
        for side in ("left", "right"):
            if getattr(self, side) is not None and side not in sides:
                raise ValidationError(f"{self.kind} geometry has no boundary term at its {side} end to take a spec")
        if self.defect is not None and self.kind != "defect":
            raise ValidationError(f"{self.kind} geometry takes no defect spec")
        if self.sponge_fraction is None:
            object.__setattr__(self, "sponge_fraction", 0.1 if self.kind in ("line", "defect") else 0.0)
        if self.kind == "defect":
            if self.defect is None:
                raise ValidationError("defect geometry needs a defect spec")
            g = self.grid
            if not g.x_min < 0.0 < g.x_max:
                raise ValidationError("defect geometry needs x_min < 0 < x_max")
            idx = (0.0 - g.x_min) / g.h
            if abs(idx - round(idx)) > 1e-9:
                raise ValidationError("defect interface x=0 must fall on a grid node")
            # the sewing stencils reach two nodes into each side
            if min(round(idx), g.n_cells - round(idx)) < 2:
                raise ValidationError("the defect interface needs at least two cells on each side")
        if not 0.0 <= self.sponge_fraction < 0.5:
            raise ValidationError("sponge fraction must lie in [0, 0.5)")
        if not 0.0 <= self.sponge_strength < math.inf:
            raise ValidationError("sponge strength must be finite and >= 0")

    @property
    def x(self) -> np.ndarray:
        return self.grid.nodes(periodic=self.kind == "periodic")

    @property
    def state_x(self) -> np.ndarray:
        """Nodes of a state's field: ``x``, except on a defect, where the
        interface node x = 0 appears twice, [left side | right side] (the
        layout of a defect state's one two-sided row and of
        ``snapshots.csv``)."""
        x = self.x
        if self.kind != "defect":
            return x
        i0 = self.interface_index
        return np.concatenate([x[: i0 + 1], x[i0:]])

    @property
    def interface_index(self) -> int:
        if self.kind != "defect":
            raise ValidationError("interface index only defined for defect geometry")
        return round((0.0 - self.grid.x_min) / self.grid.h)

    @property
    def open_ends(self) -> tuple[str, ...]:
        """The ends, "left" and/or "right", that carry no boundary term on a
        non-periodic geometry."""
        if self.kind == "periodic":
            return ()
        return tuple(side for side in ("left", "right") if side not in BOUNDARY_SIDES[self.kind])

    def memo(self, key, build):
        """Run data derived from this geometry (step and observation plans),
        built by ``build()`` on first use of ``key`` and kept with it."""
        try:
            return self.plans[key]
        except KeyError:
            value = self.plans[key] = build()
            return value


def periodic_line(grid: Grid1D) -> Geometry:
    return Geometry(kind="periodic", grid=grid)


def line(grid: Grid1D, sponge_fraction: float | None = None) -> Geometry:
    return Geometry(kind="line", grid=grid, sponge_fraction=sponge_fraction)


def half_line(grid: Grid1D, right: BoundarySpec, sponge_fraction: float | None = None) -> Geometry:
    return Geometry(kind="halfline", grid=grid, right=right, sponge_fraction=sponge_fraction)


def interval(grid: Grid1D, left: BoundarySpec, right: BoundarySpec) -> Geometry:
    return Geometry(kind="interval", grid=grid, left=left, right=right)


def with_defect(grid: Grid1D, defect: DefectSpec, sponge_fraction: float | None = None) -> Geometry:
    return Geometry(kind="defect", grid=grid, defect=defect, sponge_fraction=sponge_fraction)


def _check_finite(t: float, fields: dict[str, np.ndarray]) -> None:
    """Raise StepFailure naming the first non-finite node, if there is one.

    A finite sum of squares has no inf or nan term, so the node by node scan
    runs only where the dot product of a field with itself is not finite:
    at a non-finite node, or where values above ~1e154 overflow the sum
    (numpy then warns of the overflow, unless its error state ignores it,
    as the stepping loop's does)."""
    for name, arr in fields.items():
        flat = arr.ravel()
        if math.isfinite(flat.dot(flat)):
            continue
        if not np.isfinite(arr).all():
            *component, node = (int(i) for i in np.argwhere(~np.isfinite(arr))[0])
            dump = {"t": t, "field": name, "node": node}
            if component:
                dump["component"] = component[0]
            raise StepFailure(
                f"non-finite field values at t={t} (first at {name}{component + [node]})",
                state_dump=dump,
            )


@dataclass(frozen=True, eq=False, slots=True)
class FieldState:
    """The Cauchy data of every geometry at time ``t``: phi and
    pi = d_t phi, shape (n_components, len(geometry.state_x)).

    On a defect ``phi`` and ``pi`` are one two-sided row [left | right] with
    the interface node x = 0 twice (``Geometry.state_x``); the right side
    starts at ``geometry.interface_index + 1``.  Both arrays are made
    read-only, without a copy, by whoever builds the state.  A state that a
    run's observer sees is a view of the step plan's buffers, valid only
    during the call (``stepper``).
    """

    t: float
    phi: np.ndarray
    pi: np.ndarray

    def __post_init__(self):
        phi, pi = self.phi, self.pi
        if phi.shape != pi.shape:
            raise ValidationError("phi and pi must have matching shapes")
        # the stepping loop passes views that are read-only already
        if phi.flags.writeable:
            phi.flags.writeable = False
        if pi.flags.writeable:
            pi.flags.writeable = False

    def check_finite(self) -> None:
        _check_finite(self.t, {"phi": self.phi, "pi": self.pi})


_new_object = object.__new__
_set_t, _set_phi, _set_pi = FieldState.t.__set__, FieldState.phi.__set__, FieldState.pi.__set__


def trusted_state(t: float, phi: np.ndarray, pi: np.ndarray) -> FieldState:
    """The FieldState ``(t, phi, pi)`` built through its slots, without the
    checks of ``__post_init__``: for read-only arrays of one shape, such as
    the views a step plan made so when it was built."""
    state = _new_object(FieldState)
    _set_t(state, t)
    _set_phi(state, phi)
    _set_pi(state, pi)
    return state


@dataclass(frozen=True, eq=False)
class FieldHistory:
    """Uniformly sampled evolution record used by the Lax diagnostics."""

    times: np.ndarray  # (nt,)
    x: np.ndarray  # (nx,)
    phi: np.ndarray  # (nt, n_components, nx)
    pi: np.ndarray


def check_state(geometry: Geometry, state: FieldState, model) -> None:
    """Raise a ValidationError unless ``state`` has ``model.n_components``
    rows on ``geometry.state_x``."""
    shape = (model.n_components, len(geometry.state_x))
    if state.phi.shape != shape:
        raise ValidationError(
            f"a state of shape {state.phi.shape} does not fit the {type(model).__name__} "
            f"model on this {geometry.kind} geometry: expected (n_components, n_nodes) = {shape}"
        )


def empty_aligned(shape) -> np.ndarray:
    """``np.empty(shape)`` whose data start on a 64-byte boundary, for the
    long-lived buffers of the step and observation plans, so that the speed
    of the loops over them does not follow where the heap puts them."""
    n = int(np.prod(shape))
    raw = np.empty(n + 7)
    skip = (-raw.ctypes.data % 64) // raw.itemsize
    return raw[skip : skip + n].reshape(shape)
