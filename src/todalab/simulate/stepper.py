"""Explicit leapfrog (velocity-Verlet) evolution on all geometries.

Boundary conditions enter through second-order ghost cells.  The defect
interface values are not bulk nodes: the sewing conditions are rearranged
into ODEs for the two interface values,

    d_t phi0 = d_x psi - B_psi,        d_t psi0 = d_x phi + B_phi,

discretized with a trapezoidal average in time (the explicit version is
unstable) and one-sided second-order spatial derivatives; the resulting
2x2 nonlinear system is solved by damped Newton each step.

Everything a step needs that does not change during a run (spacing, time
step, sponge damping, bound boundary conditions, interface layout, the
model check) sits in a step plan built once per (model, geometry).  The
force at the end of a step is the force at the start of the next one
("first same as last"), so each state made by ``step`` carries it, tagged
with its plan, and the next step under that plan evaluates the force once
instead of twice.  On a single domain the half-kick force * dt/2 that ends
a step also starts the next one, so it is reused from the plan's buffer
when the step continues from the state the plan made last.  The arithmetic
and its order are those of the plain two-force step, so results are bit
for bit the same.

Both sides of a defect advance as one two-sided array ``[phi | psi]`` in
which the interface node appears twice (n_left + n_right entries, the layout
of ``snapshots.csv``).  One force evaluation covers both sides: the interior
stencil runs over the whole array, whose stencil next to either interface
reads that side's own interface value, the far ends are ghost Neumann nodes,
and the two interface entries carry no Laplacian.  The kicks, the drift and
the sponge damping are whole-array operations; the interface entries they
touch are then overwritten by the Newton solve, which runs on Python floats.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import StepFailure, ValidationError
from .state import DefectState, FieldHistory, FieldState, Geometry


def _sponge_profile(geometry: Geometry) -> np.ndarray | None:
    """exp(-sigma dt) damping factors for pi, or None when disabled."""
    frac = geometry.sponge_fraction
    if frac <= 0.0:
        return None
    x = geometry.x
    width = frac * (geometry.grid.x_max - geometry.grid.x_min)
    sigma = np.zeros_like(x)
    if geometry.kind in ("line", "defect"):
        ends = ("left", "right")
    elif geometry.kind == "halfline":
        ends = ("left",)
    else:
        return None
    if "left" in ends:
        d = (x - geometry.grid.x_min) / width
        sigma = np.where(d < 1.0, geometry.sponge_strength * (1.0 - d) ** 2, sigma)
    if "right" in ends:
        d = (geometry.grid.x_max - x) / width
        sigma = np.where(d < 1.0, geometry.sponge_strength * (1.0 - d) ** 2, sigma)
    return np.exp(-sigma * geometry.grid.dt)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _interior_laplacian(arr: np.ndarray, out: np.ndarray, h2: float) -> None:
    """(arr[i+1] - 2 arr[i] + arr[i-1]) / h^2 at the inner nodes, into out."""
    inner = out[..., 1:-1]
    np.multiply(arr[..., 1:-1], 2.0, out=inner)
    np.subtract(arr[..., 2:], inner, out=inner)
    np.add(inner, arr[..., :-2], out=inner)
    np.divide(inner, h2, out=inner)


class _BulkPlan:
    """Step constants and scratch buffers of a single-domain run."""

    def __init__(self, model, geometry: Geometry):
        grid = geometry.grid
        self.model, self.geometry = model, geometry
        self.shape = (model.n_components, len(geometry.x))
        self.dt = grid.dt
        self.half_dt = 0.5 * grid.dt
        self.h2 = grid.h**2
        self.ghost = 2.0 * grid.h
        self.periodic = geometry.kind == "periodic"
        left, right = geometry.boundary_ends
        self.db_left = left.bind(model) if left is not None else None
        self.db_right = right.bind(model) if right is not None else None
        self.damp = _sponge_profile(geometry)
        self.kick = np.empty(self.shape)  # scratch of the bulk step
        self.pi_half = np.empty(self.shape)
        # the state whose force * dt/2 ``kick`` holds: the last step's result
        self.kicked = None

    def check(self, state) -> None:
        if not isinstance(state, FieldState) or state.phi.shape != self.shape:
            got = state.phi.shape if isinstance(state, FieldState) else type(state).__name__
            raise ValidationError(
                f"state fields {got} do not fit the {type(self.model).__name__} model on this "
                f"grid: expected (n_components, n_nodes) = {self.shape}"
            )

    def force(self, phi: np.ndarray) -> np.ndarray:
        """Ghost-cell Laplacian minus the model gradient, as a new array."""
        h2 = self.h2
        f = np.empty_like(phi)
        _interior_laplacian(phi, f, h2)
        # end nodes row by row on Python floats, one tolist() per end pair:
        # the same operations as on whole columns, without the per-call cost
        # of tiny array ops
        lo, hi = phi[:, :2].tolist(), phi[:, -2:].tolist()
        if self.periodic:
            for c, ((a0, a1), (b1, b0)) in enumerate(zip(lo, hi)):
                f[c, 0] = (a1 - 2.0 * a0 + b0) / h2
                f[c, -1] = (a0 - 2.0 * b0 + b1) / h2
        else:
            db_l = self.db_left([a0 for a0, _ in lo]) if self.db_left is not None else None
            db_r = self.db_right([b0 for _, b0 in hi]) if self.db_right is not None else None
            for c, ((a0, a1), (b1, b0)) in enumerate(zip(lo, hi)):
                v0 = 2.0 * a1 - 2.0 * a0
                v1 = 2.0 * b1 - 2.0 * b0
                if db_l is not None:
                    v0 = v0 - self.ghost * db_l[c]
                if db_r is not None:
                    v1 = v1 - self.ghost * db_r[c]
                f[c, 0] = v0 / h2
                f[c, -1] = v1 / h2
        np.subtract(f, self.model.gradient(phi), out=f)
        return f


def _step_bulk(plan: _BulkPlan, state: FieldState) -> FieldState:
    kick, pi_half = plan.kick, plan.pi_half
    if state.plan is not plan:
        plan.check(state)
        np.multiply(plan.force(state.phi), plan.half_dt, out=kick)
    elif plan.kicked is not state:
        np.multiply(state.force, plan.half_dt, out=kick)
    # else the step that made ``state`` left its last half-kick, the same
    # product, in ``kick``
    plan.kicked = None
    np.add(state.pi, kick, out=pi_half)
    np.multiply(pi_half, plan.dt, out=kick)
    phi = np.add(state.phi, kick)
    f = plan.force(phi)
    np.multiply(f, plan.half_dt, out=kick)
    pi = np.add(pi_half, kick)
    if plan.damp is not None:
        np.multiply(pi, plan.damp, out=pi)
    out = FieldState(
        t=state.t + plan.dt, phi=_frozen(phi), pi=_frozen(pi), force=_frozen(f), plan=plan
    )
    plan.kicked = out
    return out


class _DefectPlan:
    """Step constants and scratch buffer of a run with a defect at x = 0,
    for states on the two-sided layout [phi | psi]."""

    def __init__(self, model, geometry: Geometry):
        if geometry.kind != "defect":
            raise ValidationError("a defect state needs a defect geometry")
        geometry.defect.validate_model(model)
        grid = geometry.grid
        i0 = geometry.interface_index
        n_left, n_right = i0 + 1, grid.n_cells + 1 - i0
        if min(n_left, n_right) < 3:
            raise ValidationError("the defect interface needs at least two cells on each side")
        self.model, self.geometry = model, geometry
        self.defect = geometry.defect
        self.shapes = (n_left, n_right)
        self.n_left = n_left
        self.h = grid.h
        self.h2 = grid.h**2
        self.dt = grid.dt
        self.half_dt = 0.5 * grid.dt
        damp = _sponge_profile(geometry)
        self.damp = None if damp is None else np.concatenate([damp[: i0 + 1], damp[i0:]])
        self.kick = np.empty(n_left + n_right)  # scratch of the kicks and the drift

    def check(self, state) -> None:
        n_left, n_right = self.shapes
        if not (
            isinstance(state, DefectState)
            and state.phi.shape == state.pi_phi.shape == (n_left,)
            and state.psi.shape == state.pi_psi.shape == (n_right,)
        ):
            raise ValidationError(
                f"state fields do not fit the defect grid: expected {n_left} nodes "
                f"left and {n_right} right of the interface"
            )

    def force(self, u: np.ndarray) -> np.ndarray:
        """Force on both sides of a two-sided field, as a new array: ghost
        Neumann at the far ends, each interface value held as Dirichlet data
        for its neighbour (its own update comes from the sewing ODEs), so the
        interface entries carry no Laplacian."""
        h2 = self.h2
        f = np.empty_like(u)
        _interior_laplacian(u, f, h2)
        (a0, a1), (b1, b0) = u[:2].tolist(), u[-2:].tolist()
        f[0] = (2.0 * a1 - 2.0 * a0) / h2
        f[-1] = (2.0 * b1 - 2.0 * b0) / h2
        a = self.n_left - 1
        f[a : a + 2] = 0.0
        np.subtract(f, self.model.gradient(u[None, :])[0], out=f)
        return f


def _step_defect(plan: _DefectPlan, state: DefectState) -> DefectState:
    if state.plan is plan:
        u, pi, f = state.two_sided, state.two_sided_pi, state.force
    else:
        plan.check(state)
        u, pi = state.joined()
        f = plan.force(u)
    defect = plan.defect
    dt, h, half_dt = plan.dt, plan.h, plan.half_dt
    a = plan.n_left - 1  # phi's interface node; psi's is a + 1

    # interface values and their one-sided second-order d_x, as Python floats
    l2, l1, phi0_old, psi0_old, r1, r2 = u[a - 2 : a + 4].tolist()
    dphi_old = (3.0 * phi0_old - 4.0 * l1 + l2) / (2.0 * h)
    dpsi_old = (-3.0 * psi0_old + 4.0 * r1 - r2) / (2.0 * h)

    # bulk half-kick + drift (the interface enters the stencils next to it at
    # the old time level; its own entries are overwritten below)
    kick = plan.kick
    np.multiply(f, half_dt, out=kick)
    pi = np.add(pi, kick)
    np.multiply(pi, dt, out=kick)
    u = np.add(u, kick)

    # trapezoidal update of the interface pair
    rhs_phi = phi0_old + 0.5 * dt * (dpsi_old - defect.b_psi(phi0_old, psi0_old))
    rhs_psi = psi0_old + 0.5 * dt * (dphi_old + defect.b_phi(phi0_old, psi0_old))
    # new-time one-sided derivatives split into known interior part + interface term
    l2, l1 = u[a - 2 : a].tolist()
    r1, r2 = u[a + 2 : a + 4].tolist()
    dphi_known = (-4.0 * l1 + l2) / (2.0 * h)
    dpsi_known = (4.0 * r1 - r2) / (2.0 * h)
    cp, cm = 3.0 / (2.0 * h), -3.0 / (2.0 * h)

    u_phi, u_psi = phi0_old, psi0_old
    scale = max(1.0, abs(rhs_phi), abs(rhs_psi))
    converged = False
    for _ in range(25):
        g1 = u_phi - 0.5 * dt * ((dpsi_known + cm * u_psi) - defect.b_psi(u_phi, u_psi)) - rhs_phi
        g2 = u_psi - 0.5 * dt * ((dphi_known + cp * u_phi) + defect.b_phi(u_phi, u_psi)) - rhs_psi
        res = max(abs(g1), abs(g2))
        if res < 1e-12 * scale:
            converged = True
            break
        j11 = 1.0 + 0.5 * dt * defect.b_phipsi(u_phi, u_psi)  # dB_psi/dphi = B_phipsi
        j12 = -0.5 * dt * (cm - defect.b_psipsi(u_phi, u_psi))
        j21 = -0.5 * dt * (cp + defect.b_phiphi(u_phi, u_psi))
        j22 = 1.0 - 0.5 * dt * defect.b_phipsi(u_phi, u_psi)
        det = j11 * j22 - j12 * j21
        if det == 0.0 or not math.isfinite(det):
            break
        du_phi = -(j22 * g1 - j12 * g2) / det
        du_psi = -(-j21 * g1 + j11 * g2) / det
        lam = 1.0
        for _ in range(8):
            t_phi, t_psi = u_phi + lam * du_phi, u_psi + lam * du_psi
            n1 = t_phi - 0.5 * dt * ((dpsi_known + cm * t_psi) - defect.b_psi(t_phi, t_psi)) - rhs_phi
            n2 = t_psi - 0.5 * dt * ((dphi_known + cp * t_phi) + defect.b_phi(t_phi, t_psi)) - rhs_psi
            if max(abs(n1), abs(n2)) < res:
                break
            lam *= 0.5
        u_phi += lam * du_phi
        u_psi += lam * du_psi
    if not converged:
        raise StepFailure(
            f"defect interface Newton failed to converge at t={state.t}",
            state_dump={
                "t": float(state.t),
                "phi0": float(phi0_old),
                "psi0": float(psi0_old),
                "u_phi": float(u_phi),
                "u_psi": float(u_psi),
            },
        )
    u[a], u[a + 1] = u_phi, u_psi

    # second bulk half-kick with the completed new-time fields
    f = plan.force(u)
    np.multiply(f, half_dt, out=kick)
    np.add(pi, kick, out=pi)
    # interface velocities from the sewing conditions (diagnostic values)
    pi[a] = (dpsi_known + cm * u_psi) - defect.b_psi(u_phi, u_psi)
    pi[a + 1] = (dphi_known + cp * u_phi) + defect.b_phi(u_phi, u_psi)

    if plan.damp is not None:
        np.multiply(pi, plan.damp, out=pi)
    return DefectState.from_two_sided(state.t + dt, u, pi, plan.n_left, force=f, plan=plan)


def _plan(state, model, geometry: Geometry):
    """The step plan for this kind of state under (model, geometry), built
    on first use and kept with the geometry."""
    plan = state.plan
    if plan is not None and plan.model is model and plan.geometry is geometry:
        return plan  # the plan that made the state, without the memo lookup
    if isinstance(state, DefectState):
        return geometry.memo(("step-defect", model), lambda: _DefectPlan(model, geometry))
    return geometry.memo(("step", model), lambda: _BulkPlan(model, geometry))


def step(state, model, geometry: Geometry):
    """Advance one leapfrog step; returns a new state at t + dt."""
    plan = _plan(state, model, geometry)
    if isinstance(state, DefectState):
        return _step_defect(plan, state)
    return _step_bulk(plan, state)


class _Snapshots:
    """Observer that records field snapshots; defect runs store the two
    fields side by side (x = 0 appears twice)."""

    def __init__(self):
        self.times: list[float] = []
        self.phi: list[np.ndarray] = []
        self.pi: list[np.ndarray] = []

    def __call__(self, state) -> None:
        self.times.append(state.t)
        if isinstance(state, DefectState):
            u, pi = state.joined()
            self.phi.append(np.array(u[None, :], copy=True))
            self.pi.append(np.array(pi[None, :], copy=True))
        else:
            self.phi.append(np.array(state.phi, copy=True))
            self.pi.append(np.array(state.pi, copy=True))

    def history(self, geometry: Geometry) -> FieldHistory | None:
        if not self.times:
            return None
        x = geometry.x
        if geometry.kind == "defect":
            i0 = geometry.interface_index
            x = np.concatenate([x[: i0 + 1], x[i0:]])
        return FieldHistory(
            times=np.asarray(self.times), x=x, phi=np.asarray(self.phi), pi=np.asarray(self.pi)
        )


def _drive(state, model, geometry: Geometry, n_steps: int, observers=()):
    """The stepping loop of every run: ``n_steps`` calls of ``step``.

    ``observers`` are ``(every, last, fn)`` triples.  ``fn(state)`` sees the
    initial state and the state after every ``every``-th step, and after
    the final step too when ``last`` is set.  The state's shape is checked
    against the model and geometry before anything runs, and each stepped
    state for non-finite values before an observer sees it (StepFailure).
    Returns the final state.
    """
    _plan(state, model, geometry).check(state)
    for _, _, fn in observers:
        fn(state)
    # overflow shows up as non-finite fields, reported at the next observation
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n_steps + 1):
            state = step(state, model, geometry)
            due = [fn for every, last, fn in observers if k % every == 0 or (last and k == n_steps)]
            if due:
                state.check_finite()
                for fn in due:
                    fn(state)
    return state


def evolve(state, model, geometry: Geometry, n_steps: int, save_every: int = 0):
    """Run ``n_steps`` steps; with ``save_every`` > 0 also collect a snapshot
    of the initial state and of every ``save_every``-th step.

    Returns (final state, FieldHistory or None).
    """
    snaps = _Snapshots()
    observers = [(save_every, False, snaps)] if save_every > 0 else []
    state = _drive(state, model, geometry, n_steps, observers)
    return state, snaps.history(geometry)
