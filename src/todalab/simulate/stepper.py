"""Explicit leapfrog (velocity-Verlet) evolution on all geometries.

Every geometry runs one step on its state's fields ``state.phi`` and
``state.pi``, of shape (n_components, len(geometry.state_x)).  Boundary
conditions enter through second-order ghost cells.  A defect's state is one
two-sided row [phi | psi] with the interface node twice, so it steps like a
single domain: ghost Neumann far ends, and the stencil next to either
interface reads that side's own interface value.  The interface pair carries no Laplacian; the
sewing conditions are rearranged into ODEs for it,

    d_t phi0 = d_x psi - B_psi,        d_t psi0 = d_x phi + B_phi,

discretized with a trapezoidal average in time (the explicit version is
unstable) and one-sided second-order spatial derivatives.  The resulting
2x2 nonlinear system is solved by damped Newton on Python floats between
the drift and the closing force; it also gives the two interface momenta,
set after the closing kick.  The Newton reads B's gradient once per point
it visits (the old pair, then each line-search trial, whose residual and
momenta an accepted trial carries on) and B's Hessian once per iteration.

Everything a step needs that does not change during a run (spacing, time
step, sponge damping, bound boundary conditions, the interface) sits in a
step plan built once per (model, geometry).  The plan also owns the only
live field buffers, ``phi`` and ``pi``, and the scratch ``kick``, ``grad``
(the model gradient) and, for an affine Toda model, ``roots`` (its r + 1
root exponentials), all 64-byte aligned: the step runs in place on them,
velocity Verlet with one copy of (phi, pi) plus the force, which allocates
no field-sized array.  A run (``_drive``) loads its initial state into the
buffers once; each step then advances the plan's live state in place and
returns it as a new state over read-only views of the buffers.  Observers
see that view, which is valid only during their call: whoever keeps fields
keeps a copy.  A ``step`` from any other state copies it in and returns
fresh arrays, and so do ``evolve`` and ``_drive`` with their final state.

The force at the end of a step is the force at the start of the next one
("first same as last"): the plan remembers the last state it returned, and
its ``kick`` buffer still holds that state's force * dt/2, so a step from
that state evaluates the force once instead of twice.  Any other state is
checked against the geometry and has its force computed.  The arithmetic
and its order are those of the plain two-force step, so results are bit
for bit the same.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import StepFailure, ValidationError
from .models import AffineToda
from .state import FieldHistory, FieldState, Geometry, check_state, empty_aligned


def _sponge_profile(geometry: Geometry) -> np.ndarray | None:
    """exp(-sigma dt) damping factors for pi on a state's nodes, or None
    when disabled or the geometry has no open end."""
    frac = geometry.sponge_fraction
    ends = geometry.open_ends
    if frac <= 0.0 or not ends:
        return None
    x = geometry.state_x
    width = frac * (geometry.grid.x_max - geometry.grid.x_min)
    sigma = np.zeros_like(x)
    # d = dist / width < 1 exactly where dist < width; dividing only there
    # cannot overflow, whatever the width
    for end in ends:
        dist = x - geometry.grid.x_min if end == "left" else geometry.grid.x_max - x
        near = dist < width
        d = dist[near] / width
        sigma[near] = geometry.sponge_strength * (1.0 - d) ** 2
    return np.exp(-sigma * geometry.grid.dt)


def _interior_laplacian(arr: np.ndarray, out: np.ndarray, h2: float) -> None:
    """(arr[i+1] - 2 arr[i] + arr[i-1]) / h^2 at the inner nodes, into out."""
    inner = out[..., 1:-1]
    np.multiply(arr[..., 1:-1], 2.0, out=inner)
    np.subtract(arr[..., 2:], inner, out=inner)
    np.add(inner, arr[..., :-2], out=inner)
    np.divide(inner, h2, out=inner)


class _StepPlan:
    """Step constants, field buffers and scratch of the runs under one
    (model, geometry), one run at a time."""

    def __init__(self, model, geometry: Geometry):
        grid = geometry.grid
        self.model = model
        self.defect = geometry.defect
        if self.defect is not None:
            self.defect.validate_model(model)
            # phi's interface entry in the two-sided row; psi's is the next one
            self.interface = geometry.interface_index
        self.shape = (model.n_components, len(geometry.state_x))
        self.dt = grid.dt
        self.half_dt = 0.5 * grid.dt
        self.h = grid.h
        self.h2 = grid.h**2
        self.ghost = 2.0 * grid.h
        self.periodic = geometry.kind == "periodic"
        left, right = geometry.left, geometry.right
        self.db_left = left.bind(model) if left is not None else None
        self.db_right = right.bind(model) if right is not None else None
        self.damp = _sponge_profile(geometry)
        # the fields the step advances in place, and its scratch
        self.phi, self.pi, self.kick, self.grad = (empty_aligned(self.shape) for _ in range(4))
        # an affine Toda gradient's root exponentials
        toda = isinstance(model, AffineToda)
        self.roots = empty_aligned((len(model.rs.affine_rootspace), self.shape[1])) if toda else None
        self.grad_args = (self.grad,) if self.roots is None else (self.grad, self.roots)
        self.phi_view, self.pi_view = self.phi.view(), self.pi.view()
        self.phi_view.flags.writeable = self.pi_view.flags.writeable = False
        # the state over the read-only views during a run, else None
        self.live = None
        # the state whose fields ``phi`` and ``pi`` hold and whose
        # force * dt/2 ``kick`` holds: the last step's result
        self.last = None

    def load(self, state: FieldState) -> None:
        """Copy ``state``'s fields into the buffers, unless a run holds them."""
        if self.live is not None:
            raise ValidationError("a run is stepping this model on this geometry: step another state after it ends")
        self.last = None
        np.copyto(self.phi, state.phi)
        np.copyto(self.pi, state.pi)

    def force(self, phi: np.ndarray) -> np.ndarray:
        """Ghost-cell Laplacian minus the model gradient (computed into
        ``grad``, an affine Toda model's root exponentials into ``roots``),
        into ``kick``."""
        h2 = self.h2
        f = self.kick
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
        if self.defect is not None:
            a = self.interface
            f[:, a : a + 2] = 0.0
        np.subtract(f, self.model.gradient(phi, *self.grad_args), out=f)
        return f


def _sew(plan: _StepPlan, t: float, old: list[float], u: np.ndarray) -> tuple[float, float]:
    """Solve the sewing conditions for the interface pair of the drifted
    two-sided row ``u``, write the pair into ``u`` and return the interface
    momenta (diagnostic values).  ``old`` holds the row's six values around
    the interface, entries a - 2 to a + 3, before the drift."""
    defect = plan.defect
    hdt, h = plan.half_dt, plan.h
    a = plan.interface  # phi's interface node; psi's is a + 1

    # old interface values and their one-sided second-order d_x
    l2, l1, phi0_old, psi0_old, r1, r2 = old
    dphi_old = (3.0 * phi0_old - 4.0 * l1 + l2) / (2.0 * h)
    dpsi_old = (-3.0 * psi0_old + 4.0 * r1 - r2) / (2.0 * h)

    # trapezoidal update of the interface pair
    grad_old = defect.b_grad(phi0_old, psi0_old)
    rhs_phi = phi0_old + hdt * (dpsi_old - grad_old[1])
    rhs_psi = psi0_old + hdt * (dphi_old + grad_old[0])
    # new-time one-sided derivatives split into known interior part + interface term
    l2, l1 = u[a - 2 : a].tolist()
    r1, r2 = u[a + 2 : a + 4].tolist()
    dphi_known = (-4.0 * l1 + l2) / (2.0 * h)
    dpsi_known = (4.0 * r1 - r2) / (2.0 * h)
    cp, cm = 3.0 / (2.0 * h), -3.0 / (2.0 * h)

    def sewing(u_phi, u_psi, b_grad):
        """The momenta (p_phi, p_psi) and residuals (g1, g2) at a pair
        whose (B_phi, B_psi) is ``b_grad``."""
        p_phi = (dpsi_known + cm * u_psi) - b_grad[1]
        p_psi = (dphi_known + cp * u_phi) + b_grad[0]
        return p_phi, p_psi, u_phi - hdt * p_phi - rhs_phi, u_psi - hdt * p_psi - rhs_psi

    u_phi, u_psi = phi0_old, psi0_old
    p_phi, p_psi, g1, g2 = sewing(u_phi, u_psi, grad_old)
    scale = max(1.0, abs(rhs_phi), abs(rhs_psi))
    converged = False
    for _ in range(25):
        res = max(abs(g1), abs(g2))
        if res < 1e-12 * scale:
            converged = True
            break
        b_pp = defect.b_phiphi(u_phi, u_psi)  # = B_psipsi
        b_ps = defect.b_phipsi(u_phi, u_psi)  # dB_psi/dphi = B_phipsi
        j11 = 1.0 + hdt * b_ps
        j12 = -hdt * (cm - b_pp)
        j21 = -hdt * (cp + b_pp)
        j22 = 1.0 - hdt * b_ps
        det = j11 * j22 - j12 * j21
        if det == 0.0 or not math.isfinite(det):
            break
        du_phi = -(j22 * g1 - j12 * g2) / det
        du_psi = -(-j21 * g1 + j11 * g2) / det
        lam = 1.0
        for _ in range(8):
            t_phi, t_psi = u_phi + lam * du_phi, u_psi + lam * du_psi
            trial = sewing(t_phi, t_psi, defect.b_grad(t_phi, t_psi))
            if max(abs(trial[2]), abs(trial[3])) < res:
                # the next iterate is this trial, residual and momenta included
                u_phi, u_psi = t_phi, t_psi
                p_phi, p_psi, g1, g2 = trial
                break
            lam *= 0.5
        else:
            # no trial lowered the residual: take the step halved once more
            u_phi += lam * du_phi
            u_psi += lam * du_psi
            p_phi, p_psi, g1, g2 = sewing(u_phi, u_psi, defect.b_grad(u_phi, u_psi))
    if not converged:
        raise StepFailure(
            f"defect interface Newton failed to converge at t={t}",
            state_dump={
                "t": float(t),
                "phi0": float(phi0_old),
                "psi0": float(psi0_old),
                "u_phi": float(u_phi),
                "u_psi": float(u_psi),
            },
        )
    u[a], u[a + 1] = u_phi, u_psi
    return p_phi, p_psi


def _plan(model, geometry: Geometry) -> _StepPlan:
    """The step plan of (model, geometry), built on first use and kept with
    the geometry."""
    return geometry.memo(("step", model), lambda: _StepPlan(model, geometry))


def step(state, model, geometry: Geometry):
    """Advance one leapfrog step; returns a new state at t + dt.

    The plan's live state advances in place and comes back as a new state
    over the read-only views of the plan's buffers.  Any other state is
    copied in, and the new state's fields are fresh arrays."""
    plan = _plan(model, geometry)
    phi, pi, kick = plan.phi, plan.pi, plan.kick
    live = state is plan.live
    if state is not plan.last:
        if not live:
            check_state(geometry, state, model)
            plan.load(state)
        np.multiply(plan.force(phi), plan.half_dt, out=kick)
    # else the step that made ``state`` left its fields in the buffers and
    # its last half-kick, the same product, in ``kick``
    plan.live = plan.last = None
    np.add(pi, kick, out=pi)
    np.multiply(pi, plan.dt, out=kick)
    if plan.defect is not None:
        a = plan.interface
        old = phi[0, a - 2 : a + 4].tolist()  # the sewing's values before the drift
    np.add(phi, kick, out=phi)
    if plan.defect is not None:
        momenta = _sew(plan, state.t, old, phi[0])
    np.multiply(plan.force(phi), plan.half_dt, out=kick)
    np.add(pi, kick, out=pi)
    if plan.defect is not None:
        pi[0, a], pi[0, a + 1] = momenta
    if plan.damp is not None:
        np.multiply(pi, plan.damp, out=pi)
    t = state.t + plan.dt
    if live:
        plan.live = plan.last = FieldState(t, plan.phi_view, plan.pi_view)
    else:
        plan.last = FieldState(t, phi.copy(), pi.copy())
    return plan.last


class _Snapshots:
    """Observer that keeps copies of the states' fields on ``Geometry.state_x``."""

    def __init__(self):
        self.times: list[float] = []
        self.phi: list[np.ndarray] = []
        self.pi: list[np.ndarray] = []

    def __call__(self, state) -> None:
        self.times.append(state.t)
        self.phi.append(state.phi.copy())
        self.pi.append(state.pi.copy())

    def history(self, geometry: Geometry) -> FieldHistory | None:
        if not self.times:
            return None
        x = geometry.state_x
        return FieldHistory(
            times=np.asarray(self.times), x=x, phi=np.asarray(self.phi), pi=np.asarray(self.pi)
        )


# overflow shows up as non-finite fields or diagnostics, reported at the next
# observation, not as numpy warnings
@np.errstate(over="ignore", invalid="ignore")
def _drive(state, model, geometry: Geometry, n_steps: int, observers=()):
    """The stepping loop of every run: ``n_steps`` calls of ``step``.

    ``observers`` are ``(every, last, fn)`` triples.  ``fn(state)`` sees the
    initial state and the state after every ``every``-th step, and after
    the final step too when ``last`` is set.  The initial state is checked
    against the model and geometry and for non-finite values before
    anything runs, and each stepped state for non-finite values before an
    observer sees it (StepFailure).  Nothing has stepped when the initial
    state fails its checks or an observer of it raises StepFailure: the
    input is at fault, and that is a ValidationError.

    The initial state is loaded into the step plan's buffers once, and
    every step advances them in place: an observer of a stepped state sees
    read-only views of the buffers, valid only during its call.  Returns a
    copy of the final state.
    """
    plan = _plan(model, geometry)  # checks the model against the geometry
    check_state(geometry, state, model)
    try:
        state.check_finite()
        for _, _, fn in observers:
            fn(state)
    except StepFailure as exc:
        raise ValidationError(f"initial state: {exc}") from None
    plan.load(state)
    state = plan.live = FieldState(state.t, plan.phi_view, plan.pi_view)
    try:
        for k in range(1, n_steps + 1):
            state = step(state, model, geometry)
            due = [fn for every, last, fn in observers if k % every == 0 or (last and k == n_steps)]
            if due:
                state.check_finite()
                for fn in due:
                    fn(state)
        final = FieldState(state.t, state.phi.copy(), state.pi.copy())
        if plan.last is state:  # the buffers and ``kick`` are the copy's too
            plan.last = final
        return final
    finally:
        plan.live = None


def evolve(state, model, geometry: Geometry, n_steps: int, save_every: int = 0):
    """Run ``n_steps`` steps; with ``save_every`` > 0 also collect a snapshot
    of the initial state and of every ``save_every``-th step.

    Returns (final state, FieldHistory or None).
    """
    snaps = _Snapshots()
    observers = [(save_every, False, snaps)] if save_every > 0 else []
    state = _drive(state, model, geometry, n_steps, observers)
    return state, snaps.history(geometry)
