"""Numeric gauge components, curvature residual, and monodromy diagnostics.

Everything here is float/complex; exact data comes in through a ``LaxFrame``
built from the algebra module.  Fields are given in orthonormal root-space
coordinates, so ``a_t`` and ``a_x`` follow the two-dimensional gauge-field
construction: Cartan piece proportional to the field derivatives, step
operators weighted by ``lam`` and ``1/lam`` with node masses and exponentials
of ``alpha_i . phi / 2``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
import math

import numpy as np

from ..algebra.reps import defining_rep
from ..algebra.roots import RootSystem, mass_coefficients
from ..errors import ValidationError
from ..simulate import toda_units


@dataclass(frozen=True, eq=False)
class LaxFrame:
    """Float-valued representation data for one root system, in the units
    (mass scale ``m``, coupling ``beta``) its gauge pair is written in."""

    rs: RootSystem
    n: int
    masses: np.ndarray
    alpha_rootspace: np.ndarray  # (nodes, rank)
    e_plus: np.ndarray  # (nodes, n, n)
    e_minus: np.ndarray
    h_dirs: np.ndarray  # (rank, n, n): Cartan matrices of the orthobasis rows
    m: float
    beta: float


def lax_frame(rs: RootSystem) -> LaxFrame:
    """Frame of ``rs`` in normalized units (``m = beta = 1``)."""
    rep = defining_rep(rs)
    e_plus, e_minus = (np.array(mats, dtype=complex) for mats in rep.node_steps())
    h_dirs = np.array([np.diag(row) for row in rs.orthobasis], dtype=complex)  # H(v) = diag(v)
    return LaxFrame(
        rs=rs,
        n=rep.n,
        masses=np.asarray(mass_coefficients(rs)),
        alpha_rootspace=rs.affine_rootspace,
        e_plus=e_plus,
        e_minus=e_minus,
        h_dirs=h_dirs,
        m=1.0,
        beta=1.0,
    )


@dataclass(frozen=True)
class GaugeComponents:
    a_t: np.ndarray
    a_x: np.ndarray


def lax_components(
    frame: LaxFrame,
    phi: np.ndarray,
    dt_phi: np.ndarray,
    dx_phi: np.ndarray,
    lam: complex,
) -> GaugeComponents:
    """Gauge pair at field values ``phi`` (shape (..., rank)).

    The frame's ``m = beta = 1`` reproduces the normalized display; general
    (m, beta) rescale the step-operator weights and exponents so that zero
    curvature is equivalent to the (m, beta) field equations.
    """
    lam = complex(lam)
    if lam == 0:
        raise ValidationError("spectral parameter must be nonzero (1/lambda pole)")
    phi = np.asarray(phi, dtype=float)
    dt_phi = np.asarray(dt_phi, dtype=float)
    dx_phi = np.asarray(dx_phi, dtype=float)
    r = frame.rs.rank
    if phi.shape[-1] != r:
        raise ValidationError(f"phi must have {r} components, got {phi.shape[-1]}")

    m, beta = frame.m, frame.beta
    expf = np.exp(beta * (phi @ frame.alpha_rootspace.T) / 2.0)  # (..., nodes)
    weights = m * frame.masses * expf  # (..., nodes)
    plus = np.einsum("...i,ijk->...jk", weights, frame.e_plus) * lam
    minus = np.einsum("...i,ijk->...jk", weights, frame.e_minus) / lam
    h_t = np.einsum("...a,ajk->...jk", dt_phi, frame.h_dirs) * (beta / 2.0)
    h_x = np.einsum("...a,ajk->...jk", dx_phi, frame.h_dirs) * (beta / 2.0)
    return GaugeComponents(a_t=h_x + plus - minus, a_x=h_t + plus + minus)


def toda_frame_for(model) -> LaxFrame:
    """Frame of a simulate-module model, in the Toda units that
    ``simulate.toda_units`` maps it to."""
    rs, m, beta = toda_units(model)
    return replace(lax_frame(rs), m=m, beta=beta)


def curvature_residual(history, frame: LaxFrame, lam: complex) -> float:
    """RMS Frobenius norm of F_tx = dt a_x - dx a_t + [a_t, a_x] on a history.

    Centered differences in both directions; on a solution of the field
    equations the result decays at second order in the grid spacings.
    """
    times = np.asarray(history.times, dtype=float)
    x = np.asarray(history.x, dtype=float)
    phi = np.asarray(history.phi, dtype=float)  # (nt, ncomp, nx)
    pi = np.asarray(history.pi, dtype=float)
    if len(times) < 3 or len(x) < 3:
        raise ValidationError("need at least a 3x3 space-time grid for stencils")
    dts = np.diff(times)
    if not np.allclose(dts, dts[0], rtol=1e-8):
        raise ValidationError("history must be sampled at uniform time intervals")
    dt = float(dts[0])
    h = float(x[1] - x[0])

    # (nt, nx, ncomp) field arrays
    phi_t = np.moveaxis(phi, 1, -1)
    pi_t = np.moveaxis(pi, 1, -1)
    dx_phi = np.gradient(phi_t, h, axis=1, edge_order=2)

    comps = lax_components(frame, phi_t, pi_t, dx_phi, lam)
    a_t, a_x = comps.a_t, comps.a_x
    dt_ax = (a_x[2:] - a_x[:-2]) / (2.0 * dt)
    dx_at = (a_t[:, 2:] - a_t[:, :-2]) / (2.0 * h)
    bracket = a_t @ a_x - a_x @ a_t
    f = dt_ax[:, 1:-1] - dx_at[1:-1] + bracket[1:-1, 1:-1]
    return float(np.sqrt(np.mean(np.abs(f) ** 2)))


def _bmm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix products of two batch-last stacks ``(n, n, ...)``, accumulated
    by rows: ``out[i] = sum_k a[i, k] * b[k]``.  Each step is one ufunc over
    the whole batch.  ``np.matmul`` on ``(N, n, n)`` pays a fixed cost per
    matrix, so for the n = 2 and 3 of small frames this is many times faster;
    its own cost grows as n**3, and the two are about even at n = 4."""
    out = a[:, 0, None] * b[0]
    for k in range(1, a.shape[1]):
        out += a[:, k, None] * b[k]
    return out


def expm(x: np.ndarray) -> np.ndarray:
    """exp of every matrix in a stack ``(N, n, n)``.

    Scaling and squaring with one exponent for the whole stack, chosen so that
    the largest 1-norm is at most 1/4 after scaling, and a degree-14 Taylor
    polynomial in Horner form; its truncation error there is below 1e-21.
    """
    x = np.asarray(x)
    if x.ndim != 3 or x.shape[1] != x.shape[2]:
        raise ValueError(f"expm takes a stack of square matrices (N, n, n), got {x.shape}")
    norm = float(np.max(np.abs(x).sum(axis=-2), initial=0.0))
    s = max(0, math.frexp(4.0 * norm)[1])  # 4 norm < 2**s: norm / 2**s < 1/4
    a = np.multiply(np.moveaxis(x, 0, -1), 0.5**s, order="C")  # batch-last (n, n, N)
    diag = np.arange(x.shape[-1])
    p = a / 14.0
    p[diag, diag] += 1.0
    for k in range(13, 0, -1):
        p = _bmm(a, p)
        p /= k
        p[diag, diag] += 1.0
    for _ in range(s):
        p = _bmm(p, p)
    return np.moveaxis(p, -1, 0)


def _transport_factors(a_x_nodes: np.ndarray, h: float, periodic: bool) -> np.ndarray:
    """Midpoint cell transports exp(h (A_j + A_{j+1})/2) of node matrices
    ``(nt, nx, n, n)``, as one batch-last stack ``(n, n, nt, cells)``."""
    if periodic:
        mids = 0.5 * (a_x_nodes + np.roll(a_x_nodes, -1, axis=1))
    else:
        mids = 0.5 * (a_x_nodes[:, :-1] + a_x_nodes[:, 1:])
    nt, cells, n = mids.shape[:3]
    stack = expm((mids * h).reshape(nt * cells, n, n))
    return np.moveaxis(stack, 0, -1).reshape(n, n, nt, cells)


def _ordered_product(factors: np.ndarray, reverse: bool = False) -> np.ndarray:
    """Left-to-right product over the last axis of a batch-last stack
    ``(n, n, ..., m)`` (right-to-left with ``reverse``), taken pairwise in
    log2(m) rounds of batched products; returns ``(n, n, ...)``."""
    p = factors[..., ::-1] if reverse else factors
    while p.shape[-1] > 1:
        m = p.shape[-1]
        q = _bmm(p[..., 0 : m - 1 : 2], p[..., 1::2])
        if m % 2:
            q[..., -1] = _bmm(q[..., -1], p[..., -1])
        p = q
    return p[..., 0]


def monodromy_charge(
    x: np.ndarray,
    phi: np.ndarray,
    pi: np.ndarray,
    frame: LaxFrame,
    lam: complex,
    geometry: str = "periodic",
    kmat: np.ndarray | None = None,
) -> complex | np.ndarray:
    """Trace of the path-ordered transport of a_x across the snapshot.

    ``geometry='periodic'`` / ``'line'``: Q = tr V with V the left-to-right
    ordered product of cell transports.  ``'halfline'`` (boundary at the right
    end): Q = tr(V K V_rev), with V_rev the same factors composed in reverse
    order, which is the transport of the reflected-field connection; K is
    required and mediates the gauge matching at the boundary.

    ``phi``/``pi`` of shape ``(nx,)`` or ``(ncomp, nx)`` give one charge;
    ``(nt, ncomp, nx)`` gives the ``nt`` charges of a history as an array,
    all cells of all snapshots going through one ``expm`` stack.
    """
    x = np.asarray(x, dtype=float)
    phi = np.asarray(phi, dtype=float)
    pi = np.asarray(pi, dtype=float)
    batched = phi.ndim == 3
    if not batched:  # one snapshot, (nx,) or (ncomp, nx)
        phi = phi.reshape(1, -1, phi.shape[-1])
        pi = pi.reshape(1, -1, pi.shape[-1])
    h = float(x[1] - x[0])
    phi_nodes = np.moveaxis(phi, 1, -1)  # (nt, nx, ncomp)
    pi_nodes = np.moveaxis(pi, 1, -1)
    comps = lax_components(frame, phi_nodes, pi_nodes, np.zeros_like(phi_nodes), lam)
    if geometry in ("periodic", "line"):
        factors = _transport_factors(comps.a_x, h, periodic=(geometry == "periodic"))
        q = np.trace(_ordered_product(factors))
    elif geometry == "halfline":
        if kmat is None:
            raise ValidationError("half-line monodromy requires the boundary K matrix")
        factors = _transport_factors(comps.a_x, h, periodic=False)
        v = _ordered_product(factors)
        v_rev = _ordered_product(factors, reverse=True)
        vk = _bmm(v, np.asarray(kmat, dtype=complex)[..., None])
        q = np.trace(_bmm(vk, v_rev))
    else:
        raise ValidationError(f"unknown monodromy geometry {geometry!r}")
    return q if batched else complex(q[0])
