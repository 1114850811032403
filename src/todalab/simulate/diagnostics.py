"""Conserved-quantity diagnostics and frequency/phase measurements.

Energy and momentum are trapezoid integrals of the densities

    e = 1/2 sum_a pi_a^2 + 1/2 sum_a (d_x phi_a)^2 + V(phi),    p = sum_a pi_a d_x phi_a,

with d_x phi the ``np.gradient`` stencil (the central difference around a
periodic ring), over each segment of the state row: the whole row, or the
two sides of a defect, whose integrals are summed.  On a defect the
interface energy B and U then enter, and the topological charge
beta/2pi (phi[-1] - phi[0]) of a non-periodic row is the defect's total
charge too.  ``diagnostics`` keeps one buffer of the doubled density
D = sum_a pi_a^2 + sum_a (d_x phi_a)^2 + 2 V and takes

    E = sum_i (D_i + D_{i+1}) (h/4),    P = sum_i (p_i + p_{i+1}) (h/2),

or (sum_i D_i h) / 2 and sum_i p_i h on a ring, each sum by numpy's
pairwise ``np.add.reduce``, the reduction ``np.sum`` runs.  Scaling by a
power of two is exact in binary floating point, and rounding
commutes with it, so D_i is exactly 2 e_i, D_i + D_{i+1} is exactly twice
e_i + e_{i+1}, and (D_i + D_{i+1}) (h/4) is exactly ((e_i + e_{i+1}) h) / 2,
the addend of ``np.trapezoid(e, dx=h)``.  The pairwise sum then adds the same
addends in the same order, so E and P equal the ``np.gradient`` /
``np.trapezoid`` form bit for bit, with the two ``x 0.5`` passes and one
pass of each trapezoid left out.  The exceptions are values at the edges of
the double range: a square, a density or an addend below 2**-1022
(subnormal, where halving drops bits) or a doubled density that overflows.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..errors import ValidationError
from .state import Geometry, check_state, empty_aligned


class Diagnostics(NamedTuple):
    t: float
    energy: float
    momentum: float
    defect_u: float
    p_plus_u: float
    topological_charge: float
    field_charge: float
    probes: tuple[float, ...]


def _gradient_into(arr: np.ndarray, h: float, out: np.ndarray) -> None:
    """np.gradient(arr, h, axis=-1) of the rows of a 2-D ``arr`` (second
    order inside, first order at the ends), the same operations written
    into ``out``."""
    inner = out[:, 1:-1]
    np.subtract(arr[:, 2:], arr[:, :-2], out=inner)
    np.divide(inner, 2.0 * h, out=inner)
    # end nodes (f[1] - f[0]) / h and (f[n-1] - f[n-2]) / h on Python floats,
    # without the per-call cost of tiny array ops
    for c, ((a0, a1), (b1, b0)) in enumerate(zip(arr[:, :2].tolist(), arr[:, -2:].tolist())):
        out[c, 0] = (a1 - a0) / h
        out[c, -1] = (b0 - b1) / h


class _Integrals:
    """Gradient and integrand buffers of the energy and momentum integrals
    of fields of shape (n_components, n), and the integration weights."""

    def __init__(self, n_components: int, n: int, h: float, periodic: bool):
        self.grad = empty_aligned((n_components, n))
        # rows are summed through ``work``; one row is squared in place
        self.work = empty_aligned((n_components, n)) if n_components > 1 else None
        self.dens, self.flux = empty_aligned(n), empty_aligned(n)
        self.pair = empty_aligned(n - 1)
        self.h, self.quarter_h, self.half_h = h, h / 4.0, h / 2.0
        self.periodic = periodic

    def __call__(self, phi: np.ndarray, pi: np.ndarray, v: np.ndarray) -> tuple[float, float]:
        """E and P of field ``phi`` and momentum ``pi``; ``v``, the potential
        density, is doubled in place."""
        grad, work, dens, flux, h = self.grad, self.work, self.dens, self.flux, self.h
        if self.periodic:
            np.subtract(np.roll(phi, -1, axis=-1), np.roll(phi, 1, axis=-1), out=grad)
            np.divide(grad, 2.0 * h, out=grad)
        else:
            _gradient_into(phi, h, grad)
        if work is None:
            pi, grad = pi[0], grad[0]
            np.square(pi, out=dens)
            np.square(grad, out=flux)
        else:
            np.square(pi, out=work)
            np.add.reduce(work, axis=0, out=dens)
            np.square(grad, out=work)
            np.add.reduce(work, axis=0, out=flux)
        np.add(dens, flux, out=dens)
        np.multiply(v, 2.0, out=v)
        np.add(dens, v, out=dens)
        if work is None:
            flux = np.multiply(grad, pi, out=grad)  # in place of the spent gradient
        else:
            np.multiply(pi, grad, out=work)
            np.add.reduce(work, axis=0, out=flux)
        total = np.add.reduce  # np.sum without its Python wrapper
        if self.periodic:
            return float(total(dens) * h) / 2.0, float(total(flux) * h)
        pair = self.pair
        np.add(dens[1:], dens[:-1], out=pair)
        np.multiply(pair, self.quarter_h, out=pair)
        e = float(total(pair))
        np.add(flux[1:], flux[:-1], out=pair)
        np.multiply(pair, self.half_h, out=pair)
        return e, float(total(pair))


class _ObservePlan:
    """Probe nodes, boundary energy terms and the segments of the state row
    for ``diagnostics`` under one model, geometry, state layout and probe
    list.

    A segment is a run of row entries with its own integral buffers: the
    whole row, or on a defect its two sides, split at
    ``interface_index + 1``.  A probe reads the nearest node of the last
    segment that starts at or left of it, and of the first segment when
    none does, so x = 0 on a defect reads the right side.
    """

    def __init__(self, model, geometry: Geometry, state, probes: tuple[float, ...]):
        check_state(geometry, state, model)
        x = geometry.state_x
        h = geometry.grid.h
        periodic = geometry.kind == "periodic"
        # B(phi) resolved once, like the stepper's dB
        left, right = geometry.boundary_ends
        self.energy_left = left.energy(model) if left is not None else None
        self.energy_right = right.energy(model) if right is not None else None
        self.defect = geometry.defect if geometry.kind == "defect" else None
        starts = [0] if self.defect is None else [0, geometry.interface_index + 1]
        bounds = list(zip(starts, starts[1:] + [len(x)]))
        n_components = state.phi.shape[0]
        self.segments = [(slice(a, b), _Integrals(n_components, b - a, h, periodic)) for a, b in bounds]
        self.probes = []
        for px in probes:
            a, b = bounds[sum(not px < x[a] for a, _ in bounds[1:])]
            self.probes.append(a + int(np.argmin(np.abs(x[a:b] - px))))
        beta = getattr(model, "beta", 0.0)
        self.charge_coeff = beta / (2.0 * np.pi) if beta and not periodic else None


def diagnostics(state, model, geometry: Geometry, probes: tuple[float, ...] = ()) -> Diagnostics:
    """Energy, momentum (paper convention P = int d_t phi d_x phi), defect
    functional U, P + U, and topological charge; probe values are field
    samples at the nearest grid node.

    E and P equal the ``np.gradient`` / ``np.trapezoid`` integrals bit for
    bit (see the module docstring), except where a squared value, a density
    or a trapezoid addend is subnormal (below 2**-1022) or a doubled density
    overflows; there the equality is not proven.
    """
    probes = tuple(probes)
    plan = geometry.memo(
        ("observe", model, state.phi.shape, probes),
        lambda: _ObservePlan(model, geometry, state, probes),
    )
    phi, pi = state.phi, state.pi
    e = p = None
    for seg, integrals in plan.segments:
        part = phi[:, seg]
        de, dp = integrals(part, pi[:, seg], model.potential(part))
        # the first segment's values as they are, sign of zero included
        e, p = (de, dp) if e is None else (e + de, p + dp)
    if plan.energy_right is not None:
        e += plan.energy_right(phi[:, -1])
    if plan.energy_left is not None:
        e += plan.energy_left(phi[:, 0])
    row, coeff = phi[0], plan.charge_coeff
    charge = field_charge = 0.0 if coeff is None else float(coeff * (row[-1] - row[0]))
    u, p_plus_u = 0.0, p
    if plan.defect is not None:
        cut = plan.segments[1][0].start
        phi0, psi0 = row[cut - 1], row[cut]
        e += float(plan.defect.b_value(phi0, psi0))
        u = float(plan.defect.u_value(phi0, psi0))
        p_plus_u = p + u
        if coeff is not None:
            field_charge = coeff * ((phi0 - row[0]) + (row[-1] - psi0))
    return Diagnostics(
        state.t, e, p, u, p_plus_u, charge, field_charge, tuple(float(row[i]) for i in plan.probes)
    )


def measure_frequency(
    series: np.ndarray,
    dt: float,
    min_periods: float = 8.0,
    require_isolated: bool = False,
) -> float:
    """Dominant angular frequency of a real time series.

    Hann window, FFT peak, quadratic (parabolic) interpolation on the log
    magnitude.  Rejects series shorter than ``min_periods`` of the measured
    frequency, series with no peak above the noise floor, and (optionally)
    series with a second comparable tone.
    """
    s = np.asarray(series, dtype=float)
    n = len(s)
    if n < 16:
        raise ValidationError("series too short for a frequency measurement")
    s = s - np.mean(s)
    window = np.hanning(n)
    spec = np.abs(np.fft.rfft(s * window))
    spec[0] = 0.0
    k = int(np.argmax(spec))
    if spec[k] <= 0 or spec[k] < 10.0 * np.median(spec[1:]):
        raise ValidationError("no spectral peak above the noise floor")
    if require_isolated:
        guard = 5  # Hann main lobe plus near sidelobes
        masked = spec.copy()
        masked[max(0, k - guard) : k + guard + 1] = 0.0
        if np.max(masked) > 0.5 * spec[k]:
            raise ValidationError("second comparable tone present; series is not single-mode")
    if 0 < k < len(spec) - 1:
        la, lb, lc = np.log(spec[k - 1] + 1e-300), np.log(spec[k]), np.log(spec[k + 1] + 1e-300)
        denom = la - 2.0 * lb + lc
        delta = 0.5 * (la - lc) / denom if denom != 0 else 0.0
        delta = float(np.clip(delta, -0.5, 0.5))
    else:
        delta = 0.0
    omega = 2.0 * np.pi * (k + delta) / (n * dt)
    if n * dt * omega / (2.0 * np.pi) < min_periods:
        raise ValidationError(
            f"series covers fewer than {min_periods} periods of the measured frequency"
        )
    return float(omega)


def measure_reflection_phase(
    series: np.ndarray,
    dt: float,
    t_split: float,
    omega: float,
    k: float,
    x_probe_rel: float,
) -> tuple[float, float]:
    """Measured reflection phase and modulus at carrier frequency ``omega``.

    The probe series is split at ``t_split`` into the incident and reflected
    passes.  Each pass is analysed over an equal-length rectangular window
    centered on its energy centroid, using absolute-time Fourier sums: for
    temporally separated compact packets the rectangular window keeps the
    Fourier integral exact up to tail truncation, whereas a taper would
    convolve in the quadratic spectral phase of the propagation.  With the
    incident wave written exp(i(k x - w t)) relative to the boundary and the
    probe at ``x_probe_rel`` (< 0) from it, the propagation phase
    exp(-2 i k x_p) is removed here.
    """
    s = np.asarray(series, dtype=float)
    n_split = int(round(t_split / dt))
    if n_split < 16 or len(s) - n_split < 16:
        raise ValidationError("split leaves too few samples in a window")

    def centroid(segment: np.ndarray, offset: int) -> float:
        e = segment**2
        total = float(np.sum(e))
        if total <= 0:
            raise ValidationError("empty signal window in reflection measurement")
        return offset + float(np.sum(np.arange(len(segment)) * e) / total)

    c_in = centroid(s[:n_split], 0)
    c_out = centroid(s[n_split:], n_split)
    half = int(min(c_in, n_split - c_in, c_out - n_split, len(s) - 1 - c_out))
    if half < 16:
        raise ValidationError("packets too close to the window edges")

    def amplitude(center: float) -> complex:
        idx = np.arange(int(round(center)) - half, int(round(center)) + half + 1)
        t = idx * dt
        return complex(np.sum(s[idx] * np.exp(1j * omega * t)) * dt)

    ratio = amplitude(c_out) / amplitude(c_in) * np.exp(2j * k * x_probe_rel)
    return float(np.angle(ratio)), float(abs(ratio))
