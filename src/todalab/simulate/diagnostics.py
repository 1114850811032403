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
pass of each trapezoid left out.  2V takes no pass of its own either: it is
the model's ``potential_terms`` T times twice its
``potential_coefficient`` c, and (2c) T is exactly 2 (c T) by the same
argument.  The models refuse parameters whose 2c is not finite.  The
exceptions are values at the edges of the double range: a square, a
density, a potential c T or an addend below 2**-1022 (subnormal, where
halving drops bits, or doubling c before the rounding keeps one) or a
doubled density that overflows.

Every array an observation writes belongs to its plan, built on the first
call for a (model, geometry, state shape, probes) and kept with the
geometry.  Each segment owns its gradient, its 2V (and the root
exponentials of an affine Toda potential), the densities D and p as the
two rows of one buffer, their trapezoid addends as the two rows of
another, and the two sums, each buffer and each of those rows 64-byte
aligned.  One ufunc call takes both rows through the pair sum and through
the reduction.  An observation therefore allocates no field-sized array.
A field of one component is read as its 1-D row, and the gradient's end
values, the charges, the interface pair and the probes as Python floats.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..errors import ValidationError
from .models import AffineToda
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


def _aligned_rows(k: int, n: int) -> np.ndarray:
    """(k, n) views of ``empty_aligned`` rows padded to whole 64-byte lines,
    so that every row starts on a 64-byte boundary."""
    return empty_aligned((k, -(-n // 8) * 8))[:, :n]


class _Segment:
    """The energy and momentum integrals over one run of row entries: the
    whole row, or one side of a defect.  Owns every buffer the integrals
    write, 64-byte aligned, with their fixed views and weights.  A field of
    one component is read as its 1-D row."""

    def __init__(self, model, cut: slice | None, n: int, h: float, periodic: bool):
        self.cut = cut  # None: the whole row
        k = model.n_components
        self.one = k == 1
        self.grad = empty_aligned(n if self.one else (k, n))
        self.grad_rows = [self.grad] if self.one else list(self.grad)
        self.grad_inner = self.grad[..., 1:-1]
        # rows of several components are summed through ``work``
        self.work = None if self.one else empty_aligned((k, n))
        self.pot = empty_aligned(n)
        # the densities D and p as two rows, which one ufunc call takes
        # through the pair sum, or on a ring through the reduction
        self.integrands = _aligned_rows(2, n)
        self.dens, self.flux = self.integrands
        # the trapezoid addends of D and p, weighted a row at a time (a
        # broadcast weight column would cost numpy's iterator a buffer)
        self.pair = _aligned_rows(2, n - 1)
        self.e_pair, self.p_pair = self.pair
        self.integrands_hi, self.integrands_lo = self.integrands[:, 1:], self.integrands[:, :-1]
        self.sums = empty_aligned(2)
        # 2V into ``pot``: the model's potential terms, then twice its
        # coefficient on them
        self.roots = None
        self.terms, self.terms_args = model.potential_terms, (self.pot,)
        if isinstance(model, AffineToda):
            self.roots = empty_aligned((len(model.rs.affine_rootspace), n))
            self.terms_args += (self.roots,)
        self.twice_coefficient = np.array(2.0 * model.potential_coefficient)
        self.h, self.two_h = h, 2.0 * h
        # the ufuncs' scalar operands as 0-d arrays, which numpy takes
        # without converting a Python float on every call
        self.divisor = np.array(self.two_h)
        self.quarter_h, self.half_h = np.array(h / 4.0), np.array(h / 2.0)
        self.periodic = periodic

    def __call__(self, phi: np.ndarray, pi: np.ndarray) -> tuple[float, float, float, float]:
        """E and P over the segment of the state's fields ``phi`` and ``pi``,
        and the segment's first and last value of the first component."""
        if self.cut is not None:
            phi, pi = phi[:, self.cut], pi[:, self.cut]
        v = self.terms(phi, *self.terms_args)
        np.multiply(v, self.twice_coefficient, out=v)
        if self.one:
            phi, pi = phi[0], pi[0]
            lo, hi = [(phi.item(0), phi.item(1))], [(phi.item(-2), phi.item(-1))]
        else:
            lo, hi = phi[:, :2].tolist(), phi[:, -2:].tolist()
        grad, work, dens, flux = self.grad, self.work, self.dens, self.flux
        # np.gradient along the row: second order inside; at the ends first
        # order, or the central difference around a ring, on Python floats
        # without the per-call cost of tiny array ops
        inner = self.grad_inner
        np.subtract(phi[..., 2:], phi[..., :-2], out=inner)
        np.divide(inner, self.divisor, out=inner)
        for row, (a0, a1), (b1, b0) in zip(self.grad_rows, lo, hi):
            if self.periodic:
                row[0] = (a1 - b0) / self.two_h
                row[-1] = (a0 - b1) / self.two_h
            else:
                row[0] = (a1 - a0) / self.h
                row[-1] = (b0 - b1) / self.h
        if work is None:
            np.square(pi, out=dens)
            np.square(grad, out=flux)
        else:
            np.square(pi, out=work)
            np.add.reduce(work, axis=0, out=dens)
            np.square(grad, out=work)
            np.add.reduce(work, axis=0, out=flux)
        np.add(dens, flux, out=dens)
        np.add(dens, v, out=dens)
        if work is None:
            np.multiply(grad, pi, out=flux)
        else:
            np.multiply(pi, grad, out=work)
            np.add.reduce(work, axis=0, out=flux)
        first, last = lo[0][0], hi[0][1]
        # each row's sum by the pairwise np.add.reduce that np.sum runs
        sums = self.sums
        if self.periodic:
            np.add.reduce(self.integrands, axis=1, out=sums)
            e, p = sums.tolist()
            return (e * self.h) / 2.0, p * self.h, first, last
        pair = self.pair
        np.add(self.integrands_hi, self.integrands_lo, out=pair)
        np.multiply(self.e_pair, self.quarter_h, out=self.e_pair)
        np.multiply(self.p_pair, self.half_h, out=self.p_pair)
        np.add.reduce(pair, axis=1, out=sums)
        e, p = sums.tolist()
        return e, p, first, last


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
        left, right = geometry.left, geometry.right
        self.energy_left = left.energy(model) if left is not None else None
        self.energy_right = right.energy(model) if right is not None else None
        self.defect = geometry.defect
        if self.defect is not None:
            self.defect.validate_model(model)
        starts = [0] if self.defect is None else [0, geometry.interface_index + 1]
        bounds = list(zip(starts, starts[1:] + [len(x)]))
        self.segments = [
            _Segment(model, slice(a, b) if len(bounds) > 1 else None, b - a, h, periodic) for a, b in bounds
        ]
        # the probed nodes of row 0, which are also their flat indices
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
    phi, pi = state.phi, state.pi
    plan = geometry.memo(
        ("observe", model, phi.shape, probes),
        lambda: _ObservePlan(model, geometry, state, probes),
    )
    segments = plan.segments
    # the first segment's values as they are, sign of zero included
    e, p, first, last = segments[0](phi, pi)
    if plan.defect is not None:
        phi0 = last
        de, dp, psi0, last = segments[1](phi, pi)
        e, p = e + de, p + dp
    if plan.energy_right is not None:
        e += plan.energy_right(phi[:, -1])
    if plan.energy_left is not None:
        e += plan.energy_left(phi[:, 0])
    coeff = plan.charge_coeff
    charge = field_charge = 0.0 if coeff is None else coeff * (last - first)
    u, p_plus_u = 0.0, p
    if plan.defect is not None:
        e += float(plan.defect.b_value(phi0, psi0))
        u = float(plan.defect.u_value(phi0, psi0))
        p_plus_u = p + u
        if coeff is not None:
            field_charge = coeff * ((phi0 - first) + (last - psi0))
    return Diagnostics(state.t, e, p, u, p_plus_u, charge, field_charge, tuple(map(phi.item, plan.probes)))


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
