"""Initial states: wavepackets, kinks, boundary modes, and simple profiles."""

from __future__ import annotations

import numpy as np

from ..errors import ValidationError
from .state import FieldState, Geometry


def _scalar_state(geometry: Geometry, profile, velocity) -> FieldState:
    """Assemble a (scalar-field) state from profile/velocity callables,
    evaluated on the state's nodes ``geometry.state_x``."""
    x = geometry.state_x
    return FieldState(0.0, profile(x)[None, :], velocity(x)[None, :])


def _check_width(kind: str, width: float) -> None:
    """Refuse a Gaussian width that is not > 0: the profile divides by it."""
    if not width > 0.0:
        raise ValidationError(f"{kind} width must be > 0, got {width}")


def init_wavepacket(
    geometry: Geometry,
    model,
    k0: float,
    width: float,
    x0: float,
    amplitude: float,
    direction: int = 1,
) -> FieldState:
    """Near-monochromatic Gaussian packet moving with group velocity k0/omega0.

    The packet support (3 sigma) must clear the domain ends; amplitude zero
    degenerates to the vacuum.
    """
    if direction not in (1, -1):
        raise ValidationError("direction must be +1 or -1")
    _check_width("wavepacket", width)
    g = geometry.grid
    if amplitude != 0.0 and not (
        g.x_min + 3.0 * width <= x0 <= g.x_max - 3.0 * width
    ):
        raise ValidationError(
            f"packet at x0={x0} with width {width} violates the 3-sigma clearance"
        )
    m = getattr(model, "m", 0.0)
    omega0 = np.sqrt(k0**2 + m**2)
    v_g = k0 / omega0 if omega0 > 0 else 0.0

    def profile(x):
        xi = x - x0
        return amplitude * np.exp(-(xi**2) / (2.0 * width**2)) * np.cos(k0 * xi)

    def velocity(x):
        xi = x - x0
        env = amplitude * np.exp(-(xi**2) / (2.0 * width**2))
        return direction * env * (v_g * xi / width**2 * np.cos(k0 * xi) + omega0 * np.sin(k0 * xi))

    return _scalar_state(geometry, profile, velocity)


def init_soliton(
    geometry: Geometry, model, v: float, x0: float, charge: int = 1
) -> FieldState:
    """Moving sine-Gordon kink (charge +1) or antikink (-1)."""
    if abs(v) >= 1.0:
        raise ValidationError("soliton speed must satisfy |v| < 1")
    if charge not in (1, -1):
        raise ValidationError("topological charge must be +1 or -1")
    m, beta = model.m, model.beta
    gamma = 1.0 / np.sqrt(1.0 - v**2)

    def profile(x):
        return (4.0 / beta) * np.arctan(np.exp(charge * m * gamma * (x - x0)))

    def velocity(x):
        return -(2.0 * m * gamma * v * charge / beta) / np.cosh(m * gamma * (x - x0))

    return _scalar_state(geometry, profile, velocity)


def init_boundary_mode(geometry: Geometry, model, lam_b: float, amplitude: float) -> FieldState:
    """Exponentially localized half-line profile phi = A exp(-lam_b (x - x_b)).

    Satisfies the Robin condition d_x phi = -lam_b phi identically at t = 0;
    requires -m < lam_b < 0 (the boundary-bound-state window).
    """
    m = model.m
    if not -m < lam_b < 0.0:
        raise ValidationError(
            f"boundary mode needs -m < lam_b < 0 (m={m}, lam_b={lam_b})"
        )
    if geometry.kind != "halfline":
        raise ValidationError("boundary mode defined on the half-line geometry")
    x_b = geometry.grid.x_max
    x = geometry.x

    phi = amplitude * np.exp(-lam_b * (x - x_b))
    return FieldState(0.0, phi[None, :], np.zeros((1, len(x))))


def init_gaussian(geometry: Geometry, amplitude: float, width: float, x0: float):
    """Static Gaussian bump (pi = 0); a generic smooth mode-mix exciter."""
    _check_width("gaussian", width)

    def profile(x):
        return amplitude * np.exp(-((x - x0) ** 2) / (2.0 * width**2))

    def velocity(x):
        return np.zeros_like(x)

    return _scalar_state(geometry, profile, velocity)


def init_noise(geometry: Geometry, amplitude: float, width: float, seed: int = 0):
    """Smooth random field (pi = 0), reproducible from the seed.

    White noise low-passed by a Gaussian of the given correlation width;
    useful for exciting every mode of a cavity at once.
    """
    _check_width("noise", width)
    rng = np.random.default_rng(seed)
    x = geometry.x
    h = geometry.grid.h
    raw = rng.standard_normal(len(x))
    half = max(1, int(round(3.0 * width / h)))
    kernel_x = h * np.arange(-half, half + 1)
    kernel = np.exp(-(kernel_x**2) / (2.0 * width**2))
    kernel /= kernel.sum()
    smooth = np.convolve(raw, kernel, mode="same")
    smooth *= amplitude / max(1e-30, np.max(np.abs(smooth)))

    def profile(xq):
        return np.interp(xq, x, smooth)

    def velocity(xq):
        return np.zeros_like(xq)

    return _scalar_state(geometry, profile, velocity)


def init_cosine(
    geometry: Geometry,
    amplitude: float,
    mode: int,
    amplitude2: float = 0.0,
    mode2: int = 0,
    traveling_m: float | None = None,
):
    """Cosine mode(s) on the domain; optionally a traveling wave.

    With ``traveling_m`` set, pi is chosen so the first mode moves right with
    the linear dispersion omega^2 = k^2 + m^2 (periodic geometry).
    """
    g = geometry.grid
    length = g.x_max - g.x_min
    k1 = 2.0 * np.pi * mode / length
    k2 = 2.0 * np.pi * mode2 / length

    def profile(x):
        out = amplitude * np.cos(k1 * (x - g.x_min))
        if amplitude2:
            out = out + amplitude2 * np.sin(k2 * (x - g.x_min))
        return out

    def velocity(x):
        if traveling_m is None:
            return np.zeros_like(x)
        omega = np.sqrt(k1**2 + traveling_m**2)
        return amplitude * omega * np.sin(k1 * (x - g.x_min))

    return _scalar_state(geometry, profile, velocity)
