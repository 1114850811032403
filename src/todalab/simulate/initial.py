"""Initial states: wavepackets, kinks, boundary modes, and simple profiles.

Every builder takes the geometry, the model and then its ``[initial]``
config keys under their own names, and evaluates its profile on the state's
nodes ``geometry.state_x``.
"""

from __future__ import annotations

import numpy as np

from ..errors import ValidationError
from .state import FieldState, Geometry


def _state(phi: np.ndarray, pi: np.ndarray | None = None) -> FieldState:
    """The state at t = 0 with field ``phi`` and momentum ``pi`` (zero when
    None); a 1-D profile is the one row of a scalar field."""
    phi = np.atleast_2d(phi)
    return FieldState(0.0, phi, np.zeros_like(phi) if pi is None else np.atleast_2d(pi))


def _check_width(kind: str, width: float) -> None:
    """Refuse a Gaussian width that is not > 0: the profile divides by it."""
    if not width > 0.0:
        raise ValidationError(f"{kind} width must be > 0, got {width}")


def init_vacuum(geometry: Geometry, model) -> FieldState:
    """phi = pi = 0 in every component of the model."""
    return _state(np.zeros((model.n_components, len(geometry.state_x))))


def init_wavepacket(
    geometry: Geometry, model, k0: float, width: float, x0: float, amplitude: float, direction: int = 1
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

    xi = geometry.state_x - x0
    env = amplitude * np.exp(-(xi**2) / (2.0 * width**2))
    phi = env * np.cos(k0 * xi)
    pi = direction * env * (v_g * xi / width**2 * np.cos(k0 * xi) + omega0 * np.sin(k0 * xi))
    return _state(phi, pi)


def init_soliton(geometry: Geometry, model, velocity: float, x0: float, charge: int = 1) -> FieldState:
    """Moving sine-Gordon kink (charge +1) or antikink (-1)."""
    if abs(velocity) >= 1.0:
        raise ValidationError("soliton speed must satisfy |v| < 1")
    if charge not in (1, -1):
        raise ValidationError("topological charge must be +1 or -1")
    m, beta = model.m, getattr(model, "beta", None)
    if beta is None:
        raise ValidationError(f"a soliton needs a model with a coupling beta; {type(model).__name__} has none")
    gamma = 1.0 / np.sqrt(1.0 - velocity**2)

    x = geometry.state_x
    phi = (4.0 / beta) * np.arctan(np.exp(charge * m * gamma * (x - x0)))
    pi = -(2.0 * m * gamma * velocity * charge / beta) / np.cosh(m * gamma * (x - x0))
    return _state(phi, pi)


def init_boundary_mode(geometry: Geometry, model, lambda_b: float, amplitude: float) -> FieldState:
    """Exponentially localized half-line profile phi = A exp(-lambda_b (x - x_b)).

    Satisfies the Robin condition d_x phi = -lambda_b phi identically at
    t = 0; requires -m < lambda_b < 0 (the boundary-bound-state window).
    """
    m = model.m
    if not -m < lambda_b < 0.0:
        raise ValidationError(f"boundary mode needs -m < lam_b < 0 (m={m}, lam_b={lambda_b})")
    if geometry.kind != "halfline":
        raise ValidationError("boundary mode defined on the half-line geometry")
    x_b = geometry.grid.x_max
    return _state(amplitude * np.exp(-lambda_b * (geometry.state_x - x_b)))


def init_gaussian(geometry: Geometry, model, amplitude: float, width: float, x0: float) -> FieldState:
    """Static Gaussian bump (pi = 0); a generic smooth mode-mix exciter."""
    _check_width("gaussian", width)
    x = geometry.state_x
    return _state(amplitude * np.exp(-((x - x0) ** 2) / (2.0 * width**2)))


def init_noise(geometry: Geometry, model, amplitude: float, width: float, seed: int = 0) -> FieldState:
    """Smooth random field (pi = 0), reproducible from the seed.

    White noise low-passed by a Gaussian of the given correlation width;
    useful for exciting every mode of a cavity at once.
    """
    _check_width("noise", width)
    x = geometry.x
    h = geometry.grid.h
    half = max(1, int(round(min(3.0 * width / h, len(x)))))  # min: round(inf) overflows
    if seed < 0 or 2 * half + 1 > len(x):
        raise ValidationError(f"noise needs seed >= 0 and a kernel of <= {len(x)} taps, got seed {seed}, width {width}")
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal(len(x))
    kernel_x = h * np.arange(-half, half + 1)
    kernel = np.exp(-(kernel_x**2) / (2.0 * width**2))
    kernel /= kernel.sum()
    smooth = np.convolve(raw, kernel, mode="same")
    smooth *= amplitude / max(1e-30, np.max(np.abs(smooth)))
    return _state(np.interp(geometry.state_x, x, smooth))


def init_cosine(
    geometry: Geometry, model, amplitude: float, mode: int,
    amplitude2: float = 0.0, mode2: int = 0, traveling: bool = False,
) -> FieldState:
    """Cosine mode(s) on the domain; optionally a traveling wave.

    With ``traveling`` set, pi is chosen so the first mode moves right with
    the linear dispersion omega^2 = k^2 + m^2 of the model's mass (periodic
    geometry).
    """
    g = geometry.grid
    length = g.x_max - g.x_min
    k1 = 2.0 * np.pi * mode / length
    k2 = 2.0 * np.pi * mode2 / length

    x = geometry.state_x
    phi = amplitude * np.cos(k1 * (x - g.x_min))
    if amplitude2:
        phi = phi + amplitude2 * np.sin(k2 * (x - g.x_min))
    pi = None
    if traveling:
        omega = np.sqrt(k1**2 + model.m**2)
        pi = amplitude * omega * np.sin(k1 * (x - g.x_min))
    return _state(phi, pi)
