"""Finite-difference evolution of the classical field equations on a line,
half-line, interval, or line with a defect, with conservation diagnostics."""

from .boundaries import BoundarySpec, Neumann, Robin, TodaBoundary
from .defects import DefectSpec, FreeDefect, SineGordonBacklund, constraint_residuals
from .diagnostics import (
    Diagnostics,
    diagnostics,
    measure_frequency,
    measure_reflection_phase,
)
from .grid import Grid1D
from .initial import (
    init_boundary_mode,
    init_cosine,
    init_gaussian,
    init_noise,
    init_soliton,
    init_vacuum,
    init_wavepacket,
)
from .models import AffineToda, KleinGordon, Model, SineGordon, SinhGordon, make_model, toda_units
from .state import (
    FieldHistory,
    FieldState,
    Geometry,
    half_line,
    interval,
    line,
    periodic_line,
    with_defect,
)
from .stepper import evolve, step

__all__ = [
    "AffineToda",
    "BoundarySpec",
    "DefectSpec",
    "Diagnostics",
    "FieldHistory",
    "FieldState",
    "FreeDefect",
    "Geometry",
    "Grid1D",
    "KleinGordon",
    "Model",
    "Neumann",
    "Robin",
    "SineGordon",
    "SineGordonBacklund",
    "SinhGordon",
    "TodaBoundary",
    "constraint_residuals",
    "diagnostics",
    "evolve",
    "half_line",
    "init_boundary_mode",
    "init_cosine",
    "init_gaussian",
    "init_noise",
    "init_soliton",
    "init_vacuum",
    "init_wavepacket",
    "interval",
    "line",
    "make_model",
    "measure_frequency",
    "measure_reflection_phase",
    "periodic_line",
    "step",
    "toda_units",
    "with_defect",
]
