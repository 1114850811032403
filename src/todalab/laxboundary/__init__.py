"""Lax-pair machinery: gauge components, curvature/monodromy diagnostics, and
the boundary K(lambda) constraint solver."""

from .constraints import (
    ConstraintReport,
    adjacency_constraints,
    expansion_constraints,
    routes_agree,
)
from .kmatrix import (
    KExpansion,
    a1_k_matrix,
    boundary_potential,
    k_gauge_residual,
    solve_k_expansion,
)
from .lax import (
    GaugeComponents,
    LaxFrame,
    curvature_residual,
    lax_components,
    lax_frame,
    monodromy_charge,
    toda_frame_for,
)

__all__ = [
    "ConstraintReport",
    "GaugeComponents",
    "KExpansion",
    "LaxFrame",
    "a1_k_matrix",
    "adjacency_constraints",
    "boundary_potential",
    "curvature_residual",
    "expansion_constraints",
    "k_gauge_residual",
    "lax_components",
    "lax_frame",
    "monodromy_charge",
    "routes_agree",
    "solve_k_expansion",
]
