"""Exact-arithmetic analysis of germs of planar projective structures.

A projective structure is given here by the second-order ODE

    y'' = A(x, y) + B(x, y) y' + C(x, y) y'^2 + D(x, y) y'^3

through its coefficient 2-jets.  The package computes the classical
linearizability invariants, infinitesimal symmetries, normal forms and
flat (pencil-defined) models, all over exact rational arithmetic.
"""

from .jets import DEFAULT_ORDER, Jet2, comp_inverse, exp_series, format_jet, sqrt_series, substitute
from .duals import EPS, DualRational
from .expressions import expand
from .slopes import SlopePoly
from .structures import (
    DiffeoGerm,
    LiouvillePair,
    ProjectiveStructure,
    apply_x_reparam,
    apply_y_scale,
    apply_y_shift,
    c_star_action,
    eval_along,
    geodesic_solve,
    is_linearizable,
    liouville,
    normalize_D1,
    pullback,
    swap_axes,
)
from .fields import (
    InvariantStructures,
    SymmetryDimensions,
    VectorField,
    invariant_structures,
    is_symmetry,
    lie_bracket,
    residual,
    symmetry_dim,
)
from .pencils import (
    INF,
    Foliation,
    Pencil,
    foliation_residual,
    is_geodesic,
    lie_derivative_form,
    member,
    member_value_along,
    slope,
    structure_from_pencil,
)
from .reports import CaseReport, CheckResult, render_json, render_text
from .cases import (
    CASES,
    affine_family_checks,
    alpha_ode_solve,
    cubic_curve_residual,
    exotic_sl2_check,
    flat_criteria_checks,
    ib_flattening_germ,
    list_cases,
    run_all,
    run_case,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_ORDER",
    "Jet2",
    "comp_inverse",
    "exp_series",
    "format_jet",
    "sqrt_series",
    "substitute",
    "EPS",
    "DualRational",
    "expand",
    "SlopePoly",
    "DiffeoGerm",
    "LiouvillePair",
    "ProjectiveStructure",
    "apply_x_reparam",
    "apply_y_scale",
    "apply_y_shift",
    "c_star_action",
    "eval_along",
    "geodesic_solve",
    "is_linearizable",
    "liouville",
    "normalize_D1",
    "pullback",
    "swap_axes",
    "InvariantStructures",
    "SymmetryDimensions",
    "VectorField",
    "invariant_structures",
    "is_symmetry",
    "lie_bracket",
    "residual",
    "symmetry_dim",
    "INF",
    "Foliation",
    "Pencil",
    "foliation_residual",
    "is_geodesic",
    "lie_derivative_form",
    "member",
    "member_value_along",
    "slope",
    "structure_from_pencil",
    "CaseReport",
    "CheckResult",
    "render_json",
    "render_text",
    "CASES",
    "affine_family_checks",
    "alpha_ode_solve",
    "cubic_curve_residual",
    "exotic_sl2_check",
    "flat_criteria_checks",
    "ib_flattening_germ",
    "list_cases",
    "run_all",
    "run_case",
    "__version__",
]
