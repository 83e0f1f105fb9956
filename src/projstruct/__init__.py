"""Exact-arithmetic analysis of germs of planar projective structures.

A projective structure is given here by the second-order ODE

    y'' = A(x, y) + B(x, y) y' + C(x, y) y'^2 + D(x, y) y'^3

through its coefficient 2-jets.  The package computes the classical
linearizability invariants, infinitesimal symmetries, normal forms and
flat (pencil-defined) models, all over exact rational arithmetic.

Every name of ``__all__`` is public here.  Those of the verification
registry (``cases``), its reports (``reports``) and the dual numbers
(``duals``) resolve on first use, so a document command never loads the
registry; ``dir()`` and ``from projstruct import *`` list them all.
"""

from importlib import import_module

from .jets import DEFAULT_ORDER, Jet2, comp_inverse, exp_series, format_jet, sqrt_series, substitute
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

# name -> home module, imported by ``__getattr__`` when the name is first read
_LAZY = {name: module for module, names in (
    ("duals", ("EPS", "DualRational")),
    ("reports", ("CaseReport", "CheckResult", "render_json", "render_text")),
    ("cases", ("CASES", "affine_family_checks", "alpha_ode_solve",
               "cubic_curve_residual", "exotic_sl2_check",
               "flat_criteria_checks", "ib_flattening_germ", "list_cases",
               "run_all", "run_case")),
) for name in names}

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


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    value = getattr(import_module("." + module, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
