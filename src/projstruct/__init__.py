"""Exact-arithmetic analysis of germs of planar projective structures.

A projective structure is given here by the second-order ODE

    y'' = A(x, y) + B(x, y) y' + C(x, y) y'^2 + D(x, y) y'^3

through its coefficient 2-jets.  The package computes the classical
linearizability invariants, infinitesimal symmetries, normal forms and
flat (pencil-defined) models, all over exact rational arithmetic.

Every name of ``__all__`` is its home module's object, listed once in
``_PUBLIC``.  The modules of ``_ON_FIRST_USE`` (the verification registry
``cases``, its ``reports`` and the dual numbers ``duals``) load on the
first read of one of their names, so a document command never loads the
registry; ``dir()`` and ``from projstruct import *`` list them all.
"""

_PUBLIC = {
    "jets": ("DEFAULT_ORDER", "Jet2", "comp_inverse", "exp_series",
             "format_jet", "sqrt_series", "substitute"),
    "duals": ("EPS", "DualRational"),
    "expressions": ("expand",),
    "slopes": ("SlopePoly",),
    "structures": ("DiffeoGerm", "LiouvillePair", "ProjectiveStructure",
                   "apply_x_reparam", "apply_y_scale", "apply_y_shift",
                   "c_star_action", "eval_along", "geodesic_solve",
                   "is_linearizable", "liouville", "normalize_D1", "pullback",
                   "swap_axes"),
    "fields": ("InvariantStructures", "SymmetryDimensions", "VectorField",
               "invariant_structures", "is_symmetry", "lie_bracket",
               "residual", "symmetry_dim"),
    "pencils": ("INF", "Foliation", "Pencil", "foliation_residual",
                "is_geodesic", "lie_derivative_form", "member",
                "member_value_along", "slope", "structure_from_pencil"),
    "reports": ("CaseReport", "CheckResult", "render_json", "render_text"),
    "cases": ("CASES", "affine_family_checks", "alpha_ode_solve",
              "cubic_curve_residual", "exotic_sl2_check",
              "flat_criteria_checks", "ib_flattening_germ", "list_cases",
              "run_all", "run_case"),
}
_ON_FIRST_USE = ("duals", "reports", "cases")

# name -> home module, imported by ``__getattr__`` when the name is first read
_LAZY = {name: module for module in _ON_FIRST_USE for name in _PUBLIC[module]}

for _module, _names in _PUBLIC.items():
    if _module not in _ON_FIRST_USE:
        _home = __import__(_module, globals(), level=1)
        globals().update((name, getattr(_home, name)) for name in _names)

__version__ = "0.1.0"

__all__ = [name for names in _PUBLIC.values() for name in names] + [
    "__version__"]

# the table lives on as ``__all__`` and ``_LAZY``
del _PUBLIC, _ON_FIRST_USE, _module, _names, _home


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    value = getattr(__import__(module, globals(), level=1), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
