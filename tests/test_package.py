"""The package namespace: its public names and when their modules load."""

import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import projstruct

SRC = os.path.dirname(os.path.dirname(projstruct.__file__))
BENCH = str(Path(__file__).resolve().parents[1] / "bench")

# home module -> public names, in the order of ``__all__``
PUBLIC = {
    "jets": ["DEFAULT_ORDER", "Jet2", "comp_inverse", "exp_series",
             "format_jet", "sqrt_series", "substitute"],
    "duals": ["EPS", "DualRational"],
    "expressions": ["expand"],
    "slopes": ["SlopePoly"],
    "structures": ["DiffeoGerm", "LiouvillePair", "ProjectiveStructure",
                   "apply_x_reparam", "apply_y_scale", "apply_y_shift",
                   "c_star_action", "eval_along", "geodesic_solve",
                   "is_linearizable", "liouville", "normalize_D1", "pullback",
                   "swap_axes"],
    "fields": ["InvariantStructures", "SymmetryDimensions", "VectorField",
               "invariant_structures", "is_symmetry", "lie_bracket",
               "residual", "symmetry_dim"],
    "pencils": ["INF", "Foliation", "Pencil", "foliation_residual",
                "is_geodesic", "lie_derivative_form", "member",
                "member_value_along", "slope", "structure_from_pencil"],
    "reports": ["CaseReport", "CheckResult", "render_json", "render_text"],
    "cases": ["CASES", "affine_family_checks", "alpha_ode_solve",
              "cubic_curve_residual", "exotic_sl2_check",
              "flat_criteria_checks", "ib_flattening_germ", "list_cases",
              "run_all", "run_case"],
}
HOME = {name: module for module, names in PUBLIC.items() for name in names}


def fresh(code, *args):
    """stdout of ``code`` run by a fresh interpreter that imports ``src``."""
    return subprocess.run([sys.executable, "-c", code, *args], check=True,
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC)).stdout


def test_all_is_the_pinned_public_surface():
    assert projstruct.__all__ == [*HOME, "__version__"]


@pytest.mark.parametrize("name", HOME)
def test_each_public_name_is_its_home_module_object(name):
    home = import_module("projstruct." + HOME[name])
    assert getattr(projstruct, name) is getattr(home, name)


def test_an_unknown_name_is_the_standard_attribute_error():
    with pytest.raises(AttributeError) as info:
        projstruct.no_such_name
    assert str(info.value) == "module 'projstruct' has no attribute " \
                              "'no_such_name'"
    assert not hasattr(projstruct, "CheckResults")


def test_a_cold_package_lists_and_binds_its_lazy_names():
    # in-process the lazy modules are long loaded; a fresh interpreter
    # shows what the first read of each name does
    out = fresh(
        "import pickle, sys\n"
        "import projstruct\n"
        "lazy = ['projstruct.' + m for m in ('cases', 'reports', 'duals')]\n"
        "print(sorted(m for m in lazy if m in sys.modules))\n"
        "print(set(projstruct.__all__) <= set(dir(projstruct)))\n"
        "print(sorted(m for m in lazy if m in sys.modules))\n"
        "namespace = {}\n"
        "exec('from projstruct import *', namespace)\n"
        "print(set(projstruct.__all__) <= set(namespace))\n"
        "print(sorted(m for m in lazy if m in sys.modules))\n"
        "print(namespace['run_case'] is sys.modules['projstruct.cases']"
        ".run_case is projstruct.run_case)\n"
        "report = projstruct.CaseReport('c', 't', {'g': 1}, 6, "
        "(projstruct.CheckResult('n', 'pass'),))\n"
        "copy = pickle.loads(pickle.dumps(report))\n"
        "print(copy == report and type(copy) is projstruct.CaseReport)\n")
    assert out.splitlines() == [
        "[]", "True", "[]", "True",
        "['projstruct.cases', 'projstruct.duals', 'projstruct.reports']",
        "True", "True"]


# The benchmark's tracer rebinds each target at every module that holds it
# and restores those bindings afterwards; a module first imported while the
# wrappers are installed would bind a wrapper and keep it.  This follows
# the benchmark worker's order: the registry is loaded by its set-up,
# before the tracer goes in.
TRACED_RUN = """
import sys
sys.path.insert(0, %r)
from tracer import TARGETS, Tracer, resolve
from worker import import_projstruct
import workloads

ps = import_projstruct(%r)
workloads.registry_samples(ps)

def package_modules():
    return [m for n, m in sorted(sys.modules.items())
            if n == "projstruct" or n.startswith("projstruct.")]

originals = [resolve(ps, module, attr)[2] for module, attr, _ in TARGETS]
bindings = [(vars(module), key, value) for module in package_modules()
            for key, value in vars(module).items()
            if any(value is original for original in originals)]

tracer = Tracer(ps)
tracer.install()
try:
    report = ps.run_case("sec3.aff", None, 6)[0]
    code = ps.cli.dispatch(["invariants", sys.argv[1]])
finally:
    tracer.uninstall()
summary = tracer.summary()

restored = all(namespace[key] is value for namespace, key, value in bindings)
targets = all(resolve(ps, module, attr)[2] is original
              for (module, attr, _), original in zip(TARGETS, originals))
wrapped = sorted("%%s.%%s" %% (module.__name__, key)
                 for module in package_modules()
                 for key, value in vars(module).items()
                 if any(getattr(value, "__wrapped__", None) is original
                        for original in originals))
print(report.verdict, code, restored, targets, wrapped)
print(summary.get("fields.symmetry_dim.calls", 0) > 0,
      summary.get("cli.load_document.calls", 0))
"""


def test_a_traced_run_restores_every_module_binding(tmp_path):
    doc = tmp_path / "doc.ini"
    doc.write_text('[structure]\nA = "x"\nD = "1"\n', encoding="utf-8")
    out = fresh(TRACED_RUN % (BENCH, os.path.dirname(SRC)), str(doc))
    assert out.splitlines()[-2:] == ["pass 0 True True []", "True 1"]
