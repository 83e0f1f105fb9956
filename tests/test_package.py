"""The package namespace: its public names and when their modules load."""

import ast
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


# what ``import projstruct`` loads: the benchmark's tracer rebinds only
# the modules loaded when it installs, so none of these may turn lazy
EAGER = ["errors", "expressions", "fields", "jets", "linalg", "pencils",
         "records", "slopes", "structures"]


def test_a_cold_package_lists_and_binds_its_lazy_names():
    # in-process the lazy modules are long loaded; a fresh interpreter
    # shows what the first read of each name does
    out = fresh(
        "import pickle, sys\n"
        "import projstruct\n"
        "print(sorted(m for m in sys.modules if m.startswith('projstruct.')))\n"
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
        str(["projstruct." + m for m in EAGER]), "[]", "True", "[]", "True",
        "['projstruct.cases', 'projstruct.duals', 'projstruct.reports']",
        "True", "True"]


def test_the_import_timer_sees_each_module_it_loads():
    # the package binds its modules through __import__, which -X importtime
    # reports; importlib.import_module bypasses the timer
    err = subprocess.run(
        [sys.executable, "-X", "importtime", "-c",
         "import projstruct; projstruct.CASES"], check=True,
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=SRC)).stderr
    rows = {line.rsplit("|", 1)[-1].strip() for line in err.splitlines()}
    assert {"projstruct." + m for m in [*EAGER, "cases", "reports"]} <= rows


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


def imported_roots(path):
    """The top-level name of each absolute import in the module at
    ``path``; a relative import names a module of the package."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.split(".")[0]


def test_the_package_imports_only_the_standard_library_and_itself():
    modules = sorted(Path(projstruct.__file__).parent.glob("*.py"))
    assert len(modules) > 10
    foreign = {(path.name, root) for path in modules
               for root in imported_roots(path)
               if root != "projstruct" and root not in sys.stdlib_module_names}
    assert foreign == set()


def unread_imports(path):
    """(line, name) for each name that an import in the module at ``path``
    binds and that the module never reads: a re-export."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    yield node.lineno, name


def test_no_module_imports_a_name_that_it_never_reads():
    modules = sorted(Path(projstruct.__file__).parent.glob("*.py"))
    assert len(modules) > 10
    found = {(path.name, *use) for path in modules
             for use in unread_imports(path)}
    assert found == set()


# the functions of ``math`` that stay in the integers
EXACT_MATH = {"gcd", "lcm", "factorial", "isqrt", "perm"}


def inexact_uses(path):
    """(line, what) for each float or complex literal, each name ``float``
    or ``complex``, and each ``math`` name outside ``EXACT_MATH`` in the
    module at ``path``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Constant) and type(node.value) in (float,
                                                                   complex):
            yield node.lineno, repr(node.value)
        elif isinstance(node, ast.Name) and node.id in ("float", "complex"):
            yield node.lineno, node.id
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name) and node.value.id == "math"
              and node.attr not in EXACT_MATH):
            yield node.lineno, "math." + node.attr
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            yield from ((node.lineno, "math." + alias.name)
                        for alias in node.names
                        if alias.name not in EXACT_MATH)


def test_the_package_computes_without_floats():
    modules = sorted(Path(projstruct.__file__).parent.glob("*.py"))
    assert len(modules) > 10
    found = {(path.name, *use) for path in modules
             for use in inexact_uses(path)}
    assert found == set()


# Every verdict that a jet vanishes is jets.first_nonzero.  A jet is tested
# for zero (``.is_zero()``) or compared (``.agree(...)``) only here: the
# decider, loop stops and degenerate inputs, guards that raise
# (``_ensure`` and ``c_star_action``'s input check) and the record
# protocol.  (module, function, method), once per call.
ZERO_TESTS = sorted([
    ("jets.py", "first_nonzero", "is_zero"),         # the decider
    ("jets.py", "_powers", "is_zero"),               # stops at an exact 0
    ("jets.py", "sqrt_series", "is_zero"),           # the root of 0
    ("cases.py", "ib_flattening_germ", "is_zero"),   # the Neumann series
    ("structures.py", "c_star_action", "is_zero"),   # raises on bad input
    ("structures.py", "c_star_action", "agree"),
    ("structures.py", "normalize_D1", "agree"),      # in _ensure
    ("structures.py", "normalize_D1", "is_zero"),
    ("structures.py", "geodesic_solve", "agree"),
    ("structures.py", "agree", "agree"),             # _JetRecord.agree
])


def zero_tests(path):
    """(module, function, method) for each call of a method ``is_zero``
    or ``agree`` in the module at ``path``, by its innermost function."""
    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name)
                continue
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr in ("is_zero", "agree")):
                yield path.name, where, child.func.attr
            yield from visit(child, where)

    yield from visit(ast.parse(path.read_text(encoding="utf-8")), None)


def test_every_vanishing_verdict_goes_through_the_decider():
    modules = sorted(Path(projstruct.__file__).parent.glob("*.py"))
    assert len(modules) > 10
    found = sorted(site for path in modules for site in zero_tests(path))
    assert found == ZERO_TESTS


# A window is f.eff plus the valuation of another factor only in the two
# rules that state it, a product's and a quotient's, and in
# ``_cubic_windows``, which adds the valuation of a cubic coefficient to a
# short slot's eff by itself, on purpose.  (module, function), once per sum.
WINDOW_SUMS = sorted([
    ("jets.py", "_product_window"),      # f.eff + val g
    ("jets.py", "_product_window"),      # g.eff + val f
    ("jets.py", "_quotient_window"),     # b.eff + val a
    ("structures.py", "_cubic_windows"),
])


def _is_eff(node):
    return isinstance(node, ast.Attribute) and node.attr == "eff"


def _is_val_bound(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "_val_bound")


def window_sums(path):
    """(module, function) for each sum of an ``….eff`` and a
    ``…._val_bound()`` call in the module at ``path``, by its innermost
    function."""
    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name)
                continue
            if (isinstance(child, ast.BinOp) and isinstance(child.op, ast.Add)
                    and any(_is_eff(a) and _is_val_bound(b) for a, b in
                            ((child.left, child.right),
                             (child.right, child.left)))):
                yield path.name, where
            yield from visit(child, where)

    yield from visit(ast.parse(path.read_text(encoding="utf-8")), None)


def test_every_window_sum_is_one_of_the_stated_rules():
    modules = sorted(Path(projstruct.__file__).parent.glob("*.py"))
    assert len(modules) > 10
    found = sorted(site for path in modules for site in window_sums(path))
    assert found == WINDOW_SUMS
