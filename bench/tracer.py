"""Runtime tracing of projstruct's public functions, from outside the package.

:class:`Tracer` wraps each target function or method and rebinds the
wrapper at *every* module of the package that holds the original object
(``fields`` binds ``nullspace``, ``cases`` binds ``symmetry_dim``, the
package ``__init__`` re-exports most names, ...), so internal calls are
traced as well as calls made by the benchmark.

Each call records a span ``[name, parent, start, duration]`` in memory.
Work done by the tracer itself after a call (the probes that count term
products, coefficient bits and matrix cells) is excluded from every span
that encloses it, so span times measure the program, not the tracer.
"""

import functools
import sys
import time

# (module under projstruct, attribute, span name).  Several attributes may
# share one span name: the three closed-form transformation laws are one
# layer metric.
TARGETS = (
    ("jets", "Jet2.__mul__", "jets.mul"),
    ("jets", "Jet2.inverse", "jets.inverse"),
    ("jets", "substitute", "jets.substitute"),
    ("jets", "exp_series", "jets.exp_series"),
    ("jets", "sqrt_series", "jets.sqrt_series"),
    ("jets", "comp_inverse", "jets.comp_inverse"),
    ("linalg", "nullspace", "linalg.nullspace"),
    ("linalg", "solve_affine", "linalg.solve_affine"),
    ("linalg", "rank", "linalg.rank"),
    ("fields", "symmetry_dim", "fields.symmetry_dim"),
    ("fields", "invariant_structures", "fields.invariant_structures"),
    ("fields", "residual", "fields.residual"),
    ("structures", "pullback", "structures.pullback"),
    ("structures", "liouville", "structures.liouville"),
    ("structures", "geodesic_solve", "structures.geodesic_solve"),
    ("structures", "normalize_D1", "structures.normalize_D1"),
    ("structures", "apply_x_reparam", "structures.apply_laws"),
    ("structures", "apply_y_shift", "structures.apply_laws"),
    ("structures", "apply_y_scale", "structures.apply_laws"),
    ("pencils", "structure_from_pencil", "pencils.structure_from_pencil"),
    ("pencils", "is_geodesic", "pencils.is_geodesic"),
    ("pencils", "member_value_along", "pencils.member_value_along"),
    ("slopes", "SlopePoly.__mul__", "slopes.mul"),
    ("expressions", "expand", "expressions.expand"),
    ("cli", "load_document", "cli.load_document"),
)

# Spans whose linalg descendants count as their "solve" time; the rest of
# their time is "build" (assembling the linear system).
SOLVE_PARENTS = ("fields.symmetry_dim", "fields.invariant_structures")


def _coeff_bits(jet):
    top = 0
    for c in jet.coeffs.values():
        num = getattr(c, "numerator", None)
        if num is not None:
            top = max(top, num.bit_length(), c.denominator.bit_length())
    return top


def _probe_mul(tracer, args, result):
    left, right = args
    right_terms = len(right.coeffs) if hasattr(right, "coeffs") else 1
    tracer.count("jets.mul.term_products", len(left.coeffs) * right_terms)
    tracer.peak("jets.coeff_bits_max", _coeff_bits(result))


def _probe_cells(name, takes_ncols):
    def probe(tracer, args, result):
        rows = args[0]
        ncols = args[1] if takes_ncols and len(args) > 1 else None
        if rows and ncols is None:
            ncols = len(rows[0])
        tracer.count(name + ".cells", len(rows) * (ncols or 0))
    return probe


PROBES = {
    "jets.mul": _probe_mul,
    "linalg.nullspace": _probe_cells("linalg.nullspace", True),
    "linalg.solve_affine": _probe_cells("linalg.solve_affine", False),
    "linalg.rank": _probe_cells("linalg.rank", True),
}


def resolve(package, module, attr):
    """(owner object, attribute name, original) for one target."""
    owner = sys.modules[package.__name__ + "." + module]
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, getattr(owner, name)


class Tracer:
    """Installs span-recording wrappers; remove them with :meth:`uninstall`."""

    def __init__(self, package):
        self.package = package
        self.spans = []          # [name, parent index or -1, start, duration]
        self.counters = {}
        self._stack = []
        self._paused = 0.0       # tracer time spent in probes so far
        self._undo = []

    # -- installation -------------------------------------------------------

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == self.package.__name__
                   or n.startswith(self.package.__name__ + ".")]
        for module, attr, span in TARGETS:
            owner, name, original = resolve(self.package, module, attr)
            wrapper = self._wrap(original, span, PROBES.get(span))
            if isinstance(owner, type):
                self._rebind(owner, name, original, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, original, wrapper)

    def _rebind(self, owner, name, original, wrapper):
        setattr(owner, name, wrapper)
        self._undo.append((owner, name, original))

    def uninstall(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- recording ------------------------------------------------------------

    def _wrap(self, fn, name, probe):
        clock = time.perf_counter
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, stack[-1] if stack else -1, 0.0, 0.0])
            stack.append(index)
            paused0 = self._paused
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index][2] = start
                spans[index][3] = (end - start) - (self._paused - paused0)
            if probe is not None:
                probe(self, args, result)
                self._paused += clock() - end
            return result

        return traced

    def count(self, key, amount):
        self.counters[key] = self.counters.get(key, 0) + amount

    def peak(self, key, value):
        if value > self.counters.get(key, 0):
            self.counters[key] = value

    # -- aggregation ----------------------------------------------------------

    def summary(self):
        """Per-span-name calls, total_s, self_s, plus counters and solve split.

        ``total_s`` counts only the outermost span of a name, so recursion
        (``is_geodesic`` calls itself for vertical foliations) is not
        counted twice; ``self_s`` is each span minus its direct children.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        out = dict(self.counters)
        for name, parent, _, dur in spans:
            if parent >= 0:
                child[parent] += dur
        for index, (name, parent, _, dur) in enumerate(spans):
            out[name + ".calls"] = out.get(name + ".calls", 0) + 1
            out[name + ".self_s"] = (out.get(name + ".self_s", 0.0)
                                     + dur - child[index])
            ancestors = self._ancestors(parent)
            if all(spans[a][0] != name for a in ancestors):
                out[name + ".total_s"] = out.get(name + ".total_s", 0.0) + dur
            if name.startswith("linalg.") and not any(
                    spans[a][0].startswith("linalg.") for a in ancestors):
                owner = next((spans[a][0] for a in ancestors
                              if spans[a][0] in SOLVE_PARENTS), None)
                if owner is not None:
                    out[owner + ".solve_s"] = (out.get(owner + ".solve_s", 0.0)
                                               + dur)
        for owner in SOLVE_PARENTS:
            if owner + ".total_s" in out:
                out[owner + ".build_s"] = (out[owner + ".total_s"]
                                           - out.get(owner + ".solve_s", 0.0))
        return out

    def _ancestors(self, index):
        chain = []
        while index >= 0:
            chain.append(index)
            index = self.spans[index][1]
        return chain
