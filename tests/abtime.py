"""In-process A/B timing of two checkouts, op by op.

Run as ``python tests/abtime.py PARENT CHANGE [--workload W] [--seeds N..]``
with W one of ``deep-jets`` (the default), ``registry`` or ``documents``;
pytest does not collect it.  It loads ``src/projstruct`` and
``bench/workloads.py`` of each checkout under a private module name, so
both copies run in one process on one interpreter, and builds the same
benchmark op list for each from the seeded inputs: ``deep-jets`` seeds
(default 1-3), rounds 0-1, orders 16 and 20; ``registry`` one pass per
seed (default 1); ``documents`` rounds 0-9 per seed (default 1).  Every
op runs 7 times on each copy in turn (parent, change, parent, ...), and
the minimum of the 7 is the op's time.  Each copy's gate reads its first
result, so later ops read what earlier ones stored.  It prints, per op
kind, the number of ops, the summed minima of each side and their ratio,
the same for the whole list, and whether every answer of the change
equals the parent's: jets in stored form, reports as their JSON.

Timing both copies in one process takes out the drift from one process
to the next that ``bench/run.py`` sees; that is what resolves a change
of a few percent.
"""

import argparse
import contextlib
import importlib
import importlib.util
import os
import sys
import tempfile
import time

REPEATS = 7
DEEP_ROUNDS = (0, 1)
DOCUMENT_ROUNDS = 10


def load(root, tag):
    """(projstruct, workloads) of the checkout at ``root``, under private
    names, with ``projstruct.cli`` loaded."""
    name = "_abtime_%s_projstruct" % tag
    folder = os.path.join(root, "src", "projstruct")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(folder, "__init__.py"),
        submodule_search_locations=[folder])
    ps = importlib.util.module_from_spec(spec)
    sys.modules[name] = ps
    spec.loader.exec_module(ps)
    importlib.import_module(name + ".cli")
    spec = importlib.util.spec_from_file_location(
        "_abtime_%s_workloads" % tag,
        os.path.join(root, "bench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return ps, workloads


def stored(value):
    """A result in a form that compares across the two copies."""
    if hasattr(value, "_num") and hasattr(value, "eff"):
        return (value.order, value.eff, value._den,
                sorted((k, repr(n)) for k, n in value._num.items()))
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    return tuple(stored(part) for part in value)


def op_lists(ps, workloads, workload, seeds, workdir):
    """Yield (answer key, op list) per unit of the workload."""
    if workload == "deep-jets":
        for seed in seeds:
            for index in DEEP_ROUNDS:
                for order in workloads.DEEP_ORDERS:
                    yield stored, workloads.deep_round(ps, seed, index, order)
    elif workload == "registry":
        expected = workloads.load_expected()
        for seed in seeds:
            yield (lambda report: ps.render_json([report]),
                   list(workloads.RegistryPass(ps, seed, expected).ops()))
    else:
        for seed in seeds:
            rounds = workloads.DocumentRounds(ps, seed, workdir)
            for index in range(DOCUMENT_ROUNDS):
                yield stored, rounds.round(index)


def timed(call):
    start = time.perf_counter()
    result = call()
    return time.perf_counter() - start, result


def compare(sides, workload, seeds):
    """{kind: [count, parent s, change s]}, and the answers that differ
    and the gates that failed."""
    with contextlib.ExitStack() as stack:
        dirs = [stack.enter_context(tempfile.TemporaryDirectory())
                for _ in sides]
        units = zip(*(op_lists(ps, w, workload, seeds, d)
                      for (ps, w), d in zip(sides, dirs)))
        kinds, differ, failed = {}, 0, 0
        for unit in units:
            for ops in zip(*(ops for _, ops in unit)):
                best = [float("inf")] * len(ops)
                first = [None] * len(ops)
                for rep in range(REPEATS):
                    for s, op in enumerate(ops):
                        t, result = timed(op.call)
                        best[s] = min(best[s], t)
                        if rep == 0:
                            first[s] = result
                failed += sum(not op.gate(r) for op, r in zip(ops, first))
                keys = [key(r) for (key, _), r in zip(unit, first)]
                differ += keys[0] != keys[1]
                row = kinds.setdefault(ops[0].kind, [0, 0.0, 0.0])
                row[0] += 1
                row[1] += best[0]
                row[2] += best[1]
    return kinds, differ, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", default="deep-jets",
                        choices=("deep-jets", "registry", "documents"))
    parser.add_argument("--seeds", type=int, nargs="+")
    args = parser.parse_args(argv)
    seeds = args.seeds or ((1, 2, 3) if args.workload == "deep-jets"
                           else (1,))
    sides = [load(os.path.abspath(root), tag)
             for root, tag in ((args.parent, "parent"),
                               (args.change, "change"))]
    kinds, differ, failed = compare(sides, args.workload, seeds)
    print("%-28s %5s %12s %12s %7s" % ("op kind", "ops", "parent ms",
                                        "change ms", "ratio"))
    total = [0, 0.0, 0.0]
    for kind in sorted(kinds, key=lambda k: -kinds[k][1]):
        n, a, b = kinds[kind]
        total = [total[0] + n, total[1] + a, total[2] + b]
        print("%-28s %5d %12.2f %12.2f %7.3f" % (kind, n, 1e3 * a, 1e3 * b,
                                                 b / a))
    n, a, b = total
    print("%-28s %5d %12.2f %12.2f %7.3f" % ("all", n, 1e3 * a, 1e3 * b,
                                             b / a))
    print("answers equal: %s (%d of %d differ); gates failed: %d"
          % ("yes" if not differ else "no", differ, n, failed))
    return 1 if differ or failed else 0


if __name__ == "__main__":
    sys.exit(main())
