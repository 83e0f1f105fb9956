"""One measured process of the benchmark.  ``run.py`` starts it; usage:

    python3 bench/worker.py --root DIR --workload W --seed N --rounds R
        --trace 0|1 --workdir DIR --out FILE [--setup-only]

It imports projstruct from ``DIR/src`` (never from an installed copy),
builds the workload's first inputs and reports that as its set-up time.
``registry`` then runs one cache-cold pass, traced when ``--trace 1``.
``documents`` and ``deep-jets`` warm up, then run ``--rounds`` rounds;
with ``--trace 1`` the rounds alternate untraced and traced.  Every time
is reported both as measured and scaled to the reference host speed
(:class:`Yardstick`).  The result is one JSON object written to ``--out``.
"""

import argparse
import gc
import importlib
import json
import os
import resource
import sys
import time
from fractions import Fraction

import workloads
from tracer import Tracer


def import_projstruct(root):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "projstruct", "__init__.py")):
        raise SystemExit("no projstruct sources under %s" % src)
    sys.path.insert(0, src)
    ps = importlib.import_module("projstruct")
    importlib.import_module("projstruct.cli")
    if not os.path.abspath(ps.__file__).startswith(src + os.sep):
        raise SystemExit("imported projstruct from %s, not %s"
                         % (ps.__file__, src))
    return ps


# Seconds one reference_unit() took on the machine the benchmark was
# defined on (Python 3.11.7, median of many runs); see Yardstick.
REFERENCE_UNIT_S = 0.0005
# reference units timed after each op: about 2% of a registry op and 5 to
# 10% of a documents op
YARDSTICK_UNITS = {"registry": 10, "documents": 2, "deep-jets": 10}
SETUP_YARDSTICK_UNITS = 20   # timed before and after set-up (about 0.1 s)


def reference_unit():
    """Fixed rational arithmetic, nothing of projstruct: about 0.5 ms."""
    acc = Fraction(0)
    for i in range(1, 41):
        acc = (acc + Fraction(i, i + 7) * Fraction(3, 2 * i + 1)) \
            * Fraction(5, 7)
    return acc


class Yardstick:
    """The host's current speed, from a fixed kernel timed between ops.

    A shared host runs the same code up to 1.5 times slower from one
    second to the next.  The kernel is pure-Python ``Fraction``
    arithmetic on integers of a few hundred bits, like the program's own
    work, so it slows down with the program; an op's latency times
    ``REFERENCE_UNIT_S`` over the kernel's time next to it is the op's
    latency on a host of the reference speed.  Garbage collection is off
    while the kernel runs, so the program's heap does not change it.
    """

    def __init__(self, units):
        self.units = units

    def unit_s(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            for _ in range(self.units):
                reference_unit()
            return (time.perf_counter() - start) / self.units
        finally:
            if enabled:
                gc.enable()


class Recorder:
    """Times ops, applies their gates, and keeps the samples."""

    def __init__(self, yardstick):
        self.yardstick = yardstick
        self.ops = []          # [kind, latency_s, traced, ok, scaled_s]
        self.rounds = [0, 0]
        self.errors = []

    def run(self, ops, traced, record=True):
        before = self.yardstick.unit_s() if record else None
        for op in ops:
            start = time.perf_counter()
            try:
                result = op.call()
            except Exception as exc:  # a failed op is counted, not fatal
                latency = time.perf_counter() - start
                ok = False
                self._error("%s raised %s: %s" % (op.kind, type(exc).__name__,
                                                  exc))
            else:
                latency = time.perf_counter() - start
                try:
                    ok = bool(op.gate(result))
                except Exception as exc:
                    ok = False
                    self._error("%s gate raised %s: %s"
                                % (op.kind, type(exc).__name__, exc))
                if not ok:
                    self._error("%s gave a wrong answer" % op.kind)
            if not record:
                if not ok:
                    self._error("warm-up op failed")
                continue
            after = self.yardstick.unit_s()
            scaled = latency * REFERENCE_UNIT_S / ((before + after) / 2)
            before = after
            self.ops.append([op.kind, latency, int(traced), int(ok), scaled])

    def _error(self, text):
        if len(self.errors) < 20:
            self.errors.append(text)


class Rounds:
    """The rounds of ``documents`` or ``deep-jets``; round 0 is built at set-up."""

    def __init__(self, args, ps):
        self.args = args
        self.ps = ps
        self.documents = None
        if args.workload == "documents":
            self.documents = workloads.DocumentRounds(ps, args.seed,
                                                      args.workdir)
        self.first = self.make(0)

    def make(self, index):
        if self.documents is not None:
            return self.documents.round(index)
        return workloads.deep_rounds(self.ps, self.args.seed, index)

    def get(self, index):
        return self.first if index == 0 else self.make(index)


def setup(args, ps):
    """Build the workload's first inputs (the part timed as set-up)."""
    if args.workload == "registry":
        return workloads.RegistryPass(ps, args.seed, workloads.load_expected())
    return Rounds(args, ps)


def run_registry(args, ps, registry, rec, tracer):
    traced = bool(args.trace)
    if traced:
        tracer.install()
    try:
        rec.run(registry.ops(), traced)
        start = time.perf_counter()
        text = registry.render() if registry.complete() else None
        render_s = time.perf_counter() - start
    finally:
        tracer.uninstall()
    rec.rounds[traced] += 1
    errors = (registry.pass_errors(text) if text is not None
              else ["registry pass has reports missing"])
    rec.errors += errors
    return {"render_s": render_s, "pass_ok": not errors}


def run_rounds(args, ps, rounds, rec, tracer):
    if args.workload == "documents":
        warm = workloads.DocumentRounds(ps, "warm-up:%s" % args.seed,
                                        args.workdir)
        rec.run(warm.round(-1), False, record=False)
    else:
        rec.run(workloads.deep_rounds(ps, args.seed, -1,
                                      (workloads.WARMUP_ORDER,)),
                False, record=False)
    for index in range(args.rounds):
        traced = bool(args.trace) and index % 2 == 1
        ops = rounds.get(index)
        if traced:
            tracer.install()
        try:
            rec.run(ops, traced)
        finally:
            tracer.uninstall()
        rec.rounds[traced] += 1
    docs = rounds.documents
    if docs is None:
        return {}
    return {"expr_repeated": docs.expr_repeated, "expr_total": docs.expr_total}


def main(argv=None):
    setup_yardstick = Yardstick(SETUP_YARDSTICK_UNITS)
    before = setup_yardstick.unit_s()
    t0 = time.perf_counter()
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True,
                        choices=("registry", "documents", "deep-jets"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    ps = import_projstruct(args.root)
    made = setup(args, ps)
    setup_s = time.perf_counter() - t0
    speed = (before + setup_yardstick.unit_s()) / 2
    result = {"setup_s": setup_s,
              "setup_scaled_s": setup_s * REFERENCE_UNIT_S / speed}
    if not args.setup_only:
        rec = Recorder(Yardstick(YARDSTICK_UNITS[args.workload]))
        tracer = Tracer(ps)
        if args.workload == "registry":
            result.update(run_registry(args, ps, made, rec, tracer))
        else:
            result.update(run_rounds(args, ps, made, rec, tracer))
        result.update(ops=rec.ops, rounds=rec.rounds,
                      errors=rec.errors,
                      layers=tracer.summary() if args.trace else {})
    result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                             / 1024.0)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
