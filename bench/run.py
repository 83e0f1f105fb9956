"""projstruct benchmark: one command, every metric by name with its unit.

    python3 bench/run.py --workload registry|documents|deep-jets
                         --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``.  Each measured process is a fresh interpreter
(``worker.py``), single-threaded, closed loop with one client: the next op
starts when the previous one has returned.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see ``metrics.py``).  The last line of stdout is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
lines before it are a readable summary.  Exit status 0 means the run
completed (``correct`` says whether every answer was right), 2 that it
could not run (no sources, a worker crashed or ran out of time).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics  # noqa: E402  (after the path set-up above)

REPEATS = {"registry": 2, "documents": 4, "deep-jets": 2}  # fresh interpreters
# seconds one round takes at this commit (registry: one pass of 44
# reports; documents: 16 documents; deep-jets: 16 ops at order 16 and 20)
NOMINAL_ROUND_S = {"registry": 13.0, "documents": 0.3, "deep-jets": 7.0}
SETUP_PROBES = 11     # extra fresh interpreters that only time set-up
DEADLINE_S = 170      # the whole run, every worker included


class RunFailed(Exception):
    pass


class Workers:
    """Starts worker processes and reads their results."""

    def __init__(self, args, workdir):
        self.args = args
        self.workdir = workdir
        self.deadline = time.monotonic() + DEADLINE_S
        self.count = 0

    def run(self, rounds=0, trace=0, setup_only=False):
        self.count += 1
        out = os.path.join(self.workdir, "result-%d.json" % self.count)
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--root", ROOT, "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--rounds", str(rounds),
               "--trace", str(trace), "--workdir", self.workdir, "--out", out]
        if setup_only:
            cmd.append("--setup-only")
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise RunFailed("out of time before starting a worker")
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=remaining)
        except subprocess.TimeoutExpired:
            raise RunFailed("a worker did not finish in time")
        if proc.returncode != 0:
            raise RunFailed("worker exited with %d: %s"
                            % (proc.returncode, proc.stderr.strip()[-2000:]))
        with open(out, encoding="utf-8") as handle:
            return json.load(handle)


def plan(args):
    """(processes, rounds per process), sized from --seconds.

    The work of a run is fixed by ``--seconds`` and the nominal round
    cost rather than by the clock, so every run of one setting does the
    same ops: a time-cut run would vary its op count, and with it the
    tail percentile, from run to run.
    """
    nominal = NOMINAL_ROUND_S[args.workload]
    repeats = REPEATS[args.workload]
    if args.workload == "registry":
        return max(repeats, round(args.seconds / nominal)), 1
    if args.trace:
        return 1, max(2, round(args.seconds / nominal))
    return repeats, max(1, round(args.seconds / repeats / nominal))


def measure(args, workers):
    """Worker results of the measured processes, plus set-up probe times.

    Untraced, the same inputs run in several fresh interpreters, one
    after the other, and each op's latency is the median of its repeats:
    a shared host's speed drifts by tens of percent over seconds to
    minutes, and the median over repeats spread across the run damps a
    repeat that lands in a slow or a fast stretch.  For ``registry`` each
    repeat is one cache-cold pass.  Traced,
    ``registry`` passes alternate untraced and traced, and the other
    workloads run one process whose rounds alternate the same way.
    """
    processes, rounds = plan(args)
    main = [workers.run(rounds=rounds, trace=args.trace and k % 2
                        if args.workload == "registry" else args.trace)
            for k in range(processes)]
    probes = [workers.run(setup_only=True) for _ in range(SETUP_PROBES)]
    return main, probes


def median_of_repeats(main, field):
    """Per-op latency: the median over the repeats of that op (same inputs).

    ``field`` 1 is the wall-clock latency, 4 the latency scaled to the
    reference host speed (``worker.Yardstick``).
    """
    runs = [result["ops"] for result in main]
    kinds = [[op[0] for op in ops] for ops in runs]
    if any(k != kinds[0] for k in kinds):
        raise RunFailed("repeats did not run the same ops")
    return [statistics.median(ops[i][field] for ops in runs)
            for i in range(len(runs[0]))]


def tail(latencies):
    """(value, percentile, samples): the highest percentile with >= 10 beyond."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(0, n - 11)
    return ordered[k], 100.0 * (k + 1) / n, n


def timings(latencies, setups):
    value, pct, n = tail(latencies)
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1000.0,
        "latency_tail_ms": value * 1000.0,
        "setup_s": statistics.median(setups),
    }, pct, n


def end_to_end(main, probes):
    """Timings at the reference host speed; wall-clock ones go in the notes."""
    values, pct, n = timings(
        median_of_repeats(main, 4),
        [p["setup_scaled_s"] for p in probes]
        + [r["setup_scaled_s"] for r in main])
    values["peak_rss_mb"] = max(result["peak_rss_mb"] for result in main)
    wall, _, _ = timings(median_of_repeats(main, 1),
                         [p["setup_s"] for p in probes]
                         + [r["setup_s"] for r in main])
    notes = ["each op's latency is the median of %d repeats" % len(main),
             "latency_tail_ms is p%.1f of %d samples" % (pct, n),
             "timings above are at the reference host speed; wall clock: "
             + ", ".join("%s %.6g" % item for item in wall.items())]
    return values, notes


def per_layer(main):
    traced_rounds = sum(result["rounds"][1] for result in main)
    untraced_rounds = sum(result["rounds"][0] for result in main)
    values = {}
    for result in main:
        for key, value in result["layers"].items():
            values[key] = values.get(key, 0) + value
    for key in values:
        if key != "jets.coeff_bits_max":
            values[key] /= traced_rounds
    if "jets.coeff_bits_max" in values:
        values["jets.coeff_bits_max"] = max(
            result["layers"].get("jets.coeff_bits_max", 0) for result in main)

    ops = [op for result in main for op in result["ops"]]
    for traced, name in ((0, "untraced"), (1, "traced")):
        scaled = [op[4] for op in ops if op[2] == traced]
        values["trace.ops_per_s_" + name] = len(scaled) / sum(scaled)

    by_kind = {}
    for kind, _, traced, _, scaled in ops:
        if not traced:
            by_kind.setdefault(kind, []).append(scaled)
    for kind, samples in by_kind.items():
        layer, _, name = kind.partition(":")
        if layer == "case":
            values["verify.case.%s.total_s" % name] = (
                sum(samples) / untraced_rounds)
        elif layer == "cli":
            values["cli.%s.latency_p50_ms" % name] = (
                statistics.median(samples) * 1000.0)
    renders = [r["render_s"] for r in main if "render_s" in r
               and r["rounds"][0]]
    if renders:
        values["reports.render_json.total_s"] = statistics.fmean(renders)
    total = sum(r.get("expr_total", 0) for r in main)
    if total:
        values["expressions.repeated_text_share"] = (
            100.0 * sum(r["expr_repeated"] for r in main) / total)

    notes = ["tracing overhead: %.1f%% fewer ops per second traced "
             "(%d untraced, %d traced rounds)"
             % (100.0 * (1 - values["trace.ops_per_s_traced"]
                         / values["trace.ops_per_s_untraced"]),
                untraced_rounds, traced_rounds)]
    return values, notes


def report(args, main, probes):
    ops = [op for result in main for op in result["ops"]]
    attempted = len(ops)
    failed = sum(1 for op in ops if not op[3])
    errors = [e for result in main for e in result["errors"]]
    pass_ok = all(result.get("pass_ok", True) for result in main)
    if args.trace:
        values, notes = per_layer(main)
        table = metrics.PER_LAYER
    else:
        values, notes = end_to_end(main, probes)
        table = [(name, unit) for name, unit, *_ in metrics.END_TO_END]
    # a layer the workload never reaches reads 0 (linalg on documents, ...)
    out = {name: {"value": values.get(name, 0), "unit": unit}
           for name, unit in table}

    print("workload %s, seed %d, %d ops, %d failed (error_rate %.4f)"
          % (args.workload, args.seed, attempted, failed,
             failed / max(attempted, 1)))
    for name, unit in table:
        print("  %-40s %14.6g %s" % (name, out[name]["value"], unit))
    for line in notes + errors[:20]:
        print("  " + line)
    print(json.dumps({"correct": failed == 0 and pass_ok and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": out}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[name for name, _ in metrics.WORKLOADS])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "projstruct",
                                       "__init__.py")):
        print("error: no projstruct sources under %s"
              % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".bench_tmp",
                           "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(workdir)
    try:
        report(args, *measure(args, Workers(args, workdir)))
    except RunFailed as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
