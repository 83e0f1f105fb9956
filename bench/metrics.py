"""Names, units and meaning of every metric the benchmark reports.

``BENCHMARK.json`` at the repository root lists the same names and units;
``test_bench.py`` keeps the two in step.
"""

WORKLOADS = (
    ("registry", "the paper's verification registry, 44 reports per cache-cold "
                 "pass; symmetry_dim and linalg dominate"),
    ("documents", "distinct INI documents through cli.dispatch: sparse "
                  "low-degree jets, expressions and no linalg"),
    ("deep-jets", "dense seeded germs at orders 16 and 20: dense jet products "
                  "with coefficient growth, no linalg"),
)

# name, unit, better, bound (share of the parent's median), meaning
END_TO_END = (
    ("ops_per_s", "1/s", "higher", 0.25,
     "ops per second of op latency at the workload's input size; an op's "
     "latency is the median over the run's repeats of that op, scaled to "
     "the reference host speed (worker.Yardstick) like every timing here"),
    ("latency_p50_ms", "ms", "lower", 0.25, "median latency of one op"),
    ("latency_tail_ms", "ms", "lower", 0.25,
     "latency at the highest percentile with at least 10 samples beyond it "
     "(percentile and sample count are printed with it)"),
    ("peak_rss_mb", "MB", "lower", 0.1,
     "peak resident memory of the process running the workload"),
    ("setup_s", "s", "lower", 0.25,
     "import of projstruct plus building the first inputs, median over "
     "the fresh interpreters of a run"),
)

_CALLS_TOTAL = ("calls", "count"), ("total_s", "s")

# (prefix, ((suffix, unit), ...)); every name is prefix + "." + suffix
_LAYER_GROUPS = (
    ("jets.mul", (("calls", "count"), ("self_s", "s"),
                  ("term_products", "count"))),
    ("jets", (("coeff_bits_max", "bits"),)),
    ("jets.inverse", _CALLS_TOTAL),
    ("jets.substitute", _CALLS_TOTAL),
    ("jets.exp_series", _CALLS_TOTAL),
    ("jets.sqrt_series", _CALLS_TOTAL),
    ("jets.comp_inverse", _CALLS_TOTAL),
    ("linalg.nullspace", (("calls", "count"), ("self_s", "s"),
                          ("cells", "count"))),
    ("linalg.solve_affine", (("calls", "count"), ("self_s", "s"),
                             ("cells", "count"))),
    ("linalg.rank", (("calls", "count"), ("self_s", "s"), ("cells", "count"))),
    ("fields.symmetry_dim", _CALLS_TOTAL + (("build_s", "s"),
                                            ("solve_s", "s"))),
    ("fields.invariant_structures", _CALLS_TOTAL + (("build_s", "s"),)),
    ("fields.residual", _CALLS_TOTAL),
    ("structures.pullback", _CALLS_TOTAL),
    ("structures.liouville", _CALLS_TOTAL),
    ("structures.geodesic_solve", _CALLS_TOTAL),
    ("structures.normalize_D1", _CALLS_TOTAL),
    ("structures.apply_laws", _CALLS_TOTAL),
    ("pencils.structure_from_pencil", _CALLS_TOTAL),
    ("pencils.is_geodesic", _CALLS_TOTAL),
    ("pencils.member_value_along", _CALLS_TOTAL),
    ("slopes.mul", (("calls", "count"), ("self_s", "s"))),
    ("expressions.expand", (("calls", "count"), ("self_s", "s"))),
    ("expressions", (("repeated_text_share", "%"),)),
    ("reports.render_json", (("total_s", "s"),)),
    ("cli.load_document", (("total_s", "s"),)),
    ("trace", (("ops_per_s_untraced", "1/s"), ("ops_per_s_traced", "1/s"))),
)

CASE_IDS = (
    "remark.exotic-sl2", "remark.flat", "remark.pi0", "sec3.aff",
    "thm31.i.a", "thm31.i.b", "thm31.ii.a", "thm31.ii.b", "thm31.iii",
    "thm31.iv", "thm41.i.a.1", "thm41.i.a.2", "thm41.i.b", "thm41.ii.a",
    "thm41.ii.b.1", "thm41.ii.b.2", "thm41.iii", "thm41.iv",
)
SUBCOMMANDS = ("invariants", "linearizable", "symcheck", "pullback", "pencil",
               "geodesic")

PER_LAYER = tuple(
    [(prefix + "." + suffix, unit)
     for prefix, items in _LAYER_GROUPS for suffix, unit in items]
    + [("verify.case.%s.total_s" % cid, "s") for cid in CASE_IDS]
    + [("cli.%s.latency_p50_ms" % sub, "ms") for sub in SUBCOMMANDS])


def better(unit):
    """Direction of a per-layer metric: rates are better high, the rest low."""
    return "higher" if unit == "1/s" else "lower"


def benchmark_json():
    """The contents of BENCHMARK.json, derived from the tables above."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": 35,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound, _ in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": better(u)}
                      for n, u in PER_LAYER],
    }
