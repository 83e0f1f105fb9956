"""Tests of the benchmark itself (not collected by the project's suite).

    python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import metrics
import workloads
from run import tail
from tracer import TARGETS, Tracer, resolve
from worker import REFERENCE_UNIT_S, Recorder, Yardstick, import_projstruct

ROOT = os.path.dirname(workloads.HERE)
ps = import_projstruct(ROOT)


@pytest.fixture
def workdir(request):
    """A scratch directory inside the checkout, removed afterwards."""
    path = os.path.join(ROOT, ".bench_tmp", "test-%d-%s"
                        % (os.getpid(), request.node.name))
    os.makedirs(path)
    yield Path(path)
    shutil.rmtree(path)
    try:
        os.rmdir(os.path.dirname(path))
    except OSError:
        pass


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        assert json.load(fh) == metrics.benchmark_json()
    names = [m for m, _ in metrics.PER_LAYER]
    assert len(names) == len(set(names))
    assert set(metrics.CASE_IDS) == set(ps.CASES)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    value, pct, n = tail([float(i) for i in range(100)])
    assert (value, n) == (89.0, 100) and pct == 90.0
    assert sum(1 for v in range(100) if v > value) == 10


# --- determinism -------------------------------------------------------------------


def test_generation_is_deterministic_per_seed(workdir):
    def texts(seed):
        rounds = workloads.DocumentRounds(ps, seed, str(workdir))
        rounds.round(0)
        rounds.round(1)
        return sorted(rounds.seen_texts)

    assert texts(5) == texts(5)
    assert texts(5) != texts(6)
    assert (workloads.deep_inputs(ps, 5, 0, 8)
            == workloads.deep_inputs(ps, 5, 0, 8))
    assert (workloads.deep_inputs(ps, 5, 0, 8)
            != workloads.deep_inputs(ps, 6, 0, 8))
    expected = workloads.load_expected()
    first = workloads.RegistryPass(ps, 5, expected).order
    assert first == workloads.RegistryPass(ps, 5, expected).order
    assert first != workloads.RegistryPass(ps, 6, expected).order
    assert sorted(first) == list(range(44))


def test_documents_of_a_run_are_distinct(workdir):
    rounds = workloads.DocumentRounds(ps, 1, str(workdir))
    for index in range(40):
        rounds.round(index)
    assert len(rounds.seen_texts) == 40 * len(workloads.DOCUMENT_ROUND)
    assert 0 < rounds.expr_repeated < rounds.expr_total


# --- every gate fails on a corrupted expectation ---------------------------------------


def test_registry_gates_reject_corrupted_pins():
    expected = workloads.load_expected()
    registry = workloads.RegistryPass(ps, 0, expected)
    ops = {op.kind: op for op in registry.ops()}
    op = ops["case:thm41.iv"]
    report = op.call()
    assert op.gate(report)
    key = "thm41.iv#0"
    bad = dict(expected, reports=dict(expected["reports"], **{key: "0" * 64}))
    bad_op = {o.kind: o for o in workloads.RegistryPass(ps, 0, bad).ops()}
    assert not bad_op["case:thm41.iv"].gate(report)

    text = ps.render_json([report])
    tally = {"pass": 0, "paper-inconsistent": 0, "recorded": 0, "fail": 0}
    for check in report.checks:
        tally[check.verdict] += 1
    good = dict(expected, digest=workloads.sha256(text), tally=tally)
    assert workloads.RegistryPass(ps, 0, good).pass_errors(text) == []
    wrong_digest = dict(good, digest="0" * 64)
    assert workloads.RegistryPass(ps, 0, wrong_digest).pass_errors(text)
    wrong_tally = dict(good, tally=dict(tally, fail=1))
    assert workloads.RegistryPass(ps, 0, wrong_tally).pass_errors(text)


def _corrupt_stdout(stdout):
    """Give every printed jet the x-coefficient 1/7919, which no answer has."""
    return "\n".join(line + " + 1/7919 * x" if " = " in line else line
                     for line in stdout.splitlines())


def test_document_gates_reject_corrupted_expectations(workdir):
    rng = workloads.rng_for(3, "gate-test")
    for kind, variant in workloads.DOCUMENT_ROUND:
        doc = workloads.make_document(ps, rng, kind, variant)
        path = workdir / "doc.ini"
        path.write_text(doc.text)
        op = workloads.DocumentRounds._gate(doc)
        code, stdout = workloads.DocumentRounds(ps, 0, str(workdir)) \
            ._runner(doc, str(path))()
        assert op((code, stdout)), (kind, variant, stdout)
        assert not op((1 - code, stdout)), (kind, variant)
        if doc.check is not None:
            assert not doc.check(_corrupt_stdout(stdout)), (kind, variant)


def _perturb(result):
    """A wrong answer of the same shape as ``result``."""
    if isinstance(result, bool):
        return not result
    if isinstance(result, ps.Jet2):
        return result + ps.Jet2.monomial(1, 0, Fraction(1, 7919),
                                         result.order)
    if isinstance(result, ps.ProjectiveStructure):
        return ps.ProjectiveStructure(_perturb(result.A), result.B, result.C,
                                      result.D)
    if isinstance(result, ps.LiouvillePair):
        return ps.LiouvillePair(_perturb(result.L1), result.L2)
    normalized, germ = result                 # normalize_D1
    return _perturb(normalized), germ


@pytest.mark.parametrize("wrong", range(16))
def test_deep_jet_gates_catch_any_wrong_answer(wrong):
    """A wrong answer from any op fails its own gate or a later one."""
    ops = workloads.deep_round(ps, 2, 0, workloads.WARMUP_ORDER)
    verdicts = []
    for index, op in enumerate(ops):
        result = op.call()
        verdicts.append(op.gate(_perturb(result) if index == wrong
                                else result))
    assert len(ops) == 16
    assert not all(verdicts)


def test_deep_jet_gates_pass_on_right_answers():
    for op in workloads.deep_round(ps, 2, 0, workloads.WARMUP_ORDER):
        assert op.gate(op.call()), op.kind


# --- tracing ---------------------------------------------------------------------------


def _small_input(workdir):
    """A mixed input touching every traced layer, cheap enough to profile."""
    workdir.mkdir()
    docs = workloads.DocumentRounds(ps, 4, str(workdir)).round(0)
    deep = workloads.deep_round(ps, 4, 0, 6)

    def run():
        for op in docs + deep:
            op.gate(op.call())
        ps.run_case("thm41.iv", None, 8)
        ps.run_case("thm31.iii", None, 8)
        ps.run_case("remark.exotic-sl2", {"c1": "1", "c2": "0"}, 8)
    return run


def test_wrapped_call_counts_match_a_profiler_count(workdir):
    code_to_span = {}
    for module, attr, span in TARGETS:
        code_to_span[resolve(ps, module, attr)[2].__code__] = span

    profiled = {}

    def profile(frame, event, arg):
        if event == "call":
            span = code_to_span.get(frame.f_code)
            if span is not None:
                profiled[span] = profiled.get(span, 0) + 1

    sys.setprofile(profile)
    try:
        _small_input(workdir / "a")()
    finally:
        sys.setprofile(None)

    tracer = Tracer(ps)
    with tracer:
        _small_input(workdir / "b")()
    summary = tracer.summary()
    traced = {k[:-len(".calls")]: v for k, v in summary.items()
              if k.endswith(".calls")}
    assert traced == profiled
    assert set(traced) == {span for _, _, span in TARGETS}


def test_uninstall_restores_every_binding():
    before = {(m, a): resolve(ps, m, a)[2] for m, a, _ in TARGETS}
    with Tracer(ps):
        assert ps.fields.nullspace is not before[("linalg", "nullspace")]
        assert ps.cases.symmetry_dim is not before[("fields",
                                                    "symmetry_dim")]
    assert ps.fields.nullspace is before[("linalg", "nullspace")]
    assert ps.cases.symmetry_dim is before[("fields", "symmetry_dim")]
    assert ps.Jet2.__mul__ is before[("jets", "Jet2.__mul__")]


def test_self_time_excludes_children_and_solve_splits_linalg():
    tracer = Tracer(ps)
    tracer.spans[:] = [["fields.symmetry_dim", -1, 0.0, 10.0],
                       ["linalg.nullspace", 0, 1.0, 4.0],
                       ["jets.mul", 0, 6.0, 1.0],
                       ["pencils.is_geodesic", -1, 20.0, 3.0],
                       ["pencils.is_geodesic", 3, 20.5, 2.0]]
    out = tracer.summary()
    assert out["fields.symmetry_dim.self_s"] == 5.0
    assert out["fields.symmetry_dim.solve_s"] == 4.0
    assert out["fields.symmetry_dim.build_s"] == 6.0
    assert out["pencils.is_geodesic.calls"] == 2
    assert out["pencils.is_geodesic.total_s"] == 3.0
    assert out["pencils.is_geodesic.self_s"] == 3.0


# --- host speed ----------------------------------------------------------------------


def test_latency_is_scaled_by_the_yardstick_on_each_side():
    class Steps:
        """A host that halves its speed after every measurement."""

        def __init__(self):
            self.unit = REFERENCE_UNIT_S

        def unit_s(self):
            self.unit *= 2
            return self.unit / 2

    rec = Recorder(Steps())
    op = workloads.Op("k", lambda: None, lambda result: True)
    rec.run([op, op, op], False)
    for k, (_, latency, _, ok, scaled) in enumerate(rec.ops):
        # the yardstick read 2^k before the op and 2^(k+1) after it
        assert ok and scaled == pytest.approx(latency / (1.5 * 2 ** k))
    assert 0 < Yardstick(1).unit_s() < 1


# --- the command --------------------------------------------------------------------------


def test_run_fails_without_the_program(workdir):
    shutil.copytree(workloads.HERE, workdir / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), workdir)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "documents", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=workdir, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
