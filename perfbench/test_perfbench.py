"""Smoke tests of the benchmark itself: python3 -m pytest perfbench/test_perfbench.py -q"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import quandleknot as qk  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


def test_cli_files_are_the_committed_fixtures():
    for name, payload in inputs.CLI_FILES.items():
        committed = qk.parse_diagram((ROOT / "fixtures" / name).read_text())
        assert qk.parse_diagram(json.dumps(payload)) == committed


def test_inputs_depend_only_on_the_seed():
    for workload in run.WORKLOADS:
        assert inputs.make_inputs(workload, 5) == inputs.make_inputs(workload, 5)
    assert inputs.make_inputs("spectrum", 5) != inputs.make_inputs("spectrum", 6)


def test_braid_closures_are_knots_with_the_right_parity():
    rng = inputs.random.Random(3)
    for _ in range(20):
        k, word, (over, sign) = inputs.random_braid_knot(rng, (3, 5), (9, 13))
        assert len(word) % 2 == (k - 1) % 2 and len(over) == len(word)
        qk.ClosedDiagram(over, sign)
    assert inputs.braid_closure((1, 1), 2) is None  # the Hopf link


def test_the_seed_only_orders_the_queries():
    for workload in run.WORKLOADS:
        one, other = inputs.make_inputs(workload, 5), inputs.make_inputs(workload, 6)
        assert sorted(one, key=lambda q: q["name"]) == sorted(other, key=lambda q: q["name"])


def test_bracketed_scales_each_step_by_the_mean_slowness_around_it():
    readings = iter([1.0, 2.0, 4.0])
    raw, scaled = run.bracketed([lambda: 3.0, lambda: 6.0], lambda: next(readings))
    assert raw == [3.0, 6.0] and scaled == [2.0, 2.0]


def test_cli_check_rejects_a_wrong_readme_value():
    check = run.cli_check("colorings-5_2")
    assert check("7 colorings\n") is None
    assert check("8 colorings\n") is not None


def test_tiny_run_completes_with_every_answer_checked():
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    result = run.run_workload("composite", 2, 0.0, False)
    assert cpus is None or os.sched_getaffinity(0) == cpus  # the timed phase's pinning is undone
    passes = 1 + run.MIN_PASSES  # warm-up and timed passes
    assert result["failed"] == 0
    assert result["attempted"] == passes * result["inputs"]["queries_per_pass"] > 0
    assert result["info"]["completed"] == run.MIN_PASSES * result["inputs"]["queries_per_pass"]
    assert set(result["metrics"]) == {m["name"] for m in
                                      json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


def test_corrupted_expected_answer_counts_as_failed(tmp_path, monkeypatch):
    expected = json.loads(run.EXPECTED_FILE.read_text())
    victim = sorted(expected["spectrum"])[0]
    expected["spectrum"][victim] = "0" * 64
    corrupted = tmp_path / "expected.json"
    corrupted.write_text(json.dumps(expected))
    monkeypatch.setattr(run, "EXPECTED_FILE", corrupted)
    result = run.run_workload("spectrum", expected["seed"], 0.0, False)
    assert result["failed"] == 1 + run.MIN_PASSES and result["attempted"] > result["failed"]
    assert result["failures"][0].startswith(victim)


def test_tracer_records_spans_checks_colorings_and_restores_the_package():
    original = qk.formal_sum
    q = qk.dihedral(3)
    trace = tracer.Tracer()
    trace.install()
    try:
        verdict = qk.chirality_test(qk.LongDiagram(*inputs.fixture_code("3_1")), qk.InvariantQuery(q, 0, 1))
    finally:
        trace.uninstall()
    assert qk.formal_sum is original
    summary = trace.summary()
    assert verdict.kind == "inconclusive" and summary["check_failures"] == 0
    assert summary["coloring.calls"] == 2 and summary["coloring.colorings"] == 6
    assert summary["longitude.letters"] == 2 * 3 * 6 and summary["absent"] == []


def test_tracer_reports_a_missing_name_as_absent(monkeypatch):
    monkeypatch.setattr(tracer, "EXPECTED", tracer.EXPECTED + ["coloring.removed_by_a_refactor"])
    trace = tracer.Tracer()
    trace.install()
    trace.uninstall()
    assert trace.absent == ["coloring.removed_by_a_refactor"]


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", ".work"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "spectrum", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode != 0 and done.stdout == ""


@pytest.mark.parametrize("queries_per_pass", [9, 75, 192])
def test_tail_percentile_has_ten_samples_above_in_the_shortest_run(queries_per_pass):
    p = run.tail_percentile(queries_per_pass)
    latencies = [float(i) for i in range(run.MIN_PASSES * queries_per_pass)]
    value = run.percentile(latencies, p)
    assert sum(x > value for x in latencies) >= 10
