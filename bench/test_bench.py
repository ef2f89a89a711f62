"""Tests of the benchmark itself: deterministic inputs, repeatable trace
counts, a gate that catches tampered reports, and a metric list that
matches BENCHMARK.json."""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gate
import tracing
import worker
import workloads

ROOT = Path(__file__).resolve().parent.parent
skewmon = worker.import_skewmon()
import skewmon.cli  # noqa: E402


def tiny_growth():
    """The Weyl frame {1, x1, e1} up to k_max = 3."""
    frame = [{"terms": [{"key": key, "num": num}]}
             for key, num in (([0, 0], "1"), ([0, 0], "x1"), ([1, 0], "1"))]
    return {"title": "tiny growth", "algebra": {"kind": "shift_algebra", "n": 2, "m": 2},
            "jobs": [{"name": "Weyl frame", "op": "growth_profile", "frame": frame,
                      "k_max": 3, "bench": {"values": {"dims": [3, 6, 10]}}}]}


def run(scenario):
    report = skewmon.cli.run_scenario(workloads.program_input(scenario))
    return report, skewmon.reports.dump_json(gate.strip_timings(report))


def test_seed_fixes_the_generated_workloads():
    for name in workloads.WORKLOADS:
        for index in (0, 3):
            first = workloads.scenarios(name, 11, index)
            assert first == workloads.scenarios(name, 11, index)
            json.dumps(first)  # plain JSON, nothing else reaches the program
    assert workloads.scenarios("witness", 11, 0) != workloads.scenarios("witness", 12, 0)
    assert workloads.scenarios("witness", 11, 0) != workloads.scenarios("witness", 11, 1)
    for name in ("growth", "relations"):
        assert workloads.scenarios(name, 11, 0) == workloads.scenarios(name, 12, 5)


def test_gl_relations_match_the_program_table():
    for n in (2, 3, 4):
        assert workloads.gl_relations(n) == skewmon.gl_relation_set(n)
    left_out = set(workloads.GL4_LEFT_OUT)
    assert left_out <= {r["name"] for r in workloads.gl_relations(4)}


def traced_counts(scenario):
    tracer = tracing.Tracer()
    original = skewmon.arith.poly_gcd
    tracer.install(skewmon)
    try:
        assert skewmon.arith.poly_gcd is not original
        run(scenario)
    finally:
        tracer.uninstall()
    assert skewmon.arith.poly_gcd is original
    assert skewmon.poly_gcd is original
    units = {name: unit for name, unit, _ in tracing.METRICS}
    return {name: m["value"] for name, m in tracer.metrics(1.0, 1.0).items()
            if units[name] in ("count", "ratio") and not name.startswith("trace.")}


def test_trace_counts_repeat_exactly():
    first = traced_counts(tiny_growth())
    assert first == traced_counts(tiny_growth())
    assert first["analysis.reducer_add.calls"] > 0
    assert first["skewring.mul.calls"] > 0
    assert first["actions.act_key.path_shift"] > 0
    assert first["arith.poly_mul.term_pairs"] >= first["arith.poly_mul.calls"]


def test_missing_private_boundary_is_skipped(monkeypatch):
    monkeypatch.setattr(tracing, "BOUNDARIES", [
        ("analysis.reducer_add", "analysis", "_Renamed.add", True),
        ("arith.poly_gcd", "arith", "poly_gcd", False),
    ])
    tracer = tracing.Tracer()
    tracer.install(skewmon)
    try:
        run(tiny_growth())
    finally:
        tracer.uninstall()
    assert tracer.skipped == ["_Renamed.add"]
    metrics = tracer.metrics(1.0, 1.0)
    assert not [name for name in metrics if name.startswith("analysis.reducer_add")]
    assert metrics["arith.poly_gcd.calls"]["value"] > 0

    monkeypatch.setattr(tracing, "BOUNDARIES", [("arith.gone", "arith", "gone", False)])
    with pytest.raises(AttributeError):
        tracing.Tracer().install(skewmon)


def test_self_times_subtract_child_spans():
    tracer = tracing.Tracer()
    outer = tracer._wrap("cli.outer", lambda: inner())
    inner = tracer._wrap("arith.inner", lambda: sum(range(10000)))
    outer()
    times = tracer.self_times()
    total = tracer.span_end[0] - tracer.span_start[0]
    assert list(tracer.span_parent) == [-1, 0]
    assert times["cli.outer"][0] == times["arith.inner"][0] == 1
    assert abs(times["cli.outer"][1] + times["arith.inner"][1] - total) < 1e-9


def test_gate_flags_tampered_reports():
    scenario = tiny_growth()
    report, text = run(scenario)
    checker = gate.Gate()
    assert checker.check(scenario, report, text)
    assert checker.check(scenario, report, text)

    wrong_value = copy.deepcopy(report)
    wrong_value["jobs"][0]["values"]["dims"][-1] = 11
    failed_check = copy.deepcopy(report)
    failed_check["jobs"][0]["checks"][0]["status"] = "fail"
    for tampered in (wrong_value, failed_check):
        assert not checker.check(scenario, tampered, text)

    other_bytes = copy.deepcopy(report)
    other_bytes["title"] = "changed"
    assert not checker.check(scenario, other_bytes, skewmon.reports.dump_json(
        gate.strip_timings(other_bytes)))
    assert not checker.check(scenario, None, None, error="ValueError()")
    assert (checker.attempted, checker.failed) == (6, 4)


def test_benchmark_json_lists_the_traced_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [tuple(m) for m in tracing.METRICS]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "growth", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
