"""Golden reports: every shipped suite and tests/data/broken-hecke.json must
give the same bytes as the committed report in tests/data/golden/.

Each golden file holds ``dump_json(strip_timings(run_scenario(...)))``.  The
benchmark's scenarios are pinned too, by digest: bench-digests.json maps each
scenario of pass 0 of ``growth`` and ``relations`` (seed 1) and ``witness``
(seeds 1 and 2) to the sha256 of its timing-free report.  When a change to
the reports is intended, regenerate both with

    PYTHONPATH=src python tests/test_golden.py

and review the diff of tests/data/golden/.
"""

import hashlib
import json
import os
import sys
import types

import pytest

from skewmon.cli import builtin_suites, load_scenario_text, run_scenario, strip_timings
from skewmon.reports import dump_json

TESTS = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(TESTS, "data")
GOLDEN = os.path.join(DATA, "golden")
SOURCES = {name: name for name in builtin_suites()}
SOURCES["broken-hecke"] = os.path.join(DATA, "broken-hecke.json")
BENCH_DIGESTS = os.path.join(GOLDEN, "bench-digests.json")
BENCH_SEEDS = {"growth": (1,), "relations": (1,), "witness": (1, 2)}


def report_bytes(name):
    scenario = json.loads(load_scenario_text(SOURCES[name]))
    return dump_json(strip_timings(run_scenario(scenario))).encode("utf-8")


def golden_path(name):
    return os.path.join(GOLDEN, f"{name}.json")


def _bench_workloads():
    """bench/workloads.py, executed from its source so that nothing is
    written under bench/."""
    path = os.path.join(os.path.dirname(TESTS), "bench", "workloads.py")
    module = types.ModuleType("workloads")
    with open(path, encoding="utf-8") as fh:
        exec(compile(fh.read(), path, "exec"), module.__dict__)
    return module


def bench_digests():
    workloads = _bench_workloads()
    digests = {}
    for workload, seeds in BENCH_SEEDS.items():
        for seed in seeds:
            for scenario in workloads.scenarios(workload, seed, 0):
                report = run_scenario(workloads.program_input(scenario))
                digest = hashlib.sha256(dump_json(strip_timings(report)).encode("utf-8"))
                digests[f"{workload} seed {seed}: {scenario['title']}"] = digest.hexdigest()
    return digests


def test_every_source_has_a_golden_report():
    reports = [f for f in os.listdir(GOLDEN) if f != os.path.basename(BENCH_DIGESTS)]
    assert sorted(f[: -len(".json")] for f in reports) == sorted(SOURCES)


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_report_matches_golden(name):
    with open(golden_path(name), "rb") as fh:
        expected = fh.read()
    assert report_bytes(name) == expected, f"report of {name} differs from {golden_path(name)}"


def test_bench_reports_match_their_digests():
    with open(BENCH_DIGESTS, encoding="utf-8") as fh:
        expected = json.load(fh)
    got = bench_digests()
    assert sorted(got) == sorted(expected)
    changed = [key for key in got if got[key] != expected[key]]
    assert not changed, f"reports differ from {BENCH_DIGESTS}: {changed}"


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    for name in sorted(SOURCES):
        with open(golden_path(name), "wb") as fh:
            fh.write(report_bytes(name))
        print(f"wrote {golden_path(name)}", file=sys.stderr)
    with open(BENCH_DIGESTS, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(bench_digests(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {BENCH_DIGESTS}", file=sys.stderr)
