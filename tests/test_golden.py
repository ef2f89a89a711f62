"""Golden reports: every shipped suite and tests/data/broken-hecke.json must
give the same bytes as the committed report in tests/data/golden/.

Each golden file holds ``dump_json(strip_timings(run_scenario(...)))``.  When a
change to the reports is intended, regenerate them with

    PYTHONPATH=src python tests/test_golden.py

and review the diff of tests/data/golden/.
"""

import json
import os
import sys

import pytest

from skewmon.cli import builtin_suites, load_scenario_text, run_scenario, strip_timings
from skewmon.reports import dump_json

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
GOLDEN = os.path.join(DATA, "golden")
SOURCES = {name: name for name in builtin_suites()}
SOURCES["broken-hecke"] = os.path.join(DATA, "broken-hecke.json")


def report_bytes(name):
    scenario = json.loads(load_scenario_text(SOURCES[name]))
    return dump_json(strip_timings(run_scenario(scenario))).encode("utf-8")


def golden_path(name):
    return os.path.join(GOLDEN, f"{name}.json")


def test_every_source_has_a_golden_report():
    assert sorted(f[: -len(".json")] for f in os.listdir(GOLDEN)) == sorted(SOURCES)


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_report_matches_golden(name):
    with open(golden_path(name), "rb") as fh:
        expected = fh.read()
    assert report_bytes(name) == expected, f"report of {name} differs from {golden_path(name)}"


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    for name in sorted(SOURCES):
        with open(golden_path(name), "wb") as fh:
            fh.write(report_bytes(name))
        print(f"wrote {golden_path(name)}", file=sys.stderr)
