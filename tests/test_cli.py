import json
import os

import pytest

from skewmon import cli
from skewmon.cli import (
    ScenarioError,
    builtin_suites,
    load_scenario_text,
    main,
    run_scenario,
    strip_timings,
)
from skewmon.errors import DefinitionError, ResourceCapError
from skewmon.reports import dump_json

DATA = os.path.join(os.path.dirname(__file__), "data")

EXPECTED_SUITES = [
    "center-ww",
    "growth-gt3",
    "growth-weyl",
    "gt-2",
    "gt-3",
    "gwa-ww",
    "lattice-gt3",
    "nilhecke-s3",
    "ore-shift",
    "pi-witness",
]


def run_suite(name):
    return run_scenario(json.loads(load_scenario_text(name)))


class TestSuites:
    def test_builtin_list(self):
        assert builtin_suites() == EXPECTED_SUITES

    @pytest.mark.parametrize("name", EXPECTED_SUITES)
    def test_suite_passes(self, name):
        import time

        t0 = time.perf_counter()
        report = run_suite(name)
        elapsed = time.perf_counter() - t0
        assert report["aggregate"] == "pass", dump_json(report)
        assert elapsed < 60.0, f"suite {name} exceeded its time budget: {elapsed:.1f}s"

    @pytest.mark.parametrize("name", EXPECTED_SUITES)
    def test_suite_deterministic(self, name):
        a = dump_json(strip_timings(run_suite(name)))
        b = dump_json(strip_timings(run_suite(name)))
        assert a == b

    def test_inline_relation_ast(self, tmp_path, capsys):
        scenario = {
            "algebra": {"kind": "gt", "n": 2},
            "jobs": [{
                "op": "verify_relations",
                "relations": [
                    {"name": "[E11,E22] = 0",
                     "expr": {"comm": [{"gen": "E11"}, {"gen": "E22"}]}},
                    {"name": "[E12,E21] - E11 + E22 = 0",
                     "expr": {"sum": [
                         {"comm": [{"gen": "E12"}, {"gen": "E21"}]},
                         {"scale": ["-1", {"gen": "E11"}]},
                         {"gen": "E22"},
                     ]}},
                ],
                "expect": "pass",
            }],
        }
        path = tmp_path / "inline.json"
        path.write_text(json.dumps(scenario))
        assert main(["run", str(path), "--format", "json"]) == 0
        capsys.readouterr()

    def test_undefined_generator_is_two(self, tmp_path, capsys):
        scenario = {
            "algebra": {"kind": "gt", "n": 2},
            "jobs": [{"op": "verify_relations",
                      "relations": [{"name": "bad", "expr": {"gen": "ZZ"}}]}],
        }
        path = tmp_path / "bad-gen.json"
        path.write_text(json.dumps(scenario))
        assert main(["run", str(path)]) == 2
        capsys.readouterr()

    def test_unknown_frame_name_names_the_generator(self, tmp_path, capsys):
        scenario = {
            "algebra": {"kind": "gt", "n": 2},
            "jobs": [{"op": "growth_profile", "frame": [{"const": "1"}, "E13"], "k_max": 2}],
        }
        with pytest.raises(DefinitionError, match="unknown generator 'E13'"):
            run_scenario(scenario)
        path = tmp_path / "bad-frame.json"
        path.write_text(json.dumps(scenario))
        assert main(["run", str(path)]) == 2
        assert "'E13'" in capsys.readouterr().err

    @pytest.mark.parametrize("node", [5, None, True, 3.5])
    def test_non_object_element_names_the_node(self, node, tmp_path, capsys):
        scenario = {
            "algebra": {"kind": "gt", "n": 2},
            "jobs": [{"op": "growth_profile", "frame": [{"const": "1"}, node], "k_max": 2}],
        }
        with pytest.raises(DefinitionError, match=f"unrecognized expression node {node!r}"):
            run_scenario(scenario)
        path = tmp_path / "bad-node.json"
        path.write_text(json.dumps(scenario))
        assert main(["run", str(path)]) == 2
        assert f"unrecognized expression node {node!r}" in capsys.readouterr().err

    def test_theta_relations_need_a_nilhecke_algebra(self):
        scenario = {"algebra": {"kind": "gt", "n": 2}, "jobs": [{"op": "theta_relations"}]}
        with pytest.raises(ScenarioError, match="nilhecke"):
            run_scenario(scenario)

    def test_default_gl_table_needs_a_gt_algebra(self, tmp_path, capsys):
        scenario = {"algebra": {"kind": "gwa", "preset": "witten-woronowicz"},
                    "jobs": [{"op": "verify_gwa"}, {"op": "verify_relations"}]}
        message = "verify_relations: the default gl table needs a gt algebra block"
        with pytest.raises(ScenarioError, match=message):
            run_scenario(scenario)
        path = tmp_path / "gl-on-gwa.json"
        path.write_text(json.dumps(scenario))
        assert main(["run", str(path)]) == 2
        assert message in capsys.readouterr().err

    def test_every_element_form_in_one_job(self):
        # a generator name, {"gen": ...}, a commutator and a terms literal
        scenario = {
            "algebra": {"kind": "gt", "n": 2},
            "jobs": [{
                "op": "standard_identity",
                "elements": ["E12", {"gen": "E21"}, {"comm": ["E12", "E21"]},
                             {"terms": [{"key": [0], "num": "x11"}]}],
            }],
        }
        report = run_scenario(scenario)
        assert report["aggregate"] == "pass", dump_json(report)

    def test_explicit_gwa_block(self):
        scenario = {
            "title": "inline weyl-like gwa",
            "algebra": {
                "kind": "gwa",
                "variables": ["h"],
                "params": [],
                "sigma": [{"kind": "shift", "offsets": ["-1"]}],
                "a": [{"num": "h"}],
            },
            "jobs": [{"op": "verify_gwa", "expect": "pass"}],
        }
        report = run_scenario(scenario)
        assert report["aggregate"] == "pass"

    def test_explicit_scaling_gwa_block(self):
        scenario = {
            "title": "inline scaling gwa",
            "algebra": {
                "kind": "gwa",
                "variables": ["H", "Z"],
                "params": ["s"],
                "sigma": [{"kind": "scaling", "multipliers": [
                    {"powers": {"s": 4}}, {"powers": {"s": 2}}
                ]}],
                "a": [{"num": "s*Z - s^5*Z - H - s^2*H + s^2", "den": "s - s^5"}],
            },
            "jobs": [{"op": "verify_gwa", "expect": "pass"},
                     {"op": "center_candidates", "degree_bound": 2,
                      "expect": {"basis": ["1"]}}],
        }
        report = run_scenario(scenario)
        assert report["aggregate"] == "pass", dump_json(report)


class TestExitCodes:
    def test_pass_is_zero(self, tmp_path, capsys):
        assert main(["run", "gt-2", "--format", "json"]) == 0
        capsys.readouterr()

    def test_broken_scenario_is_one(self, capsys):
        code = main(["run", os.path.join(DATA, "broken-hecke.json")])
        out = capsys.readouterr().out
        assert code == 1
        assert "cond3" in out

    def test_missing_file_is_two(self, capsys):
        assert main(["run", "no-such-scenario.json"]) == 2
        capsys.readouterr()

    def test_bad_json_is_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", str(bad)]) == 2
        capsys.readouterr()

    def test_unknown_op_is_two(self, tmp_path, capsys):
        scenario = {"algebra": {"kind": "gt", "n": 2},
                    "jobs": [{"op": "frobnicate"}]}
        path = tmp_path / "unknown.json"
        path.write_text(json.dumps(scenario))
        assert main(["run", str(path)]) == 2
        capsys.readouterr()

    def test_bad_algebra_is_two(self, tmp_path, capsys):
        scenario = {"algebra": {"kind": "mystery"}, "jobs": []}
        path = tmp_path / "mystery.json"
        path.write_text(json.dumps(scenario))
        assert main(["run", str(path)]) == 2
        capsys.readouterr()

    def test_cap_group_reaches_the_gt_builder(self, capsys):
        assert main(["run", "gt-3", "--cap-group", "1"]) == 3
        assert "group closure exceeded the cap of 1" in capsys.readouterr().err

    def test_cap_group_reaches_the_nilhecke_builder(self):
        scenario = {"algebra": {"kind": "nilhecke", "n": 4}, "jobs": []}
        with pytest.raises(ResourceCapError):
            run_scenario(scenario, cap_group=5)

    def test_resource_cap_is_three(self, tmp_path, capsys):
        scenario = json.loads(load_scenario_text("growth-weyl"))
        path = tmp_path / "capped.json"
        path.write_text(json.dumps(scenario))
        assert main(["run", str(path), "--cap-dim", "10"]) == 3
        capsys.readouterr()

    def test_cap_dim_bounds_the_ball_size(self, tmp_path, capsys):
        balls = {"op": "monoid_growth", "generators": [[1, 0], [-1, 0], [0, 1], [0, -1]],
                 "k_max": 400}
        scenario = {"algebra": {"kind": "shift_algebra", "n": 2, "m": 2}, "jobs": [balls]}
        path = tmp_path / "balls.json"
        path.write_text(json.dumps(scenario))
        assert main(["run", str(path), "--cap-dim", "100"]) == 3
        assert "ball size 113 exceeded the cap 100" in capsys.readouterr().err


class TestJobValidation:
    BALLS = {"name": "balls", "op": "monoid_growth",
             "generators": [[1, 0], [0, 1]], "k_max": 4}

    def _rejected(self, tmp_path, capsys, jobs, algebra=None):
        scenario = {"algebra": algebra or {"kind": "shift_algebra", "n": 2, "m": 2},
                    "jobs": jobs}
        path = tmp_path / "invalid.json"
        path.write_text(json.dumps(scenario))
        assert main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        return captured.err

    def test_negative_k_max(self, tmp_path, capsys):
        err = self._rejected(tmp_path, capsys, [dict(self.BALLS, k_max=-5)])
        assert "'balls'" in err and "k_max must be an integer >= 2" in err

    @pytest.mark.parametrize("count", ["5", True])
    def test_count_must_be_a_json_integer(self, tmp_path, capsys, count):
        job = {"name": "trials", "op": "orbit_identities", "count": count, "seed": 1}
        err = self._rejected(tmp_path, capsys, [job])
        assert "'trials'" in err and "count must be an integer >= 1" in err

    def test_fractional_k_max(self, tmp_path, capsys):
        err = self._rejected(tmp_path, capsys, [dict(self.BALLS, k_max=2.7)])
        assert "'balls'" in err and "k_max" in err and "2.7" in err

    def test_missing_degree_bound(self, tmp_path, capsys):
        job = {"name": "center", "op": "center_candidates"}
        err = self._rejected(tmp_path, capsys, [job],
                             algebra={"kind": "gwa", "preset": "witten-woronowicz"})
        assert "'center'" in err and "missing parameter 'degree_bound'" in err

    def test_malformed_second_job_fails_before_the_algebra_is_built(self, tmp_path, capsys):
        second = dict(self.BALLS, name="second", k_max="3")
        err = self._rejected(tmp_path, capsys, [self.BALLS, second],
                             algebra={"kind": "mystery"})
        assert "job 2 'second'" in err and "k_max" in err
        assert "mystery" not in err

    @pytest.mark.parametrize(
        "expect, message",
        [({"bogus": 1}, "unknown expectation key 'bogus'"), ("fail", "bad expectation 'fail'")],
    )
    def test_bad_expectation_fails_before_any_job_runs(self, monkeypatch, expect, message):
        calls = []
        handler, params = cli.JOBS["monoid_growth"]

        def recorded(rt, job):
            calls.append(job["name"])
            return handler(rt, job)

        monkeypatch.setitem(cli.JOBS, "monoid_growth", (recorded, params))
        second = dict(self.BALLS, name="second", expect=expect)
        scenario = {"algebra": {"kind": "shift_algebra", "n": 2, "m": 2},
                    "jobs": [self.BALLS, second]}
        with pytest.raises(ScenarioError, match=f"job 2 'second' \\(monoid_growth\\): {message}"):
            run_scenario(scenario)
        assert calls == []

    @pytest.mark.parametrize("algebra, first, second, error, message", [
        ({"kind": "gwa", "preset": "witten-woronowicz"}, {"op": "verify_gwa"},
         {"op": "verify_relations"}, ScenarioError,
         "verify_relations: the default gl table needs a gt algebra block"),
        ({"kind": "gt", "n": 2},
         {"op": "growth_profile", "frame": [{"const": "1"}, "E12"], "k_max": 2},
         {"op": "growth_profile", "frame": [{"const": "1"}, "E13"], "k_max": 2},
         DefinitionError,
         "unknown generator 'E13'"),
    ], ids=["default-gl-table", "unknown-generator"])
    def test_error_raised_inside_a_job_names_the_job(self, tmp_path, capsys, algebra, first,
                                                      second, error, message):
        second = dict(second, name="second")
        scenario = {"algebra": algebra, "jobs": [first, second]}
        prefix = f"job 2 'second' ({second['op']}): "
        with pytest.raises(error) as caught:
            run_scenario(scenario)
        assert str(caught.value) == prefix + message
        err = self._rejected(tmp_path, capsys, [first, second], algebra=algebra)
        assert err == f"error: invalid scenario: {prefix}{message}\n"

    def test_cap_error_inside_a_job_names_the_job_and_keeps_its_partial_result(self):
        scenario = json.loads(load_scenario_text("growth-weyl"))
        with pytest.raises(ResourceCapError, match="^job 1 'frame span dimensions' "
                                                   "\\(growth_profile\\): ") as caught:
            run_scenario(scenario, cap_dim=10)
        assert caught.value.partial.dims == [3, 6, 10, 15]


class TestExpectations:
    def test_missing_list_value_fails_its_job_only(self, tmp_path, capsys):
        scenario = {
            "algebra": {"kind": "shift_algebra", "n": 2, "m": 2},
            "jobs": [
                {"name": "lattice", "op": "support_lattice_rank", "expect": {"dims": [1]}},
                dict(TestJobValidation.BALLS, expect={"sizes": [3, 6, 10, 15]}),
            ],
        }
        report = run_scenario(scenario)
        bad, good = report["jobs"]
        assert bad["status"] == "fail"
        assert bad["checks"][-1] == {"name": "expect dims = [1]", "status": "fail",
                                     "residual": "got None"}
        assert good["status"] == "pass" and good["values"]["sizes"] == [3, 6, 10, 15]
        path = tmp_path / "missing-value.json"
        path.write_text(json.dumps(scenario))
        assert main(["run", str(path)]) == 1
        assert "FAIL expect dims = [1]  <- got None" in capsys.readouterr().out


class TestOutput:
    def test_json_output_and_hash(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["run", "pi-witness", "--format", "json", "--out", str(out)])
        assert code == 0
        capsys.readouterr()
        report = json.loads(out.read_text())
        assert report["aggregate"] == "pass"
        assert len(report["scenario_hash"]) == 64
        _validate_schema(report)

    def test_only_timed_checks_carry_timing(self):
        witness = run_suite("pi-witness")
        assert all("timing_ms" in job for job in witness["jobs"])
        assert not [c for job in witness["jobs"] for c in job["checks"] if "timing_ms" in c]
        gt = run_suite("gt-2")
        relations = [job for job in gt["jobs"] if job["op"] == "verify_relations"]
        assert relations and all("timing_ms" in c for c in relations[0]["checks"])

    @pytest.mark.parametrize("op, algebra", [
        ("ore_witness_random", {"kind": "shift_algebra", "n": 2, "m": 2}),
        ("orbit_identities", {"kind": "shift_algebra", "n": 2, "m": 2, "group": [[2, 1]]}),
        ("standard_identity_repeated", {"kind": "shift_algebra", "n": 1, "m": 1}),
    ])
    def test_seeded_reports_record_the_seed(self, op, algebra):
        def report(seed):
            job = {"name": "battery", "op": op, "count": 2, "seed": seed}
            return run_scenario({"algebra": algebra, "jobs": [job]})

        first, second = report(1), report(2)
        assert first["jobs"][0]["values"] == {"seed": 1}
        assert dump_json(strip_timings(first)) != dump_json(strip_timings(second))

    def test_hecke_conditions_are_timed(self):
        with open(os.path.join(DATA, "broken-hecke.json")) as fh:
            report = run_scenario(json.load(fh))
        checks = [c for job in report["jobs"] if job["op"] == "hecke_check"
                  for c in job["checks"]]
        assert checks and all("timing_ms" in c for c in checks)
        assert any(c["status"] == "fail" and c["residual"] for c in checks)

    def test_no_timings_flag_reproducible(self, tmp_path, capsys):
        outs = []
        for i in range(2):
            out = tmp_path / f"r{i}.json"
            assert main(["run", "gwa-ww", "--format", "json",
                         "--no-timings", "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        capsys.readouterr()
        assert outs[0] == outs[1]

    def test_cross_process_determinism(self, tmp_path):
        # fresh interpreters (fresh hash seeds) must produce identical bytes
        import subprocess
        import sys

        outs = []
        for i in range(2):
            out = tmp_path / f"p{i}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "skewmon.cli", "run", "nilhecke-s3",
                 "--format", "json", "--no-timings", "--out", str(out)],
                capture_output=True,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_text_format(self, capsys):
        assert main(["run", "lattice-gt3"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "support lattice" in out


def _validate_schema(report):
    """Structural validation against the shipped report schema."""
    from importlib import resources

    schema = json.loads(
        (resources.files("skewmon") / "report_schema.json").read_text()
    )
    for field in schema["required"]:
        assert field in report
    assert report["aggregate"] in ("pass", "fail")
    assert isinstance(report["jobs"], list)
    for job in report["jobs"]:
        for field in ("name", "op", "status", "checks"):
            assert field in job
        assert job["status"] in ("pass", "fail")
        for check in job["checks"]:
            assert "name" in check and check["status"] in ("pass", "fail", "error")
