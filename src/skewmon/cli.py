"""Command-line front end: run scenario files, emit JSON or text reports.

A scenario file declares one algebra and a list of verification jobs with
expectations.  Exit codes: 0 all jobs pass, 1 some job failed, 2 scenario
validation or I/O error, 3 a resource cap was exceeded.
"""

import argparse
import hashlib
import json
import math
import sys
import time
from fractions import Fraction
from importlib import resources

from . import __version__
from .arith import QQ, ratfunc_from_json, ratfunc_to_text
from .actions import DEFAULT_GROUP_CAP, MonoidElement, ScalingAut, ShiftAut, VariableTable
from .errors import DefinitionError, ResourceCapError, SkewmonError
from .reports import Report, dump_json
from .skewring import is_invariant
from .constructors import (
    AlgebraSpec,
    GWASpec,
    build_qshift_algebra,
    build_shift_algebra,
    demazure_elements,
    gt_embedding,
    gwa_embed,
    hecke_membership_check,
    verify_gwa,
    witten_woronowicz_spec,
)
from .analysis import (
    DEFAULT_DIM_CAP,
    center_candidates,
    evaluate_expression,
    fit_loglog_slope,
    gl_relation_set,
    growth_profile,
    monoid_growth,
    standard_identity,
    support_lattice_rank,
    theta_relation_set,
    verify_relations,
)
from .randomized import (
    orbit_identity_trials,
    ore_witness_trials,
    repeated_argument_trials,
)


class ScenarioError(SkewmonError):
    """Scenario failed to parse or validate."""


class _Runtime:
    """Everything a job handler may need: the built algebra and the caps."""

    def __init__(self, scenario, cap_dim, cap_group):
        self.cap_dim = cap_dim
        self.cap_group = cap_group
        self.gwa_spec = None
        block = scenario.get("algebra")
        if not isinstance(block, dict) or "kind" not in block:
            raise ScenarioError("scenario needs an algebra block with a kind")
        # only reading the block may raise these; an error in building the
        # algebra is not the scenario's fault
        try:
            build = self._parse(block)
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise ScenarioError(f"bad {block['kind']!r} algebra block: {exc!r}") from exc
        self.algebra = build()

    def _parse(self, block):
        """Read the algebra block; return the function that builds its algebra."""
        kind = block["kind"]
        cap = self.cap_group
        if kind in ("shift_algebra", "qshift_algebra"):
            build = build_shift_algebra if kind == "shift_algebra" else build_qshift_algebra
            n, m = _int(block["n"], "n"), _int(block["m"], "m")
            group = [_one_line(p) for p in block.get("group", [])] or None
            return lambda: AlgebraSpec(build(n, m, group_generators=group, group_cap=cap), {}, [])
        if kind == "gwa":
            self.gwa_spec = spec = self._gwa_spec(block)
            return lambda: gwa_embed(spec)
        if kind == "gt":
            n = _int(block["n"], "n")
            return lambda: gt_embedding(n, group_cap=cap)
        if kind == "nilhecke":
            n = _int(block["n"], "n")
            return lambda: _nilhecke(n, cap)
        raise ScenarioError(f"unknown algebra kind {kind!r}")

    def _gwa_spec(self, block):
        if block.get("preset") == "witten-woronowicz":
            return witten_woronowicz_spec()
        table = VariableTable(block["variables"], (), block.get("params", ()))
        sigma = [self._automorphism(table, s) for s in block["sigma"]]
        a = [ratfunc_from_json(x, table.names) for x in block["a"]]
        return GWASpec(table, sigma, a)

    def _automorphism(self, table, block):
        nv = table.nvars
        if block["kind"] == "shift":
            offsets = [QQ(str(c)) for c in block["offsets"]]
            offsets += [QQ(0)] * (nv - len(offsets))
            return ShiftAut(table, offsets)
        if block["kind"] == "scaling":
            coeffs, exps = [], []
            for m in block["multipliers"]:
                coeffs.append(QQ(str(m.get("coeff", "1"))))
                e = [0] * nv
                for name, p in m.get("powers", {}).items():
                    e[table.index(name)] = _int(p, "powers")
                exps.append(tuple(e))
            while len(coeffs) < nv:
                coeffs.append(QQ(1))
                exps.append((0,) * nv)
            return ScalingAut(table, coeffs, exps)
        raise ScenarioError(f"unknown automorphism kind {block['kind']!r}")


def _nilhecke(n, cap):
    thetas = demazure_elements(n, group_cap=cap)
    gens = {f"theta{i + 1}": th for i, th in enumerate(thetas)}
    return AlgebraSpec(thetas[0].context, gens, [])


def _one_line(perm):
    # scenario files use 1-indexed one-line notation
    return tuple(_int(x, "group") - 1 for x in perm)


def _int(value, field):
    """An integer of the algebra block, which is never truncated."""
    if type(value) is not int:
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# Job handlers: (runtime, job) -> (Report, values dict).  Parameters named in
# JOBS and INT_PARAMS, and the algebra kinds in TABLE_KINDS, are validated
# before any job runs.
# ---------------------------------------------------------------------------


def _job_verify_gwa(rt, job):
    return verify_gwa(rt.gwa_spec), {}


def _job_verify_relations(rt, job):
    rels = job.get("relations", "gl")
    if rels == "gl":  # gl_n on a gt algebra: the n variables of row n are the fixed ones
        rels = gl_relation_set(rt.algebra.context.table.n_fixed)
    return verify_relations(rt.algebra, rels), {}


def _job_invariance(rt, job):
    report = Report("G-invariance of generators")
    for name, u in sorted(rt.algebra.generators.items()):
        ok = is_invariant(u)
        report.add(f"{name} is G-invariant", "pass" if ok else "fail")
    return report, {}


def _job_support_lattice_rank(rt, job):
    elements = list(rt.algebra.generators.values())
    rank, divisors = support_lattice_rank(elements)
    report = Report("support lattice")
    report.add("computed rank and elementary divisors", "pass")
    return report, {"rank": rank, "divisors": divisors}


def _job_center_candidates(rt, job):
    table, d = rt.algebra.context.table, job["degree_bound"]
    m = table.n_acted + table.n_fixed  # the variables that are not parameters
    count = math.comb(d + m, m)  # validation keeps d >= 0
    if count > rt.cap_dim:
        raise ResourceCapError(f"{count} monomials of degree <= {d} exceed the cap {rt.cap_dim}")
    basis = center_candidates(rt.algebra, d)
    names = table.names
    texts = [ratfunc_to_text(b, names) for b in basis]
    report = Report("center candidates")
    report.add(f"solved invariance system at degree {d}", "pass")
    return report, {"basis": texts, "dimension": len(texts)}


def _job_orbit_identities(rt, job):
    report = orbit_identity_trials(rt.algebra.context, job["count"], job["seed"])
    return report, {"seed": job["seed"]}


def _job_ore_witness_random(rt, job):
    report = ore_witness_trials(rt.algebra.context, job["count"], job["seed"])
    return report, {"seed": job["seed"]}


def _job_standard_identity(rt, job):
    elements = [evaluate_expression(rt.algebra, e) for e in job["elements"]]
    value = standard_identity(len(elements), elements)
    report = Report("standard identity")
    report.add(f"evaluated s_{len(elements)}", "pass")
    return report, {"value": value.to_text(), "zero": value.is_zero()}


def _job_standard_identity_repeated(rt, job):
    return repeated_argument_trials(
        rt.algebra.context, job["count"], job["seed"], degree=job.get("degree", 3)
    ), {"seed": job["seed"]}


def _job_theta_relations(rt, job):
    n = rt.algebra.context.table.nvars
    return verify_relations(rt.algebra, theta_relation_set(n)), {}


def _job_hecke_check(rt, job):
    element = evaluate_expression(rt.algebra, job["element"])
    vanish = job.get("vanishing_value")
    report = hecke_membership_check(
        element,
        mode=job.get("mode", "degenerate"),
        vanishing_value=QQ(str(vanish)) if vanish is not None else None,
    )
    return report, {}


def _job_growth_profile(rt, job):
    frame = [evaluate_expression(rt.algebra, e) for e in job["frame"]]
    profile = growth_profile(frame, job["k_max"], dim_cap=rt.cap_dim)
    report = Report("frame growth profile")
    report.add("profile computed", "pass")
    return report, {
        "dims": profile.dims,
        "slope": str(profile.slope),
        "slope_float": float(profile.slope),
    }


def _job_monoid_growth(rt, job):
    ctx = rt.algebra.context
    gens = [MonoidElement(ctx, tuple(v)) for v in job["generators"]]
    sizes = monoid_growth(gens, job["k_max"], dim_cap=rt.cap_dim)
    slope = fit_loglog_slope(sizes)
    report = Report("monoid ball growth")
    report.add("ball sizes computed", "pass")
    return report, {"sizes": sizes, "slope": str(slope), "slope_float": float(slope)}


#: op -> (handler, required parameters)
JOBS = {
    "verify_gwa": (_job_verify_gwa, ()),
    "verify_relations": (_job_verify_relations, ()),
    "invariance": (_job_invariance, ()),
    "support_lattice_rank": (_job_support_lattice_rank, ()),
    "center_candidates": (_job_center_candidates, ("degree_bound",)),
    "orbit_identities": (_job_orbit_identities, ("count", "seed")),
    "ore_witness_random": (_job_ore_witness_random, ("count", "seed")),
    "standard_identity": (_job_standard_identity, ("elements",)),
    "standard_identity_repeated": (_job_standard_identity_repeated, ("count", "seed")),
    "theta_relations": (_job_theta_relations, ()),
    "hecke_check": (_job_hecke_check, ("element",)),
    "growth_profile": (_job_growth_profile, ("frame", "k_max")),
    "monoid_growth": (_job_monoid_growth, ("generators", "k_max")),
}

#: relation op -> (the algebra kind its built-in table needs, the error otherwise);
#: an inline verify_relations table needs no particular kind
TABLE_KINDS = {
    "verify_gwa": ("gwa", "verify_gwa needs a gwa algebra block"),
    "verify_relations": ("gt", "verify_relations: the default gl table needs a gt algebra block"),
    "theta_relations": ("nilhecke", "theta_relations needs a nilhecke algebra block"),
}

#: integer parameter -> lower bound (None: any integer); checked wherever the
#: parameter appears in a job
INT_PARAMS = {"count": 1, "seed": None, "degree": 2, "degree_bound": 0, "k_max": 2}

#: expectation keys compared exactly with the job's value of the same name;
#: "slope_interval" is the one interval comparison
EXPECTATIONS = ("rank", "dimension", "zero", "value", "divisors", "dims", "sizes", "basis")


def _job_prefix(index, job):
    """How an error names a job: ``job N 'name' (op)``."""
    return f"job {index} {job.get('name', job.get('op'))!r} ({job.get('op')})"


def _validate_job(index, job, kind):
    """Check one job against JOBS, INT_PARAMS, the list parameters, the
    ``hecke_check`` mode, the shape of inline relations, TABLE_KINDS for the
    algebra ``kind`` and the expectation keys; raise ScenarioError naming the
    job and the parameter."""
    if not isinstance(job, dict):
        raise ScenarioError(f"job {index} must be a JSON object")
    op = job.get("op")
    where = _job_prefix(index, job)
    if op not in JOBS:
        raise ScenarioError(f"{where}: unknown operation")
    for param in JOBS[op][1]:
        if param not in job:
            raise ScenarioError(f"{where}: missing parameter {param!r}")
    for param, low in INT_PARAMS.items():
        if param not in job:
            continue
        value = job[param]
        if type(value) is not int or (low is not None and value < low):
            wanted = "an integer" if low is None else f"an integer >= {low}"
            raise ScenarioError(f"{where}: {param} must be {wanted}, got {value!r}")
    for param in ("frame", "elements", "generators"):
        value = job.get(param, [])
        if not isinstance(value, list):
            raise ScenarioError(f"{where}: {param} must be a list, got {value!r}")
        for entry in value:
            if param == "generators":
                if not (isinstance(entry, list) and all(type(x) is int for x in entry)):
                    raise ScenarioError(
                        f"{where}: generators entries must be lists of integers, got {entry!r}"
                    )
            elif not isinstance(entry, (str, dict)):
                # what evaluate_expression says of such a node, before any job runs
                raise DefinitionError(f"{where}: unrecognized expression node {entry!r}")
    if "vanishing_value" in job:
        try:
            QQ(str(job["vanishing_value"]))
        except (ValueError, ZeroDivisionError):
            raise ScenarioError(
                f"{where}: vanishing_value must be a rational, got {job['vanishing_value']!r}"
            ) from None
    if op == "hecke_check":
        mode = job.get("mode", "degenerate")
        if mode not in ("degenerate", "q"):
            raise ScenarioError(f"{where}: unknown mode {mode!r}")
        if mode == "q" and job.get("vanishing_value") is None:
            raise ScenarioError(
                f"{where}: q mode needs the vanishing level of the shifted divisor"
            )
    relations = job.get("relations", "gl")
    if relations != "gl" and not (
        isinstance(relations, list)
        and all(isinstance(r, dict) and "name" in r and "expr" in r for r in relations)
    ):
        raise ScenarioError(
            f"{where}: relations must be \"gl\" or a list of objects with name and expr"
        )
    if op in TABLE_KINDS and (op != "verify_relations" or relations == "gl"):
        needed, message = TABLE_KINDS[op]
        if kind != needed:
            raise ScenarioError(f"{where}: {message}")
    expect = job.get("expect", "pass")
    if expect == "pass":
        return
    if not isinstance(expect, dict):
        raise ScenarioError(f"{where}: bad expectation {expect!r}")
    for key in sorted(expect):
        if key not in ("slope_interval",) + EXPECTATIONS:
            raise ScenarioError(f"{where}: unknown expectation key {key!r}")
    if "slope_interval" in expect:
        try:
            _lo, _hi = (Fraction(str(x)) for x in expect["slope_interval"])
        except (TypeError, ValueError, ZeroDivisionError):
            raise ScenarioError(
                f"{where}: slope_interval must be two rationals, got {expect['slope_interval']!r}"
            ) from None


def _apply_expectation(report, values, expect):
    """Fold the job's expectation into its report as extra checks."""
    if expect == "pass":
        return
    for key, wanted in sorted(expect.items()):
        if key == "slope_interval":
            lo, hi = (Fraction(str(x)) for x in wanted)
            got = Fraction(values["slope"])
            ok = lo <= got <= hi
            report.add(
                f"expect slope in [{lo}, {hi}]", "pass" if ok else "fail",
                residual=None if ok else f"slope {got} = {float(got):.4f}",
            )
        else:
            got = values.get(key)
            ok = got == wanted
            report.add(f"expect {key} = {wanted!r}", "pass" if ok else "fail",
                       residual=None if ok else f"got {got!r}")


def run_scenario(scenario, cap_dim=DEFAULT_DIM_CAP, cap_group=DEFAULT_GROUP_CAP):
    """Execute a parsed scenario; returns the RunReport dict (no I/O).

    Every job is validated before the algebra is built or any job runs.
    """
    if not isinstance(scenario, dict):
        raise ScenarioError("scenario must be a JSON object")
    job_list = scenario.get("jobs", [])
    block = scenario.get("algebra")
    kind = block.get("kind") if isinstance(block, dict) else None
    for index, job in enumerate(job_list, start=1):
        _validate_job(index, job, kind)
    rt = _Runtime(scenario, cap_dim, cap_group)

    def run_one(index, job):
        t0 = time.perf_counter()
        try:
            report, values = JOBS[job["op"]][0](rt, job)
        except SkewmonError as exc:  # the same exception keeps a cap's partial result
            exc.args = (f"{_job_prefix(index, job)}: {exc}",)
            raise
        _apply_expectation(report, values, job.get("expect", "pass"))
        return {
            "name": job.get("name", job["op"]),
            "op": job["op"],
            "status": "pass" if report.passed else "fail",
            "checks": [c.to_json() for c in report.checks],
            "values": values,
            "timing_ms": round((time.perf_counter() - t0) * 1000.0, 3),
        }

    t_start = time.perf_counter()
    results = [run_one(index, job) for index, job in enumerate(job_list, start=1)]
    return {
        "engine": {"name": "skewmon", "version": __version__},
        "title": scenario.get("title", ""),
        "aggregate": "pass" if all(r["status"] == "pass" for r in results) else "fail",
        "jobs": results,
        "timing_ms": round((time.perf_counter() - t_start) * 1000.0, 3),
    }


def strip_timings(run_report):
    """A deep copy of a run report with every timing field removed."""
    def strip(obj):
        if isinstance(obj, dict):
            return {k: strip(v) for k, v in obj.items() if k != "timing_ms"}
        if isinstance(obj, list):
            return [strip(v) for v in obj]
        return obj

    return strip(run_report)


def builtin_suites():
    """Names of the scenario files shipped with the package."""
    root = resources.files(__package__) / "scenarios"
    return sorted(p.name[: -len(".json")] for p in root.iterdir() if p.name.endswith(".json"))


def load_scenario_text(path_or_name):
    """Read a scenario file from disk, falling back to the shipped suites."""
    try:
        with open(path_or_name, "rb") as fh:
            return fh.read()
    except OSError:
        candidate = resources.files(__package__) / "scenarios" / f"{path_or_name}.json"
        if candidate.is_file():
            return candidate.read_bytes()
        raise


def render_text(run_report):
    lines = [
        f"skewmon {run_report['engine']['version']}  "
        f"scenario {run_report.get('title') or run_report.get('scenario', '')}: "
        f"{run_report['aggregate'].upper()}"
    ]
    for job in run_report["jobs"]:
        lines.append(f"  job {job['name']} [{job['op']}]: {job['status'].upper()}")
        for check in job["checks"]:
            mark = "ok " if check["status"] == "pass" else "FAIL"
            extra = f"  <- {check['residual']}" if check.get("residual") else ""
            lines.append(f"    {mark} {check['name']}{extra}")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="skewmon",
        description="exact verification suites for skew monoid ring constructions",
    )
    parser.add_argument("--version", action="version", version=f"skewmon {__version__}")
    sub = parser.add_subparsers(dest="command")

    run_p = sub.add_parser("run", help="run a scenario file (or a shipped suite name)")
    run_p.add_argument("scenario")
    run_p.add_argument("--format", choices=("json", "text"), default="text")
    run_p.add_argument("--out", help="write the report to this path instead of stdout")
    run_p.add_argument("--cap-dim", type=int, default=DEFAULT_DIM_CAP,
                       help="span dimension cap; also caps monoid_growth ball sizes "
                            "and the center_candidates monomial count")
    run_p.add_argument("--cap-group", type=int, default=DEFAULT_GROUP_CAP,
                       help="group closure cap")
    run_p.add_argument("--no-timings", action="store_true",
                       help="omit timing fields (byte-reproducible output)")

    sub.add_parser("list-suites", help="list the shipped scenario suites")

    args = parser.parse_args(argv)
    if args.command == "list-suites":
        for name in builtin_suites():
            print(name)
        return 0
    if args.command != "run":
        parser.print_help()
        return 2

    try:
        raw = load_scenario_text(args.scenario)
    except OSError as exc:
        print(f"error: cannot read scenario: {exc}", file=sys.stderr)
        return 2
    try:
        scenario = json.loads(raw)
    except json.JSONDecodeError as exc:
        print(f"error: scenario is not valid JSON: {exc}", file=sys.stderr)
        return 2

    try:
        report = run_scenario(scenario, cap_dim=args.cap_dim, cap_group=args.cap_group)
    except ResourceCapError as exc:
        print(f"error: resource cap exceeded: {exc}", file=sys.stderr)
        return 3
    except SkewmonError as exc:
        print(f"error: invalid scenario: {exc}", file=sys.stderr)
        return 2

    report["scenario"] = args.scenario
    report["scenario_hash"] = hashlib.sha256(raw).hexdigest()
    if args.no_timings:
        report = strip_timings(report)
    payload = dump_json(report) if args.format == "json" else render_text(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)
    return 0 if report["aggregate"] == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
