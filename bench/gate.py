"""The correctness gate: exact expectations and byte-identical reports.

An operation is one job of one scenario in one pass.  It fails when its
status is not ``pass``, when its scenario raised, when a value or a check list
differs from the exact expectation in the job's ``bench`` block, or when its
report bytes differ from those of an earlier run on the same input.
"""

import hashlib
import json
import os


def strip_timings(obj):
    """A copy of a report with every ``timing_ms`` field removed."""
    if isinstance(obj, dict):
        return {k: strip_timings(v) for k, v in obj.items() if k != "timing_ms"}
    if isinstance(obj, list):
        return [strip_timings(v) for v in obj]
    return obj


def job_problems(job, result):
    """Reasons why one job's result misses the exact expectation in the job's
    ``bench`` block (empty if none)."""
    expected = job.get("bench", {})
    problems = []
    if (result.get("name"), result.get("op")) != (job["name"], job["op"]):
        problems.append(f"result of {result.get('name')!r} where {job['name']!r} was due")
    if result.get("status") != "pass":
        problems.append(f"status {result.get('status')!r}")
    failed = [c["name"] for c in result.get("checks", []) if c.get("status") != "pass"]
    if failed:
        problems.append(f"failed checks {failed}")
    values = result.get("values", {})
    for key, wanted in expected.get("values", {}).items():
        if values.get(key) != wanted:
            problems.append(f"{key} = {values.get(key)!r}, expected {wanted!r}")
    names = [c.get("name") for c in result.get("checks", [])]
    if "checks" in expected and names != expected["checks"]:
        problems.append(f"checks {names} differ from the expected list")
    if "count" in expected and len(names) != expected["count"]:
        problems.append(f"{len(names)} checks, expected {expected['count']}")
    return problems


def input_key(scenario):
    """Digest of the exact input, so equal inputs are compared across runs."""
    return hashlib.sha256(json.dumps(scenario, sort_keys=True).encode()).hexdigest()


class Gate:
    """Counts operations and failures over every pass of one run.

    ``store`` maps an input digest to the digest of the first canonical report
    seen for that input, in this run or an earlier one; ``load`` and ``save``
    keep it in a file inside the checkout, keyed by the source version.
    """

    def __init__(self, store=None):
        self.store = store if store is not None else {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, scenario, report, canonical, error=None):
        """Check one scenario's report (None if it raised) against ``scenario``.

        ``canonical`` is the report's timing-free ``dump_json`` text.
        """
        jobs = scenario["jobs"]
        self.attempted += len(jobs)
        if report is None:
            self._fail(scenario, None, f"raised {error!r}", count=len(jobs))
            return False
        results = report.get("jobs", [])
        if len(results) != len(jobs):
            self._fail(scenario, None, f"{len(results)} job results for {len(jobs)} jobs",
                       count=len(jobs))
            return False
        key = input_key(scenario)
        digest = hashlib.sha256(canonical.encode()).hexdigest()
        same_bytes = self.store.setdefault(key, digest) == digest
        ok = True
        for job, result in zip(jobs, results):
            problems = job_problems(job, result)
            if not same_bytes:
                problems.append("report bytes differ from an earlier run on the same input")
            if problems:
                self._fail(scenario, job, "; ".join(problems))
                ok = False
        return ok

    def _fail(self, scenario, job, reason, count=1):
        self.failed += count
        where = scenario.get("title", "?") + (f" / {job['name']}" if job else "")
        self.problems.append(f"{where}: {reason}")

    @staticmethod
    def load(path, version):
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            return {}
        return data.get(version, {}) if isinstance(data, dict) else {}

    def save(self, path, version):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump({version: self.store}, fh, sort_keys=True)
        os.replace(tmp, path)
