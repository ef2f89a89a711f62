"""Structured verification outcomes with deterministic JSON serialization."""

import json
import time


class CheckResult:
    """One verification check: pass/fail, the canonical text of a nonzero
    residual on failure, and the time it took if it was timed."""

    __slots__ = ("name", "status", "residual", "timing_ms")

    def __init__(self, name, status, residual=None, timing_ms=None):
        self.name = name
        self.status = status  # "pass" | "fail" | "error"
        self.residual = residual
        self.timing_ms = timing_ms

    @property
    def ok(self):
        return self.status == "pass"

    def to_json(self):
        out = {"name": self.name, "status": self.status}
        if self.residual is not None:
            out["residual"] = self.residual
        if self.timing_ms is not None:
            out["timing_ms"] = round(self.timing_ms, 3)
        return out


class Report:
    """A list of checks with an aggregate verdict."""

    __slots__ = ("title", "checks")

    def __init__(self, title, checks=None):
        self.title = title
        self.checks = [] if checks is None else checks

    @property
    def passed(self):
        return all(c.ok for c in self.checks)

    def add(self, name, status, residual=None, timing_ms=None):
        self.checks.append(CheckResult(name, status, residual, timing_ms))

    def check(self, name, compute):
        """Time compute() and record pass if it returns None, otherwise fail
        with the returned text as the residual."""
        t0 = time.perf_counter()
        residual = compute()
        dt = (time.perf_counter() - t0) * 1000.0
        self.add(name, "pass" if residual is None else "fail", residual, dt)

    def check_zero(self, name, compute):
        """Timed check that compute() returns zero; the residual is the
        result's canonical text otherwise."""

        def residual():
            value = compute()
            return None if value.is_zero() else value.to_text()

        self.check(name, residual)

    def failures(self):
        return [c for c in self.checks if not c.ok]


def dump_json(obj):
    """Deterministic serialization: sorted keys, fixed separators."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
