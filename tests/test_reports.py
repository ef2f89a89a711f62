"""Check records and reports: construction, per-report check lists, JSON."""

from skewmon.reports import CheckResult, Report


def test_reports_do_not_share_their_checks():
    first, second = Report("first"), Report("second")
    first.add("a", "pass")
    assert [c.name for c in first.checks] == ["a"]
    assert second.checks == []
    assert first.checks is not second.checks


def test_keyword_construction():
    check = CheckResult(name="c", status="fail", residual="x1", timing_ms=1.23456)
    assert check.to_json() == {"name": "c", "status": "fail", "residual": "x1", "timing_ms": 1.235}
    assert not check.ok
    bare = CheckResult(name="d", status="pass")
    assert bare.to_json() == {"name": "d", "status": "pass"} and bare.ok
    report = Report(title="t", checks=[check, bare])
    assert report.title == "t" and report.failures() == [check] and not report.passed
    assert Report(title="empty").passed
