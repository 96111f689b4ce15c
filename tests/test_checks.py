"""Theory-check suite: every bundled check passes on the default models."""

import pytest

import mixident.pushforward as pushforward
from mixident.checks import (
    CHECK_IDS,
    CheckReport,
    CheckRow,
    TOLERANCES,
    reports_csv_lines,
    run_checks,
)


@pytest.fixture(scope="module")
def all_reports():
    return run_checks("all")


def test_all_checks_pass(all_reports):
    assert [r.check_id for r in all_reports] == list(CHECK_IDS)
    for rep in all_reports:
        failed = [row.quantity for row in rep.rows if not row.ok]
        assert rep.passed, f"{rep.check_id} failed rows: {failed}"


def test_suite_computes_each_pure_field_once(monkeypatch):
    # distinct (matrix, assignment) rows on the default grid, each check
    # from an empty row cache: thm31 reads four of one matrix, lem33 three
    # of twelve, lem35 four of three (pair and column swap), cor34 four of two
    calls = []
    original = pushforward.pure_cdf_batch

    def counting(m, comps, points):
        calls.append(comps)
        return original(m, comps, points)

    monkeypatch.setattr(pushforward, "pure_cdf_batch", counting)
    per_check = {}
    for cid in CHECK_IDS:
        pushforward._ROW_CACHE.clear()
        before = len(calls)
        run_checks(cid)
        per_check[cid] = len(calls) - before
    assert per_check == {"thm31": 4, "lem33": 36, "lem35": 12, "cor34": 8, "lem32": 0}
    # in one suite run, lem33 reads the three worked-A rows thm31 left in
    # the cache and cor34 reads all eight of its rows from lem35's
    pushforward._ROW_CACHE.clear()
    calls.clear()
    run_checks("all")
    assert len(calls) == 60 - 3 - 8


def test_single_check_selection():
    reports = run_checks("lem32")
    assert len(reports) == 1
    assert reports[0].check_id == "lem32"
    assert reports[0].passed


def test_unknown_check_rejected():
    with pytest.raises(ValueError):
        run_checks("thm99")


def test_pass_flag_follows_rows():
    good = CheckRow("q", 1.0, "<=", 2.0, True)
    bad = CheckRow("q", 3.0, "<=", 2.0, False)
    assert CheckReport("demo", (good,)).passed
    assert not CheckReport("demo", (good, bad)).passed


def test_tolerance_table_covers_all_checks():
    prefixes = {key.split(".")[0] for key in TOLERANCES}
    assert prefixes == set(CHECK_IDS)


def test_report_csv_format(all_reports):
    lines = reports_csv_lines(all_reports, {"command": "verify"})
    assert lines[0] == "# command: verify"
    assert lines[1] == "check,quantity,value,comparator,threshold,ok"
    body = lines[2:]
    assert len(body) == sum(len(r.rows) for r in all_reports)
    for line in body:
        check, quantity, value, comparator, threshold, ok = line.split(",")
        assert check in CHECK_IDS
        float(value)
        assert comparator in ("<=", ">=", "in")
        assert ok == "1"
        if comparator == "in":
            assert threshold.startswith("[") and ";" in threshold
        else:
            float(threshold)
