"""The benchmark recorder's summaries (``tools/bench_record.py``), on
result lines written by hand: no benchmark or test run is started."""

import importlib.util
import os
from unittest import mock

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "bench_record", os.path.join(ROOT, "tools", "bench_record.py"))
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def result(wall, checks, failed=0):
    return {"correct": failed == 0, "attempted": 10, "failed": failed,
            "metrics": {"wall_s": {"value": wall, "unit": "s"},
                        "checks": {"value": checks, "unit": "count"}}}


def test_summary_gives_median_and_iqr_per_workload_and_metric():
    runs = [{"workload": "a", "result": result(w, 7)} for w in (0.5, 0.1, 0.3, 0.2, 0.4)]
    runs.append({"workload": "b", "result": result(2.0, 3, failed=1)})
    summary = bench_record.summarize(runs)
    assert set(summary) == {"a", "b"}
    wall = summary["a"]["metrics"]["wall_s"]
    assert (wall["median"], wall["q1"], wall["q3"], wall["unit"]) == (0.3, 0.2, 0.4, "s")
    assert wall["iqr"] == pytest.approx(0.2)
    assert summary["a"]["metrics"]["checks"] == {"median": 7, "q1": 7, "q3": 7, "iqr": 0,
                                                 "unit": "count"}
    assert (summary["a"]["runs"], summary["a"]["attempted"], summary["a"]["failed"],
            summary["a"]["correct"]) == (5, 50, 0, True)
    # one run: its value is the median and both quartiles; a failed job shows
    one = summary["b"]
    assert one["metrics"]["wall_s"]["median"] == one["metrics"]["wall_s"]["q1"] == 2.0
    assert (one["failed"], one["correct"]) == (1, False)


def test_pytest_output_is_parsed(tmp_path):
    report = tmp_path / "acceptance.xml"
    report.write_text(
        '<?xml version="1.0" encoding="utf-8"?><testsuites><testsuite name="pytest" '
        'errors="0" failures="1" skipped="0" tests="2" time="5.610">'
        '<testcase classname="tests.test_acceptance" name="test_criterion_1_sigma_mex" '
        'time="2.840" />'
        '<testcase classname="tests.test_acceptance" name="test_criterion_2_chain_mex" '
        'time="0.013"><failure message="assert False">...</failure></testcase>'
        '</testsuite></testsuites>')
    assert bench_record.parse_junit(str(report)) == {
        "test_criterion_1_sigma_mex": 2.84, "test_criterion_2_chain_mex": 0.013}
    text = "....\n9 passed, 1 failed in 5.61s\n"
    assert bench_record.parse_outcome(text) == {"passed": 9, "failed": 1}
    assert bench_record.parse_outcome("") == {}


def test_tier1_is_quoted_as_measured():
    # no reference is timed around the run, and nothing scales its seconds
    run = ("..\n9 passed in 5.61s\n", 5.678)
    with mock.patch.object(bench_record, "pytest_run", return_value=run):
        assert bench_record.tier1() == {"outcome": {"passed": 9}, "measured_s": 5.68}
