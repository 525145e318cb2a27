"""The benchmark recorder's summaries (``tools/bench_record.py``), on
result lines written by hand: no benchmark or test run is started."""

import importlib.util
import os
from types import SimpleNamespace
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


def test_layers_on_a_stub_timer():
    # each stub call takes 1 ms per unit of n on a host at half the
    # reference speed, so every figure is quoted at half its measured time
    now = [0.0]
    calls = []

    def tallies(n_max, r_max, cells):
        calls.append((n_max, r_max, cells))
        now[0] += 0.001 * n_max
        return [SimpleNamespace(count=1000 * n + 1) for n in range(n_max + 1)]

    ref = 2 * 0.02
    out = bench_record.layers(lambda: ref, 0.02, tallies, clock=lambda: now[0])
    calls_each = bench_record.LAYER_CALLS
    assert out["calls"] == calls_each
    assert calls == [args for args in [(n, 1, ()) for n in bench_record.TALLY_RATES]
                     + list(bench_record.TALLY_SHAPES.values()) for _ in range(calls_each)]
    metrics = out["metrics"]
    assert list(metrics) == ([f"tallies.heads_per_s.{n},1" for n in bench_record.TALLY_RATES]
                             + [f"tallies.ms.{name}" for name in bench_record.TALLY_SHAPES])
    assert metrics["tallies.heads_per_s.40,1"] == {
        "value": 2_000_000, "unit": "1/s", "heads": 40_000, "measured": 1_000_000}
    assert metrics["tallies.ms.25,4+thm-1.5"] == {"value": 12.5, "unit": "ms", "measured": 25.0}
    # thm-1.5 at its defaults reads three families at r = 2..5 from r_max 4
    assert bench_record.TALLY_SHAPES["25,4+thm-1.5"] == (25, 4, tuple(
        (family, r) for r in range(2, 6)
        for family in ("multiples", "largest-repeating", "above-mex")))
