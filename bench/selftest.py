"""Self-test of the benchmark: its correctness gate and its traced counts.

    python3 bench/selftest.py

Runs ``run.main`` on a small workload built from jobs of the
real workloads (one series job, one theorem, one bijection certification
and one sampled map, so every layer is touched), with and without planted
defects.  Takes about 40 seconds.
"""

import contextlib
import io
import json
import unittest
from unittest import mock

import run
from chainex import bijections, qseries

MINI = {
    "cli": ["series strict --r 3 --j 2 --order 150",
            "verify thm-1.8 --n 30",
            "verify top-multiple --r 2..4 --n 16"],
    "samples": ("gamma",),
}
EXACT = ("partition.enumerated", "qseries.mul_calls", "qseries.mul_madds",
         "bijections.forward_calls", "verify.rows")


def bench(trace=0, seed=7, seconds=1):
    """Run the benchmark on the mini workload; returns (stdout lines, result)."""
    out = io.StringIO()
    with mock.patch.dict(run.WORKLOADS, {"selftest": MINI}), \
            contextlib.redirect_stdout(out):
        code = run.main(["--workload", "selftest", "--seed", str(seed),
                         "--seconds", str(seconds), "--trace", str(trace)])
    lines = out.getvalue().splitlines()
    assert code == 0
    return lines, json.loads(lines[-1])


def error_rate(result):
    return result["failed"] / result["attempted"]


def off_by_one(builder):
    def wrong(*args, **kwargs):
        series = builder(*args, **kwargs)
        series.coeffs[7] += 1
        return series
    return wrong


def wrong_index(inverse):
    def wrong(pair, r):
        lam, i = inverse(pair, r)
        return bijections.IndexedPartition(lam, i + 1)
    return wrong


class GateTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        cls.clean = bench()[1]

    def assert_failure_reported(self, lines, result):
        self.assertFalse(result["correct"])
        self.assertGreater(error_rate(result), error_rate(self.clean))
        declared = {m["name"] for m in run.load_json(f"{run.ROOT}/BENCHMARK.json")["end_to_end"]}
        self.assertEqual(set(result["metrics"]), declared)
        self.assertTrue(any(line.startswith("wall_s") for line in lines))

    def test_clean_run_passes(self):
        self.assertTrue(self.clean["correct"])
        self.assertEqual(self.clean["failed"], 0)

    def test_wrong_series_coefficient_fails(self):
        patched = off_by_one(qseries.series_strict_count)
        with mock.patch.object(qseries, "series_strict_count", patched):
            self.assert_failure_reported(*bench())

    def test_wrong_inverse_index_fails(self):
        patched = wrong_index(bijections.mex_pairing_inv)
        with mock.patch.object(bijections, "mex_pairing_inv", patched):
            self.assert_failure_reported(*bench())


class TraceTest(unittest.TestCase):

    def test_counts_repeat_and_times_add_up(self):
        # several untraced/traced pairs, so that trace.overhead_s is a median
        # and not one pair's difference, which the host's drifting speed
        # can turn negative
        first, second = bench(trace=1, seconds=8)[1], bench(trace=1, seconds=8)[1]
        for result in (first, second):
            self.assertTrue(result["correct"])
        for name in EXACT:
            self.assertGreater(first["metrics"][name]["value"], 0, name)
            self.assertEqual(first["metrics"][name]["value"],
                             second["metrics"][name]["value"], name)
        for result in (first, second):
            m = {k: v["value"] for k, v in result["metrics"].items()}
            # the layers' self times cover the traced wall time up to the
            # runner's own loop, which must be smaller than the tracing cost
            self.assertLessEqual(m["trace.unattributed_s"], m["trace.overhead_s"])


if __name__ == "__main__":
    unittest.main()
