import contextlib
import io
import json
import os
import resource
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chainex
from chainex import cli
from chainex import qseries as qs
from chainex import verify as vf
from chainex.cli import ALIASES, SERIES_BUILDERS, run

# the planted bijection faults live in test_faults.py; imported here too, so
# that they are also collected under this module's test ids
from test_faults import TestFaultyMap, call  # noqa: F401


class TestStats:
    def test_text(self, capsys):
        code, out, _ = call(capsys, "stats", "[5,3,2,2,1]", "--r", "2")
        assert code == 0
        assert "mex=6" in out
        assert "class=P0" in out

    def test_json(self, capsys):
        code, out, _ = call(capsys, "stats", "[7]", "--r", "2", "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert record["schema"] == 1
        assert record["maex"] == 6
        assert record["class"] == "P+"
        assert record["Omega"] == 2

    def test_empty_partition(self, capsys):
        code, out, _ = call(capsys, "stats", "[]", "--r", "3")
        assert code == 0
        assert "mex=1" in out
        assert "maex=0" in out

    def test_unsorted_literal_needs_flag(self, capsys):
        code, _, err = call(capsys, "stats", "[1,3]", "--r", "2")
        assert code == 2
        assert "error:" in err
        code, out, _ = call(capsys, "stats", "[1,3]", "--r", "2", "--sort")
        assert code == 0


class TestEnumerate:
    def test_count_line(self, capsys):
        code, out, _ = call(capsys, "enumerate", "--n", "5")
        assert code == 0
        assert out.strip().splitlines()[-1] == "count=7"

    def test_filters(self, capsys):
        code, out, _ = call(capsys, "enumerate", "--n", "6", "--strict", "2",
                            "--format", "json")
        assert code == 0
        blob = json.loads(out)
        assert blob["count"] == 4
        assert "[3,2,1]" in blob["partitions"]

    def test_regular_lists_the_odd_part_partitions(self, capsys):
        code, out, _ = call(capsys, "enumerate", "--n", "10", "--regular", "2",
                            "--format", "json")
        assert code == 0
        # by Euler as many as the 2-strict partitions, so only the list
        # tells the two filters apart
        assert out == json.dumps({"schema": 1, "n": 10, "count": 10, "partitions": [
            "[9,1]", "[7,3]", "[7,1,1,1]", "[5,5]", "[5,3,1,1]", "[5,1,1,1,1,1]",
            "[3,3,3,1]", "[3,3,1,1,1,1]", "[3,1,1,1,1,1,1,1]", "[1,1,1,1,1,1,1,1,1,1]"]},
            indent=2) + "\n"

    @pytest.mark.parametrize("argv,message", [
        (("--regular", "0"), "--regular must be >= 1, got 0"),
        (("--strict", "0"), "--strict must be >= 1, got 0"),
        (("--strict", "-1"), "--strict must be >= 1, got -1"),
        (("--gap-class", "bounded", "--r", "0"), "--r must be >= 1, got 0"),
    ])
    def test_filter_below_one_exits_2(self, capsys, argv, message):
        code, out, err = call(capsys, "enumerate", "--n", "5", *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_r_without_gap_class_exits_2(self, capsys):
        code, out, err = call(capsys, "enumerate", "--n", "5", "--r", "-3")
        assert code == 2
        assert out == ""
        assert err == "error: enumerate reads --r only with --gap-class\n"

    def test_gap_class_requires_r(self, capsys):
        code, _, err = call(capsys, "enumerate", "--n", "4", "--gap-class", "bounded")
        assert code == 2
        code, out, _ = call(capsys, "enumerate", "--n", "4", "--gap-class",
                            "bounded", "--r", "1", "--format", "json")
        assert code == 0
        assert json.loads(out)["partitions"] == ["[2,1,1]", "[1,1,1,1]"]


class TestSeries:
    def test_named_builder(self, capsys):
        code, out, _ = call(capsys, "series", "sigma-mex", "--order", "5",
                            "--format", "csv")
        assert code == 0
        assert out.strip().splitlines()[:3] == ["n,coeff", "0,1", "1,2"]

    def test_j_parts_worked_example(self, capsys):
        code, out, _ = call(capsys, "series", "j-parts", "--r", "3", "--j", "1",
                            "--order", "7", "--format", "json")
        assert code == 0
        blob = json.loads(out)
        assert blob["coeffs"][7] == "5"

    def test_missing_required_flags(self, capsys):
        code, _, err = call(capsys, "series", "chain-mex")
        assert code == 2
        assert "requires --r" in err
        code, _, err = call(capsys, "series", "j-parts", "--r", "2")
        assert code == 2
        assert "requires --j" in err

    def test_bad_order_and_r_exit_2(self, capsys):
        for argv in (("sigma-mex", "--order", "-3"),
                     ("chain-mex", "--r", "0"),
                     ("strict", "--r", "0"),
                     ("top-mult", "--r", "1")):
            code, out, err = call(capsys, "series", *argv)
            assert code == 2, argv
            assert out == ""
            assert "error:" in err

    def test_unknown_name(self, capsys):
        code, _, err = call(capsys, "series", "zeta")
        assert code == 2
        assert "unknown series" in err

    def test_order_default_is_read_per_run(self, capsys):
        code, out, _ = call(capsys, "series", "partitions", "--format", "csv")
        assert (code, out.splitlines()[-1]) == (0, "60,966467")
        with mock.patch("chainex.qseries.DEFAULT_ORDER", 5):
            assert call(capsys, "series", "partitions") == (
                0, str(qs.series_partition_count(5)) + "\n", "")


class TestBijection:
    def test_glaisher(self, capsys):
        code, out, _ = call(capsys, "bijection", "glaisher",
                            "--lambda", "[2,2,2,1]", "--r", "3")
        assert code == 0
        assert json.loads(out)["output"] == "[6,1]"

    def test_gamma_trace(self, capsys):
        code, out, _ = call(capsys, "bijection", "gamma", "--lambda", "[5,3,1]",
                            "--i", "2", "--r", "2", "--trace")
        assert code == 0
        blob = json.loads(out)
        assert blob["case"] == "case1"
        assert blob["output"] == {"alpha": "[3,1,1]", "beta": "[2,2]"}
        assert blob["intermediate"]["conjugate"] == "[3,2,2,1,1]"

    def test_gamma_without_trace_is_compact(self, capsys):
        code, out, _ = call(capsys, "bijection", "gamma", "--lambda", "[5,3,1]",
                            "--i", "2", "--r", "2")
        assert code == 0
        assert set(json.loads(out)) == {"input", "output"}

    def test_gamma_star_colored_output(self, capsys):
        code, out, _ = call(capsys, "bijection", "gamma-star",
                            "--lambda", "[2,1]", "--i", "4", "--r", "3")
        assert code == 0
        assert json.loads(out)["output"]["beta"] == {"empty_color": 2}

    def test_gamma_star_trace_of_a_cut(self, capsys):
        code, out, _ = call(capsys, "bijection", "gamma-star", "--lambda", "[4,3]",
                            "--i", "1", "--r", "2", "--trace")
        assert code == 0
        assert json.dumps(json.loads(out)) == (
            '{"input": {"lambda": "[4,3]", "i": 1, "r": 2}, "case": "case3.2", '
            '"intermediate": {"conjugate": "[2,2,2,1]", "cut_index": 1, '
            '"moves": [{"value": 1, "copies": 1}], "extra_move": {"value": 2, "copies": 2}}, '
            '"output": {"alpha": "[2,2,1]", "beta": "[2]"}}')

    def test_gamma_star_trace_of_a_colored_empty(self, capsys):
        code, out, _ = call(capsys, "bijection", "gamma-star", "--lambda", "[2,1]",
                            "--i", "4", "--r", "3", "--trace")
        assert code == 0
        assert json.dumps(json.loads(out)) == (
            '{"input": {"lambda": "[2,1]", "i": 4, "r": 3}, "case": "colored", '
            '"intermediate": {"conjugate": "[2,1]"}, '
            '"output": {"alpha": "[2,1]", "beta": {"empty_color": 2}}}')

    def test_delta(self, capsys):
        code, out, _ = call(capsys, "bijection", "delta", "--lambda", "[6,1]",
                            "--i", "1", "--r", "2")
        assert code == 0
        assert "output" in json.loads(out)

    def test_domain_violation_exits_2(self, capsys):
        code, _, err = call(capsys, "bijection", "glaisher",
                            "--lambda", "[3,1]", "--r", "3")
        assert code == 2
        assert "error:" in err
        code, _, err = call(capsys, "bijection", "gamma", "--lambda", "[1]",
                            "--i", "99", "--r", "2")
        assert code == 2

    @pytest.mark.parametrize("option", [("--i", "7"), ("--trace",)])
    def test_partition_map_rejects_an_unread_option(self, capsys, option):
        code, out, err = call(capsys, "bijection", "glaisher", "--lambda", "[3,1,1]",
                              "--r", "2", *option)
        assert (code, out) == (2, "")
        assert err == f"error: bijection glaisher does not take {option[0]}\n"

    def test_missing_i(self, capsys):
        code, _, err = call(capsys, "bijection", "gamma", "--lambda", "[1]",
                            "--r", "2")
        assert code == 2
        assert "requires --i" in err

    # every bijection name that predates the -inv and alias names, with the
    # JSON it prints untraced and traced, byte for byte; a traced partition
    # map exits 2
    PINNED = [
        ("glaisher --lambda [2,2,2,1] --r 3",
         '{"input": {"lambda": "[2,2,2,1]", "r": 3}, "output": "[6,1]"}', None),
        ("glaisher-inv --lambda [6,1] --r 3",
         '{"input": {"lambda": "[6,1]", "r": 3}, "output": "[2,2,2,1]"}', None),
        ("multiples-to-repeats --lambda [6,3,3,1] --r 3",
         '{"input": {"lambda": "[6,3,3,1]", "r": 3}, "output": "[3,3,3,1,1,1,1]"}', None),
        ("repeats-to-multiples --lambda [3,3,3,3,1,1,1] --r 3",
         '{"input": {"lambda": "[3,3,3,3,1,1,1]", "r": 3}, "output": "[6,3,3,1,1,1]"}', None),
        ("top-multiple --lambda [6,3,1] --r 3",
         '{"input": {"lambda": "[6,3,1]", "r": 3}, "output": "[2,2,2,1,1,1,1]"}', None),
        ("top-multiple-inv --lambda [2,2,2,1] --r 3",
         '{"input": {"lambda": "[2,2,2,1]", "r": 3}, "output": "[3,3,1]"}', None),
        ("gamma --lambda [5,3,1] --i 2 --r 2",
         '{"input": {"lambda": "[5,3,1]", "i": 2, "r": 2}, '
         '"output": {"alpha": "[3,1,1]", "beta": "[2,2]"}}',
         '{"input": {"lambda": "[5,3,1]", "i": 2, "r": 2}, "case": "case1", '
         '"intermediate": {"conjugate": "[3,2,2,1,1]", "cut_index": 2, '
         '"moves": [{"value": 1, "copies": 2}]}, '
         '"output": {"alpha": "[3,1,1]", "beta": "[2,2]"}}'),
        ("gamma-star --lambda [4,3] --i 1 --r 2",
         '{"input": {"lambda": "[4,3]", "i": 1, "r": 2}, "case": "case3.2", '
         '"output": {"alpha": "[2,2,1]", "beta": "[2]"}}',
         '{"input": {"lambda": "[4,3]", "i": 1, "r": 2}, "case": "case3.2", '
         '"intermediate": {"conjugate": "[2,2,2,1]", "cut_index": 1, '
         '"moves": [{"value": 1, "copies": 1}], "extra_move": {"value": 2, "copies": 2}}, '
         '"output": {"alpha": "[2,2,1]", "beta": "[2]"}}'),
        ("gamma-star --lambda [2,1] --i 4 --r 3",
         '{"input": {"lambda": "[2,1]", "i": 4, "r": 3}, "case": "colored", '
         '"output": {"alpha": "[2,1]", "beta": {"empty_color": 2}}}',
         '{"input": {"lambda": "[2,1]", "i": 4, "r": 3}, "case": "colored", '
         '"intermediate": {"conjugate": "[2,1]"}, '
         '"output": {"alpha": "[2,1]", "beta": {"empty_color": 2}}}'),
        ("delta --lambda [6,1] --i 1 --r 2",
         '{"input": {"lambda": "[6,1]", "i": 1, "r": 2}, '
         '"output": {"alpha": "[2]", "beta": "[1,1,1,1,1]"}}',
         '{"input": {"lambda": "[6,1]", "i": 1, "r": 2}, "case": "cut", '
         '"intermediate": {"conjugate": "[2,1,1,1,1,1]", "cut_index": 7, '
         '"moves": [{"value": 2, "copies": 1}]}, '
         '"output": {"alpha": "[2]", "beta": "[1,1,1,1,1]"}}'),
    ]

    @pytest.mark.parametrize("args, untraced, traced", PINNED,
                             ids=[case[0].split()[0] + "@" + case[0].split()[2]
                                  for case in PINNED])
    def test_old_names_print_the_same_bytes(self, capsys, args, untraced, traced):
        for extra, expected in (([], untraced), (["--trace"], traced)):
            code, out, _ = call(capsys, "bijection", *args.split(), *extra)
            if expected is None:
                assert (code, out) == (2, "")
            else:
                assert (code, out) == (0, json.dumps(json.loads(expected), indent=2) + "\n")

    def test_old_names_are_aliases_of_registry_names(self, capsys):
        for old, new in ALIASES.items():
            argv = ["--lambda", "[6,3,3,1]", "--r", "3"]
            assert call(capsys, "bijection", old, *argv) == call(capsys, "bijection", new, *argv)

    @pytest.mark.parametrize("name", ["gamma-inv", "gamma-star-inv", "delta-inv",
                                      "glaisher-inv-inv", "identity"])
    def test_unknown_names_exit_2(self, capsys, name):
        code, out, err = call(capsys, "bijection", name, "--lambda", "[2,1]",
                              "--i", "1", "--r", "2")
        assert (code, out, err) == (2, "", f"error: unknown bijection {name!r}\n")


class TestVerify:
    def test_theorem_pass(self, capsys):
        code, out, _ = call(capsys, "verify", "thm-1.4", "--n", "10")
        assert code == 0
        assert "PASS" in out

    def test_theorem_with_ranges_json(self, capsys):
        code, out, _ = call(capsys, "verify", "thm-1.6", "--r", "1..2",
                            "--n", "8", "--format", "json")
        assert code == 0
        blob = json.loads(out)
        assert blob["passed"] is True
        assert {row["r"] for row in blob["rows"]} == {1, 2}

    def test_family_theorem_with_j(self, capsys):
        code, out, _ = call(capsys, "verify", "thm-1.10", "--r", "3", "--j", "1",
                            "--n", "7")
        assert code == 0
        assert "PASS" in out

    def test_bijection_verify(self, capsys):
        code, out, _ = call(capsys, "verify", "gamma", "--r", "2", "--n", "6")
        assert code == 0
        assert "PASS" in out

    def test_vacuous_report_fails(self, capsys):
        # every row compares 0 with 0: no partition of n <= 5 has 40 parts
        code, out, _ = call(capsys, "verify", "thm-1.5", "--r", "2", "--j", "40", "--n", "5")
        assert code == 1
        assert out == "thm-1.5: FAIL (12 checks)\n  no row compares a nonzero value\n"

    def test_j_below_the_least_exits_2(self, capsys):
        for theorem, j, least in (("thm-1.5", "-1", 0), ("thm-1.10", "0", 1)):
            code, out, err = call(capsys, "verify", theorem, "--r", "2", "--j", j, "--n", "5")
            assert (code, out) == (2, "")
            assert err == f"error: j must be >= {least}, got {j}\n"

    def test_bijection_requires_r(self, capsys):
        code, _, err = call(capsys, "verify", "gamma", "--n", "6")
        assert code == 2
        assert "requires --r" in err

    def test_unknown_id(self, capsys):
        code, _, err = call(capsys, "verify", "thm-42")
        assert code == 2
        assert "unknown verification id" in err

    def test_empty_r_range_exits_2(self, capsys):
        code, out, err = call(capsys, "verify", "thm-1.6", "--r", "3..1", "--n", "5")
        assert code == 2
        assert out == ""
        assert "empty range '3..1'" in err

    def test_negative_n_exits_2(self, capsys):
        code, out, err = call(capsys, "verify", "thm-1.4", "--n", "-1")
        assert code == 2
        assert "PASS" not in out
        assert "n must be >= 0" in err

    def test_order_below_n_names_both(self, capsys):
        code, _, err = call(capsys, "verify", "thm-1.7", "--n", "11", "--order", "10")
        assert code == 2
        assert "order 10 is below n 11" in err

    def test_r_below_family_minimum_exits_2(self, capsys):
        for theorem in ("thm-1.5", "thm-1.10"):
            code, _, err = call(capsys, "verify", theorem, "--r", "1", "--n", "5")
            assert code == 2
            assert "r must be >= 2, got 1" in err
        code, _, err = call(capsys, "verify", "thm-1.6", "--r", "0..2", "--n", "5")
        assert code == 2
        assert "r must be >= 1, got 0" in err
        # a partition map's whole r range is checked before any partition is listed
        with mock.patch("chainex.verify.partitions", side_effect=AssertionError("listed")):
            for argv in (("glaisher", "--r", "1", "--n", "60"),
                         *((vid, "--r", "1..3", "--n", "40")
                           for vid in ("glaisher", "multiples-repeats", "top-multiple"))):
                code, out, err = call(capsys, "verify", *argv)
                assert (code, out, err) == (2, "", "error: r must be >= 2, got 1\n")

    def test_bijection_bad_range_exits_2(self, capsys):
        assert call(capsys, "verify", "gamma", "--r", "2..1", "--n", "4")[0] == 2
        assert call(capsys, "verify", "gamma", "--r", "2", "--n", "-1")[0] == 2

    @pytest.mark.parametrize("option", ["r", "j"])
    @pytest.mark.parametrize("text", ["1..", "x", "1..3..5"])
    def test_malformed_range_names_the_option_and_the_text(self, capsys, option, text):
        code, out, err = call(capsys, "verify", "thm-1.5", f"--{option}", text, "--n", "5")
        assert (code, out) == (2, "")
        assert err == (f"error: --{option} must be an integer or a range LO..HI, "
                       f"got {text!r}\n")

    def test_csv_and_text_reports_hold_their_pinned_texts(self, capsys):
        argv = ("verify", "thm-1.6", "--r", "1..2", "--n", "3", "--format")
        assert call(capsys, *argv, "csv") == (0, (
            "theorem,r,j,n,lhs,rhs,match\n"
            "thm-1.6,1,,0,1,1,True\n"
            "thm-1.6,1,,1,2,2,True\n"
            "thm-1.6,1,,2,3,3,True\n"
            "thm-1.6,1,,3,6,6,True\n"
            "thm-1.6,2,,0,2,2,True\n"
            "thm-1.6,2,,1,3,3,True\n"
            "thm-1.6,2,,2,7,7,True\n"
            "thm-1.6,2,,3,9,9,True\n"), "")
        assert call(capsys, *argv, "text") == (0, "thm-1.6: PASS (8 checks)\n", "")

    @pytest.mark.parametrize("argv, head", [
        # 4 r x 6 j x 33 n, two families against the first
        (("thm-1.5", "--n", "32"), "thm-1.5: PASS (1584 checks)"),
        # 4 r x 5 j x 33 n, two families and the series against the first
        (("thm-1.10", "--n", "32"), "thm-1.10: PASS (1980 checks)"),
        # 6 statistic rows, and the sum against the product to order 400
        (("thm-1.11", "--r", "3", "--n", "5", "--order", "400"),
         "thm-1.11: PASS (407 checks)"),
    ], ids=["thm-1.5", "thm-1.10", "thm-1.11"])
    def test_ranges_past_the_defaults(self, capsys, argv, head):
        assert call(capsys, "verify", *argv) == (0, head + "\n", "")

    @pytest.mark.parametrize("vid, entry", [("thm-1.6", "check_theorem"),
                                            ("gamma", "certify_bijection")])
    def test_each_caller_reaches_the_entry_point_once(self, capsys, vid, entry):
        # the benchmark's tracer counts report rows by wrapping these two
        # module attributes, so a report made past them would go uncounted
        callers = {"run_check": lambda: vf.run_check(vid, range(1, 3), 3),
                   "cli.run": lambda: call(capsys, "verify", vid, "--r", "1..2", "--n", "3")}
        for caller, make_report in callers.items():
            with mock.patch.object(vf, "check_theorem", wraps=vf.check_theorem) as theorem, \
                    mock.patch.object(vf, "certify_bijection",
                                      wraps=vf.certify_bijection) as bijection:
                make_report()
            calls = {"check_theorem": theorem.call_count,
                     "certify_bijection": bijection.call_count}
            assert calls == {name: int(name == entry) for name in calls}, caller

    def test_csv_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.csv"
        code, out, _ = call(capsys, "verify", "thm-1.8", "--n", "6",
                            "--format", "csv", "--out", str(target))
        assert code == 0
        assert out == ""
        lines = target.read_text().strip().splitlines()
        assert lines[0] == "theorem,r,j,n,lhs,rhs,match"
        assert len(lines) == 8


class TestOutFile:
    @pytest.mark.parametrize("argv", [
        ("stats", "[1]", "--r", "1"),
        ("enumerate", "--n", "3"),
        ("series", "partitions", "--order", "3"),
        ("bijection", "glaisher", "--lambda", "[1]", "--r", "2"),
        ("verify", "thm-1.4", "--n", "3"),
    ])
    def test_unwritable_out_exits_2(self, capsys, tmp_path, argv):
        target = tmp_path / "missing" / "x"
        code, out, err = call(capsys, *argv, "--out", str(target))
        assert code == 2
        assert out == ""
        assert err == f"error: cannot write --out {str(target)!r}: No such file or directory\n"

    @pytest.mark.parametrize("argv", [
        ("stats", "[3,1,1]", "--r", "2", "--format", "text"),
        ("stats", "[3,1,1]", "--r", "2", "--format", "json"),
        ("enumerate", "--n", "4", "--format", "text"),
        ("enumerate", "--n", "4", "--format", "json"),
        ("series", "chain-mex", "--r", "2", "--order", "6", "--format", "text"),
        ("series", "chain-mex", "--r", "2", "--order", "6", "--format", "json"),
        ("series", "chain-mex", "--r", "2", "--order", "6", "--format", "csv"),
        ("bijection", "gamma", "--lambda", "[4,3]", "--i", "1", "--r", "2", "--trace",
         "--format", "json"),
        ("verify", "thm-1.8", "--n", "3", "--format", "text"),
        ("verify", "thm-1.8", "--n", "3", "--format", "json"),
        ("verify", "thm-1.8", "--n", "3", "--format", "csv"),
    ])
    def test_stdout_and_out_file_hold_the_same_bytes(self, capsys, tmp_path, argv):
        target = tmp_path / "out"
        # a fixed clock, so the JSON report's wall_time is the same twice
        with mock.patch.object(vf, "time", mock.Mock(monotonic=lambda: 0.0)):
            code, out, _ = call(capsys, *argv)
            assert call(capsys, *argv, "--out", str(target)) == (code, "", "")
        assert code == 0
        assert out.encode() == target.read_bytes()
        assert out.endswith("\n") and not out.endswith("\n\n") and "\r" not in out


class TestParser:
    def test_missing_subcommand(self, capsys):
        assert call(capsys, )[0] == 2

    @pytest.mark.parametrize("argv, fmt", [
        (("bijection", "glaisher", "--lambda", "[1]", "--r", "2"), "text"),
        (("bijection", "glaisher", "--lambda", "[1]", "--r", "2"), "csv"),
        (("stats", "[1]", "--r", "1"), "csv"),
        (("enumerate", "--n", "3"), "csv"),
    ])
    def test_unwritten_format_exits_2(self, capsys, argv, fmt):
        code, out, err = call(capsys, *argv, "--format", fmt)
        assert (code, out) == (2, "")
        assert f"argument --format: invalid choice: '{fmt}'" in err

    def test_bad_flag(self, capsys):
        assert call(capsys, "stats", "[1]", "--r", "x")[0] == 2


class TestVerifyArguments:
    """verify exits 2 on an argument the id does not read, naming both."""

    def rejects(self, capsys, argv, option, ident):
        code, out, err = call(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert f"verify {ident} does not take {option}" in err

    @pytest.mark.parametrize("theorem", ["thm-1.4", "thm-1.8", "q-binomial"])
    def test_r_on_a_theorem_without_r(self, capsys, theorem):
        self.rejects(capsys, [theorem, "--r", "5"], "--r", theorem)

    @pytest.mark.parametrize("theorem", ["thm-1.5", "maex-distribution"])
    def test_order_on_a_theorem_without_order(self, capsys, theorem):
        self.rejects(capsys, [theorem, "--n", "3", "--order", "9"], "--order", theorem)

    @pytest.mark.parametrize("theorem", ["thm-1.4", "thm-1.6", "thm-1.7", "thm-1.8",
                                         "thm-1.11", "q-binomial", "maex-distribution"])
    def test_j_outside_the_family_theorems(self, capsys, theorem):
        self.rejects(capsys, [theorem, "--j", "1"], "--j", theorem)

    def test_unread_argument_reported_before_its_range(self, capsys):
        code, out, err = call(capsys, "verify", "thm-1.4", "--r", "3..1")
        assert code == 2
        assert out == ""
        assert err == "error: verify thm-1.4 does not take --r; it takes --n, --order\n"

    def test_n_on_q_binomial(self, capsys):
        self.rejects(capsys, ["q-binomial", "--n", "3"], "--n", "q-binomial")

    @pytest.mark.parametrize("name", ["glaisher", "multiples-repeats", "top-multiple",
                                      "gamma", "gamma-star", "delta"])
    def test_j_and_order_on_a_bijection(self, capsys, name):
        self.rejects(capsys, [name, "--r", "2", "--n", "4", "--j", "1"], "--j", name)
        self.rejects(capsys, [name, "--r", "2", "--n", "4", "--order", "4"], "--order", name)
        self.rejects(capsys, [name, "--r", "2", "--order", "5"], "--order", name)

    def test_taken_arguments_still_run(self, capsys):
        assert call(capsys, "verify", "thm-1.10", "--r", "2", "--j", "1", "--n", "5",
                    "--order", "5")[0] == 0
        assert call(capsys, "verify", "maex-distribution", "--r", "1", "--n", "5")[0] == 0

    def test_huge_r_finishes(self, capsys):
        code, out, _ = call(capsys, "verify", "thm-1.6", "--r", "100000000", "--n", "3")
        assert code == 0
        assert "PASS (4 checks)" in out

    def test_a_huge_range_is_handed_over_unlisted(self, capsys):
        report = vf.VerificationReport("thm-1.6")
        with mock.patch.object(vf, "run_check", return_value=report) as run_check:
            call(capsys, "verify", "thm-1.6", "--r", "1..100000000000", "--n", "3")
        r_values = run_check.call_args.args[1]
        assert type(r_values) is range
        assert (r_values[0], r_values[-1], len(r_values)) == (1, 10**11, 10**11)

    @pytest.mark.parametrize("vid, least", [("gamma", 1), ("glaisher", 2), ("thm-1.6", 1)])
    def test_a_huge_range_below_the_least_r_exits_2(self, capsys, vid, least):
        code, out, err = call(capsys, "verify", vid, "--r", f"{least - 1}..100000000000",
                              "--n", "2")
        assert (code, out, err) == (2, "", f"error: r must be >= {least}, got {least - 1}\n")


class TestBijectionError:
    def test_index_error_text(self, capsys):
        code, out, err = call(capsys, "bijection", "gamma", "--lambda", "[5,3,1]",
                              "--i", "9", "--r", "2")
        assert code == 2
        assert out == ""
        assert err == "error: index 9 outside 1..6 for [5,3,1]\n"


def cli_command(*argv):
    """A command line and environment that run this checkout's chainex."""
    src = os.path.dirname(os.path.dirname(chainex.__file__))
    return [sys.executable, "-m", "chainex.cli", *argv], dict(os.environ, PYTHONPATH=src)


def test_import_leaves_out_dataclasses_typing_and_inspect():
    # -S: no site, so no .pth file of the host adds modules
    _, env = cli_command()
    code = ("import sys, chainex.cli; chainex.cli.build_parser(); "
            "print(sorted({'dataclasses', 'typing', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=20)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_building_the_parser_loads_no_command_module():
    _, env = cli_command()
    code = ("import sys, chainex.cli; chainex.cli.build_parser(); "
            "print(sorted(m for m in sys.modules if m.startswith('chainex')))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=20)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "['chainex', 'chainex.cli']\n", "")


VERIFY_MODULES = {"verify", "brute", "bijections", "qseries", "partition"}


@pytest.mark.parametrize("argv, loads", [
    (("--help",), set()),
    (("series", "partitions", "--order", "5"), {"qseries"}),
    (("series", "--help"), set()),
    (("stats", "[3,1]", "--r", "1"), {"partition"}),
    (("enumerate", "--n", "4"), {"partition"}),
    (("verify", "thm-1.4", "--n", "5"), VERIFY_MODULES),
    (("verify", "--help"), VERIFY_MODULES),
    (("bijection", "glaisher", "--lambda", "[3]", "--r", "2"), VERIFY_MODULES),
])
def test_each_command_loads_only_its_modules(argv, loads):
    # -X importtime lists on stderr every module a fresh run imports; the
    # CLI module itself runs as __main__
    command, env = cli_command(*argv)
    proc = subprocess.run([command[0], "-S", "-X", "importtime", *command[1:]], env=env,
                          capture_output=True, text=True, timeout=20)
    imported = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert proc.returncode == 0
    assert {name for name in imported if name.split(".")[0] == "chainex"} == \
        {"chainex"} | {f"chainex.{name}" for name in loads}


# `chainex verify --help` at 80 columns
VERIFY_HELP = """\
usage: chainex verify [-h] [--r R] [--j J] [--n N] [--order ORDER]
                      [--format {text,json,csv}] [--out OUT]
                      id

positional arguments:
  id                    a theorem (thm-1.4, thm-1.5, thm-1.6, thm-1.7,
                        thm-1.8, thm-1.10, thm-1.11, q-binomial, maex-
                        distribution) or a bijection (glaisher, multiples-
                        repeats, top-multiple, gamma, gamma-star, delta)

options:
  -h, --help            show this help message and exit
  --r R                 single value or range like 1..3
  --j J                 single value or range
  --n N
  --order ORDER
  --format {text,json,csv}
  --out OUT             write output to a file
"""


class TestVerifyHelp:
    def test_lists_every_id_in_table_order(self, capsys):
        code, out, _ = call(capsys, "verify", "--help")
        listed = out.split("\n  id ", 1)[1].split("\n\n", 1)[0]
        ids = f"a theorem ({', '.join(vf.THEOREMS)}) or a bijection ({', '.join(vf.BIJECTIONS)})"
        # wrapped at spaces and after hyphens, so compared without whitespace
        assert (code, "".join(listed.split())) == (0, "".join(ids.split()))

    def test_holds_its_pinned_bytes(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert call(capsys, "verify", "--help") == (0, VERIFY_HELP, "")


class TestParserReuse:
    def test_import_builds_no_parser(self):
        _, env = cli_command()
        code = ("import argparse; built = []; init = argparse.ArgumentParser.__init__; "
                "argparse.ArgumentParser.__init__ = "
                "lambda self, *a, **k: built.append(1) or init(self, *a, **k); "
                "import chainex.cli; print(len(built))")
        proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                              capture_output=True, text=True, timeout=20)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")

    def test_one_parser_over_several_runs(self, capsys):
        with mock.patch.object(cli, "_parser", None), \
                mock.patch.object(cli, "build_parser", wraps=cli.build_parser) as build:
            codes = [call(capsys, *argv)[0] for argv in (
                ("stats", "[3,1]", "--r", "1"), ("enumerate", "--n", "4"),
                ("series", "partitions", "--order", "5"), ("verify", "thm-1.4", "--n", "5"),
                ("verify", "thm-42"))]
        assert codes == [0, 0, 0, 0, 2]
        assert build.call_count == 1

    @pytest.mark.parametrize("before, code", [
        (("verify", "thm-1.4", "--n", "x"), 2),
        (("verify", "--help"), 0),
        (("verify", "thm-42"), 2),
    ])
    @pytest.mark.parametrize("argv", [
        ("verify", "thm-1.6", "--r", "1..2", "--n", "8", "--format", "csv"),
        ("series", "chain-mex", "--r", "2", "--order", "12"),
    ])
    def test_a_failed_or_help_run_leaves_the_next_as_a_fresh_process(
            self, capsys, before, code, argv):
        command, env = cli_command(*argv)
        fresh = subprocess.run(command, env=env, capture_output=True, text=True, timeout=20)
        with mock.patch.object(cli, "_parser", None):
            assert call(capsys, *before)[0] == code
            assert call(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr)
        assert fresh.returncode == 0 and fresh.stdout

    def test_defaults_do_not_leak_between_runs(self, capsys):
        assert call(capsys, "series", "partitions", "--order", "5")[1] == \
            str(qs.series_partition_count(5)) + "\n"
        assert call(capsys, "series", "partitions")[1] == \
            str(qs.series_partition_count(60)) + "\n"
        assert call(capsys, "verify", "thm-1.4", "--n", "3")[0] == 0
        code, out, _ = call(capsys, "verify", "thm-1.4", "--format", "json")
        assert code == 0
        assert max(row["n"] for row in json.loads(out)["rows"]) == 40


@pytest.mark.parametrize("argv, code", [
    (("series", "j-parts", "--r", "2", "--j", "100000000", "--order", "5"), 0),
    # vacuous: no partition of n <= 5 has 10^8 parts above its maex
    (("verify", "thm-1.10", "--r", "2", "--j", "100000000", "--n", "5"), 1),
])
def test_huge_j_finishes(argv, code):
    command, env = cli_command(*argv)
    assert subprocess.run(command, env=env, capture_output=True, timeout=20).returncode == code


def test_huge_r_maex_distribution_finishes():
    # vacuous: a partition of n <= 5 has maex at most 4, so no row is
    # nonzero; the rows stop at maex 4 instead of 10^8
    command, env = cli_command("verify", "maex-distribution", "--r", "100000000", "--n", "5")
    proc = subprocess.run(command, env=env, capture_output=True, text=True, timeout=20)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "maex-distribution: FAIL (60 checks)\n  no row compares a nonzero value\n", "")


@pytest.mark.parametrize("argv", [
    ("series", "partitions", "--order", "100000000000"),
    ("verify", "thm-1.4", "--n", "1", "--order", "100000000000"),
])
def test_a_request_too_large_to_allocate_exits_2(argv):
    # the child's address space is capped at 2 GB, so the 800 GB
    # coefficient list fails at once; the parent is not capped
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 * 10**9, 2 * 10**9))

    command, env = cli_command(*argv)
    proc = subprocess.run(command, env=env, capture_output=True, text=True, timeout=20,
                          preexec_fn=cap)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: not enough memory for this request\n"


def test_closed_stdout_exits_141_without_a_traceback():
    command, env = cli_command("enumerate", "--n", "40")
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"[40]\n"
    proc.stdout.close()   # far more than a pipe buffer is still unwritten
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (141, b"")


# ---------------------------------------------------------------------------
# Fuzzed command lines: every argv ends in exit 0, 1 or 2, never a traceback
# ---------------------------------------------------------------------------

# small values only: n <= 10, order <= 30 and |r|, |j| <= 8 keep each run
# short
MALFORMED = st.sampled_from(["", "x", "1.5", "0x3", "..", "1..", "..3", "1..x", "--n"])


def values(low, high):
    """Mostly integers in low..high, written out, and now and then a
    malformed value."""
    ints = st.integers(low, high).map(str)
    return st.one_of(ints, ints, ints, MALFORMED)


VALUES = values(-8, 8)
# a huge range below every least r and j exits 2 at once; a huge range
# that starts at a valid value would run, so none is drawn
RANGES = st.one_of(VALUES, st.tuples(st.integers(-8, 8), st.integers(-8, 8))
                   .map(lambda ends: f"{ends[0]}..{ends[1]}"),
                   st.just("-1..100000000000"))
SIZES = values(-2, 10)
ORDERS = values(-2, 30)
PARTS = st.one_of(st.lists(st.integers(1, 4), max_size=4).map(lambda ps: sorted(ps, reverse=True)),
                  st.lists(st.integers(-1, 4), max_size=4))
LAMBDAS = st.one_of(PARTS.map(lambda ps: "[" + ",".join(map(str, ps)) + "]"),
                    st.sampled_from(["[", "[1,,2]", "3,1", "[a]", "[2.5]", "(2,1)"]))
FORMATS = st.sampled_from(["text", "json", "csv", "xml"])


def option(flag, values):
    """Unset two times in three, so that more command lines run."""
    return st.one_of(st.just([]), st.just([]), values.map(lambda v: [flag, v]))


def required(flag, values):
    return values.map(lambda v: [flag, v])


def switch(flag):
    return st.sampled_from([[], [flag]])


def positional(values):
    return values.map(lambda v: [v])


# the registry ids, each with -inv (a pairing has none), the aliases and
# an unknown name
BIJECTION_NAMES = (vf.BIJECTIONS + tuple(vid + "-inv" for vid in vf.BIJECTIONS)
                   + tuple(ALIASES) + ("identity",))
VERIFY_IDS = st.sampled_from(vf.THEOREMS + vf.BIJECTIONS + ("thm-9", ""))
COMMANDS = st.one_of(
    st.tuples(st.just(["stats"]), positional(LAMBDAS), required("--r", VALUES),
              switch("--sort"), option("--format", FORMATS)),
    st.tuples(st.just(["enumerate"]), required("--n", SIZES), option("--r", VALUES),
              option("--regular", VALUES), option("--strict", VALUES),
              option("--gap-class", st.sampled_from(["bounded", "exceeds", "x"])),
              option("--format", FORMATS)),
    st.tuples(st.just(["series"]),
              positional(st.sampled_from(tuple(SERIES_BUILDERS) + ("zeta",))),
              option("--r", VALUES), option("--j", VALUES), option("--order", ORDERS),
              option("--format", FORMATS)),
    st.tuples(st.just(["bijection"]),
              positional(st.sampled_from(BIJECTION_NAMES)),
              required("--lambda", LAMBDAS), option("--i", VALUES), required("--r", VALUES),
              switch("--sort"), switch("--trace"), option("--format", FORMATS)),
    # --n is always given (unset, it defaults to 16..40), except to
    # q-binomial, which reads no n
    VERIFY_IDS.flatmap(lambda vid: st.tuples(
        st.just(["verify", vid]), option("--r", RANGES), option("--j", RANGES),
        st.just([]) if vid == "q-binomial" else required("--n", SIZES),
        option("--order", ORDERS), option("--format", FORMATS))),
)
# now and then an unknown flag or --help at the end
ARGVS = st.tuples(COMMANDS, st.sampled_from([[]] * 8 + [["--bogus"], ["--help"]])).map(
    lambda parts: [token for group in parts[0] + (parts[1],) for token in group])


@settings(max_examples=200, deadline=None)
@given(ARGVS)
def test_fuzzed_argv_exits_0_1_or_2(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
