import json
from collections import Counter
from unittest import mock

import pytest

from chainex import bijections
from chainex.bijections import ColoredEmpty, PartitionPair
from chainex.partition import chain_mex, partitions, walk_scans
from chainex.verify import (
    _BIJECTIONS,
    _resolve,
    BIJECTIONS,
    FAMILIES,
    STATISTICS,
    THEOREMS,
    Row,
    Tally,
    VerificationReport,
    certify_bijection,
    check_theorem,
    count_family,
    report_to_format,
    run_check,
    sigma_stat,
    tallies,
)

from oracles import (
    FAMILY_VALUES,
    STATISTIC_VALUES,
    largest_part_sum,
    linear_maex,
    linear_mex,
    partition_count,
    recursive_partitions,
)


class TestBruteForceAccumulators:
    def test_sigma_mex_small_values(self):
        # n = 3: partitions (3), (2,1), (1,1,1) have classic mex 1, 3, 2
        assert sigma_stat(3, 1, "mex") == 6
        assert sigma_stat(0, 1, "mex") == 1

    def test_sigma_consistency(self):
        for n in range(10):
            for r in (1, 2):
                assert sigma_stat(n, r, "mex+r-1") == \
                    sigma_stat(n, r, "mex") + (r - 1) * sum(1 for _ in partitions(n))

    def test_sigma_rejects_unknown(self):
        with pytest.raises(ValueError):
            sigma_stat(3, 1, "median")

    @pytest.mark.parametrize("n, r, name", [
        (True, 1, "n"), (2.5, 1, "n"), ("5", 1, "n"), (-1, 1, "n"),
        (5, True, "r"), (5, 1.5, "r"), (5, 0, "r")])
    def test_sigma_validation(self, n, r, name):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            sigma_stat(n, r, "mex")

    def test_count_family_worked_example(self):
        # five partitions of 7 sit off the gap class with one part above
        # the 2-chain maex
        assert count_family(7, 3, 1, "above-maex") == 5
        assert count_family(7, 3, 1, "top-multiple") == 5
        assert count_family(7, 3, 1, "smallest-repeating") == 5

    def test_count_family_validation(self):
        with pytest.raises(ValueError):
            count_family(5, 2, 1, "largest-part")
        with pytest.raises(ValueError):
            count_family(5, 1, 1, "multiples")
        with pytest.raises(ValueError):
            count_family(5, 2, 0, "top-multiple")
        for n, r, j, name in [(True, 2, 0, "n"), (2.5, 2, 0, "n"), (-1, 2, 0, "n"),
                              (5, True, 0, "r"), (5, 2.0, 0, "r"),
                              (5, 2, 0.5, "j"), (5, 2, True, "j")]:
            with pytest.raises(ValueError, match=f"^{name} must be"):
                count_family(n, r, j, "multiples")

    @pytest.mark.parametrize("family,least", [
        ("multiples", 0), ("largest-repeating", 0), ("above-mex", 0),
        ("top-multiple", 1), ("smallest-repeating", 1), ("above-maex", 1)])
    def test_count_family_least_j(self, family, least):
        # of the partitions of 5, three have no even part and three have
        # their largest even part once
        assert count_family(5, 2, least, family) == 3
        with pytest.raises(ValueError) as info:
            count_family(5, 2, least - 1, family)
        assert str(info.value) == f"family {family!r} needs j >= {least}"

    def test_registries(self):
        assert len(STATISTICS) == 6
        assert len(FAMILIES) == 6
        assert len(THEOREMS) == 9
        assert len(BIJECTIONS) == 6


class TestEngineAgainstOracles:
    """The one-pass tallies against naive per-partition sums of the oracle
    statistics, over the oracle enumerator, for n <= 12 and r <= 4."""
    N_MAX = 12
    R_MAX = 4

    def test_oracles_cover_every_entry(self):
        assert set(STATISTIC_VALUES) == set(STATISTICS)
        assert set(FAMILY_VALUES) == set(FAMILIES)

    def test_statistic_sums(self):
        for n in range(self.N_MAX + 1):
            for r in range(1, self.R_MAX + 1):
                for stat, value in STATISTIC_VALUES.items():
                    expected = sum(value(parts, r) for parts in recursive_partitions(n))
                    assert sigma_stat(n, r, stat) == expected, (n, r, stat)

    def test_family_tables_for_all_r_in_one_walk(self):
        cells = [(fam, r) for fam in FAMILIES for r in range(2, self.R_MAX + 1)]
        for n in range(self.N_MAX + 1):
            t = tallies(n, self.R_MAX - 1, cells)[n]
            for fam, r in cells:
                expected = Counter(FAMILY_VALUES[fam](parts, r)
                                   for parts in recursive_partitions(n))
                expected.pop(None, None)
                got = Counter(t.families[fam, r])
                got.pop(-1, None)   # the engine's mark for "on the gap-bounded class"
                assert got == expected, (n, fam, r)
                # count_family takes j >= 1 for the last three families
                for j in range(0 if fam in ("multiples", "largest-repeating", "above-mex")
                               else 1, n + 1):
                    assert count_family(n, r, j, fam) == expected[j]

    def test_chains_longer_than_n(self):
        # every r-chain with r >= n ends above the largest part
        for n in range(8):
            lams = list(recursive_partitions(n))
            assert sigma_stat(n, 10 ** 12, "mex") == sum(max(p, default=0) + 1 for p in lams)
            assert sigma_stat(n, 10 ** 12, "mex+offset") == sigma_stat(n, n + 1, "mex")
            assert count_family(n, 10 ** 12, 0, "above-mex") == len(lams)

    def test_maex_histogram(self):
        for n in range(self.N_MAX + 1):
            t = tallies(n, self.R_MAX)[n]
            for r in range(1, self.R_MAX + 1):
                expected = Counter(linear_maex(parts, r) for parts in recursive_partitions(n))
                assert t.maex_counts(r) == expected
                assert t.count == sum(expected.values())


class TestTallyAgainstReference:
    """Every entry of one walk read against sums of the oracle values over
    the oracle enumerator: the tallies of every n <= 22 from one call per
    r_max = 1..8 and 23, which is above every n."""
    N_MAX = 22

    @staticmethod
    def family_reference(lams, fam, r):
        counts = Counter(FAMILY_VALUES[fam](parts, r) for parts in lams)
        # the engine marks a partition on the gap-bounded class with -1
        if None in counts:
            counts[-1] = counts.pop(None)
        return counts

    def test_every_read_and_family_cell(self):
        lams = [list(recursive_partitions(n)) for n in range(self.N_MAX + 1)]
        mex = [{r: sum(linear_mex(p, r) for p in ps) for r in range(1, n + 2)}
               for n, ps in enumerate(lams)]
        maex = [{r: Counter(linear_maex(p, r) for p in ps) for r in range(1, n + 2)}
                for n, ps in enumerate(lams)]
        families = {}
        for r_max in (*range(1, 9), self.N_MAX + 1):
            # every cell up to r = 9, and cells at chain lengths 11 and 16,
            # at 22 = N_MAX and beyond, where the tallies below read their
            # last entry
            rs = [r for r in (*range(2, 10), 12, 17, self.N_MAX + 1, self.N_MAX + 2)
                  if r <= r_max + 1]
            cells = [(fam, r) for fam in FAMILIES for r in rs]
            by_n = tallies(self.N_MAX, r_max, cells)
            assert len(by_n) == self.N_MAX + 1
            for n, (t, ps) in enumerate(zip(by_n, lams)):
                assert t.count == len(ps)
                assert t.largest == sum(max(p, default=0) for p in ps)
                assert len(t.mex) == len(t.maex) == min(r_max, max(n, 1))
                for r in range(1, r_max + 1):
                    assert t.mex_sum(r) == mex[n][min(r, n + 1)], (n, r_max, r)
                    assert t.maex_counts(r) == maex[n][min(r, n + 1)], (n, r_max, r)
                for cell in cells:
                    if (n, cell) not in families:
                        families[n, cell] = self.family_reference(ps, *cell)
                    assert t.families[cell] == families[n, cell], (n, r_max, cell)

    def test_count_is_the_partition_count_to_40(self):
        by_n = tallies(40, 1)
        assert [t.count for t in by_n] == [partition_count(n) for n in range(41)]
        assert [t.largest for t in by_n] == [largest_part_sum(n) for n in range(41)]

    @pytest.mark.parametrize("n, r_max, message", [
        (True, 1, "^n must be an integer, got True$"),
        (2.5, 1, "^n must be an integer, got 2.5$"),
        (-1, 1, "^n must be >= 0, got -1$"),
        (3, 1.5, "^r must be an integer, got 1.5$"),
        (3, True, "^r must be an integer, got True$"),
        (3, 0, "^r must be >= 1, got 0$")])
    def test_rejects_bad_arguments_before_any_walk(self, n, r_max, message):
        with mock.patch("chainex.verify.walk_scans", side_effect=AssertionError("walked")):
            with pytest.raises(ValueError, match=message):
                tallies(n, r_max)

    def test_rejects_out_of_range_arguments(self):
        # the 5-cell reads the 4-chain mex, which a 2-chain tally lacks
        with pytest.raises(ValueError):
            tallies(8, 2, [("above-mex", 5)])
        with pytest.raises(ValueError):
            tallies(8, 2, [("above-mex", 1)])
        for n in (0, 8):
            with pytest.raises(ValueError):
                tallies(n, 0)
        for bad in (lambda: tallies(-1, 2), lambda: tallies(0, 0),
                    lambda: tallies(8, 2, [("above-mex", 4)])):
            with pytest.raises(ValueError):
                bad()
        assert tallies(8, 4, [("above-mex", 5)])[8].families["above-mex", 5] == {0: 19, 1: 3}
        t = tallies(8, 2)[8]
        for read in (t.mex_sum, t.maex_counts, t.maex_sum, t.off_class):
            for r in (0, -2, 3):
                with pytest.raises(ValueError):
                    read(r)


class TestReport:
    def test_pass_fail(self):
        rep = VerificationReport("demo")
        rep.add(2, None, 5, 7, 7)
        assert rep.passed
        rep.add(2, None, 6, 7, 8, "bad")
        assert not rep.passed

    def test_no_rows_is_not_a_pass(self):
        rep = VerificationReport("demo")
        assert not rep.passed
        assert "FAIL (0 checks)" in rep.to_text()

    def test_zeros_only_is_not_a_pass(self):
        rep = VerificationReport("demo")
        rep.add(2, 40, 5, 0, 0)
        rep.add(2, 40, 6, 0, 0, "series")
        assert not rep.passed
        assert rep.to_text() == "demo: FAIL (2 checks)\n  no row compares a nonzero value"
        rep.add(2, 40, 7, 1, 1)
        assert rep.passed
        assert rep.to_text() == "demo: PASS (3 checks)"

    def test_to_text_lists_mismatches(self):
        rep = VerificationReport("demo")
        rep.add(2, 1, 6, 7, 8, "bad")
        text = rep.to_text()
        assert "FAIL" in text
        assert "lhs=7 rhs=8" in text

    def test_json_round_trips_and_uses_string_ints(self):
        rep = VerificationReport("demo")
        rep.add(2, None, 5, 10 ** 30, 10 ** 30)
        blob = json.loads(report_to_format(rep, "json"))
        assert blob["schema"] == 1
        assert blob["passed"] is True
        assert blob["rows"][0]["lhs"] == str(10 ** 30)

    @pytest.mark.parametrize("vid", THEOREMS + BIJECTIONS)
    def test_json_is_the_indented_dump(self, vid):
        # the rows take the C encoder; the bytes must stay those of indent=2
        if vid in BIJECTIONS:
            rep = run_check(vid, range(2, 4), 6)
        else:
            rep = run_check(vid, n_max=None if vid == "q-binomial" else 6)
        assert rep.rows
        assert report_to_format(rep, "json") == json.dumps(rep.to_json(), indent=2)

    def test_json_of_empty_failing_and_escaped_reports(self):
        empty = VerificationReport("demo")
        failing = VerificationReport("demo", [Row(2, None, 5, 7, 8, "bad")], 0.25)
        escaped = VerificationReport("demo", [Row(1, 3, 4, 10 ** 40, -12, 'q"\\\nλ')])
        for rep in (empty, failing, escaped):
            assert report_to_format(rep, "json") == json.dumps(rep.to_json(), indent=2)
        assert not failing.passed
        assert r'"label": "q\"\\\n\u03bb"' in report_to_format(escaped, "json")

    def test_csv_header(self):
        rep = VerificationReport("demo")
        rep.add(2, None, 5, 1, 1, "extra")
        csv_text = report_to_format(rep, "csv")
        lines = csv_text.strip().splitlines()
        assert lines[0] == "theorem,r,j,n,lhs,rhs,match"
        assert lines[1].startswith("demo/extra,2,,5,1,1,True")
        # lines end in \n, as in every other CSV the CLI writes
        assert csv_text == "theorem,r,j,n,lhs,rhs,match\ndemo/extra,2,,5,1,1,True\n"

    def test_built_from_its_fields(self):
        row = Row(2, 3, 5, 7, 8, "x")
        assert (row.r, row.j, row.n, row.lhs, row.rhs, row.label) == (2, 3, 5, 7, 8, "x")
        assert Row(None, None, 5, 7, 7).label == "" and Row(None, None, 5, 7, 7).match
        rows = [row]
        rep = VerificationReport("x", rows, 1.5)
        assert (rep.theorem, rep.rows, rep.wall_time) == ("x", rows, 1.5)
        assert rep.rows is rows and not rep.passed
        t = Tally(3, 4, [5], [Counter({0: 3})], {}, 1)
        assert (t.count, t.largest, t.mex, t.maex, t.families, t.r_max) == \
            (3, 4, [5], [Counter({0: 3})], {}, 1)
        assert (t.mex_sum(1), t.maex_sum(1), t.off_class(1)) == (5, 0, 0)


class TestTheoremHarness:
    def test_unknown_theorem(self):
        with pytest.raises(ValueError):
            check_theorem("thm-9.9")

    def test_small_runs_pass(self):
        assert check_theorem("thm-1.4", n_max=12).passed
        assert check_theorem("thm-1.6", r_values=[1, 2], n_max=10).passed
        assert check_theorem("thm-1.7", r_values=[1, 2], n_max=10).passed
        assert check_theorem("thm-1.8", n_max=12).passed
        assert check_theorem("thm-1.11", r_values=[2], n_max=10, order=20).passed
        assert check_theorem("thm-1.5", r_values=[2], n_max=10, j_values=[0, 1]).passed
        assert check_theorem("thm-1.10", r_values=[2], n_max=10, j_values=[1, 2]).passed
        assert check_theorem("q-binomial", order=25).passed
        assert check_theorem("maex-distribution", r_values=[1], n_max=10).passed

    def test_rows_carry_exact_values(self):
        rep = check_theorem("thm-1.4", n_max=6)
        by_n = {row.n: row for row in rep.rows}
        assert by_n[3].lhs == 6
        assert by_n[3].rhs == 6

    @pytest.mark.parametrize("theorem, kwargs, message", [
        ("thm-1.6", {"r_values": []}, "empty r range"),
        ("thm-1.6", {"r_values": [0, 1]}, "r must be >= 1"),
        ("maex-distribution", {"r_values": [0]}, "r must be >= 1"),
        ("thm-1.5", {"r_values": [1]}, "r must be >= 2"),
        ("thm-1.10", {"r_values": [1, 2]}, "r must be >= 2"),
        ("thm-1.10", {"j_values": []}, "empty j range"),
        ("thm-1.4", {"n_max": -1}, "n must be >= 0"),
        ("thm-1.7", {"n_max": 11, "order": 10}, "order 10 is below n 11"),
        ("thm-1.11", {"n_max": 11, "order": 10}, "order 10 is below n 11"),
        ("thm-1.6", {"r_values": [1.5]}, "^r must be an integer, got 1.5$"),
        ("thm-1.6", {"r_values": [True, 2]}, "^r must be an integer, got True$"),
        ("thm-1.5", {"j_values": [0.5]}, "^j must be an integer, got 0.5$"),
        ("thm-1.4", {"n_max": 2.5}, "^n must be an integer, got 2.5$"),
        ("thm-1.4", {"n_max": "5"}, "^n must be an integer, got '5'$"),
        ("q-binomial", {"order": 7.0}, "^order must be an integer, got 7.0$"),
        ("gamma", {"r_values": [2], "n_max": 3.5}, "^n must be an integer, got 3.5$"),
        ("glaisher", {"r_values": [1, 2]}, "^r must be >= 2, got 1$"),
        # a lone int is neither a range nor a list
        ("thm-1.6", {"r_values": 3}, "^r must be a range or a list of integers, got 3$"),
        ("thm-1.5", {"j_values": 3}, "^j must be a range or a list of integers, got 3$"),
        ("gamma", {"r_values": 2}, "^r must be a range or a list of integers, got 2$"),
    ])
    def test_bad_arguments_rejected_up_front(self, theorem, kwargs, message):
        with mock.patch("chainex.verify.walk_scans", side_effect=AssertionError("walked")), \
                mock.patch("chainex.verify.partitions", side_effect=AssertionError("listed")):
            with pytest.raises(ValueError, match=message):
                run_check(theorem, **kwargs)

    def test_product_rows_reach_n_past_the_default_order(self):
        # with no order given, the product side is built at n like the sum
        with mock.patch("chainex.qseries.DEFAULT_ORDER", 10):
            report = check_theorem("thm-1.11", [1], 14)
        assert report.passed
        assert [row.n for row in report.rows if row.label == "sum-vs-product"] == list(range(15))

    @pytest.mark.parametrize("theorem, j, message", [
        ("thm-1.5", -1, "^j must be >= 0, got -1$"),
        ("thm-1.10", 0, "^j must be >= 1, got 0$"),
    ])
    def test_j_below_the_least_rejected_before_any_walk(self, theorem, j, message):
        with mock.patch("chainex.verify.walk_scans", side_effect=AssertionError("walked")):
            with pytest.raises(ValueError, match=message):
                check_theorem(theorem, j_values=[j])

    @pytest.mark.parametrize("theorem, n_max", [("thm-1.4", 40), ("thm-1.5", 25)])
    def test_one_walk_of_the_top_weight(self, theorem, n_max):
        # every n <= n_max is tallied from the partitions of n_max alone:
        # 37,338 at n = 40 and 1,958 at n = 25, not the sum over all n
        walked = 0

        def counted(n, depth):
            nonlocal walked
            for step in walk_scans(n, depth):
                walked += 1
                yield step

        with mock.patch("chainex.verify.walk_scans", counted):
            assert check_theorem(theorem, n_max=n_max).passed
        assert walked == partition_count(n_max) == {40: 37338, 25: 1958}[n_max]

    @pytest.mark.parametrize("theorem, kwargs, message", [
        ("thm-1.4", {"r_values": [5]},
         "verify thm-1.4 does not take --r; it takes --n, --order"),
        ("q-binomial", {"n_max": 3, "order": 4},
         "verify q-binomial does not take --n; it takes --order"),
    ])
    def test_unread_argument_rejected(self, theorem, kwargs, message):
        with pytest.raises(ValueError) as info:
            check_theorem(theorem, **kwargs)
        assert str(info.value) == message

    def test_default_ranges_are_filled_only_when_unset(self):
        rep = check_theorem("thm-1.6", r_values=[3], n_max=5)
        assert {row.r for row in rep.rows} == {3}
        assert len(check_theorem("thm-1.6", n_max=5).rows) == 6 * 6

    def test_wall_time_recorded(self):
        rep = check_theorem("thm-1.4", n_max=5)
        assert rep.wall_time >= 0.0


class TestBijectionCertification:
    def test_unknown_bijection(self):
        with pytest.raises(ValueError):
            certify_bijection("identity", [2], 4)

    def test_small_certifications_pass(self):
        assert certify_bijection("glaisher", [2], 10).passed
        assert certify_bijection("multiples-repeats", [3], 10).passed
        assert certify_bijection("top-multiple", [2], 10).passed
        assert certify_bijection("gamma", [2], 8).passed
        assert certify_bijection("gamma-star", [2], 8).passed
        assert certify_bijection("delta", [2], 8).passed

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError, match="n must be >= 0"):
            certify_bijection("gamma", [2], -1)
        with pytest.raises(ValueError, match="r must be >= 1"):
            certify_bijection("gamma", [0], 4)
        with pytest.raises(ValueError, match="^r must be a range or a list of integers, got 2$"):
            certify_bijection("gamma", 2)

    def test_run_check_resolves_the_r_range_before_certifying(self):
        with pytest.raises(ValueError, match="^empty r range$"):
            run_check("gamma", [], 5)
        with mock.patch.object(bijections, "mex_pairing",
                               side_effect=AssertionError("certified")) as forward:
            with pytest.raises(ValueError, match="^r must be >= 1, got 0$"):
                run_check("gamma", [2, 0], 3)
        assert not forward.called

    @pytest.mark.parametrize("name", BIJECTIONS)
    def test_one_report_holds_the_rows_of_every_r(self, name):
        # r = 1..3, or 2..4 for the partition maps, which start at 2
        least = _BIJECTIONS[name].least_r
        r_values = range(least, least + 3)
        report = certify_bijection(name, r_values, 10)
        assert report.theorem == f"bijection:{name}" and report.passed
        assert report.rows == [row for r in r_values
                               for row in certify_bijection(name, [r], 10).rows]
        assert run_check(name, r_values, 10).rows == report.rows

    def test_a_range_is_read_from_its_ends(self):
        huge = range(1, 10**12)
        assert _resolve(huge, None, "r", 1) is huge
        with pytest.raises(ValueError, match="^r must be >= 1, got 0$"):
            _resolve(range(0, 10**12), None, "r", 1)
        with pytest.raises(ValueError, match="^r must be >= 2, got 1$"):
            _resolve(range(5, 0, -1), None, "r", 2)
        with pytest.raises(ValueError, match="^empty r range$"):
            _resolve(range(3, 3), None, "r", 1)
        # a list from a library caller is still listed and checked
        assert _resolve((3, 2), None, "r", 1) == [3, 2]
        with pytest.raises(ValueError, match="^r must be an integer, got True$"):
            _resolve([2, True], None, "r", 1)

    def test_run_check_certifies_every_r_to_the_default_n(self):
        rep = run_check("glaisher", r_values=[2, 3])
        assert rep.passed
        assert {(row.r, row.n) for row in rep.rows} == {
            (r, n) for r in (2, 3) for n in range(16 + 1)}

    def test_run_check_rejects_what_a_bijection_does_not_read(self):
        with pytest.raises(ValueError, match="^verify gamma does not take --j; it takes --r, --n$"):
            run_check("gamma", r_values=[2], j_values=[1])
        with pytest.raises(ValueError, match="^bijection verification requires --r$"):
            run_check("gamma", n_max=4)

    def test_cardinality_rows_match_known_counts(self):
        # weight-6 domain of the colored map: sum over partitions of
        # chain_mex + r - 1
        rep = certify_bijection("gamma-star", [2], 6)
        card = [row for row in rep.rows if row.label == "cardinality" and row.n == 6]
        expected = sum(chain_mex(lam, 2) + 1 for lam in partitions(6))
        assert card[0].lhs == expected == card[0].rhs

    def test_colors_only_one_past_the_weight_0_domain(self):
        # gamma's weight-0 domain holds one object at every r, so a huge r
        # builds at most two colored empties, not r of them
        built = []

        class Counted(ColoredEmpty):
            __slots__ = ()

            def __new__(cls, color):
                built.append(color)
                return super().__new__(cls, color)

        with mock.patch.object(bijections, "ColoredEmpty", Counted):
            report = certify_bijection("gamma", [10**6], 2)
        assert report.passed
        assert len(built) <= 2


class TestGeneratedCodomain:
    """The codomain size that certification counts from the candidates it
    generates, against the checker run over every (alpha, beta) pair of
    each weight: every alpha, every beta and the colored empties."""
    N_MAX = 14

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    @pytest.mark.parametrize("name", ["gamma", "gamma-star", "delta"])
    def test_generated_equals_the_full_filter(self, name, r):
        checker = getattr(bijections, _BIJECTIONS[name].checker)
        by_weight = [list(partitions(w)) for w in range(self.N_MAX + 1)]
        colored = [ColoredEmpty(color) for color in range(1, r + 1)]
        report = certify_bijection(name, [r], self.N_MAX)
        counted = [row.rhs for row in report.rows if row.label == "cardinality"]
        assert len(counted) == self.N_MAX + 1
        for n, size in enumerate(counted):
            full = sum(checker(PartitionPair(alpha, beta), r) for a in range(n + 1)
                       for alpha in by_weight[a]
                       for beta in by_weight[n - a] + (colored if a == n else []))
            assert size == full, n
        assert report.passed
