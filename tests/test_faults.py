"""Planted faults: a verifier that cannot fail shows nothing.

Each theorem case makes one side of one theorem wrong by 1 at the largest
n of the theorem's default range: the series builder its rows read, or,
for thm-1.5, which reads no series, one family statistic on one partition
of that n.  ``chainex verify <id>`` at its defaults must then exit 1 with
MISMATCH lines, each at that n.  So must every family statistic of
thm-1.5 and thm-1.10 wrong on [25], and parts_above wrong on [24,1],
which the engine builds from the head [24] and one 1.  The engine calls
no other family statistic on a partition with 1s: each family's rule
gives those values from the head's, and a rule made wrong must fail
verify, only at n >= r.  The component series that the thm-1.7 builder
and the thm-1.11 product form multiply by the strict count must fail
only the rows that read them, and a kernel fault above the enumerated
range only thm-1.11's two series forms.  An engine that
drops the tally of the largest n must make every id that reads the
tallies raise a ``ValueError`` naming the id and that n, so that
``chainex verify`` exits 2, rather than pass on fewer rows.

``TestFaultyMap`` plants faults in the bijection side: each map's forward
and inverse wrong on one object, at weight 10 and at the largest weight of
the default range, each pairing's codomain checker over- or
under-accepting, and images outside the codomain or of another weight;
``chainex verify <id>`` must exit 1.  Each pairing checker and each
partition map's membership test wrong on one object of weight 16, the
default n, must fail there.  Every name ``chainex bijection``
accepts must print something else once the map it calls is patched in
``chainex.bijections``, since the command looks its maps up per call.
"""

import re
from collections import Counter
from unittest import mock

import pytest

from chainex import bijections, brute
from chainex import partition as pt
from chainex import qseries as qs
from chainex import verify as vf
from chainex.cli import ALIASES, run
from chainex.partition import Partition, partitions


def call(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def mismatch_heads(out):
    """What each MISMATCH line of a report names, up to its values."""
    return [line.split(" lhs=")[0].removeprefix("  MISMATCH ")
            for line in out.splitlines() if line.startswith("  MISMATCH ")]


def coefficient_plus_one(builder, n):
    """``builder`` with 1 added to its coefficient of q^n."""
    def wrong(*args):
        series = builder(*args)
        return series + qs.PowerSeries([0] * n + [1], series.order)
    return wrong


def maex_one_plus_one(builder, n):
    """``builder`` with 1 added to its coefficient of z q^n."""
    def wrong(*args):
        series = builder(*args)
        series[1].coeffs[n] += 1
        return series
    return wrong


def one_partition_plus_one(statistic, n):
    """``statistic`` one too high on the partition [n]."""
    lam = Partition([n])
    return lambda mu, r: statistic(mu, r) + (mu == lam)


# id -> the module and attribute made wrong, how, and at which n
FAULTS = {
    "thm-1.4": (qs, "series_sigma_mex", coefficient_plus_one, 40),
    "thm-1.5": (pt, "count_multiples", one_partition_plus_one, 25),
    "thm-1.6": (qs, "series_chain_mex_shifted", coefficient_plus_one, 30),
    "thm-1.7": (qs, "series_chain_mex_offset_sum", coefficient_plus_one, 30),
    "thm-1.8": (qs, "series_maex_defect", coefficient_plus_one, 30),
    "thm-1.10": (qs, "series_parts_above", coefficient_plus_one, 25),
    "thm-1.11": (qs, "series_chain_maex_sum", coefficient_plus_one, 30),
    "q-binomial": (qs, "q_binomial_sum", coefficient_plus_one, qs.DEFAULT_ORDER),
    "maex-distribution": (qs, "maex_bivariate", maex_one_plus_one, 20),
}


def test_every_theorem_has_a_fault():
    assert sorted(FAULTS) == sorted(vf.THEOREMS)


def planted_mismatches(capsys, vid, owner, name, fault, n):
    """The MISMATCH lines of ``chainex verify <vid>`` at its defaults with
    ``owner.name`` (``owner[name]`` for a dict) made wrong at n, after
    checking that it exits 1."""
    if isinstance(owner, dict):
        patch = mock.patch.dict(owner, {name: fault(owner[name], n)})
    else:
        patch = mock.patch.object(owner, name, fault(getattr(owner, name), n))
    with patch:
        code = run(["verify", vid])
    out = capsys.readouterr().out
    assert code == 1 and out.startswith(f"{vid}: FAIL")
    return [line for line in out.splitlines() if "MISMATCH" in line]


@pytest.mark.parametrize("vid", FAULTS)
def test_a_fault_at_the_largest_n_fails_verify(capsys, vid):
    owner, name, fault, n = FAULTS[vid]
    mismatches = planted_mismatches(capsys, vid, owner, name, fault, n)
    assert mismatches and all(f" n={n} " in line for line in mismatches)


# each family statistic of thm-1.5 and thm-1.10 besides count_multiples,
# one too high on the partition [25] of the largest n
FAMILY_FAULTS = [("thm-1.5", "largest_repeating"), ("thm-1.5", "parts_above"),
                 ("thm-1.10", "top_multiple_multiplicity"),
                 ("thm-1.10", "smallest_repeating"), ("thm-1.10", "parts_above")]


@pytest.mark.parametrize("vid, name", FAMILY_FAULTS,
                         ids=[f"{vid}-{name}" for vid, name in FAMILY_FAULTS])
def test_a_family_statistic_fault_fails_verify(capsys, vid, name):
    mismatches = planted_mismatches(capsys, vid, pt, name, one_partition_plus_one, 25)
    assert mismatches and all(" n=25 " in line for line in mismatches)


def ones_partition_plus_one(statistic, n):
    """``statistic`` one too high on the partition [n-1,1], which the
    engine builds from the head [n-1] and one 1 for the above-* cells."""
    lam = Partition([n - 1, 1])
    return lambda mu, r: statistic(mu, r) + (mu == lam)


def ones_rule_plus_one(rule, n):
    """A family rule one too high on every partition mu + 1^j with j >= r:
    every value it gives moves up by one (n plays no part)."""
    return lambda counts: Counter({v + 1: m for v, m in rule(counts).items()})


# all six family statistics, made wrong on partitions with 1s.  The engine
# calls parts_above on [24,1] for the above-* cells ([2^12,1] or [1^25]
# would not do under thm-1.10, since they lie on the gap-bounded class,
# where above-maex reads no statistic).  It never calls the other four on
# a partition with 1s: their family's rule in ``brute._PAST_R`` gives
# those values, so the rule is made wrong instead, and only the n >= r
# that hold a partition with r 1s can fail.
ONES_FAULTS = [("thm-1.5", "count_multiples"), *FAMILY_FAULTS]
RULE_FAMILIES = {"count_multiples": "multiples", "largest_repeating": "largest-repeating",
                 "top_multiple_multiplicity": "top-multiple",
                 "smallest_repeating": "smallest-repeating"}


@pytest.mark.parametrize("vid, name", ONES_FAULTS,
                         ids=[f"{vid}-{name}" for vid, name in ONES_FAULTS])
def test_a_family_statistic_fault_on_a_partition_with_ones_fails_verify(capsys, vid, name):
    if name not in RULE_FAMILIES:
        mismatches = planted_mismatches(capsys, vid, pt, name, ones_partition_plus_one, 25)
        assert mismatches and all(" n=25 " in line for line in mismatches)
        return
    mismatches = planted_mismatches(capsys, vid, brute._PAST_R, RULE_FAMILIES[name],
                                    ones_rule_plus_one, 25)
    rows = [re.search(r" r=(\d+) j=\d+ n=(\d+) ", line).groups() for line in mismatches]
    assert rows and all(int(n) >= int(r) for r, n in rows)


# the component series a strict-count product reads: its id, the builder,
# and the label of the only rows that may fail ("" for the
# statistic-vs-series rows)
COMPONENT_FAULTS = {
    "thm-1.7": ("series_top_multiplicity_count", ""),
    "thm-1.11": ("series_bottom_multiplicity_count", "sum-vs-product"),
}


@pytest.mark.parametrize("vid", COMPONENT_FAULTS)
def test_a_component_fault_fails_only_the_rows_that_read_it(capsys, vid):
    name, label = COMPONENT_FAULTS[vid]
    mismatches = planted_mismatches(capsys, vid, qs, name, coefficient_plus_one, 30)
    # every r of the default range reads the component at modulus r + 1
    assert {line.split()[1] for line in mismatches} == {f"r={r}" for r in range(1, 7)}
    assert all(f" n=30 {label} lhs=" in line for line in mismatches)


def test_a_kernel_fault_past_the_enumerated_range_fails_the_thm_1_11_forms(capsys):
    # dividing by (q;q)_inf also adds c[39] into c[40]: a linear fault
    # above n = 30, where only the two series forms are compared.  Had the
    # product run the strict ratio as passes over the bottom-multiplicity
    # builder, it would cancel that builder's division and meet the sum
    # form whatever the kernel does; the dense product must not.
    honest = qs._euler

    def faulty(c, s, divide=False):
        honest(c, s, divide)
        if divide and s == 1 and len(c) > 40:
            c[40] += c[39]

    with mock.patch.object(qs, "_euler", faulty):
        code = run(["verify", "thm-1.11", "--order", "60"])
    out = capsys.readouterr().out
    mismatches = [line for line in out.splitlines() if "MISMATCH" in line]
    assert code == 1 and mismatches
    assert all(" sum-vs-product lhs=" in line and int(line.split()[3][2:]) >= 40
               for line in mismatches)


# every id whose rows read the engine's tallies
TALLY_IDS = [vid for vid in vf.THEOREMS if vid != "q-binomial"]


@pytest.mark.parametrize("vid", TALLY_IDS)
def test_a_short_engine_fails_every_tally_reading_id(vid):
    # the rows are laid out by the n range asked for, so an engine that
    # drops the tally of the largest n raises, naming the id and that n,
    # instead of passing on fewer rows
    honest = vf.tallies
    message = f"{vid}: the brute-force engine returned no tally for n = {vf._IDS[vid].n}"
    with mock.patch.object(vf, "tallies", lambda *args: honest(*args)[:-1]):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            vf.check_theorem(vid)


def test_a_short_engine_exits_2_with_one_error_line(capsys):
    honest = vf.tallies
    with mock.patch.object(vf, "tallies", lambda *args: honest(*args)[:-1]):
        assert call(capsys, "verify", "thm-1.4", "--n", "5") == (
            2, "", "error: thm-1.4: the brute-force engine returned no tally for n = 5\n")


class TestFaultyMap:
    """A map whose image lies outside its codomain fails certification
    (exit 1) instead of being reported as bad input (exit 2)."""

    def test_pairing_image_outside_the_codomain(self, capsys):
        honest = bijections.mex_pairing

        def faulty(lam, i, r):
            if lam == Partition([6]) and i == 1:
                # alpha is not (r+1)-strict at r = 1
                return bijections.PartitionPair(Partition([1, 1]), Partition([1, 1, 1, 1]))
            return honest(lam, i, r)

        with mock.patch.object(bijections, "mex_pairing", faulty):
            code, out, err = call(capsys, "verify", "gamma", "--r", "1", "--n", "6")
        assert (code, err) == (1, "")
        assert "  MISMATCH r=1 j=None n=6 roundtrip lhs=0 rhs=1" in out.splitlines()

    def test_partition_image_outside_the_codomain(self, capsys):
        honest = bijections.glaisher_merge

        def faulty(lam, r):
            # [1,1,1] is not 2-strict
            return Partition([1, 1, 1]) if lam == Partition([3]) else honest(lam, r)

        with mock.patch.object(bijections, "glaisher_merge", faulty):
            code, out, err = call(capsys, "verify", "glaisher", "--r", "2", "--n", "4")
        assert (code, err) == (1, "")
        assert "  MISMATCH r=2 j=None n=3 roundtrip lhs=0 rhs=1" in out.splitlines()

    def test_partition_image_of_another_weight(self, capsys):
        # [4] is 2-strict and comes back as [3], so only its weight is wrong
        merge, split = bijections.glaisher_merge, bijections.glaisher_split
        three, four = Partition([3]), Partition([4])

        def faulty_merge(lam, r):
            return four if lam == three else merge(lam, r)

        def faulty_split(nu, r):
            return three if nu == four else split(nu, r)

        with mock.patch.object(bijections, "glaisher_merge", faulty_merge), \
                mock.patch.object(bijections, "glaisher_split", faulty_split):
            code, out, err = call(capsys, "verify", "glaisher", "--r", "2", "--n", "4")
        assert (code, err) == (1, "")
        assert "  MISMATCH r=2 j=None n=3 roundtrip lhs=0 rhs=1" in out.splitlines()

    def test_pairing_image_of_another_weight(self, capsys):
        # the image of ([3], 1) is a codomain pair of weight 4 that comes
        # back as ([3], 1), so only its weight is wrong
        pairing, unpairing = bijections.mex_pairing, bijections.mex_pairing_inv
        source = (Partition([3]), 1)
        image = pairing(Partition([3, 1]), 1, 1)
        assert image.weight == 4 and bijections.in_mex_codomain(image, 1)

        def faulty_pairing(lam, i, r):
            return image if (lam, i) == source else pairing(lam, i, r)

        def faulty_unpairing(pair, r):
            return source if pair == image else unpairing(pair, r)

        with mock.patch.object(bijections, "mex_pairing", faulty_pairing), \
                mock.patch.object(bijections, "mex_pairing_inv", faulty_unpairing):
            code, out, err = call(capsys, "verify", "gamma", "--r", "1", "--n", "4")
        assert (code, err) == (1, "")
        assert "  MISMATCH r=1 j=None n=3 roundtrip lhs=0 rhs=1" in out.splitlines()

    def test_checker_that_rejects_a_member(self, capsys):
        honest = bijections.in_maex_codomain
        member = bijections.PartitionPair(Partition([1]), Partition([7]))
        assert honest(member, 2)

        def faulty(pair, r):
            return pair != member and honest(pair, r)

        with mock.patch.object(bijections, "in_maex_codomain", faulty):
            code, out, err = call(capsys, "verify", "delta", "--r", "2", "--n", "8")
        assert (code, err) == (1, "")
        lines = out.splitlines()
        assert lines[0] == "bijection:delta: FAIL (18 checks)"
        # the member is left out of the codomain, and its preimage's inverse
        # call is rejected
        assert lines[1:] == ["  MISMATCH r=2 j=None n=8 cardinality lhs=78 rhs=77",
                             "  MISMATCH r=2 j=None n=8 roundtrip lhs=0 rhs=1"]

    @pytest.mark.parametrize("vid, r, checker, side, stranger, first", [
        ("gamma", 1, "in_mex_codomain", "beta", Partition([2, 1]), "lhs=6 rhs=7"),
        # in_colored_codomain reads in_mex_codomain for a nonempty beta
        ("gamma-star", 1, "in_mex_codomain", "beta", Partition([2, 1]), "lhs=6 rhs=7"),
        # [1,1,1] is not 3-strict
        ("delta", 2, "in_maex_codomain", "alpha", Partition([1, 1, 1]), "lhs=8 rhs=9"),
    ], ids=["gamma", "gamma-star", "delta"])
    def test_checker_that_accepts_a_stranger(self, capsys, vid, r, checker, side, stranger,
                                             first):
        # certification asks the checker about every candidate, so a pair
        # the map never hits is shown to it and counted
        honest = getattr(bijections, checker)

        def faulty(pair, r):
            return honest(pair, r) or getattr(pair, side) == stranger

        with mock.patch.object(bijections, checker, faulty):
            code, out, err = call(capsys, "verify", vid, "--r", str(r), "--n", "8")
        assert (code, err) == (1, "")
        assert out.splitlines()[1] == f"  MISMATCH r={r} j=None n=3 cardinality {first}"

    @pytest.mark.parametrize("vid, checker, color", [
        ("gamma", "in_mex_codomain", 1), ("gamma", "in_mex_codomain", 2),
        ("gamma-star", "in_colored_codomain", 4),
    ], ids=["gamma-1", "gamma-2", "gamma-star-4"])
    def test_checker_that_accepts_a_colored_empty(self, capsys, vid, checker, color):
        # each pairing is offered colors up to one past its weight-0 domain,
        # 1 for gamma and r for gamma-star, at every r; a checker that also
        # accepts one of them has a codomain one too large there
        honest = getattr(bijections, checker)

        def faulty(pair, r):
            return honest(pair, r) or pair.beta == bijections.ColoredEmpty(color)

        with mock.patch.object(bijections, checker, faulty):
            code, out, err = call(capsys, "verify", vid, "--r", "3", "--n", "4")
        domain = vf._IDS[vid].bound(vf.EMPTY, 3)
        assert (code, err) == (1, "")
        assert out.splitlines()[1] == (
            f"  MISMATCH r=3 j=None n=0 cardinality lhs={domain} rhs={domain + 1}")

    def test_bound_one_too_low_on_the_empty_partition(self, capsys):
        # gamma-star's domain of weight 0 loses its last color, which the
        # checker still accepts, so the codomain there is one too large
        spec = vf._IDS["gamma-star"]
        low = spec._replace(bound=lambda lam, r: spec.bound(lam, r) - (lam == vf.EMPTY))
        with mock.patch.dict(vf._IDS, {"gamma-star": low}):
            code, out, err = call(capsys, "verify", "gamma-star", "--r", "3", "--n", "4")
        assert (code, err) == (1, "")
        assert out.splitlines()[1] == "  MISMATCH r=3 j=None n=0 cardinality lhs=2 rhs=3"

    # each map at r, and for a weight w the object the fault is planted on
    # and another object of the map's domain of weight w
    WRONG_ON_ONE = [
        ("glaisher", 2, lambda w: ((Partition([w - 1, 1]),), (Partition([w - 3, 3]),))),
        ("multiples-repeats", 2, lambda w: ((Partition([w]),), (Partition([w - 1, 1]),))),
        ("top-multiple", 2, lambda w: ((Partition([w]),), (Partition([w - 2, 2]),))),
        ("gamma", 1, lambda w: ((Partition([w]), 1), (Partition([w - 1, 1]), 1))),
        ("gamma-star", 2, lambda w: ((Partition([w]), 1), (Partition([w - 1, 1]), 1))),
        ("delta", 2, lambda w: ((Partition([w]), 1), (Partition([w - 1, 1]), 1))),
    ]

    def test_wrong_on_one_covers_every_map(self):
        assert [case[0] for case in self.WRONG_ON_ONE] == list(vf.BIJECTIONS)

    @pytest.mark.parametrize("side", ["forward", "inverse"])
    @pytest.mark.parametrize("vid, r, objects", WRONG_ON_ONE,
                             ids=[case[0] for case in WRONG_ON_ONE])
    def test_map_wrong_on_one_object(self, capsys, side, vid, r, objects):
        # at weight 10 under --n 10, and at the entry's default n, the
        # largest weight certified when --n is left out
        spec = vf._IDS[vid]
        forward, inverse = getattr(bijections, spec.forward), getattr(bijections, spec.inverse)
        for weight, size in ((10, ["--n", "10"]), (spec.n, [])):
            target, other = objects(weight)
            image, wrong = forward(*target, r), forward(*other, r)
            if side == "forward":
                # the target goes where the other object goes
                name = spec.forward

                def faulty(*args):
                    return wrong if args[:-1] == target else forward(*args)
            else:
                # the target's image comes back as the other object
                name = spec.inverse

                def faulty(out, r):
                    return inverse(wrong if out == image else out, r)

            with mock.patch.object(bijections, name, faulty):
                code, out, err = call(capsys, "verify", vid, "--r", str(r), *size)
            # every mismatch is at that weight; a broken fiber fails there too
            mismatches = out.splitlines()[1:]
            assert (code, err) == (1, "")
            assert f"  MISMATCH r={r} j=None n={weight} roundtrip lhs=0 rhs=1" in mismatches
            assert all(f" n={weight} " in line for line in mismatches)

    def test_forward_errors_still_exit_2(self, capsys):
        def refuses(lam, r):
            raise bijections.DomainError(f"refused {lam}")

        with mock.patch.object(bijections, "glaisher_merge", refuses):
            code, out, err = call(capsys, "verify", "glaisher", "--r", "2", "--n", "3")
        assert (code, out) == (2, "")
        assert err == "error: refused []\n"


# Faults on one object of weight 16, the default n of every map, certified
# with --n left out: in a pairing's codomain checker, and in each membership
# test of a partition map, which the verify._IDS lambdas read from
# verify per call.  Both mismatches are at n = 16.


@pytest.mark.parametrize("vid, r", [("gamma", 1), ("gamma-star", 2), ("delta", 2)])
def test_checker_that_rejects_a_member_of_the_largest_weight(capsys, vid, r):
    # the image of [16] is read as outside the codomain
    spec = vf._IDS[vid]
    honest = getattr(bijections, spec.checker)
    member = getattr(bijections, spec.forward)(Partition([spec.n]), 1, r)
    assert member.weight == spec.n and honest(member, r)

    def faulty(pair, r):
        return pair != member and honest(pair, r)

    with mock.patch.object(bijections, spec.checker, faulty):
        code, out, err = call(capsys, "verify", vid, "--r", str(r))
    assert (code, err) == (1, "")
    assert mismatch_heads(out) == [f"r={r} j=None n={spec.n} cardinality",
                                   f"r={r} j=None n={spec.n} roundtrip"]


# each membership test of a partition map, and the verify name it reads
MEMBERSHIP = [("glaisher", "domain", "is_regular"), ("glaisher", "codomain", "is_strict"),
              ("top-multiple", "domain", "is_regular"),
              ("top-multiple", "codomain", "is_strict")]


def test_membership_covers_every_test():
    assert [case[:2] for case in MEMBERSHIP] == [
        (vid, side) for vid, spec in vf._IDS.items() if isinstance(spec, vf._Map)
        for side in ("domain", "codomain") if getattr(spec, side) is not None]


@pytest.mark.parametrize("vid, side, name", MEMBERSHIP,
                         ids=[f"{vid}-{side}" for vid, side, _ in MEMBERSHIP])
def test_membership_wrong_on_one_partition_of_the_largest_weight(capsys, vid, side, name):
    # a member is read as outside the domain or codomain; a partition let
    # into a domain instead would be refused by the map, which exits 2
    spec = vf._IDS[vid]
    test, honest = getattr(spec, side), getattr(vf, name)
    member = next(lam for lam in partitions(spec.n) if test(lam, 2))

    def faulty(lam, r):
        return honest(lam, r) != (lam == member)

    with mock.patch.object(vf, name, faulty):
        assert not test(member, 2)
        code, out, err = call(capsys, "verify", vid, "--r", "2")
    assert (code, err) == (1, "")
    assert mismatch_heads(out) == [f"r=2 j=None n={spec.n} cardinality",
                                   f"r=2 j=None n={spec.n} roundtrip"]


# every name chainex bijection accepts: the bijections function it calls,
# the r, an input the command is given, and another input of the same map,
# whose image the planted map returns
BIJECTION_NAMES = {
    "glaisher": ("glaisher_merge", 3, ([2, 2, 2, 1],), ([4, 1],)),
    "glaisher-inv": ("glaisher_split", 3, ([6, 1],), ([4, 1],)),
    "multiples-repeats": ("multiples_to_repeats", 3, ([6, 3, 3, 1],), ([5, 1],)),
    "multiples-repeats-inv": ("repeats_to_multiples", 3, ([6, 3, 3, 1],), ([5, 1],)),
    "multiples-to-repeats": ("multiples_to_repeats", 3, ([6, 3, 3, 1],), ([5, 1],)),
    "repeats-to-multiples": ("repeats_to_multiples", 3, ([6, 3, 3, 1],), ([5, 1],)),
    "top-multiple": ("top_multiple_to_repeats", 2, ([4, 1],), ([2, 1],)),
    "top-multiple-inv": ("repeats_to_top_multiple", 2, ([1, 1],), ([2, 2, 1],)),
    "gamma": ("mex_pairing", 2, ([5, 3, 1], 2), ([6, 1], 1)),
    "gamma-star": ("mex_pairing_colored", 3, ([2, 1], 4), ([4, 3], 1)),
    "delta": ("maex_pairing", 2, ([6, 1], 1), ([5, 3, 1], 1)),
}


def test_every_bijection_name_has_a_planted_map():
    inverses = [vid + "-inv" for vid, spec in vf._IDS.items()
                if isinstance(spec, vf._Map)]
    assert sorted(BIJECTION_NAMES) == sorted([*vf.BIJECTIONS, *inverses, *ALIASES])


@pytest.mark.parametrize("name", BIJECTION_NAMES)
def test_a_planted_map_changes_chainex_bijection(capsys, name):
    attr, r, given, other = BIJECTION_NAMES[name]
    honest = getattr(bijections, attr)
    argv = ["bijection", name, "--lambda", str(Partition(given[0])), "--r", str(r)]
    argv += [] if len(given) == 1 else ["--i", str(given[1])]
    image = honest(Partition(other[0]), *other[1:], r)
    code, out, err = call(capsys, *argv)
    with mock.patch.object(bijections, attr, lambda *args: image):
        planted = call(capsys, *argv)
    assert (code, err) == (0, "") and planted[0] == 0
    assert planted[1] != out
