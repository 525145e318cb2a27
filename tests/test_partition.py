from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chainex.brute import _walk_heads, tallies
from chainex.partition import (
    EMPTY,
    Partition,
    PartitionError,
    chain_maex,
    chain_mex,
    count_multiples,
    in_gap_class,
    is_regular,
    is_strict,
    largest_repeating,
    maex_offset,
    mex_offset,
    parts_above,
    parts_above_maex,
    parts_above_mex,
    partitions,
    smallest_repeating,
    top_multiple_multiplicity,
)

from oracles import (
    ferrers_transpose,
    folded_excludants,
    gap_bounded,
    linear_maex,
    linear_mex,
    partition_count,
    recursive_partitions,
    scan_state,
)


P = Partition


class TestConstruction:
    def test_normalizes_to_pairs(self):
        assert P([4, 4, 2, 1, 1, 1]).pairs == ((4, 2), (2, 1), (1, 3))

    def test_views_agree(self):
        lam = P([5, 3, 3, 1])
        assert lam.parts == (5, 3, 3, 1)
        assert lam.weight == 12
        assert lam.num_parts == 4
        assert lam.multiplicity(3) == 2
        assert lam.multiplicity(4) == 0

    def test_empty(self):
        assert EMPTY.parts == ()
        assert EMPTY.weight == 0
        assert EMPTY.num_parts == 0
        assert EMPTY.largest == 0

    def test_no_is_empty(self):
        # emptiness is read off the parts (or the pairs), as everywhere else
        assert not hasattr(Partition, "is_empty")

    def test_rejects_bad_parts(self):
        with pytest.raises(PartitionError):
            P([3, 4])
        with pytest.raises(PartitionError):
            P([2, 0])
        with pytest.raises(PartitionError):
            P([-1])

    def test_rejects_bool_parts(self):
        with pytest.raises(PartitionError):
            P([True])
        with pytest.raises(PartitionError):
            P([3, False])

    def test_parse_sorts_parts_in_any_order(self):
        assert P.parse("[1,3,2,3]", sort=True) == P([3, 3, 2, 1])

    def test_parse_and_str_roundtrip(self):
        for text in ("[]", "[1]", "[7,4,4,4,4,4,4,3,1,1,1,1]"):
            assert str(P.parse(text)) == text

    def test_parse_rejects_unsorted_unless_asked(self):
        with pytest.raises(PartitionError):
            P.parse("[1,3]")
        assert P.parse("[1,3]", sort=True) == P([3, 1])
        with pytest.raises(PartitionError):
            P.parse("3,1")
        with pytest.raises(PartitionError):
            P.parse("[a,b]")


class TestConjugate:
    def test_hook(self):
        assert P([4, 1]).conjugate() == P([2, 1, 1, 1])

    def test_empty(self):
        assert EMPTY.conjugate() == EMPTY

    def test_worked_example(self):
        # conjugate of (9,6,6,6) has columns (4^6, 1^3)
        assert P([9, 6, 6, 6]).conjugate() == P([4] * 6 + [1] * 3)

    def test_against_transpose_oracle(self):
        for n in range(13):
            for lam in partitions(n):
                assert lam.conjugate().parts == tuple(ferrers_transpose(lam.parts))

    def test_involution(self):
        for n in range(13):
            for lam in partitions(n):
                assert lam.conjugate().conjugate() == lam


class TestConcatAndCut:
    def test_worked_example(self):
        assert P([3, 3, 1, 1, 1]).concat(P([5, 2, 2, 2, 1, 1])) == \
            P([5, 3, 3, 2, 2, 2, 1, 1, 1, 1, 1])

    def test_identity_element(self):
        lam = P([4, 2, 1])
        assert lam.concat(EMPTY) == lam
        assert EMPTY.concat(lam) == lam

    def test_merges_equal_parts(self):
        assert P([2]).concat(P([2])) == P([2, 2])

    def test_cut_examples(self):
        lam = P([5, 3, 2])
        assert lam.cut(2) == (P([5]), P([3, 2]))
        assert lam.cut(1)[0] == EMPTY
        assert P([4, 4, 1]).cut(4)[1] == EMPTY

    def test_cut_out_of_range(self):
        with pytest.raises(PartitionError):
            P([2, 1]).cut(4)
        with pytest.raises(PartitionError):
            P([2, 1]).cut(0)

    def test_cut_concat_inverse(self):
        for n in range(11):
            for lam in partitions(n):
                for i in range(1, lam.num_parts + 2):
                    up, down = lam.cut(i)
                    assert up.concat(down) == lam


class TestChainMex:
    def test_empty(self):
        for r in (1, 2, 5):
            assert chain_mex(EMPTY, r) == 1

    def test_scan_example(self):
        assert chain_mex(P([5, 3, 2, 2, 1]), 2) == 6

    def test_matches_linear_oracle_for_r1(self):
        for n in range(13):
            for lam in partitions(n):
                assert chain_mex(lam, 1) == linear_mex(lam.parts)

    def test_gap_class_value(self):
        # on the gap-bounded class the chain mex sits just above the top part
        assert chain_mex(P([2, 1]), 2) == 3
        for n in range(13):
            for r in (1, 2, 3):
                for lam in partitions(n):
                    if in_gap_class(lam, r):
                        assert chain_mex(lam, r) == lam.largest + 1

    def test_rejects_bad_r(self):
        for r in (0, 1.5, True):
            with pytest.raises(PartitionError):
                chain_mex(P([1]), r)


class TestChainMaex:
    def test_trivial_zero(self):
        assert chain_maex(EMPTY, 3) == 0
        assert chain_maex(P([1, 1]), 2) == 0

    def test_scan_examples(self):
        assert chain_maex(P([6, 1]), 2) == 5
        assert chain_maex(P([7]), 2) == 6

    def test_positive_iff_off_gap_class(self):
        for n in range(13):
            for r in (1, 2, 3):
                for lam in partitions(n):
                    m = chain_maex(lam, r)
                    assert (m > 0) == (not gap_bounded(lam.parts, r))
                    if m > 0:
                        assert m >= r


class TestChainExcludants:
    R_MAX = 8

    def assert_matches_oracles(self, lam):
        mex, maex = folded_excludants(lam.pairs, self.R_MAX)
        assert mex == [linear_mex(lam.parts, r) for r in range(1, self.R_MAX + 1)]
        assert maex == [linear_maex(lam.parts, r) for r in range(1, self.R_MAX + 1)]

    def test_every_partition_to_16(self):
        for n in range(17):
            for lam in partitions(n):
                self.assert_matches_oracles(lam)

    @given(st.lists(st.integers(1, 60), max_size=30))
    def test_random_partitions(self, parts):
        # the longest prefix of weight <= 200
        total, kept = 0, []
        for p in parts:
            if total + p > 200:
                break
            total += p
            kept.append(p)
        self.assert_matches_oracles(P(sorted(kept, reverse=True)))

    def test_readers_agree_with_scan(self):
        lam = P([12, 11, 7, 3, 3])
        mex, maex = folded_excludants(lam.pairs, 5)
        assert mex == [1, 1, 4, 13, 13]
        assert maex == [10, 10, 10, 0, 0]
        for r in range(1, 6):
            assert chain_mex(lam, r) == mex[r - 1]
            assert chain_maex(lam, r) == maex[r - 1]

    def test_chains_longer_than_the_largest_part(self):
        for lam in partitions(9):
            assert chain_mex(lam, 10 ** 12) == lam.largest + 1
            assert chain_maex(lam, 10 ** 12) == 0


class TestClassAndOffsets:
    def test_membership_examples(self):
        assert not in_gap_class(P([4, 1, 1, 1]), 2)
        assert in_gap_class(EMPTY, 5)
        assert in_gap_class(P([3, 2, 1]), 1)
        with pytest.raises(PartitionError):
            in_gap_class(P([3, 2, 1]), 0)

    def test_offset_values(self):
        assert mex_offset(EMPTY, 4) == 0
        assert maex_offset(EMPTY, 4) == 1
        assert mex_offset(P([7]), 2) == 1
        assert maex_offset(P([7]), 2) == 2
        assert mex_offset(P([3, 2, 1]), 3) == 0


class TestRepeatsAndMultiples:
    def test_largest_repeating(self):
        assert largest_repeating(P([7, 4, 4, 4, 4, 4, 4, 3, 1, 1, 1, 1]), 3) == 4
        assert largest_repeating(P([2, 1]), 2) == 0

    def test_smallest_repeating(self):
        assert smallest_repeating(P([4, 1, 1, 1]), 3) == 1

    def test_count_multiples(self):
        assert count_multiples(P([9, 7, 6, 6, 6, 1, 1, 1, 1]), 3) == 4
        assert count_multiples(EMPTY, 4) == 0

    def test_top_multiple_multiplicity(self):
        assert top_multiple_multiplicity(P([6, 1]), 3) == 1
        assert top_multiple_multiplicity(P([5, 1]), 3) == 0

    def test_regular_strict_predicates(self):
        assert is_regular(P([7, 1]), 3)
        assert not is_regular(P([6, 1]), 3)
        assert is_strict(P([3, 3, 1]), 3)
        assert not is_strict(P([1, 1, 1]), 3)


class TestPartsAboveMex:
    def test_parts_above_a_bound(self):
        # a part equal to the bound is not above it
        lam = P([7, 5, 5, 3, 1])
        assert [parts_above(lam, b) for b in (0, 3, 4, 5, 6, 7)] == [5, 3, 3, 1, 1, 0]
        assert parts_above(EMPTY, 0) == 0

    def test_values(self):
        assert parts_above_mex(EMPTY, 3) == 0
        assert parts_above_mex(P([5, 3, 2, 2, 1]), 2) == 0
        assert parts_above_mex(P([7, 1]), 2) == 1

    def test_above_maex_matches_flat_oracle(self):
        # the maex is 0 on the gap-bounded class, so every part is above it
        for n in range(16):
            for r in (1, 2, 3, 5):
                for lam in partitions(n):
                    maex = linear_maex(lam.parts, r)
                    assert parts_above_maex(lam, r) == sum(1 for p in lam.parts if p > maex)

    def test_conjugation_swaps_with_largest_repeating(self):
        # j parts above the (r-1)-chain mex <-> largest r-repeating part j
        for n in range(19):
            for r in (2, 3, 4):
                for lam in partitions(n):
                    assert largest_repeating(lam.conjugate(), r) == \
                        parts_above_mex(lam, r - 1)


class TestEnumeration:
    def test_zero(self):
        assert list(partitions(0)) == [EMPTY]

    def test_count_seven(self):
        assert sum(1 for _ in partitions(7)) == 15

    def test_counts_match_pentagonal_oracle(self):
        for n in range(19):
            assert sum(1 for _ in partitions(n)) == partition_count(n)

    def test_counts_match_pentagonal_oracle_to_50(self):
        for n in range(51):
            assert sum(1 for _ in partitions(n)) == partition_count(n)

    def test_matches_recursive_oracle_in_order(self):
        for n in range(23):
            assert [p.parts for p in partitions(n)] == list(recursive_partitions(n))

    def test_yields_normalized_pairs(self):
        for lam in partitions(9):
            assert lam == P(lam.parts)
            assert lam.weight == 9

    def test_decreasing_lex_order(self):
        for n in (5, 8):
            seen = [p.parts for p in partitions(n)]
            assert seen == sorted(seen, reverse=True)
            assert len(set(seen)) == len(seen)

    def test_filtered_worked_example(self):
        # 2-chain maex positive with exactly one part above it, n = 7
        hits = [str(p) for p in partitions(7) if chain_maex(p, 2) > 0
                and sum(m for v, m in p.pairs if v > chain_maex(p, 2)) == 1]
        assert hits == ["[7]", "[6,1]", "[5,2]", "[5,1,1]", "[4,1,1,1]"]

    def test_negative_n(self):
        with pytest.raises(PartitionError):
            list(partitions(-1))
        with pytest.raises(ValueError):
            tallies(-1, 3)


class TestWalkScans:
    def test_order_and_carried_state_to_22(self):
        # partitions(n) lists the partitions of n in decreasing
        # lexicographic order; the head walk visits every head (a partition
        # with no part 1) of weight w <= n once, under the id of the key of
        # the scan folded from scratch over its values and its smallest
        # part, and counts that id and its largest part at w
        for n in range(23):
            assert [lam.parts for lam in partitions(n)] == list(recursive_partitions(n)), n
        every = [(w, P(parts).pairs) for w in range(1, 23)
                 for parts in recursive_partitions(w) if parts[-1] > 1]
        for depth in range(1, 9):
            keyed = sorted((w, pairs, (scan_state(pairs, depth), pairs[-1][0]))
                           for w, pairs in every)
            for n in range(23):
                visits = []
                heads = [Counter() for _ in range(n + 1)]
                largest = [0] * (n + 1)
                ids = {}
                _walk_heads((), None, 0, n, depth, heads, largest,
                            lambda head, w, key: visits.append((w, head, key)), ids)
                # id i is the i-th key interned
                assert list(ids.values()) == list(range(len(ids))), (n, depth)
                keys = list(ids)
                expected = [visit for visit in keyed if visit[0] <= n]
                assert sorted((w, head, keys[i]) for w, head, i in visits) == expected, (n, depth)
                assert [Counter({keys[i]: c for i, c in counts.items()})
                        for counts in heads[1:]] == [
                    Counter(key for v, _, key in expected if v == w)
                    for w in range(1, n + 1)], (n, depth)
                assert largest[1:] == [sum(pairs[0][0] for v, pairs, _ in expected if v == w)
                                       for w in range(1, n + 1)], (n, depth)
                assert not heads[0] and not largest[0]

    def test_ids_one_to_one_on_keys_to_22(self):
        # seeded as tallies seeds it, with the empty head's key under id 0,
        # the walk's id table maps ids 0, 1, ... one-to-one onto the
        # distinct keys (scan state, smallest part) of the heads of weight
        # <= 22, and gives each head the id of its own key
        every = [P(parts).pairs for w in range(1, 23)
                 for parts in recursive_partitions(w) if parts[-1] > 1]
        for depth in range(1, 9):
            empty = scan_state((), depth), 0
            ids = {empty: 0}
            visits = []
            _walk_heads((), None, 0, 22, depth, [Counter() for _ in range(23)], [0] * 23,
                        lambda head, w, key: visits.append((head, key)), ids)
            oracle = {pairs: (scan_state(pairs, depth), pairs[-1][0]) for pairs in every}
            assert list(ids.values()) == list(range(len(ids))), depth
            assert set(ids) == set(oracle.values()) | {empty}, depth
            assert len(ids) == len(set(oracle.values())) + 1, depth
            assert len(visits) == len(oracle), depth
            keys = list(ids)
            assert {head: keys[i] for head, i in visits} == oracle, depth

    @pytest.mark.parametrize("n, depth", [(40, 1), (30, 6)])
    def test_progressions_and_steps_match_the_visits(self, n, depth):
        # past 22 the multiplicities of many values run long progressions
        # and many prefixes reach one key, so most heads are counted by
        # running a start up its progression and most keys by a memoized
        # step.  Seeded as tallies seeds it, the walk lists each head once
        # (p(n) - 1 heads, by weight), its counts and largest-part sums
        # equal a recount of those visits, and each visit carries the id
        # of the head's own key (scan state, smallest part)
        empty = scan_state((), depth), 0
        ids = {empty: 0}
        heads = [Counter({0: 1})] + [Counter() for _ in range(n)]
        largest = [0] * (n + 1)
        visits = []
        _walk_heads((), None, 0, n, depth, heads, largest,
                    lambda head, w, key: visits.append((head, w, key)), ids)
        assert len({head for head, _, _ in visits}) == len(visits) == partition_count(n) - 1
        recount = [Counter({0: 1})] + [Counter() for _ in range(n)]
        tops = [0] * (n + 1)
        for head, w, i in visits:
            values = [v for v, _ in head]
            assert values == sorted(set(values), reverse=True) and values[-1] > 1, head
            assert sum(v * m for v, m in head) == w, head
            recount[w][i] += 1
            tops[w] += head[0][0]
        assert heads == recount
        assert largest == tops
        keys = list(ids)
        assert keys[0] == empty
        for head, _, i in visits:
            assert keys[i] == (scan_state(head, depth), head[-1][0]), head

    def test_state_layout(self):
        # [12, 11, 7, 3, 3] above its smallest part: the runs 8..10 and 4..6
        assert scan_state(P([12, 11, 7, 3, 3]).pairs, 4) == (4, 4, 4, 13, 10, 10, 10, 0)
        assert scan_state((), 2) == (1, 1, 0, 0)
