import json

import pytest

from chainex.bijections import (
    ColoredEmpty,
    DomainError,
    IndexedPartition,
    PartitionPair,
    glaisher_merge,
    glaisher_split,
    in_colored_codomain,
    in_maex_codomain,
    in_mex_codomain,
    maex_pairing,
    maex_pairing_inv,
    mex_pairing,
    mex_pairing_colored,
    mex_pairing_colored_inv,
    mex_pairing_inv,
    multiples_to_repeats,
    pairing_trace,
    repeats_to_multiples,
    repeats_to_top_multiple,
    _shift_residues,
    top_multiple_to_repeats,
)
from chainex.partition import (
    EMPTY,
    Partition,
    chain_maex,
    chain_mex,
    count_multiples,
    in_gap_class,
    is_regular,
    is_strict,
    largest_repeating,
    maex_offset,
    mex_offset,
    partitions,
    smallest_repeating,
    top_multiple_multiplicity,
)


P = Partition


class TestGlaisher:
    def test_merge_example(self):
        assert glaisher_merge(P([2, 2, 2, 1]), 3) == P([6, 1])

    def test_merge_cascades(self):
        assert glaisher_merge(P([1] * 4), 2) == P([4])

    def test_split_example(self):
        assert glaisher_split(P([6, 1]), 3) == P([2, 2, 2, 1])

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            glaisher_merge(P([3, 1]), 3)
        with pytest.raises(DomainError):
            glaisher_split(P([1, 1, 1]), 3)
        with pytest.raises(DomainError):
            glaisher_merge(P([1]), 1)

    def test_roundtrip_and_images(self):
        for n in range(13):
            for r in (2, 3):
                for lam in partitions(n):
                    if is_regular(lam, r):
                        image = glaisher_merge(lam, r)
                        assert is_strict(image, r)
                        assert image.weight == lam.weight
                        assert glaisher_split(image, r) == lam
                    if is_strict(lam, r):
                        image = glaisher_split(lam, r)
                        assert is_regular(image, r)
                        assert glaisher_merge(image, r) == lam


class TestMultiplesToRepeats:
    def test_worked_example(self):
        lam = P([9, 7, 6, 6, 6, 1, 1, 1, 1])
        image = multiples_to_repeats(lam, 3)
        assert image == P([7, 4, 4, 4, 4, 4, 4, 3, 1, 1, 1, 1])
        assert repeats_to_multiples(image, 3) == lam

    def test_statistic_transport_and_roundtrip(self):
        for n in range(14):
            for r in (2, 3):
                for lam in partitions(n):
                    image = multiples_to_repeats(lam, r)
                    assert image.weight == lam.weight
                    assert largest_repeating(image, r) == count_multiples(lam, r)
                    assert repeats_to_multiples(image, r) == lam
                    assert multiples_to_repeats(repeats_to_multiples(lam, r), r) == lam

    def test_bad_r(self):
        with pytest.raises(DomainError):
            multiples_to_repeats(P([2]), 1)


class TestTopMultipleToRepeats:
    def test_domain_errors(self):
        with pytest.raises(DomainError):
            top_multiple_to_repeats(P([5, 1]), 3)
        with pytest.raises(DomainError):
            repeats_to_top_multiple(P([2, 1]), 3)

    def test_statistic_transport_and_roundtrip(self):
        for n in range(14):
            for r in (2, 3):
                for lam in partitions(n):
                    if count_multiples(lam, r) == 0:
                        continue
                    image = top_multiple_to_repeats(lam, r)
                    assert image.weight == lam.weight
                    assert smallest_repeating(image, r) == \
                        top_multiple_multiplicity(lam, r)
                    assert repeats_to_top_multiple(image, r) == lam


@pytest.mark.parametrize("r", [1, 0])
@pytest.mark.parametrize("map_", [glaisher_split, repeats_to_multiples,
                                  top_multiple_to_repeats, repeats_to_top_multiple,
                                  glaisher_merge],
                         ids=lambda f: f.__name__)
def test_partition_maps_refuse_r_below_two(map_, r):
    # the modulus is checked before the input, which [2,2,1] would fail
    # for both Glaisher maps at r = 1 with a different message
    with pytest.raises(DomainError, match=f"^r must be >= 2, got {r}$"):
        map_(P([2, 2, 1]), r)


class TestPairOperators:
    def test_keep_largest_moves_leftovers(self):
        # the cut at 2 leaves [5] above and [3,3,2,2,2,2] below
        alpha, beta, moved = _shift_residues(P([5, 3, 3, 2, 2, 2, 2]).pairs, 2, 2, "largest")
        assert beta == P([3, 3, 2, 2, 2]).pairs
        assert alpha == P([5, 2]).pairs
        assert moved == ((2, 1),)

    def test_keep_smallest_mirror(self):
        # the cut at 7 leaves [3,3,3,3,2,2] above and [1] below
        alpha, beta, moved = _shift_residues(P([3, 3, 3, 3, 2, 2, 1]).pairs, 7, 2, "smallest")
        assert beta == P([3, 3, 3, 2, 2]).pairs
        assert alpha == P([3, 1]).pairs
        assert moved == ((3, 1),)

    def test_empty_beta_untouched(self):
        assert _shift_residues(P([4, 1]).pairs, 3, 3, "largest") == (P([4, 1]).pairs, (), ())
        assert _shift_residues(P([4, 1]).pairs, 1, 3, "smallest") == (P([4, 1]).pairs, (), ())

    def test_pair_weight_and_json(self):
        pair = PartitionPair(P([3, 1]), P([2]))
        assert pair.weight == 6
        assert pair.to_json() == {"alpha": "[3,1]", "beta": "[2]"}
        colored = PartitionPair(P([3, 1]), ColoredEmpty(2))
        assert colored.weight == 4
        assert colored.to_json() == {"alpha": "[3,1]", "beta": {"empty_color": 2}}

    def test_case_excluded_from_equality(self):
        assert PartitionPair(P([2]), EMPTY, case="case1") == \
            PartitionPair(P([2]), EMPTY, case="case2")
        # so are the steps, and the hash agrees
        pair = PartitionPair(P([3, 1]), P([2]), "case1", (P([2, 1]), 1, (), None))
        bare = PartitionPair(P([3, 1]), P([2]))
        assert pair == bare and not pair != bare
        assert hash(pair) == hash(bare)
        assert len({pair, bare}) == 1
        assert pair != PartitionPair(P([3, 1]), P([1, 1]), "case1")
        assert pair != PartitionPair(P([3]), P([2]))


class TestPairValue:
    """The rest of the pair value's contract (equality and hash are in
    TestPairOperators): a pair is a tuple underneath but never equal to a
    plain one, it is immutable, its repr leaves the steps out, and the
    trace built from its steps is the same JSON on every branch.  A colored
    empty keeps the same contract: it equals only another colored empty."""

    def test_never_equal_to_a_plain_tuple(self):
        pair = PartitionPair(P([3, 1]), P([2]))
        colored = ColoredEmpty(1)
        for value, other in [(pair, (P([3, 1]), P([2]))),
                             (pair, (P([3, 1]), P([2]), None, None)),
                             (colored, (1,)), (colored, P([1])), (colored, EMPTY),
                             (colored, ColoredEmpty(2)), (colored, 1)]:
            assert value != other and other != value
            assert not value == other and not other == value
            assert other not in {value}
        assert colored == ColoredEmpty(color=1) and not colored != ColoredEmpty(1)

    def test_immutable(self):
        pair = PartitionPair(P([3, 1]), P([2]), "case1")
        for name in ("alpha", "beta", "case", "steps", "other"):
            with pytest.raises(AttributeError):
                setattr(pair, name, None)
        assert pair.alpha == P([3, 1]) and pair.case == "case1"
        colored = ColoredEmpty(2)
        for name in ("color", "other"):
            with pytest.raises(AttributeError):
                setattr(colored, name, 3)
        assert colored.color == 2

    def test_colored_empty_hash_and_text(self):
        a, b = ColoredEmpty(2), ColoredEmpty(2)
        assert a == b and hash(a) == hash(b)
        assert len({a, b, ColoredEmpty(1)}) == 2
        assert {a: "x"}[b] == "x"
        assert (repr(a), a.to_json()) == ("ColoredEmpty(color=2)", {"empty_color": 2})

    def test_colored_empty_str_is_its_repr(self):
        # no output path prints a colored empty: the CLI writes to_json()
        assert str(ColoredEmpty(2)) == repr(ColoredEmpty(2)) == "ColoredEmpty(color=2)"

    def test_fields_in_order(self):
        steps = (P([2, 1]), 1, (), None)
        pair = PartitionPair(P([3, 1]), P([2]), "case1", steps)
        assert (pair.alpha, pair.beta, pair.case, pair.steps) == \
            (P([3, 1]), P([2]), "case1", steps)
        bare = PartitionPair(P([3, 1]), ColoredEmpty(1))
        assert (bare.case, bare.steps) == (None, None)
        indexed = IndexedPartition(P([2, 1]), 3)
        assert (indexed.lam, indexed.i) == (P([2, 1]), 3)
        assert indexed == (P([2, 1]), 3)

    def test_repr_leaves_steps_out(self):
        pair = mex_pairing(P([5, 3, 1]), 2, 2)
        assert pair.steps is not None
        assert repr(pair) == ("PartitionPair(alpha=Partition([3, 1, 1]), "
                              "beta=Partition([2, 2]), case='case1')")
        colored = mex_pairing_colored(P([2, 1]), 4, 3)
        assert repr(colored) == ("PartitionPair(alpha=Partition([2, 1]), "
                                 "beta=ColoredEmpty(color=2), case='colored')")

    @pytest.mark.parametrize("forward, lam, i, r, expected", [
        (mex_pairing, [2, 1], 1, 2,
         '{"input": {"lambda": "[2,1]", "i": 1, "r": 2}, "case": "case1", '
         '"intermediate": {"conjugate": "[2,1]", "cut_index": 1, '
         '"moves": [{"value": 1, "copies": 1}]}, "output": {"alpha": "[1]", "beta": "[2]"}}'),
        (mex_pairing, [5, 1], 1, 2,
         '{"input": {"lambda": "[5,1]", "i": 1, "r": 2}, "case": "case2", '
         '"intermediate": {"conjugate": "[2,1,1,1,1]", "cut_index": 1, '
         '"moves": [{"value": 1, "copies": 1}]}, '
         '"output": {"alpha": "[1]", "beta": "[2,1,1,1]"}}'),
        (mex_pairing, [4, 3], 2, 2,
         '{"input": {"lambda": "[4,3]", "i": 2, "r": 2}, "case": "case3.1", '
         '"intermediate": {"conjugate": "[2,2,2,1]", "cut_index": 2, '
         '"moves": [{"value": 1, "copies": 1}]}, "output": {"alpha": "[2,1]", "beta": "[2,2]"}}'),
        (mex_pairing, [4, 3], 1, 2,
         '{"input": {"lambda": "[4,3]", "i": 1, "r": 2}, "case": "case3.2", '
         '"intermediate": {"conjugate": "[2,2,2,1]", "cut_index": 1, '
         '"moves": [{"value": 1, "copies": 1}], "extra_move": {"value": 2, "copies": 2}}, '
         '"output": {"alpha": "[2,2,1]", "beta": "[2]"}}'),
        (mex_pairing_colored, [2, 1], 4, 3,
         '{"input": {"lambda": "[2,1]", "i": 4, "r": 3}, "case": "colored", '
         '"intermediate": {"conjugate": "[2,1]"}, '
         '"output": {"alpha": "[2,1]", "beta": {"empty_color": 2}}}'),
        (maex_pairing, [4, 2, 1], 2, 2,
         '{"input": {"lambda": "[4,2,1]", "i": 2, "r": 2}, "case": "cut", '
         '"intermediate": {"conjugate": "[3,2,1,1]", "cut_index": 4, '
         '"moves": [{"value": 3, "copies": 1}, {"value": 2, "copies": 1}]}, '
         '"output": {"alpha": "[3,2,1]", "beta": "[1]"}}'),
        # case 3.2 again, where the extra move's value (1) and its copies
        # (2) differ, so a trace that swaps them shows
        (mex_pairing, [3], 1, 2,
         '{"input": {"lambda": "[3]", "i": 1, "r": 2}, "case": "case3.2", '
         '"intermediate": {"conjugate": "[1,1,1]", "cut_index": 1, '
         '"moves": [], "extra_move": {"value": 1, "copies": 2}}, '
         '"output": {"alpha": "[1,1]", "beta": "[1]"}}'),
    ])
    def test_trace_json_of_every_branch(self, forward, lam, i, r, expected):
        assert json.dumps(pairing_trace(P(lam), i, r, forward(P(lam), i, r))) == expected


class TestMexPairing:
    def test_worked_example(self):
        pair = mex_pairing(P([5, 3, 1]), 2, 2)
        assert pair.case == "case1"
        assert pair.alpha == P([3, 1, 1])
        assert pair.beta == P([2, 2])
        assert mex_pairing_inv(pair, 2) == (P([5, 3, 1]), 2)

    def test_index_range_enforced(self):
        lam = P([4, 1])
        bound = chain_mex(lam, 2) + mex_offset(lam, 2)
        with pytest.raises(DomainError):
            mex_pairing(lam, 0, 2)
        with pytest.raises(DomainError):
            mex_pairing(lam, bound + 1, 2)

    def test_roundtrip_weight_codomain(self):
        for n in range(12):
            for r in (1, 2, 3):
                for lam in partitions(n):
                    bound = chain_mex(lam, r) + mex_offset(lam, r)
                    for i in range(1, bound + 1):
                        pair = mex_pairing(lam, i, r)
                        assert pair.weight == lam.weight
                        assert in_mex_codomain(pair, r)
                        assert mex_pairing_inv(pair, r) == (lam, i)

    def test_all_cases_exercised(self):
        seen = set()
        for n in range(12):
            for lam in partitions(n):
                bound = chain_mex(lam, 2) + mex_offset(lam, 2)
                for i in range(1, bound + 1):
                    seen.add(mex_pairing(lam, i, 2).case)
        assert seen == {"case1", "case2", "case3.1", "case3.2"}

    def test_trace_shape(self):
        trace = pairing_trace(P([5, 3, 1]), 2, 2, mex_pairing(P([5, 3, 1]), 2, 2))
        assert trace["input"] == {"lambda": "[5,3,1]", "i": 2, "r": 2}
        assert trace["case"] == "case1"
        assert trace["intermediate"]["conjugate"] == "[3,2,2,1,1]"
        assert trace["output"] == {"alpha": "[3,1,1]", "beta": "[2,2]"}

    def test_inverse_rejects_bad_pair(self):
        with pytest.raises(DomainError):
            mex_pairing_inv(PartitionPair(P([2, 2]), EMPTY), 1)


class TestMexPairingColored:
    def test_surplus_indices_get_colors(self):
        lam = P([2, 1])  # gap-bounded for r = 3, chain mex 3
        pair = mex_pairing_colored(lam, 4, 3)
        assert pair.beta == ColoredEmpty(2)
        assert pair.alpha == lam.conjugate()
        assert mex_pairing_colored_inv(pair, 3) == (lam, 4)

    def test_roundtrip_and_codomain(self):
        for n in range(11):
            for r in (1, 2, 3):
                for lam in partitions(n):
                    bound = chain_mex(lam, r) + r - 1
                    for i in range(1, bound + 1):
                        pair = mex_pairing_colored(lam, i, r)
                        assert in_colored_codomain(pair, r)
                        assert pair.weight == lam.weight
                        assert mex_pairing_colored_inv(pair, r) == (lam, i)

    def test_index_range_uniform(self):
        with pytest.raises(DomainError):
            mex_pairing_colored(P([2, 1]), 6, 3)


class TestMaexPairing:
    def test_worked_example(self):
        pair = maex_pairing(P([6, 1]), 1, 2)
        assert in_maex_codomain(pair, 2)
        assert maex_pairing_inv(pair, 2) == (P([6, 1]), 1)

    def test_empty_partition(self):
        # largest 0, chain maex 0, offset 1: exactly one admissible index
        pair = maex_pairing(EMPTY, 1, 2)
        assert pair.alpha == EMPTY and pair.beta == EMPTY
        assert maex_pairing_inv(pair, 2) == (EMPTY, 1)

    def test_index_range_enforced(self):
        lam = P([7])
        bound = lam.largest - chain_maex(lam, 2) + maex_offset(lam, 2)
        assert bound == 3
        with pytest.raises(DomainError):
            maex_pairing(lam, 4, 2)

    def test_roundtrip_weight_codomain(self):
        for n in range(12):
            for r in (1, 2, 3):
                for lam in partitions(n):
                    bound = lam.largest - chain_maex(lam, r) + maex_offset(lam, r)
                    for i in range(1, bound + 1):
                        pair = maex_pairing(lam, i, r)
                        assert pair.weight == lam.weight
                        assert in_maex_codomain(pair, r)
                        assert maex_pairing_inv(pair, r) == (lam, i)

    def test_trace_shape(self):
        trace = pairing_trace(P([6, 1]), 2, 2, maex_pairing(P([6, 1]), 2, 2))
        assert trace["input"]["lambda"] == "[6,1]"
        assert "conjugate" in trace["intermediate"]
        assert "alpha" in trace["output"]

    def test_inverse_rejects_bad_pair(self):
        with pytest.raises(DomainError):
            maex_pairing_inv(PartitionPair(P([2, 2]), EMPTY), 1)


class TestCodomainCheckers:
    def test_mex_codomain(self):
        assert in_mex_codomain(PartitionPair(P([3, 1]), P([2, 2, 1, 1, 1])), 2)
        assert not in_mex_codomain(PartitionPair(P([3, 1]), P([2, 2, 2])), 2)
        assert not in_mex_codomain(PartitionPair(P([1, 1, 1]), EMPTY), 2)
        assert not in_mex_codomain(PartitionPair(P([1]), ColoredEmpty(1)), 2)

    def test_colored_codomain(self):
        assert in_colored_codomain(PartitionPair(P([1]), ColoredEmpty(2)), 2)
        assert not in_colored_codomain(PartitionPair(P([1]), ColoredEmpty(3)), 2)
        assert not in_colored_codomain(PartitionPair(P([1]), EMPTY), 2)

    def test_maex_codomain(self):
        assert in_maex_codomain(PartitionPair(P([3, 1]), P([2, 2, 2, 1])), 2)
        assert not in_maex_codomain(PartitionPair(P([3, 1]), P([2, 2, 1])), 2)
        assert not in_maex_codomain(PartitionPair(P([1]), ColoredEmpty(1)), 2)
