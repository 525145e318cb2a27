import pytest

from chainex.bijections import (
    ColoredEmpty,
    DomainError,
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


class TestPairOperators:
    def test_keep_largest_moves_leftovers(self):
        alpha, beta, moved = _shift_residues(P([5]), P([3, 3, 2, 2, 2, 2]), 2, "largest")
        assert beta == P([3, 3, 2, 2, 2])
        assert alpha == P([5, 2])
        assert moved == ((2, 1),)

    def test_keep_smallest_mirror(self):
        alpha, beta, _ = _shift_residues(P([5]), P([3, 3, 3, 3, 2, 2]), 2, "smallest")
        assert beta == P([3, 3, 3, 2, 2])
        assert alpha == P([5, 3])

    def test_empty_beta_untouched(self):
        assert _shift_residues(P([4, 1]), EMPTY, 3, "largest") == (P([4, 1]), EMPTY, ())

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
