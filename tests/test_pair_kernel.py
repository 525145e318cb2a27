"""The structural operators and the Glaisher-type partition maps on
(value, multiplicity) pairs against the flat-parts references in
``oracles``, and the index-to-pair maps gamma,
gamma-star and delta and the partition maps glaisher, multiples-repeats
and top-multiple on partitions far larger than exhaustive certification
reaches.
"""

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainex import bijections as bij
from chainex.bijections import ColoredEmpty, DomainError, PartitionPair
from chainex.partition import (
    Partition,
    PartitionError,
    chain_maex,
    chain_mex,
    chain_mex_maex,
    count_multiples,
    in_gap_class,
    is_strict,
    largest_repeating,
    maex_offset,
    mex_offset,
    parts_above,
    smallest_repeating,
    top_multiple_multiplicity,
)

from oracles import (
    ferrers_transpose,
    flat_concat,
    flat_cut,
    flat_glaisher_merge,
    flat_glaisher_split,
    flat_shift_residues,
    gap_bounded,
    linear_maex,
    linear_mex,
)

P = Partition


@st.composite
def partitions_of(draw, low, high):
    """A partition of a weight drawn from low..high.  The cap on its parts
    is drawn too, so that both a few large parts and many small ones
    occur."""
    n = draw(st.integers(low, high))
    cap = draw(st.integers(1, max(n, 1)))
    parts = []
    while n:
        part = draw(st.integers(1, min(n, cap)))
        parts.append(part)
        n -= part
    return P.of_multiset(parts)


small = partitions_of(0, 40)


# ---------------------------------------------------------------------------
# Cut, concat and the pair operators against flat parts
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.data())
def test_cut_matches_flat_reference(data):
    lam = data.draw(small, label="lambda")
    i = data.draw(st.integers(-2, lam.num_parts + 3), label="i")
    expected = flat_cut(lam.parts, i)
    if expected is None:
        message = re.escape(f"cut index {i} out of range 1..{lam.num_parts + 1}")
        with pytest.raises(PartitionError, match=message):
            lam.cut(i)
    else:
        # equality compares the pairs, so this also checks they are canonical
        assert lam.cut(i) == (P(expected[0]), P(expected[1]))


@settings(max_examples=200, deadline=None)
@given(small, small)
def test_concat_matches_flat_reference(a, b):
    assert a.concat(b) == P(flat_concat(a.parts, b.parts))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_shift_residues_match_flat_reference(data):
    lam = data.draw(small, label="lambda")
    cut = data.draw(st.integers(1, lam.num_parts + 1), label="cut")
    r = data.draw(st.integers(1, 5), label="r")
    keep_largest = data.draw(st.booleans(), label="keep_largest")
    # gamma pairs the upper piece with the lower one, delta the other way
    upper, lower = flat_cut(lam.parts, cut)
    alpha, beta = (upper, lower) if keep_largest else (lower, upper)
    a, b, _ = bij._shift_residues(lam, cut, r, "largest" if keep_largest else "smallest")
    flat_a, flat_b = flat_shift_residues(alpha, beta, r, keep_largest)
    assert (a, b) == (P(flat_a), P(flat_b))


@pytest.mark.parametrize("cut", [-1, 0, 5, 6])
@pytest.mark.parametrize("keep", ["largest", "smallest"])
def test_shift_residues_refuses_the_cuts_partition_cut_refuses(cut, keep):
    lam = P([3, 3, 1])
    with pytest.raises(PartitionError, match="out of range 1..4"):
        lam.cut(cut)
    with pytest.raises(PartitionError, match="out of range 1..4"):
        bij._shift_residues(lam, cut, 2, keep)


# ---------------------------------------------------------------------------
# Conjugation and the pair value type far past the exhaustive range
# ---------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(partitions_of(60, 200))
def test_conjugate_at_weight_60_to_200(lam):
    conjugate = lam.conjugate()
    assert conjugate.parts == tuple(ferrers_transpose(lam.parts))
    # canonical pairs: strictly decreasing values, positive multiplicities
    values = [v for v, _ in conjugate.pairs]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert all(m >= 1 for _, m in conjugate.pairs)
    assert conjugate.conjugate() == lam


@settings(max_examples=200, deadline=None)
@given(partitions_of(60, 200), st.integers(1, 12))
def test_chain_mex_read_from_the_conjugate(lam, r):
    # The parts of lam are the running counts of the conjugate's parts, so
    # a run of >= r values missing from lam is a conjugate value g with
    # more than r copies.  The gamma inverse reads the mex this way from
    # the union alpha + beta, the conjugate of its preimage.
    conjugate = lam.conjugate()
    g = largest_repeating(conjugate, r + 1)     # 0 when there is none
    mex = chain_mex(lam, r)
    assert mex == 1 + sum(m for v, m in conjugate.pairs if v > g)
    assert parts_above(lam, mex) == g


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_pair_equality_and_hash_ignore_steps(data):
    lam = data.draw(partitions_of(60, 200), label="lambda")
    r = data.draw(st.integers(1, 4), label="r")
    i = data.draw(st.integers(1, chain_mex(lam, r) + mex_offset(lam, r)), label="i")
    pair = bij.mex_pairing(lam, i, r)
    assert pair.steps is not None
    bare = PartitionPair(pair.alpha, pair.beta)
    assert pair == bare
    assert hash(pair) == hash(bare)
    assert "steps" not in repr(pair)


# ---------------------------------------------------------------------------
# Round trips far past the exhaustive range
# ---------------------------------------------------------------------------

# map -> (forward, inverse, codomain checker, index bound of lambda at r)
MAPS = {
    "gamma": (bij.mex_pairing, bij.mex_pairing_inv, bij.in_mex_codomain,
              lambda lam, r: chain_mex(lam, r) + mex_offset(lam, r)),
    "gamma-star": (bij.mex_pairing_colored, bij.mex_pairing_colored_inv,
                   bij.in_colored_codomain, lambda lam, r: chain_mex(lam, r) + r - 1),
    "delta": (bij.maex_pairing, bij.maex_pairing_inv, bij.in_maex_codomain,
              lambda lam, r: lam.largest - chain_maex(lam, r) + maex_offset(lam, r)),
}


@pytest.mark.parametrize("name", sorted(MAPS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_round_trip_at_weight_60_to_200(name, data):
    forward, inverse, checker, bound = MAPS[name]
    lam = data.draw(partitions_of(60, 200), label="lambda")
    r = data.draw(st.integers(1, 4), label="r")
    i = data.draw(st.integers(1, bound(lam, r)), label="i")
    pair = forward(lam, i, r)
    assert checker(pair, r)
    assert inverse(pair, r) == (lam, i)
    assert pair.weight == lam.weight


@st.composite
def gap_walks(draw, r):
    """A partition of weight 60..200 whose values climb from 0 by gaps of
    1..r, except that the gap at one drawn step, if the walk gets that far,
    is r+1: it lies on the gap-bounded class or just off it."""
    wide = draw(st.integers(0, 20))
    pairs, value, weight = [], 0, 0
    while True:
        value += r + 1 if len(pairs) == wide else draw(st.integers(1, r))
        copies = draw(st.integers(1, 2))
        if weight + value * copies > 200:
            break
        pairs.append((value, copies))
        weight += value * copies
        if weight >= 60 and draw(st.booleans()):
            break
    return P([v for v, m in reversed(pairs) for _ in range(m)])


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_one_scan_class_and_index_bounds_at_weight_60_to_200(data):
    # the forward maps read the chain mex, the maex and the gap class off
    # one scan; the class must agree with the predicate, and each map must
    # take exactly the indices up to its bound in MAPS (for gamma,
    # chain_mex + mex_offset)
    r = data.draw(st.integers(1, 8), label="r")
    lam = data.draw(st.one_of(partitions_of(60, 200), gap_walks(r)), label="lambda")
    assert in_gap_class(lam, r) == gap_bounded(lam.parts, r)
    for name in sorted(MAPS):
        forward, _, _, bound = MAPS[name]
        top = bound(lam, r)
        forward(lam, top, r)
        with pytest.raises(DomainError) as info:
            forward(lam, top + 1, r)
        assert str(info.value) == f"index {top + 1} outside 1..{top} for {lam}"


@settings(max_examples=200, deadline=None)
@given(lam=partitions_of(60, 200))
def test_one_r_scan_at_weight_60_to_200(lam):
    for r in range(1, 13):
        assert chain_mex_maex(lam, r) == (linear_mex(lam.parts, r), linear_maex(lam.parts, r))
    assert chain_mex_maex(lam, 10 ** 12) == (lam.largest + 1, 0)


@st.composite
def regular_partitions_of(draw, low, high, r):
    """An r-regular partition (no part divisible by r) of a weight drawn
    from low..high, its largest part capped as in ``partitions_of``."""
    n = draw(st.integers(low, high))
    cap = draw(st.integers(1, n))
    parts = []
    while n:
        part = draw(st.integers(1, min(n, cap)))
        if part % r == 0:
            part -= 1   # r >= 2, so this is no multiple of r
        parts.append(part)
        n -= part
    return P.of_multiset(parts)


@st.composite
def partitions_with_a_multiple(draw, low, high, r):
    """A partition of a weight drawn from low..high with at least one part
    divisible by r."""
    n = draw(st.integers(low, high))
    multiple = r * draw(st.integers(1, n // r))
    rest = draw(partitions_of(n - multiple, n - multiple))
    return P.of_multiset(rest.parts + (multiple,))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_glaisher_round_trip_at_weight_60_to_200(data):
    r = data.draw(st.integers(2, 5), label="r")
    lam = data.draw(regular_partitions_of(60, 200, r), label="lambda")
    out = bij.glaisher_merge(lam, r)
    assert out.weight == lam.weight
    assert is_strict(out, r)
    assert bij.glaisher_split(out, r) == lam


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_multiples_repeats_round_trip_at_weight_60_to_200(data):
    r = data.draw(st.integers(2, 5), label="r")
    lam = data.draw(partitions_of(60, 200), label="lambda")
    out = bij.multiples_to_repeats(lam, r)
    assert out.weight == lam.weight
    assert bij.repeats_to_multiples(out, r) == lam
    assert largest_repeating(out, r) == count_multiples(lam, r)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_top_multiple_round_trip_at_weight_60_to_200(data):
    r = data.draw(st.integers(2, 5), label="r")
    lam = data.draw(partitions_with_a_multiple(60, 200, r), label="lambda")
    out = bij.top_multiple_to_repeats(lam, r)
    assert out.weight == lam.weight
    assert not is_strict(out, r)   # it has an r-repeating part
    assert bij.repeats_to_top_multiple(out, r) == lam
    assert smallest_repeating(out, r) == top_multiple_multiplicity(lam, r)


# ---------------------------------------------------------------------------
# The partition maps against step-by-step joins and breaks of flat parts
# ---------------------------------------------------------------------------

def assert_flat(out, parts):
    """out has the flat parts, and its pairs are the canonical ones."""
    assert out.parts == parts
    assert out.pairs == P(parts).pairs


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_glaisher_maps_match_flat_reference(data):
    r = data.draw(st.integers(2, 5), label="r")
    lam = data.draw(regular_partitions_of(60, 200, r), label="lambda")
    assert_flat(bij.glaisher_merge(lam, r), flat_glaisher_merge(lam.parts, r))
    # every r-strict partition is the merge of an r-regular one
    strict = P(flat_glaisher_merge(lam.parts, r))
    assert_flat(bij.glaisher_split(strict, r), flat_glaisher_split(strict.parts, r))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_multiples_repeats_match_flat_reference(data):
    r = data.draw(st.integers(2, 5), label="r")
    lam = data.draw(partitions_of(60, 200), label="lambda")
    # the parts not divisible by r merge, the multiples of r conjugate
    other = [p for p in lam.parts if p % r]
    multiples = [p for p in lam.parts if not p % r]
    assert_flat(bij.multiples_to_repeats(lam, r),
                flat_concat(flat_glaisher_merge(other, r), ferrers_transpose(multiples)))
    # r-fold copies conjugate, the copies left over split
    repeated = [v for v, m in lam.pairs for _ in range(m - m % r)]
    rest = [v for v, m in lam.pairs for _ in range(m % r)]
    assert_flat(bij.repeats_to_multiples(lam, r),
                flat_concat(flat_glaisher_split(rest, r), ferrers_transpose(repeated)))


# ---------------------------------------------------------------------------
# Exact error texts and traces
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("call,message", [
    (lambda: bij.mex_pairing(P([5, 3, 1]), 9, 2), "index 9 outside 1..6 for [5,3,1]"),
    (lambda: bij.pairing_trace(P([5, 3, 1]), 0, 2, bij.mex_pairing(P([5, 3, 1]), 0, 2)),
     "index 0 outside 1..6 for [5,3,1]"),
    (lambda: bij.mex_pairing_colored(P([5, 3, 1]), 8, 2), "index 8 outside 1..7 for [5,3,1]"),
    (lambda: bij.maex_pairing(P([5, 3, 1]), 7, 2), "index 7 outside 1..6 for [5,3,1]"),
    (lambda: bij.pairing_trace(P([]), 2, 1, bij.maex_pairing(P([]), 2, 1)),
     "index 2 outside 1..1 for []"),
    (lambda: bij.mex_pairing(P([1]), 1, 0), "r must be >= 1"),
    (lambda: bij.mex_pairing_colored(P([1]), 1, 0), "r must be >= 1"),
    (lambda: bij.maex_pairing(P([1]), 1, 0), "r must be >= 1"),
    (lambda: bij.mex_pairing_inv(PartitionPair(P([1, 1, 1]), P([2])), 2),
     "pair {'alpha': '[1,1,1]', 'beta': '[2]'} violates the codomain constraints"),
    (lambda: bij.mex_pairing_colored_inv(PartitionPair(P([3]), P([])), 2),
     "pair {'alpha': '[3]', 'beta': '[]'} violates the colored codomain constraints"),
    (lambda: bij.mex_pairing_colored_inv(PartitionPair(P([]), ColoredEmpty(3)), 2),
     "pair {'alpha': '[]', 'beta': {'empty_color': 3}} violates the colored codomain "
     "constraints"),
    (lambda: bij.maex_pairing_inv(PartitionPair(P([]), ColoredEmpty(1)), 1),
     "pair {'alpha': '[]', 'beta': {'empty_color': 1}} violates the codomain constraints"),
    (lambda: bij.maex_pairing_inv(PartitionPair(P([2, 2]), P([3, 1])), 1),
     "pair {'alpha': '[2,2]', 'beta': '[3,1]'} violates the codomain constraints"),
])
def test_domain_error_text(call, message):
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message


def test_trace_json_of_the_extra_move_branch():
    assert json.dumps(bij.pairing_trace(P([4, 3]), 1, 2, bij.mex_pairing(P([4, 3]), 1, 2))) == (
        '{"input": {"lambda": "[4,3]", "i": 1, "r": 2}, "case": "case3.2", '
        '"intermediate": {"conjugate": "[2,2,2,1]", "cut_index": 1, '
        '"moves": [{"value": 1, "copies": 1}], "extra_move": {"value": 2, "copies": 2}}, '
        '"output": {"alpha": "[2,2,1]", "beta": "[2]"}}')


def test_trace_json_of_delta():
    lam = P([7, 4, 4, 1])
    assert json.dumps(bij.pairing_trace(lam, 3, 2, bij.maex_pairing(lam, 3, 2))) == (
        '{"input": {"lambda": "[7,4,4,1]", "i": 3, "r": 2}, "case": "cut", '
        '"intermediate": {"conjugate": "[4,3,3,3,1,1,1]", "cut_index": 6, '
        '"moves": [{"value": 4, "copies": 1}]}, '
        '"output": {"alpha": "[4,1,1]", "beta": "[3,3,3,1]"}}')
