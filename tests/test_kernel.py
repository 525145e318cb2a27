"""The sparse Pochhammer kernel against dense series arithmetic.

Every builder is compared with its dense reference in ``oracles``; the two
in-place primitives are checked as properties on random series.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainex import qseries as qs
from chainex.qseries import PowerSeries, _div_factor, _mul_factor

import oracles
from oracles import pentagonal_signs

TOP = 40
Q_TOP = 24

# builder name -> values of r it is compared at (None: takes no r)
BUILDERS = {
    "series_partition_count": None,
    "series_sigma_mex": None,
    "series_maex_defect": None,
    "series_sum_largest": None,
    "series_chain_mex_shifted": range(1, 7),
    "series_chain_mex_sum": range(1, 7),
    "series_chain_mex_offset_sum": range(1, 7),
    "series_chain_maex_sum": range(1, 7),
    "series_chain_maex_product": range(1, 7),
    "series_strict_count": range(1, 7),
    "series_top_multiplicity_count": range(2, 7),
    "series_bottom_multiplicity_count": range(2, 7),
}
CASES = [(name, r) for name, rs in BUILDERS.items() for r in (rs or [None])]

Q_BINOMIAL_CASES = [(None, 1, False), (None, 2, False), (0, 1, False), (0, 1, True),
                    (1, 1, False), (1, 2, True), (2, 1, False), (3, 2, True)]


def assert_every_order(build, reference):
    """build(order) equals the reference truncated, at every order <= TOP;
    each coefficient of these series is independent of the order."""
    for order in range(TOP + 1):
        built = build(order)
        assert built.order == order
        assert built.coeffs == reference.coeffs[:order + 1], order


@pytest.mark.parametrize("name,r", CASES)
def test_builder_matches_dense_reference(name, r):
    kernel = getattr(qs, name)
    dense = getattr(oracles, "dense_" + name[len("series_"):])
    if r is None:
        assert_every_order(kernel, dense(TOP))
    else:
        assert_every_order(lambda order: kernel(r, order), dense(r, TOP))


@pytest.mark.parametrize("r", range(2, 7))
def test_parts_above_matches_dense_reference(r):
    for j in range(1, 4):
        assert_every_order(lambda order: qs.series_parts_above(r, j, order),
                           oracles.dense_parts_above(r, j, TOP))


@pytest.mark.parametrize("r", range(2, 5))
def test_parts_above_with_j_above_the_order(r):
    # the factors n > order are 1 + O(q^(order+1)) and are not expanded
    for order in range(8):
        for j in range(1, order + 4):
            assert qs.series_parts_above(r, j, order).coeffs == \
                oracles.dense_parts_above(r, j, order).coeffs, (j, order)


@pytest.mark.parametrize("r", range(6, 10))
def test_chain_mex_shifted_with_r_above_the_order(r):
    # the terms m > order are the constant 1 and are not expanded
    assert qs.series_chain_mex_shifted(r, 5) == oracles.dense_chain_mex_shifted(r, 5)


@pytest.mark.parametrize("a_exp,z_exp,a_negate", Q_BINOMIAL_CASES)
def test_q_binomial_matches_dense_reference(a_exp, z_exp, a_negate):
    for side in ("sum", "product"):
        kernel = getattr(qs, "q_binomial_" + side)
        dense = getattr(oracles, "dense_q_binomial_" + side)
        assert_every_order(lambda order: kernel(a_exp, z_exp, order, a_negate),
                           dense(a_exp, z_exp, TOP, a_negate))


@pytest.mark.parametrize("r", range(1, 7))
def test_bivariate_matches_dense_reference(r):
    for name in ("maex_bivariate", "maex_bivariate_double_sum"):
        reference = getattr(oracles, "dense_" + name)(r, Q_TOP, Q_TOP)
        for q_order in range(Q_TOP + 1):
            built = getattr(qs, name)(r, Q_TOP, q_order)
            assert built.matches(reference), (name, q_order)


def test_pochhammer_products_match_dense_reference():
    for first in (0, 1, 2, 5):
        for step in (1, 2, 3):
            for sign in (-1, 1):
                negate = sign == 1
                assert qs.poch_finite(first, step, 7, TOP, negate) == \
                    oracles.dense_poch(first, step, 7, TOP, sign)
                if first:
                    assert qs.poch_inf(first, step, TOP, negate) == \
                        oracles.dense_poch(first, step, None, TOP, sign)
                    assert qs.poch_inverse(first, step, TOP) == \
                        oracles.dense_poch(first, step, None, TOP).invert()


# ---------------------------------------------------------------------------
# Properties of the in-place primitives
# ---------------------------------------------------------------------------

series_lists = st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=1, max_size=201)
signs = st.sampled_from((-1, 1))


@settings(max_examples=150, deadline=None)
@given(series_lists, st.integers(1, 210), signs)
def test_multiply_then_divide_is_identity(c, e, sign):
    work = list(c)
    _mul_factor(work, e, sign)
    _div_factor(work, e, sign)
    assert work == c


def assert_multiply_matches_dense_product(c, e, sign):
    work = list(c)
    _mul_factor(work, e, sign)
    assert work == (oracles.dense_factor(e, len(c) - 1, sign) * PowerSeries(c)).coeffs, (c, e, sign)


def assert_divide_matches_dense_inverse(c, e, sign):
    work = list(c)
    _div_factor(work, e, sign)
    inverse = oracles.dense_factor(e, len(c) - 1, sign).invert()
    assert work == (PowerSeries(c) * inverse).coeffs, (c, e, sign)


@settings(max_examples=150, deadline=None)
@given(series_lists, st.integers(0, 210), signs)
def test_multiply_agrees_with_dense_product(c, e, sign):
    assert_multiply_matches_dense_product(c, e, sign)


@settings(max_examples=150, deadline=None)
@given(series_lists, st.integers(1, 210), signs)
def test_divide_agrees_with_dense_inverse(c, e, sign):
    assert_divide_matches_dense_inverse(c, e, sign)


@pytest.mark.parametrize("sign", (-1, 1))
def test_every_factor_shape_agrees_with_dense_reference(sign):
    # every exponent below, at and above sqrt(len) and len: division by
    # 1 - q^e sums residue classes when e^2 < len and sweeps blocks otherwise
    for length in range(1, 41):
        c = [(37 * i * i + 11 * i + 5) % 61 - 30 for i in range(length)]
        for e in range(46):
            assert_multiply_matches_dense_product(c, e, sign)
            if e:
                assert_divide_matches_dense_inverse(c, e, sign)


@pytest.mark.parametrize("sign", (0, 2, -2, 3, "1", None))
def test_factor_sign_other_than_one_or_minus_one_raises(sign):
    for call in (lambda: _mul_factor([1, 2, 3], 1, sign),
                 lambda: _div_factor([1, 2, 3], 1, sign),
                 lambda: qs._poch([1, 2, 3], 1, 1, 2, sign),
                 lambda: qs._poch([1, 2, 3], 1, 1, None, sign, divide=True)):
        with pytest.raises(qs.SeriesError, match="sign must be 1 or -1"):
            call()


def test_partition_count_at_order_1000():
    # 1/(q;q)_inf divides by 1 - q^e for e = 1..1000: e <= 31 sums residue
    # classes, the rest sweep blocks
    assert qs.series_partition_count(1000).coeffs == \
        [oracles.partition_count(n) for n in range(1001)]


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 1000))
@example(1000)
def test_euler_product_matches_pentagonal_oracle(order):
    assert qs.poch_inf(1, 1, order).coeffs == pentagonal_signs(order)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-5, 5), min_size=1, max_size=12),
       st.lists(st.integers(-5, 5), max_size=6), st.integers(0, 4))
@example([1, 2, 3], [4], 0)
def test_equal_series_hash_equal(common, tail, padding):
    # equal over the common truncation, whatever follows it
    a = PowerSeries(common + tail, order=len(common) + len(tail) - 1 + padding)
    b = PowerSeries(common)
    assert a == b
    assert hash(a) == hash(b)
