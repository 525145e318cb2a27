"""The sparse Pochhammer kernel against dense series arithmetic.

Every builder is compared with its dense reference in ``oracles``; the two
in-place primitives are checked as properties on random series.

The kernel runs each complete Euler product by the pentagonal number
theorem, and ``oracles.partition_count`` and ``oracles.pentagonal_signs``
read that theorem too, so the order-1000 p(n) check and
``test_euler_product_matches_pentagonal_oracle`` compare two computations
of one theorem.  The independent references for that pass are
``oracles.dense_poch``, a product of dense factors, and the property that
``_poch`` equals the same product run factor by factor.
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
            assert built == reference, (name, q_order)


def test_pochhammer_products_match_dense_reference():
    # first = a*step with 5*first <= TOP + 1 runs the pentagonal pass and
    # a - 1 single factors; 9 and 12 at step 3 run one pass per factor
    for step in (1, 2, 3):
        for first in sorted({0, 1, 2, 5} | {a * step for a in range(1, 5)}):
            for sign in (-1, 1):
                negate = sign == 1
                assert qs.poch_finite(first, step, 7, TOP, negate) == \
                    oracles.dense_poch(first, step, 7, TOP, sign)
                if first:
                    assert qs.poch_inf(first, step, TOP, negate) == \
                        oracles.dense_poch(first, step, None, TOP, sign)
                    inverse = qs._poch(qs._const(TOP, 1), first, step, divide=True)
                    assert inverse == oracles.dense_poch(first, step, None, TOP).invert().coeffs


# ---------------------------------------------------------------------------
# Properties of the in-place primitives
# ---------------------------------------------------------------------------

series_lists = st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=1, max_size=201)
signs = st.sampled_from((-1, 1))


@settings(max_examples=150, deadline=None)
@given(series_lists, st.integers(1, 210))
def test_multiply_then_divide_is_identity(c, e):
    work = list(c)
    _mul_factor(work, e, -1)
    _div_factor(work, e)
    assert work == c


def assert_multiply_matches_dense_product(c, e, sign):
    work = list(c)
    _mul_factor(work, e, sign)
    assert work == (oracles.dense_factor(e, len(c) - 1, sign) * PowerSeries(c)).coeffs, (c, e, sign)


def assert_divide_matches_dense_inverse(c, e):
    work = list(c)
    _div_factor(work, e)
    inverse = oracles.dense_factor(e, len(c) - 1).invert()
    assert work == (PowerSeries(c) * inverse).coeffs, (c, e)


@settings(max_examples=150, deadline=None)
@given(series_lists, st.integers(0, 210), signs)
def test_multiply_agrees_with_dense_product(c, e, sign):
    assert_multiply_matches_dense_product(c, e, sign)


@settings(max_examples=150, deadline=None)
@given(series_lists, st.integers(1, 210))
def test_divide_agrees_with_dense_inverse(c, e):
    assert_divide_matches_dense_inverse(c, e)


@st.composite
def products(draw):
    """(c, first, step, sign, divide) for ``_poch``; first = a*step, the
    shape that runs the pentagonal pass when 5*first <= len(c), is drawn
    half the time."""
    c = draw(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=1, max_size=400))
    step = draw(st.integers(1, 8))
    first = draw(st.one_of(st.integers(0, len(c) + 2),
                           st.integers(1, 4).map(lambda a: a * step)))
    sign = draw(signs)
    divide = sign == -1 and first >= 1 and draw(st.booleans())
    return c, first, step, sign, divide


@settings(max_examples=200, deadline=None)
@given(products())
@example(([1] + [0] * 399, 1, 1, -1, True))
@example(([1] + [0] * 399, 4, 1, -1, False))
@example(([3, -1] * 200, 24, 8, -1, True))
@example(([1] + [0] * 399, 80, 1, -1, True))    # the last first on the pentagonal route
@example(([1] + [0] * 399, 81, 1, -1, False))   # the first past it
def test_complete_product_equals_its_factors(args):
    # the route count=None may take against the factor loop of an explicit
    # count, which runs one pass per factor below q^len
    c, first, step, sign, divide = args
    count = len(range(first, len(c), step))
    expected = qs._poch(list(c), first, step, count, sign, divide)
    assert qs._poch(list(c), first, step, None, sign, divide) == expected


def test_a_first_exponent_past_the_list_runs_nothing():
    c = [1, 2, 3]
    assert qs._poch(c, 10 ** 9, 1, divide=True) is c
    assert c == [1, 2, 3]


@pytest.mark.parametrize("sign", (-1, 1))
def test_every_factor_shape_agrees_with_dense_reference(sign):
    # every exponent below, at and above sqrt(len) and len: division by
    # 1 - q^e sums residue classes when e^2 < len and sweeps blocks otherwise
    for length in range(1, 41):
        c = [(37 * i * i + 11 * i + 5) % 61 - 30 for i in range(length)]
        for e in range(46):
            assert_multiply_matches_dense_product(c, e, sign)
            if e and sign == -1:
                assert_divide_matches_dense_inverse(c, e)


@pytest.mark.parametrize("sign", (0, 2, -2, 3, "1", None))
def test_factor_sign_other_than_one_or_minus_one_raises(sign):
    # also when no factor runs: count 0, or a first exponent past the order
    for call in (lambda: _mul_factor([1, 2, 3], 1, sign),
                 lambda: qs._poch([1, 2, 3], 1, 1, 2, sign),
                 lambda: qs._poch([1, 2, 3], 1, 1, 0, sign),
                 lambda: qs._poch([1, 2, 3], 5, 1, None, sign)):
        with pytest.raises(qs.SeriesError, match="sign must be 1 or -1"):
            call()
    # only factors 1 - q^e divide
    with pytest.raises(qs.SeriesError, match="only factors 1 - q\\^e divide"):
        qs._poch([1, 2, 3], 1, 1, None, sign, divide=True)


def test_dividing_by_one_plus_q_to_the_e_raises():
    # no pass divides by 1 + q^e, so such a call must not fall back on 1 - q^e
    c = [1, 2, 3]
    for count in (None, 0, 2):
        with pytest.raises(qs.SeriesError, match="only factors 1 - q\\^e divide"):
            qs._poch(c, 1, 1, count, 1, divide=True)
    assert c == [1, 2, 3]


def test_partition_count_at_order_1000():
    # 1/(q;q)_inf is one pentagonal divide pass, and the oracle runs the
    # same recurrence: this checks the pass at length 1001, not the theorem
    assert qs.series_partition_count(1000).coeffs == \
        [oracles.partition_count(n) for n in range(1001)]


def test_partition_count_oracle_from_a_cold_cache():
    # nothing cached: a call that recursed once per smaller n would overflow
    oracles.partition_count.cache_clear()
    assert oracles.partition_count(1000) == 24061467864032622473692149727991


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
