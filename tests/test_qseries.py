import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainex import qseries
from chainex.partition import chain_maex, chain_mex, partitions, smallest_repeating
from chainex.qseries import (
    PowerSeries,
    SeriesError,
    _const,
    _mul_factor,
    _poch,
    gaussian_binomial,
    maex_bivariate,
    maex_bivariate_double_sum,
    poch_finite,
    poch_inf,
    q_binomial_product,
    q_binomial_sum,
    series_bottom_multiplicity_count,
    series_chain_maex_product,
    series_chain_maex_sum,
    series_chain_mex_offset_sum,
    series_chain_mex_shifted,
    series_chain_mex_sum,
    series_parts_above,
    series_partition_count,
    series_sigma_mex,
    series_strict_count,
    series_sum_largest,
    series_top_multiplicity_count,
)

from oracles import box_partition_count, monomial, partition_count, pentagonal_signs, shifted


class TestPowerSeriesArithmetic:
    def test_construct_pads_and_trims(self):
        s = PowerSeries([1, 2], order=4)
        assert s.coeffs == [1, 2, 0, 0, 0]
        assert PowerSeries([1, 2, 3], order=1).coeffs == [1, 2]

    def test_no_coefficients_and_no_order_is_refused(self):
        with pytest.raises(SeriesError, match="^a series needs at least a constant term$"):
            PowerSeries([])
        assert PowerSeries([], order=1).coeffs == [0, 0]

    def test_coeff_bounds(self):
        s = PowerSeries([5, 7], order=1)
        assert s.coeff(0) == 5
        assert s.coeff(-3) == 0
        with pytest.raises(SeriesError):
            s.coeff(2)

    def test_add_sub_take_min_order(self):
        a = PowerSeries([1, 1, 1], order=2)
        b = PowerSeries([1, 2], order=1)
        assert (a + b).order == 1
        assert (a + b).coeffs == [2, 3]
        assert (a - b).coeffs == [0, -1]

    def test_int_scalars(self):
        a = PowerSeries([1, 1], order=1)
        assert (a * 3).coeffs == [3, 3]
        assert (2 * a).coeffs == [2, 2]
        one = PowerSeries([1], order=1)
        assert (a + one).coeffs == [2, 1]
        assert (one + a).coeffs == [2, 1]
        assert (a - one).coeffs == [0, 1]

    def test_int_sums_raise(self):
        # an int only scales; a sum or difference takes two series
        a = PowerSeries([1, 1], order=1)
        with pytest.raises(AttributeError):
            a + 1
        with pytest.raises(TypeError):
            1 + a
        with pytest.raises(AttributeError):
            a - 1
        with pytest.raises(TypeError):
            1 - a

    def test_mul(self):
        a = PowerSeries([1, 1], order=3)
        assert (a * a * a).coeffs == [1, 3, 3, 1]

    def test_invert_roundtrip(self):
        a = PowerSeries([1, -1, 4, 9], order=3)
        assert (a * a.invert()).coeffs == [1, 0, 0, 0]
        b = PowerSeries([-1, 2], order=3)
        assert (b * b.invert()).coeffs == [1, 0, 0, 0]

    def test_invert_needs_unit(self):
        with pytest.raises(SeriesError):
            PowerSeries([2, 1], order=2).invert()
        with pytest.raises(SeriesError):
            PowerSeries([0, 1], order=2).invert()

    def test_shift_truncate_monomial(self):
        # the oracles' monomial and shift, which the dense references build on
        s = monomial(2, 4)
        assert s.coeffs == [0, 0, 1, 0, 0]
        assert shifted(s, 1).coeffs == [0, 0, 0, 1, 0]
        assert shifted(s, 3).coeffs == [0, 0, 0, 0, 0]
        assert monomial(5, 4).coeffs == [0, 0, 0, 0, 0]

    def test_negative_order_rejected(self):
        with pytest.raises(SeriesError):
            PowerSeries([1], order=-1)
        with pytest.raises(SeriesError):
            series_sigma_mex(-3)

    def test_str(self):
        assert str(PowerSeries([1, 0, -2], order=2)) == "1 + -2*q^2"
        # a zero constant term is printed, unlike every other zero term
        assert str(PowerSeries([0, 1, 0, 3], order=3)) == "0 + 1*q + 3*q^3"

    def test_repr(self):
        assert repr(PowerSeries([1, 2, 3])) == "PowerSeries(order=2, coeffs=[1, 2, 3]...)"

    def test_json_exact_integers(self):
        blob = PowerSeries([10 ** 40, 1], order=1).to_json()
        assert blob["schema"] == 1
        assert blob["coeffs"][0] == str(10 ** 40)


COEFFS = st.one_of(st.just(0), st.integers(-50, 50))


@st.composite
def series(draw, constant=COEFFS):
    """A series of order 0..60, about half of its coefficients zero."""
    order = draw(st.integers(0, 60))
    rest = draw(st.lists(COEFFS, min_size=order, max_size=order))
    return PowerSeries([draw(constant)] + rest, order)


units = series(st.sampled_from([1, -1]))


def assert_same(a, b):
    assert (a.order, a.coeffs) == (b.order, b.coeffs)


class TestRingLaws:
    @settings(max_examples=100, deadline=None)
    @given(series(), series(), series())
    def test_multiplication_associates_and_distributes(self, a, b, c):
        assert_same((a * b) * c, a * (b * c))
        assert_same(a * (b + c), a * b + a * c)
        assert_same((a + b) * c, a * c + b * c)

    @settings(max_examples=100, deadline=None)
    @given(units, units)
    def test_inverse_of_a_product(self, a, b):
        assert_same((a * b).invert(), a.invert() * b.invert())


class TestValueContract:
    """Equality is agreement up to the smaller truncation order."""

    @settings(max_examples=200, deadline=None)
    @given(series(), st.integers(0, 60), st.lists(COEFFS, max_size=20))
    def test_agreeing_series_are_equal_and_hash_equal(self, a, cut, tail):
        cut = min(cut, a.order)
        shorter = PowerSeries(a.coeffs[:cut + 1], cut)
        longer = PowerSeries(a.coeffs + tail, a.order + len(tail))
        for x, y in ((a, shorter), (a, longer), (shorter, longer)):
            assert x == y and y == x and not x != y
            assert hash(x) == hash(y)

    @settings(max_examples=200, deadline=None)
    @given(series(), series())
    def test_equality_is_symmetric(self, a, b):
        order = min(a.order, b.order)
        agree = a.coeffs[:order + 1] == b.coeffs[:order + 1]
        assert (a == b) is (b == a) is agree
        assert (a != b) is (b != a) is (not agree)

    @settings(max_examples=100, deadline=None)
    @given(series())
    def test_never_equals_its_coefficients_or_an_int(self, a):
        for other in (a.coeffs, tuple(a.coeffs), a.coeffs[0], 0, 1):
            assert a != other and other != a
            assert not a == other and not other == a


class TestPochhammer:
    def test_finite_small(self):
        # (q;q)_2 = (1-q)(1-q^2)
        assert poch_finite(1, 1, 2, 4).coeffs == [1, -1, -1, 1, 0]

    def test_finite_negated(self):
        assert poch_finite(1, 1, 2, 3).coeffs != poch_finite(1, 1, 2, 3, negate=True).coeffs
        assert poch_finite(1, 1, 2, 3, negate=True).coeffs == [1, 1, 1, 1]

    def test_infinite_matches_pentagonal_oracle(self):
        assert poch_inf(1, 1, 40).coeffs == pentagonal_signs(40)

    def test_partition_series_matches_recurrence_oracle(self):
        s = series_partition_count(50)
        for n in range(51):
            assert s.coeff(n) == partition_count(n)

    def test_exponent_zero_factor(self):
        # (1 - q^0) = 0 and (1 + q^0) = 2
        assert poch_finite(0, 1, 1, 4).coeffs == [0, 0, 0, 0, 0]
        assert poch_finite(0, 1, 1, 4, negate=True).coeffs == [2, 0, 0, 0, 0]
        assert poch_finite(0, 1, 3, 4, negate=True) == 2 * poch_finite(1, 1, 2, 4, negate=True)

    def test_bad_arguments(self):
        with pytest.raises(SeriesError):
            poch_inf(0, 1, 5)
        with pytest.raises(SeriesError):
            poch_finite(1, 0, 2, 5)
        with pytest.raises(SeriesError):
            poch_inf(1, 0, 5)
        with pytest.raises(SeriesError):
            poch_finite(-1, 1, 2, 5)
        with pytest.raises(SeriesError):
            poch_finite(1, 1, -1, 5)
        with pytest.raises(SeriesError):
            _poch(_const(5, 1), 0, 1, divide=True)
        with pytest.raises(SeriesError, match="^factor exponent must be >= 0, got -1$"):
            _mul_factor([1, 2, 3], -1, 1)

    def test_one_inverse_spelling(self):
        # 1/(q^first;q^step)_inf is the kernel's divide pass, as every
        # builder runs it
        assert not hasattr(qseries, "poch_inverse")


class TestGaussianBinomial:
    def test_small_example(self):
        # [4 choose 2]_q = 1 + q + 2q^2 + q^3 + q^4
        assert gaussian_binomial(4, 2).coeffs == [1, 1, 2, 1, 1]

    def test_edges(self):
        assert gaussian_binomial(5, 0).coeffs == [1]
        assert gaussian_binomial(5, 5).coeffs == [1]

    def test_counts_box_partitions(self):
        for n in range(7):
            for m in range(n + 1):
                s = gaussian_binomial(n, m)
                for k in range(s.order + 1):
                    assert s.coeff(k) == box_partition_count(m, n - m, k)

    def test_symmetry(self):
        assert gaussian_binomial(7, 3) == gaussian_binomial(7, 4)

    def test_bad_arguments(self):
        with pytest.raises(SeriesError):
            gaussian_binomial(2, 3)


class TestQBinomialTheorem:
    def test_specializations_agree(self):
        cases = [(None, 1, False), (None, 2, False), (1, 1, False),
                 (2, 1, True), (1, 2, True)]
        for a_exp, z_exp, neg in cases:
            lhs = q_binomial_sum(a_exp, z_exp, 60, a_negate=neg)
            rhs = q_binomial_product(a_exp, z_exp, 60, a_negate=neg)
            assert lhs == rhs, (a_exp, z_exp, neg)

    def test_a_zero_is_partition_series(self):
        assert q_binomial_product(None, 1, 30) == series_partition_count(30)

    def test_a_one_and_minus_one(self):
        # a = q^0: (1;q)_n vanishes for n >= 1 and (-1;q)_n = 2(-q;q)_(n-1)
        for order in range(12):
            for neg in (False, True):
                assert q_binomial_sum(0, 1, order, neg) == q_binomial_product(0, 1, order, neg)
        assert q_binomial_sum(0, 1, 6).coeffs == [1, 0, 0, 0, 0, 0, 0]

    def test_bad_z(self):
        with pytest.raises(SeriesError):
            q_binomial_sum(None, 0, 10)

    def test_negative_a_exponent(self):
        with pytest.raises(SeriesError):
            q_binomial_sum(-1, 1, 10)
        with pytest.raises(SeriesError):
            q_binomial_product(-1, 1, 10)


def _sigma(n, r, stat):
    return sum(stat(lam, r) for lam in partitions(n))


class TestStatisticSeriesAgainstEnumeration:
    def test_sigma_mex(self):
        s = series_sigma_mex(20)
        for n in range(16):
            assert s.coeff(n) == _sigma(n, 1, chain_mex)

    def test_chain_mex_sum(self):
        for r in (1, 2, 3):
            s = series_chain_mex_sum(r, 20)
            for n in range(14):
                assert s.coeff(n) == _sigma(n, r, chain_mex)

    def test_sum_largest(self):
        s = series_sum_largest(20)
        for n in range(14):
            assert s.coeff(n) == sum(lam.largest for lam in partitions(n))

    def test_chain_maex_sum_and_product_agree(self):
        for r in (1, 2, 3):
            assert series_chain_maex_sum(r, 60) == series_chain_maex_product(r, 60)

    def test_parts_above_counts_smallest_repeating(self):
        for r in (2, 3):
            for j in (1, 2):
                s = series_parts_above(r, j, 20)
                for n in range(14):
                    assert s.coeff(n) == sum(
                        1 for lam in partitions(n)
                        if smallest_repeating(lam, r) == j)

    def test_r_below_one_rejected(self):
        for builder in (series_chain_mex_shifted, series_chain_mex_sum,
                        series_chain_mex_offset_sum, series_chain_maex_sum,
                        series_chain_maex_product, series_strict_count):
            with pytest.raises(SeriesError):
                builder(0, 10)
        for builder in (series_top_multiplicity_count, series_bottom_multiplicity_count):
            with pytest.raises(SeriesError, match="^r must be >= 2, got 1$"):
                builder(1, 10)
        for builder in (maex_bivariate, maex_bivariate_double_sum):
            with pytest.raises(SeriesError):
                builder(0, 5, 5)
            with pytest.raises(SeriesError, match="^z truncation order must be >= 0, got -1$"):
                builder(1, -1, 5)

    def test_parts_above_bad_arguments(self):
        with pytest.raises(SeriesError, match="^r must be >= 2, got 1$"):
            series_parts_above(1, 1, 10)
        with pytest.raises(SeriesError, match="^j must be >= 1, got 0$"):
            series_parts_above(2, 0, 10)


class TestBivariate:
    def test_coeff_bounds(self):
        # one series per power of z, each truncated at the q order
        for builder in (maex_bivariate, maex_bivariate_double_sum):
            rows = builder(1, 2, 3)
            assert [row.order for row in rows] == [3, 3, 3]
            assert rows[0].coeff(0) == 0
            with pytest.raises(SeriesError):
                rows[0].coeff(4)

    def test_two_constructions_agree(self):
        for r in (1, 2, 3):
            assert maex_bivariate(r, 12, 18) == maex_bivariate_double_sum(r, 12, 18)

    def test_matches_enumeration(self):
        for r in (1, 2):
            b = maex_bivariate(r, 14, 14)
            for n in range(15):
                counts = [0] * 15
                for lam in partitions(n):
                    counts[chain_maex(lam, r)] += 1
                for m in range(1, 15):
                    assert b[m].coeff(n) == counts[m], (r, m, n)
