"""Truncated formal power series with exact integer coefficients, plus
builders for every closed-form generating function used by the verifier.

``PowerSeries`` is the one series type.  Arithmetic is exact: Python
integers never overflow, and every identity check in this project is an
exact coefficient-by-coefficient equality.  Binary operations carry the
minimum truncation order of their operands; reading a coefficient beyond
the truncation order raises instead of silently returning zero.  Sums and
differences take two series; an int operand only scales a product.

Every product side of the paper's identities is a ratio of q-Pochhammer
products, so the builders run a sparse kernel over coefficient lists.
Each single-factor pass is O(order) additions, and its per-coefficient
loop runs inside C builtins (``map`` over ``operator.add``/``sub``,
``itertools.accumulate``), so the Python-level work is one slice
assignment per call or per block:
- multiplying by one factor (1 + s*q^e) is one ``map`` over the list and
  the list shifted by e;
- dividing by one factor (1 - q^e) is a prefix sum along each residue
  class mod e.  With e^2 < len it runs as e strided ``accumulate`` calls,
  otherwise as len/e blocks of e coefficients, each ``map``-ed from the
  block before; the threshold picks the shape with fewer Python-level
  steps.
A complete Euler product (q^s;q^s)_inf, which nearly every product side
multiplies or divides by, is not run factor by factor: by Euler's
pentagonal number theorem it has only about 2*sqrt(2*len/(3s)) nonzero
terms below q^len, against len/s factors.  Multiplying by it is one
``map`` per term; dividing is a Python-level recurrence over those terms,
about len*sqrt(len/s) additions against the len^2/s of the factor passes.
(q^(a*s);q^s)_inf runs as that pass and a - 1 single factors when its
first exponent a*s is at most len/5; past that the pentagonal pass and
the a - 1 factors take longer than the factors they replace (measured,
see ``_poch``).
Each fixed product of a builder is one ``_poch`` or ``_strict`` call over
its coefficients; single-factor passes only grow running terms, the n-th
term of a sum over n from the (n-1)-th in one or two steps.  The dense
``PowerSeries.__mul__`` (series by series) has two library callers:
``series_maex_defect``, and ``series_chain_maex_product``, whose factor
``series_bottom_multiplicity_count`` divides by (q^(r+1);q^(r+1))_inf, so
the strict ratio run as passes over it would cancel that division and
leave the sum form's own terms: the two routes would then agree under any
linear fault of the (q;q)_inf division.  ``invert`` has no library
caller; both remain as the arithmetic of two general series.

The bivariate series of the maex distribution is a list of ``PowerSeries``,
one per power of z: the coefficient of z^m q^n is ``series[m].coeff(n)``.

The verifier compares pairs of builders as two routes to one series:
``q_binomial_sum`` / ``q_binomial_product`` and ``maex_bivariate`` /
``maex_bivariate_double_sum``.  They stay distinct formulas that share
only the arithmetic primitives; neither side is defined through the other.
``series_chain_maex_sum`` / ``series_chain_maex_product`` is not such a
pair: ``series_bottom_multiplicity_count(r + 1)`` is
1 + acc/(q^(r+1);q^(r+1))_inf, with acc the sum form's loop, so the strict
count times it is the sum form itself.  Those rows check the dense
``__mul__`` against the kernel, not thm-1.11.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import accumulate
from operator import add, sub


class SeriesError(ValueError):
    """Raised for truncation violations and non-invertible operands."""


class PowerSeries:
    """Formal power series in q truncated at a fixed order."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: Iterable[int], order: int = None):
        coeffs = list(coeffs)
        if order is None:
            order = len(coeffs) - 1
            if order < 0:
                raise SeriesError("a series needs at least a constant term")
        elif order < 0:
            raise SeriesError(f"truncation order must be >= 0, got {order}")
        if len(coeffs) > order + 1:
            coeffs = coeffs[: order + 1]
        elif len(coeffs) < order + 1:
            coeffs.extend([0] * (order + 1 - len(coeffs)))
        self.coeffs = coeffs
        self.order = order

    def coeff(self, n: int) -> int:
        if n < 0:
            return 0
        if n > self.order:
            raise SeriesError(f"coefficient {n} beyond truncation order {self.order}")
        return self.coeffs[n]

    def __add__(self, other):
        order = min(self.order, other.order)
        return PowerSeries([a + b for a, b in zip(self.coeffs, other.coeffs)], order)

    def __sub__(self, other):
        order = min(self.order, other.order)
        return PowerSeries([a - b for a, b in zip(self.coeffs, other.coeffs)], order)

    def __mul__(self, other):
        if isinstance(other, int):
            return PowerSeries([a * other for a in self.coeffs], self.order)
        order = min(self.order, other.order)
        out = [0] * (order + 1)
        for i, a in enumerate(self.coeffs[: order + 1]):
            if a == 0:
                continue
            for j in range(order + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return PowerSeries(out, order)

    __rmul__ = __mul__

    def invert(self) -> "PowerSeries":
        """Multiplicative inverse; the constant term must be +1 or -1 so the
        inverse stays over the integers."""
        c0 = self.coeffs[0]
        if c0 not in (1, -1):
            raise SeriesError(f"constant term {c0} is not a unit over the integers")
        out = [0] * (self.order + 1)
        out[0] = c0
        for n in range(1, self.order + 1):
            acc = sum(self.coeffs[k] * out[n - k] for k in range(1, n + 1))
            out[n] = -c0 * acc
        return PowerSeries(out, self.order)

    def __eq__(self, other):
        """Exact agreement over the common truncation range, each side cut
        at the other's order; a series equals no other type."""
        return (isinstance(other, PowerSeries)
                and self.coeffs[: other.order + 1] == other.coeffs[: self.order + 1])

    def __hash__(self):
        # equality ignores everything past the shorter truncation, so only
        # the constant term is shared by every pair of equal series
        return hash(self.coeffs[0])

    def __repr__(self):
        return f"PowerSeries(order={self.order}, coeffs={self.coeffs[:8]}...)"

    def __str__(self):
        terms = []
        for n, c in enumerate(self.coeffs):
            if c == 0 and n > 0:
                continue
            if n == 0:
                terms.append(str(c))
            elif n == 1:
                terms.append(f"{c}*q")
            else:
                terms.append(f"{c}*q^{n}")
        return " + ".join(terms)

    def to_json(self):
        return {"schema": 1, "order": self.order,
                "coeffs": [str(c) for c in self.coeffs]}


# ---------------------------------------------------------------------------
# Sparse Pochhammer kernel: in-place passes over a coefficient list
# ---------------------------------------------------------------------------

def _const(order: int, value: int) -> list[int]:
    """Coefficients of the constant series ``value`` truncated at ``order``."""
    if order < 0:
        raise SeriesError(f"truncation order must be >= 0, got {order}")
    return [value] + [0] * order


def _mul_factor(c: list[int], e: int, sign: int) -> None:
    """c *= (1 + sign*q^e) in place, for sign 1 or -1 (any other sign
    raises).  Every read sees the old coefficient, as in a loop over
    descending n; e = 0 scales by the constant 1 + sign."""
    if sign != 1 and sign != -1:
        raise SeriesError(f"a factor's sign must be 1 or -1, got {sign!r}")
    if e < 0:
        raise SeriesError(f"factor exponent must be >= 0, got {e}")
    if e < len(c):
        c[e:] = map(add if sign == 1 else sub, c[e:], c)


def _div_factor(c: list[int], e: int) -> None:
    """c /= (1 - q^e) in place: c[n] += c[n-e] over ascending n.  The
    factor is a unit only for e >= 1.

    Each residue class mod e is a running sum.  With e^2 < len the classes
    are summed one at a time by e strided ``accumulate`` calls; otherwise
    the list is swept in len/e blocks of e coefficients, each from the one
    before.  Either shape does len additions in C, so the Python-level
    steps decide: e against len/e, and the first is fewer exactly when
    e < sqrt(len)."""
    if e < 1:
        raise SeriesError(f"dividing needs a factor exponent >= 1, got {e}")
    if e * e < len(c):
        for k in range(e):
            c[k::e] = accumulate(c[k::e])
        return
    for k in range(e, len(c), e):
        c[k:k + e] = map(add, c[k:k + e], c[k - e:k])


def _add_shifted(acc: list[int], c: list[int], shift: int) -> None:
    """acc += q^shift * c in place, truncated at the length of acc."""
    end = shift + len(c)
    acc[shift:end] = map(add, acc[shift:end], c)


def _euler(c: list[int], s: int, divide: bool = False) -> None:
    """c *= (q^s;q^s)_inf, or c /= it when ``divide``, in place, for s >= 1.

    By Euler's pentagonal number theorem the product is
    sum_k (-1)^k q^(s*k(3k-1)/2) over all integers k, so below q^len it has
    about 2*sqrt(2*len/(3*s)) nonzero terms.  Multiplying adds or subtracts
    the list shifted by each of those exponents, one ``map`` from a copy per
    term; dividing runs c[n] -= sum of (-1)^k c[n - e] over ascending n,
    reading each c[n - e] already divided."""
    terms = []   # (exponent, the coefficient is -1), ascending
    k = 1
    while s * k * (3 * k - 1) // 2 < len(c):
        for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if s * g < len(c):
                terms.append((s * g, k % 2 == 1))
        k += 1
    if not divide:
        old = c[:]
        for e, minus in terms:
            c[e:] = map(sub if minus else add, c[e:], old)
        return
    for n in range(s, len(c)):
        t = c[n]
        for e, minus in terms:
            if e > n:
                break
            if minus:
                t += c[n - e]
            else:
                t -= c[n - e]
        c[n] = t


def _poch(c: list[int], first: int, step: int, count=None, sign: int = -1,
          divide: bool = False) -> list[int]:
    """c *= prod (1 + sign*q^e), or c /= it when ``divide``, in place, over
    e = first, first+step, ...: ``count`` factors, or every e up to the
    order when None (later factors are 1 + O(q^(order+1))).  Only factors
    1 - q^e divide, so ``divide`` with any sign but -1 raises.

    The complete product (q^first;q^step)_inf with first = a*step, a >= 1,
    is (q^s;q^s)_inf / (q^s;q^s)_(a-1) with s = step.  It runs as one
    pentagonal pass (``_euler``) and a - 1 single factors when
    5*first <= len.  The bound is measured, not counted in passes: the
    factor passes at e >= first touch len - e coefficients each, the a - 1
    at e < first nearly len, and the divide side of ``_euler`` is a
    Python-level loop.  Timing both routes for s = 1..40, a from 1 to
    len/s and len 61 to 1001, on a constant and on a dense list, the
    pentagonal route lost once first/len passed 0.2 to 0.3.  Below the
    bound it is at worst 1.17x the factor loop, above it the factor loop
    is at worst 1.57x it, and over the grid the choice costs 1.3% more
    than always taking the faster route.  Finite products, plus signs and
    a first exponent off the multiples of the step have no sparse
    expansion of this kind, so they run one pass per factor."""
    if first < 0 or step < 1 or (count is not None and count < 0):
        raise SeriesError("need first exponent >= 0, step >= 1 and count >= 0, "
                          f"got {first}, {step}, {count}")
    # checked here, not only per factor, so a call that runs no factor
    # still refuses a bad sign
    if divide and sign != -1:
        raise SeriesError(f"only factors 1 - q^e divide, got sign {sign!r}")
    if sign != 1 and sign != -1:
        raise SeriesError(f"a factor's sign must be 1 or -1, got {sign!r}")
    stop = len(c) if count is None else min(len(c), first + count * step)
    if count is None and sign == -1 and first % step == 0 and 0 < 5 * first <= len(c):
        _euler(c, step, divide)
        for e in range(step, first, step):
            if divide:
                _mul_factor(c, e, -1)
            else:
                _div_factor(c, e)
        return c
    for e in range(first, stop, step):
        if divide:
            _div_factor(c, e)
        else:
            _mul_factor(c, e, sign)
    return c


def _strict(c: list[int], k: int) -> list[int]:
    """c *= (q^k;q^k)_inf/(q;q)_inf, the k-strict ratio, in place."""
    return _poch(_poch(c, k, k), 1, 1, divide=True)


def _check_r(r: int, least: int = 1) -> None:
    if r < least:
        raise SeriesError(f"r must be >= {least}, got {r}")


# ---------------------------------------------------------------------------
# Pochhammer products
# ---------------------------------------------------------------------------

def poch_finite(first: int, step: int, count: int, order: int,
                negate: bool = False) -> PowerSeries:
    """Finite Pochhammer product: prod_{i<count} (1 - q^(first+i*step)),
    or with plus signs when ``negate``."""
    return PowerSeries(_poch(_const(order, 1), first, step, count,
                             1 if negate else -1), order)


def poch_inf(first: int, step: int, order: int, negate: bool = False) -> PowerSeries:
    """Infinite Pochhammer product, truncated once the factor exponent
    exceeds the order (later factors are 1 + O(q^(order+1)))."""
    if first < 1:
        raise SeriesError("the infinite product needs first exponent >= 1")
    return PowerSeries(_poch(_const(order, 1), first, step, None,
                             1 if negate else -1), order)


def gaussian_binomial(n: int, m: int) -> PowerSeries:
    """The Gaussian polynomial [n choose m]_q = (q^(n-m+1);q)_m / (q;q)_m.
    It has degree m(n-m), so the series quotient truncated there is exact."""
    if not n >= m >= 0:
        raise SeriesError(f"need n >= m >= 0, got n={n}, m={m}")
    top = m * (n - m)
    return PowerSeries(_poch(_poch(_const(top, 1), n - m + 1, 1, m), 1, 1, m, divide=True), top)


# ---------------------------------------------------------------------------
# q-binomial theorem specializations
# ---------------------------------------------------------------------------

def _check_q_binomial(a_exp, z_exp: int) -> None:
    if z_exp < 1:
        raise SeriesError("z must specialize to a positive power of q")
    if a_exp is not None and a_exp < 0:
        raise SeriesError(f"a must specialize to a power q^k with k >= 0, got k={a_exp}")


def q_binomial_sum(a_exp, z_exp: int, order: int, a_negate: bool = False) -> PowerSeries:
    """Left side of the q-binomial theorem with a = (-)q^a_exp and
    z = q^z_exp: sum_n (a;q)_n / (q;q)_n * z^n.  Pass a_exp=None for a=0."""
    _check_q_binomial(a_exp, z_exp)
    total, term = _const(order, 0), _const(order, 1)   # term: (a;q)_n/(q;q)_n
    n = 0
    while n * z_exp <= order:
        _add_shifted(total, term, n * z_exp)
        n += 1
        if a_exp is not None:
            _mul_factor(term, a_exp + n - 1, 1 if a_negate else -1)
        _div_factor(term, n)
    return PowerSeries(total, order)


def q_binomial_product(a_exp, z_exp: int, order: int, a_negate: bool = False) -> PowerSeries:
    """Right side of the q-binomial theorem under the same specialization:
    (az;q)_inf / (z;q)_inf."""
    _check_q_binomial(a_exp, z_exp)
    c = _const(order, 1)
    if a_exp is not None:
        _poch(c, a_exp + z_exp, 1, None, 1 if a_negate else -1)
    return PowerSeries(_poch(c, z_exp, 1, divide=True), order)


# ---------------------------------------------------------------------------
# Generating-function builders
# ---------------------------------------------------------------------------

DEFAULT_ORDER = 60


def series_partition_count(order: int = DEFAULT_ORDER) -> PowerSeries:
    """1/(q;q)_inf: coefficients are the partition numbers p(n)."""
    return PowerSeries(_poch(_const(order, 1), 1, 1, divide=True), order)


def series_sigma_mex(order: int = DEFAULT_ORDER) -> PowerSeries:
    """(-q;q)_inf^2: coefficient of q^n is the sum of classic mex values
    over all partitions of n."""
    return PowerSeries(_poch(_poch(_const(order, 1), 1, 1, None, 1),
                             1, 1, None, 1), order)


def series_chain_mex_shifted(r: int, order: int = DEFAULT_ORDER) -> PowerSeries:
    """Coefficient of q^n is the sum of (chain_mex + r - 1) over all
    partitions of n: the (r+1)-strict generating function times the sum of
    inverse products over the r nonzero residue classes mod r+1."""
    _check_r(r)
    acc = _const(order, 0)
    for m in range(1, min(r, order) + 1):
        _add_shifted(acc, _poch(_const(order, 1), m, r + 1, divide=True), 0)
    # for m > order every factor is 1 + O(q^(order+1)), so the term is 1
    acc[0] += r - min(r, order)
    return PowerSeries(_strict(acc, r + 1), order)


def series_chain_mex_sum(r: int, order: int = DEFAULT_ORDER) -> PowerSeries:
    """Coefficient of q^n is the sum of r-chain mex over all partitions
    of n (the shifted builder minus (r-1) copies of every partition)."""
    return series_chain_mex_shifted(r, order) - series_partition_count(order) * (r - 1)


def series_chain_mex_offset_sum(r: int, order: int = DEFAULT_ORDER) -> PowerSeries:
    """Coefficient of q^n is the sum of (chain_mex + class offset) over all
    partitions of n: the (r+1)-strict generating function times
    1 + sum_n (q^n - q^(n+rn)) / ((1-q^n)(q^(r+1);q^(r+1))_n), and that
    inner sum is the top-multiplicity series with modulus r+1."""
    _check_r(r)
    return PowerSeries(_strict(series_top_multiplicity_count(r + 1, order).coeffs, r + 1), order)


def series_maex_defect(order: int = DEFAULT_ORDER) -> PowerSeries:
    """Coefficient of q^n is the sum of (largest part - classic maex) over
    all partitions of n."""
    acc, poch = _const(order, 0), _const(order, 1)   # poch: (q^2;q^2)_(n-1)
    for n in range(1, order + 1):
        _add_shifted(acc, poch, n)
        _mul_factor(poch, 2 * n, -1)
    return series_partition_count(order) * PowerSeries(acc, order)


def series_chain_maex_sum(r: int, order: int = DEFAULT_ORDER) -> PowerSeries:
    """Coefficient of q^n is the sum of (largest - chain_maex + class
    offset) over all partitions of n; sum form."""
    _check_r(r)
    # sum_n q^n (q^(r+1);q^(r+1))_n / (1-q^n), spelled out here and in
    # series_bottom_multiplicity_count: the verifier compares this builder
    # with series_chain_maex_product, which is built from that one
    acc, poch = _const(order, 0), _const(order, 1)
    for n in range(1, order + 1):
        _mul_factor(poch, (r + 1) * n, -1)
        term = poch[: order + 1 - n]
        _div_factor(term, n)
        _add_shifted(acc, term, n)
    return series_strict_count(r + 1, order) + PowerSeries(_poch(acc, 1, 1, divide=True), order)


def series_chain_maex_product(r: int, order: int = DEFAULT_ORDER) -> PowerSeries:
    """Same series as series_chain_maex_sum built as the product of the
    (r+1)-strict count and the bottom-multiplicity count; the two
    constructions must agree coefficientwise.  The product is dense: see
    the module docstring for why it is not run as kernel passes."""
    _check_r(r)
    return series_strict_count(r + 1, order) * series_bottom_multiplicity_count(r + 1, order)


def series_strict_count(r: int, order: int = DEFAULT_ORDER) -> PowerSeries:
    """(q^r;q^r)_inf/(q;q)_inf: counts r-strict partitions."""
    _check_r(r)
    return PowerSeries(_strict(_const(order, 1), r), order)


def series_top_multiplicity_count(r: int, order: int = DEFAULT_ORDER) -> PowerSeries:
    """Counts partitions whose largest part has multiplicity not divisible
    by r while every other part has multiplicity divisible by r:
    1 + sum_n (q^n - q^(rn)) / ((1-q^n)(q^r;q^r)_n).

    The modulus r is the explicit parameter (r >= 2).
    """
    _check_r(r, 2)
    acc, inv = _const(order, 1), _const(order, 1)   # inv: 1/(q^r;q^r)_n
    for n in range(1, order + 1):
        _div_factor(inv, r * n)
        term = inv[: order + 1 - n]
        _mul_factor(term, (r - 1) * n, -1)
        _div_factor(term, n)
        _add_shifted(acc, term, n)
    return PowerSeries(acc, order)


def series_bottom_multiplicity_count(r: int, order: int = DEFAULT_ORDER) -> PowerSeries:
    """Counts partitions where only the smallest part may have multiplicity
    not divisible by r (modulus explicit, r >= 2):
    1 + 1/(q^r;q^r)_inf * sum_n q^n (q^r;q^r)_n / (1-q^n)."""
    _check_r(r, 2)
    acc, poch = _const(order, 0), _const(order, 1)
    for n in range(1, order + 1):
        _mul_factor(poch, r * n, -1)
        term = poch[: order + 1 - n]
        _div_factor(term, n)
        _add_shifted(acc, term, n)
    _poch(acc, r, r, divide=True)
    acc[0] += 1
    return PowerSeries(acc, order)


def series_sum_largest(order: int = DEFAULT_ORDER) -> PowerSeries:
    """Coefficient of q^n is the sum of largest parts over all partitions
    of n: 1/(q;q)_inf * sum_n q^n/(1-q^n)."""
    acc = _const(order, 0)
    for n in range(1, order + 1):
        acc[n::n] = [a + 1 for a in acc[n::n]]
    return PowerSeries(_poch(acc, 1, 1, divide=True), order)


def series_parts_above(r: int, j: int, order: int = DEFAULT_ORDER) -> PowerSeries:
    """Counts partitions of n whose smallest r-repeating part is j (equally:
    whose largest multiple of r occurs j times, or gap-class partitions with
    j parts above the (r-1)-chain maex).

    q^(jr)/(1-q^j) * 1/(q^(j+1);q)_inf * prod_{n<j} (1+q^n+...+q^(n(r-1))),
    run as q^(jr) (q^r;q^r)_(j-1) / ((q^j;q)_inf (q;q)_(j-1)), since
    1 + q^n + ... + q^(n(r-1)) = (1 - q^(nr)) / (1 - q^n).
    """
    _check_r(r, 2)
    if j < 1:
        raise SeriesError(f"j must be >= 1, got {j}")
    c = _const(order, 0)
    if j * r <= order:
        c[j * r] = 1
    _poch(c, j, 1, divide=True)
    _poch(c, r, r, j - 1)
    return PowerSeries(_poch(c, 1, 1, j - 1, divide=True), order)


# ---------------------------------------------------------------------------
# Bivariate series for the chain-maex distribution, one PowerSeries per
# power of z
# ---------------------------------------------------------------------------

def _zero_rows(r: int, z_order: int, q_order: int) -> list[list[int]]:
    """The z_order + 1 zero rows of a bivariate series truncated at q_order,
    once r and both orders are checked; both builders start from it."""
    _check_r(r)
    if z_order < 0:
        raise SeriesError(f"z truncation order must be >= 0, got {z_order}")
    return [_const(q_order, 0) for _ in range(z_order + 1)]


def maex_bivariate(r: int, z_order: int, q_order: int) -> list[PowerSeries]:
    """The series in z and q whose coefficient of z^m q^n counts partitions
    of n with r-chain maex m, as the z_order + 1 rows ``series[m]``, each
    truncated at q_order.

    Built from the closed single-sum form
    sum_n q^((r+1)(n+1)) (q^(r+1);q^(r+1))_n / (q;q)_n * z^r/(z q^(n+1);q)_inf,
    expanding each inverse infinite Pochhammer in z via Euler's series
    1/(z q^(n+1); q)_inf = sum_m z^m q^((n+1)m) / (q;q)_m.
    """
    rows = _zero_rows(r, z_order, q_order)
    base = _const(q_order, 1)   # (q^(r+1);q^(r+1))_n / (q;q)_n
    n = 0
    while (r + 1) * (n + 1) <= q_order:
        piece = base[:]         # base / (q;q)_m
        m = 0
        while (n + 1) * m <= q_order and r + m <= z_order:
            _add_shifted(rows[r + m], piece, (n + 1) * (r + 1 + m))
            m += 1
            _div_factor(piece, m)
        n += 1
        _mul_factor(base, (r + 1) * n, -1)
        _div_factor(base, n)
    return [PowerSeries(row, q_order) for row in rows]


def maex_bivariate_double_sum(r: int, z_order: int, q_order: int) -> list[PowerSeries]:
    """Same bivariate series from the intermediate double-sum form
    sum_{m>=r} z^m / (q;q)_(m-r) * sum_{l>=1} q^((m+1)l)
    (q^(r+1);q^(r+1))_(l-1) / (q;q)_(l-1), used to cross-check
    maex_bivariate."""
    rows = _zero_rows(r, z_order, q_order)
    outer = _const(q_order, 1)  # 1/(q;q)_(m-r)
    for m in range(r, z_order + 1):
        piece = outer[:]        # outer * (q^(r+1);q^(r+1))_(l-1) / (q;q)_(l-1)
        ell = 1
        while (m + 1) * ell <= q_order:
            _add_shifted(rows[m], piece, (m + 1) * ell)
            _mul_factor(piece, (r + 1) * ell, -1)
            _div_factor(piece, ell)
            ell += 1
        _div_factor(outer, m - r + 1)
    return [PowerSeries(row, q_order) for row in rows]
