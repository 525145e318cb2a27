"""Independent brute-force oracles used to freeze expected values.

These deliberately avoid the library's own implementations: the partition
counter uses the Euler pentagonal recurrence (and the largest-part sum reads
it through conjugation), the transpose walks a filled Ferrers grid, the mex
and maex are plain linear searches over candidate values, and
``recursive_partitions`` recurses on the first part, as the
reference for the library's iterative enumerator.  The per-partition
statistics in ``STATISTIC_VALUES`` and ``FAMILY_VALUES`` are written on
flat parts tuples from the definitions, as the reference for the
verifier's one-pass engine.  ``flat_cut``, ``flat_concat`` and
``flat_shift_residues`` slice, sort and count flat parts tuples, as the
reference for the structural operators that work on multiplicity pairs,
and ``flat_glaisher_merge`` and ``flat_glaisher_split`` join and break
flat parts one step at a time, as the reference for the closed-form
Glaisher maps.

``scan_state`` and ``folded_excludants`` are the one place that calls the
library's chain scan: they fold ``scan_start`` and ``scan_step`` from
scratch over a partition's values, as the reference for the keys that
the engine's head walk carries down its recursion.  The fold's closed
values are checked against ``linear_mex`` and ``linear_maex`` in the
partition tests.

The ``dense_*`` functions are a reference for the q-series builders: the
same generating functions written the slow way, every Pochhammer factor a
dense series, products through ``PowerSeries.__mul__``, quotients
through ``PowerSeries.invert`` and powers of q through ``shifted``.  The
bivariate ones return one series per power of z, as the library does.
They share no code with the library's sparse Pochhammer kernel.
"""

from functools import lru_cache

from chainex.partition import scan_start, scan_step
from chainex.qseries import PowerSeries


@lru_cache(maxsize=None)
def partition_count(n: int) -> int:
    """p(n) by the pentagonal-number recurrence.  Every smaller value is
    read first, in ascending order, so each finds its own in the cache and
    no call goes more than two levels deep, whatever n."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    for m in range(n):
        partition_count(m)
    total = 0
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > n and g2 > n:
            break
        sign = -1 if k % 2 == 0 else 1
        total += sign * (partition_count(n - g1) + partition_count(n - g2))
        k += 1
    return total


def largest_part_sum(n: int) -> int:
    """The sum of the largest parts of the partitions of n.  By conjugation
    it is the sum of their numbers of parts, and the partitions of n with
    at least m copies of v are p(n - m*v) in number."""
    return sum(partition_count(n - m * v) for v in range(1, n + 1)
               for m in range(1, n // v + 1))


def pentagonal_signs(order: int):
    """Coefficients of the expanded product prod(1 - q^k), k >= 1."""
    coeffs = [0] * (order + 1)
    coeffs[0] = 1
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > order and g2 > order:
            break
        sign = -1 if k % 2 == 1 else 1
        if g1 <= order:
            coeffs[g1] += sign
        if g2 <= order:
            coeffs[g2] += sign
        k += 1
    return coeffs


def ferrers_transpose(parts):
    """Conjugate a weakly decreasing parts list via an explicit 0/1 grid."""
    parts = list(parts)
    if not parts:
        return []
    grid = [[1] * p for p in parts]
    width = parts[0]
    return [sum(1 for row in grid if len(row) >= j + 1) for j in range(width)]


def recursive_partitions(n: int, max_part: int = None):
    """Parts tuples of every partition of n with parts <= max_part, in
    decreasing lexicographic order, by recursion on the first part."""
    def gen(remaining, cap, prefix):
        if remaining == 0:
            yield tuple(prefix)
            return
        for first in range(min(remaining, cap), 0, -1):
            prefix.append(first)
            yield from gen(remaining - first, first, prefix)
            prefix.pop()

    if n == 0:
        return iter([()])
    return gen(n, n if max_part is None else min(max_part, n), [])


def linear_mex(parts, r: int = 1) -> int:
    """Smallest k >= 1 with k, ..., k+r-1 all absent from the parts, by
    linear scan."""
    present = set(parts)
    k = 1
    while any(k + t in present for t in range(r)):
        k += 1
    return k


def linear_maex(parts, r: int = 1) -> int:
    """Largest k with r <= k < the largest part and k-r+1, ..., k all absent
    from the parts, by linear scan down from the top; 0 if there is none."""
    present = set(parts)
    for k in range(max(parts, default=0) - 1, r - 1, -1):
        if all(k - t not in present for t in range(r)):
            return k
    return 0


def scan_state(pairs, depth: int) -> tuple:
    """The chain scan state of the distinct values of ``pairs`` ((value,
    multiplicity), values decreasing) at chain lengths 1..depth: the state
    of the largest value alone, then one step per value under the one above
    it."""
    state = scan_start(pairs[0][0] if pairs else 0, depth)
    for (above, _), (w, _) in zip(pairs, pairs[1:]):
        state = scan_step(state, w, above, depth)
    return state


def folded_excludants(pairs, r_max: int) -> tuple:
    """Lists ``(mex, maex)`` of the r-chain mex and maex for r = 1..r_max:
    ``scan_state`` closed by placing 0 under the smallest part (0 for the
    empty partition)."""
    closed = scan_step(scan_state(pairs, r_max), 0, pairs[-1][0] if pairs else 0, r_max)
    return list(closed[:r_max]), list(closed[r_max:])


def gap_bounded(parts, r: int) -> bool:
    """Every gap between successive distinct parts, and the smallest part
    itself, is at most r; the empty partition qualifies."""
    values = sorted(set(parts)) if parts else []
    return all(b - a <= r for a, b in zip([0] + values, values))


def _parts_above(parts, bound):
    return sum(1 for p in parts if p > bound)


# statistic name -> value on one partition (flat parts) at chain length r
STATISTIC_VALUES = {
    "mex": lambda parts, r: linear_mex(parts, r),
    "mex+offset": lambda parts, r: linear_mex(parts, r) + (0 if gap_bounded(parts, r) else r - 1),
    "mex+r-1": lambda parts, r: linear_mex(parts, r) + r - 1,
    "largest-maex+offset": lambda parts, r: (max(parts, default=0) - linear_maex(parts, r)
                                             + (1 if gap_bounded(parts, r) else r)),
    "sum-largest": lambda parts, r: max(parts, default=0),
    "sum-maex": lambda parts, r: linear_maex(parts, 1),
}

# family name -> value on one partition at r >= 2; None keeps the
# partition out of every count
FAMILY_VALUES = {
    "multiples": lambda parts, r: sum(1 for p in parts if p % r == 0),
    "largest-repeating": lambda parts, r: max(
        (p for p in set(parts) if parts.count(p) >= r), default=0),
    "top-multiple": lambda parts, r: parts.count(max(
        (p for p in parts if p % r == 0), default=0)),
    "smallest-repeating": lambda parts, r: min(
        (p for p in set(parts) if parts.count(p) >= r), default=0),
    "above-mex": lambda parts, r: _parts_above(parts, linear_mex(parts, r - 1)),
    "above-maex": lambda parts, r: (None if gap_bounded(parts, r - 1)
                                    else _parts_above(parts, linear_maex(parts, r - 1))),
}


def flat_cut(parts, i):
    """(the first i-1 parts, the rest) of a weakly decreasing parts tuple,
    or None when i is outside 1..len(parts)+1."""
    if not 1 <= i <= len(parts) + 1:
        return None
    return tuple(parts[:i - 1]), tuple(parts[i - 1:])


def flat_concat(a, b):
    """Parts of the multiset union, weakly decreasing."""
    return tuple(sorted(tuple(a) + tuple(b), reverse=True))


def flat_shift_residues(alpha, beta, r, keep_largest):
    """The pair operators on flat parts: every value of beta except its
    largest (or its smallest) keeps the largest multiple of r+1 of its
    copies, and the leftover copies join alpha."""
    kept = (max if keep_largest else min)(beta, default=None)
    moved = [v for v in set(beta) if v != kept for _ in range(beta.count(v) % (r + 1))]
    stay = list(beta)
    for v in moved:
        stay.remove(v)
    return flat_concat(alpha, moved), flat_concat(stay, ())


def flat_glaisher_merge(parts, r):
    """Join r equal parts into one, repeatedly, until no part occurs r
    times."""
    parts = list(parts)
    while True:
        full = [v for v in set(parts) if parts.count(v) >= r]
        if not full:
            return tuple(sorted(parts, reverse=True))
        for _ in range(r):
            parts.remove(full[0])
        parts.append(full[0] * r)


def flat_glaisher_split(parts, r):
    """Break a part divisible by r into r equal parts, repeatedly, until no
    part is divisible by r."""
    todo, out = list(parts), []
    while todo:
        p = todo.pop()
        if p % r:
            out.append(p)
        else:
            todo.extend([p // r] * r)
    return tuple(sorted(out, reverse=True))


def box_partition_count(rows: int, cols: int, n: int) -> int:
    """Number of partitions of n fitting in a rows x cols box, by direct
    recursive enumeration."""
    def count(remaining, max_part, slots):
        if remaining == 0:
            return 1
        if slots == 0 or max_part == 0:
            return 0
        return sum(count(remaining - first, first, slots - 1)
                   for first in range(min(remaining, max_part), 0, -1))
    return count(n, cols, rows)


# ---------------------------------------------------------------------------
# Dense reference for the q-series builders
# ---------------------------------------------------------------------------

def monomial(exponent, order):
    """q^exponent truncated at order."""
    return PowerSeries([0] * exponent + [1], order)


def shifted(s, exponent):
    """s times q^exponent (exponent >= 0), truncated at the order of s."""
    return PowerSeries([0] * exponent + s.coeffs, s.order)


def dense_factor(e, order, sign=-1):
    """1 + sign*q^e as a dense series; e = 0 gives the constant 1 + sign."""
    c = [1] + [0] * order
    if e <= order:
        c[e] += sign
    return PowerSeries(c, order)


def dense_poch(first, step, count, order, sign=-1):
    """prod (1 + sign*q^(first+i*step)) over i < count, or over every
    exponent <= order when count is None."""
    out = PowerSeries([1], order)
    i = 0
    while (count is None or i < count) and first + i * step <= order:
        out = out * dense_factor(first + i * step, order, sign)
        i += 1
    return out


def dense_partition_count(order):
    return dense_poch(1, 1, None, order).invert()


def dense_sigma_mex(order):
    s = dense_poch(1, 1, None, order, 1)
    return s * s


def dense_strict_count(r, order):
    return dense_poch(r, r, None, order) * dense_partition_count(order)


def dense_chain_mex_shifted(r, order):
    acc = PowerSeries([0], order)
    for m in range(1, r + 1):
        acc = acc + dense_poch(m, r + 1, None, order).invert()
    return dense_strict_count(r + 1, order) * acc


def dense_chain_mex_sum(r, order):
    return dense_chain_mex_shifted(r, order) - dense_partition_count(order) * (r - 1)


def dense_chain_mex_offset_sum(r, order):
    inner = PowerSeries([1], order)
    for n in range(1, order + 1):
        num = monomial(n, order) - monomial(n + r * n, order)
        den = (dense_factor(n, order) * dense_poch(r + 1, r + 1, n, order)).invert()
        inner = inner + num * den
    return dense_strict_count(r + 1, order) * inner


def dense_maex_defect(order):
    acc = PowerSeries([0], order)
    for n in range(1, order + 1):
        acc = acc + shifted(dense_poch(2, 2, n - 1, order), n)
    return dense_partition_count(order) * acc


def dense_chain_maex_sum(r, order):
    acc = PowerSeries([0], order)
    for n in range(1, order + 1):
        term = dense_poch(r + 1, r + 1, n, order) * dense_factor(n, order).invert()
        acc = acc + shifted(term, n)
    return dense_strict_count(r + 1, order) + dense_partition_count(order) * acc


def dense_chain_maex_product(r, order):
    return dense_strict_count(r + 1, order) * dense_bottom_multiplicity_count(r + 1, order)


def dense_top_multiplicity_count(r, order):
    acc = PowerSeries([1], order)
    for n in range(1, order + 1):
        num = monomial(n, order) - monomial(r * n, order)
        den = (dense_factor(n, order) * dense_poch(r, r, n, order)).invert()
        acc = acc + num * den
    return acc


def dense_bottom_multiplicity_count(r, order):
    acc = PowerSeries([0], order)
    for n in range(1, order + 1):
        term = dense_poch(r, r, n, order) * dense_factor(n, order).invert()
        acc = acc + shifted(term, n)
    return PowerSeries([1], order) + dense_poch(r, r, None, order).invert() * acc


def dense_sum_largest(order):
    acc = PowerSeries([0], order)
    for n in range(1, order + 1):
        acc = acc + shifted(dense_factor(n, order).invert(), n)
    return dense_partition_count(order) * acc


def dense_parts_above(r, j, order):
    out = shifted(dense_factor(j, order).invert(), j * r)
    out = out * dense_poch(j + 1, 1, None, order).invert()
    for n in range(1, j):
        geom = PowerSeries([0], order)
        for t in range(r):
            if n * t <= order:
                geom = geom + monomial(n * t, order)
        out = out * geom
    return out


def dense_q_binomial_sum(a_exp, z_exp, order, a_negate=False):
    sign = 1 if a_negate else -1
    total = PowerSeries([0], order)
    n = 0
    while n * z_exp <= order:
        num = (PowerSeries([1], order) if a_exp is None
               else dense_poch(a_exp, 1, n, order, sign))
        term = num * dense_poch(1, 1, n, order).invert()
        total = total + shifted(term, n * z_exp)
        n += 1
    return total


def dense_q_binomial_product(a_exp, z_exp, order, a_negate=False):
    den_inv = dense_poch(z_exp, 1, None, order).invert()
    if a_exp is None:
        return den_inv
    return dense_poch(a_exp + z_exp, 1, None, order, 1 if a_negate else -1) * den_inv


def dense_maex_bivariate(r, z_order, q_order):
    rows = [PowerSeries([0], q_order) for _ in range(z_order + 1)]
    n = 0
    while (r + 1) * (n + 1) <= q_order:
        base = dense_poch(r + 1, r + 1, n, q_order) \
            * dense_poch(1, 1, n, q_order).invert()
        base = shifted(base, (r + 1) * (n + 1))
        m = 0
        while (n + 1) * m <= q_order and r + m <= z_order:
            piece = base * dense_poch(1, 1, m, q_order).invert()
            rows[r + m] = rows[r + m] + shifted(piece, (n + 1) * m)
            m += 1
        n += 1
    return rows


def dense_maex_bivariate_double_sum(r, z_order, q_order):
    rows = [PowerSeries([0], q_order) for _ in range(z_order + 1)]
    for m in range(r, z_order + 1):
        ell = 1
        while (m + 1) * ell <= q_order:
            piece = dense_poch(1, 1, m - r, q_order).invert() \
                * dense_poch(r + 1, r + 1, ell - 1, q_order) \
                * dense_poch(1, 1, ell - 1, q_order).invert()
            rows[m] = rows[m] + shifted(piece, (m + 1) * ell)
            ell += 1
    return rows
