"""Integer partitions, structural operators, and excludant statistics.

A partition is kept internally as (value, multiplicity) pairs with strictly
decreasing values; the flat weakly-decreasing parts view is materialized on
demand.  Every value is immutable after construction, so partitions are safe
to share and hash.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator


class PartitionError(ValueError):
    """Raised for malformed partition data or out-of-range indices."""


def _is_count(x) -> bool:
    """True for an int that is not a bool (``True`` is an int in Python)."""
    return isinstance(x, int) and not isinstance(x, bool)


def _merge_pairs(a: tuple, b: tuple) -> tuple:
    """Multiset union of two pair tuples, each with strictly decreasing
    values: a merge that adds the multiplicities of a shared value."""
    if not a or not b:
        return a or b
    out = []
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        va, vb = a[i][0], b[j][0]
        if va > vb:
            out.append(a[i])
            i += 1
        elif va < vb:
            out.append(b[j])
            j += 1
        else:
            out.append((va, a[i][1] + b[j][1]))
            i += 1
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def _cut_pairs(pairs: tuple, i: int) -> tuple:
    """Split a pair tuple before its part number i (1 <= i <= parts + 1)
    in one walk: the pairs of the first i-1 parts and of the rest."""
    above = i - 1               # parts left to place above the cut
    if above >= 0:
        for idx, (v, m) in enumerate(pairs):
            if above < m:
                if not above:
                    return pairs[:idx], pairs[idx:]
                return pairs[:idx] + ((v, above),), ((v, m - above),) + pairs[idx + 1:]
            above -= m
        if not above:
            return pairs, ()
    raise PartitionError(f"cut index {i} out of range 1..{sum(m for _, m in pairs) + 1}")


def _conjugate_pairs(pairs) -> tuple:
    """The pairs of the conjugate (Ferrers transpose) of the partition with
    the pairs ``pairs``, values strictly decreasing; a list of pairs will
    do as well as a tuple.  The columns over values v_{t+1} < j <= v_t have height
    m_1 + ... + m_t.  These running sums strictly increase, so the
    conjugate's pairs come out distinct, in increasing order."""
    out = []
    height = 0
    prev = 0               # the value of the previous pair
    for v, m in pairs:
        if height:
            out.append((height, prev - v))
        height += m
        prev = v
    if height:
        out.append((height, prev))
        out.reverse()
    return tuple(out)


class Partition:
    """A partition of a non-negative integer (the empty partition is valid)."""

    __slots__ = ("_pairs",)

    def __init__(self, parts: Iterable[int] = ()):
        pairs = []
        for p in parts:
            if not _is_count(p) or p < 1:
                raise PartitionError(f"parts must be positive integers, got {p!r}")
            if not pairs or p < pairs[-1][0]:
                pairs.append([p, 1])
            elif p == pairs[-1][0]:
                pairs[-1][1] += 1
            else:
                raise PartitionError("parts must be weakly decreasing")
        self._pairs = tuple((v, m) for v, m in pairs)

    @staticmethod
    def _from_pairs(pairs: tuple) -> "Partition":
        # Trusted constructor: pairs already strictly decreasing with
        # positive multiplicities.
        lam = object.__new__(Partition)
        lam._pairs = pairs
        return lam

    @classmethod
    def parse(cls, text: str, sort: bool = False) -> "Partition":
        """Parse the canonical text form ``[7,4,4,1]`` (``[]`` for empty).

        By default the literal must already be weakly decreasing; pass
        ``sort=True`` to normalize arbitrary order.
        """
        s = text.strip()
        if not (s.startswith("[") and s.endswith("]")):
            raise PartitionError(f"partition literal must be bracketed: {text!r}")
        body = s[1:-1].strip()
        if not body:
            return cls()
        try:
            parts = [int(tok) for tok in body.split(",")]
        except ValueError:
            raise PartitionError(f"bad partition literal: {text!r}") from None
        return cls(sorted(parts, reverse=True) if sort else parts)

    # -- views ------------------------------------------------------------

    @property
    def pairs(self) -> tuple:
        """(value, multiplicity) pairs, values strictly decreasing."""
        return self._pairs

    @property
    def parts(self) -> tuple:
        """Flat weakly decreasing parts."""
        out = []
        for v, m in self._pairs:
            out.extend([v] * m)
        return tuple(out)

    @property
    def weight(self) -> int:
        total = 0
        for v, m in self._pairs:
            total += v * m
        return total

    @property
    def num_parts(self) -> int:
        total = 0
        for _, m in self._pairs:
            total += m
        return total

    @property
    def largest(self) -> int:
        """Largest part; 0 for the empty partition."""
        return self._pairs[0][0] if self._pairs else 0

    def multiplicity(self, value: int) -> int:
        for v, m in self._pairs:
            if v == value:
                return m
            if v < value:
                break
        return 0

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self._pairs == other._pairs

    def __hash__(self) -> int:
        return hash(self._pairs)

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)!r})"

    def __str__(self) -> str:
        return "[" + ",".join(str(p) for p in self.parts) + "]"

    # -- structural operators ---------------------------------------------

    def conjugate(self) -> "Partition":
        """Transpose of the Ferrers diagram; weight is preserved."""
        return Partition._from_pairs(_conjugate_pairs(self._pairs))

    def concat(self, other: "Partition") -> "Partition":
        """Multiset union of parts."""
        return Partition._from_pairs(_merge_pairs(self._pairs, other._pairs))

    def cut(self, i: int) -> tuple:
        """The first i-1 parts and the parts from position i onward, as two
        partitions; 1 <= i <= num_parts + 1."""
        up, down = _cut_pairs(self._pairs, i)
        return Partition._from_pairs(up), Partition._from_pairs(down)


EMPTY = Partition()


# -- membership predicates -------------------------------------------------

def is_regular(lam: Partition, r: int) -> bool:
    """True if no part is divisible by r."""
    for v, _ in lam._pairs:
        if not v % r:
            return False
    return True


def is_strict(lam: Partition, r: int) -> bool:
    """True if every part has multiplicity < r."""
    for _, m in lam._pairs:
        if m >= r:
            return False
    return True


# -- excludant statistics ----------------------------------------------------

def chain_mex_maex(lam: Partition, r: int) -> tuple:
    """The r-chain mex and maex of lam, from one loop over the pairs from
    the smallest value up: the first run of >= r missing values gives the
    mex, the last one below the largest part the maex (0 when there is
    none, exactly on the gap-bounded class).  Nothing is sized by r, so a
    huge r costs no more than r = 1.  r must be an int (not a bool)."""
    # a plain int skips the call: the maps run this check on every object
    if (type(r) is not int and not _is_count(r)) or r < 1:
        raise PartitionError(f"chain length r must be an integer >= 1, got {r!r}")
    mex = maex = 0
    below = 0      # the part just below the current run; 0 at the bottom
    for v, _ in reversed(lam._pairs):
        if v - below > r:              # the run below+1 .. v-1 is >= r long
            if not mex:
                mex = below + 1
            maex = v - 1
        below = v
    return mex or below + 1, maex


def chain_mex(lam: Partition, r: int) -> int:
    """Smallest k >= 1 such that k, k+1, ..., k+r-1 all fail to be parts.

    For r = 1 this is the classic minimal excludant.
    """
    return chain_mex_maex(lam, r)[0]


def chain_maex(lam: Partition, r: int) -> int:
    """Largest k with r <= k < largest part such that k, k-1, ..., k-r+1
    are all absent from the partition; 0 if no such k exists.

    The lower bound k >= r is forced by requiring the whole chain to consist
    of positive integers.  The result is positive exactly on the complement
    of the gap-bounded class, and then it is at least r.
    """
    return chain_mex_maex(lam, r)[1]


def in_gap_class(lam: Partition, r: int) -> bool:
    """Membership in the gap-bounded class: every gap between successive
    parts is at most r and the smallest part is at most r.  The empty
    partition is a member.  It is exactly where the r-chain maex is 0."""
    return not chain_mex_maex(lam, r)[1]


def mex_offset(lam: Partition, r: int) -> int:
    """Class weight added to the r-chain mex: 0 on the gap-bounded class,
    r-1 on its complement."""
    return 0 if in_gap_class(lam, r) else r - 1


def maex_offset(lam: Partition, r: int) -> int:
    """Class weight added in the maex sums: 1 on the gap-bounded class,
    r on its complement."""
    return 1 if in_gap_class(lam, r) else r


def parts_above(lam: Partition, bound: int) -> int:
    """Number of parts strictly greater than ``bound``."""
    total = 0
    for v, m in lam._pairs:
        if v <= bound:          # values decrease: no later part is above
            break
        total += m
    return total


def parts_above_mex(lam: Partition, r: int) -> int:
    """Number of parts strictly greater than the r-chain mex."""
    return parts_above(lam, chain_mex(lam, r))


def parts_above_maex(lam: Partition, r: int) -> int:
    """Number of parts strictly greater than the r-chain maex."""
    return parts_above(lam, chain_maex(lam, r))


def largest_repeating(lam: Partition, r: int) -> int:
    """Largest part value with multiplicity >= r; 0 if none."""
    for v, m in lam._pairs:
        if m >= r:
            return v
    return 0


def smallest_repeating(lam: Partition, r: int) -> int:
    """Smallest part value with multiplicity >= r; 0 if none."""
    for v, m in reversed(lam._pairs):
        if m >= r:
            return v
    return 0


def count_multiples(lam: Partition, r: int) -> int:
    """Number of parts divisible by r, counted with multiplicity."""
    total = 0
    for v, m in lam._pairs:
        if not v % r:
            total += m
    return total


def top_multiple_multiplicity(lam: Partition, r: int) -> int:
    """Multiplicity of the largest part divisible by r; 0 if none."""
    for v, m in lam._pairs:
        if not v % r:
            return m
    return 0


# -- the chain scan ---------------------------------------------------------
#
# The chain scan state of the distinct values v_1 > ... > v_k, read from the
# largest down, is one flat tuple of 2 * depth entries: for r = 1..depth,
# entry r - 1 is low[r], the start of the lowest run of >= r missing values
# between v_k and v_1 (v_1 + 1 if there is none), and entry depth + r - 1 is
# high[r], the top of the highest such run (0 if there is none).  high[r] is
# set exactly for r up to the longest run so far, so the set entries are a
# prefix of the high half.

def scan_start(largest: int, depth: int) -> tuple:
    """The scan state of the largest value alone: no run yet."""
    return (largest + 1,) * depth + (0,) * depth


def scan_step(state: tuple, w: int, above: int, depth: int) -> tuple:
    """The scan state after a value w is placed under the value ``above``:
    the run w+1 .. above-1 becomes the lowest run, so it is low[r] for every
    r up to its length, and the highest one for each such r that had none.
    A value right under ``above`` adds no run and keeps the state.

    Placing w = 0 under the smallest part (0 for the empty partition)
    closes the scan: the result holds the r-chain mex of r = 1..depth in
    its first half and the maex in its second."""
    k = above - w - 1
    if k > depth:
        k = depth
    if k <= 0:
        return state
    high = state[depth:]
    if not high[k - 1]:
        h = high.index(0)
        high = high[:h] + (above - 1,) * (k - h) + high[k:]
    return (w + 1,) * k + state[k:depth] + high


# -- enumeration ------------------------------------------------------------

def partitions(n: int) -> Iterator[Partition]:
    """Yield every partition of n exactly once, in decreasing lexicographic
    order of the parts list.

    The successor is computed on a stack of (value, multiplicity) pairs,
    values strictly decreasing, in O(1) steps (Zoghbi and Stojmenovic's
    ZS1 on the multiplicity encoding): drop the run of 1s, take one copy
    of the smallest part v > 1, and refill the freed weight greedily with
    parts v - 1 and one remainder.
    """
    if n < 0:
        raise PartitionError("cannot partition a negative integer")
    from_pairs = Partition._from_pairs
    pairs = [(n, 1)] if n else []
    while True:
        yield from_pairs(tuple(pairs))
        if not pairs:
            return
        v, m = pairs[-1]
        freed = 0
        if v == 1:
            if len(pairs) == 1:
                return
            pairs.pop()
            freed = m
            v, m = pairs[-1]
        if m > 1:
            pairs[-1] = (v, m - 1)
        else:
            pairs.pop()
        q, rem = divmod(freed + v, v - 1)
        pairs.append((v - 1, q))
        if rem:
            pairs.append((rem, 1))
