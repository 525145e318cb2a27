"""The brute-force engine, ``tallies``: exact statistic sums and family
counts over every partition of every n <= n_max.

It uses only the partition core: the chain scan (``scan_start``,
``scan_step``) and the family statistics; no enumerator, no series
builder and no bijection code.  Each partition of n splits uniquely as
mu + 1^j, where the head mu has no part 1 and |mu| + j = n.  So one walk
over the heads, the partitions with no part 1 and weight <= n_max,
tallies every n <= n_max: the pairs (head mu, j up to n_max - |mu|) list
every partition of every n <= n_max exactly once.

The walk (``_walk_heads``) recurses over a head's distinct values from
the largest down.  For each prefix of larger values and each smaller
value s >= 2 it takes one scan step, and every multiplicity of s shares
the key (state, s) that step gives, so each head is counted with one
increment, under its key at its weight.  mu + 1^j has one key for all
j >= 1: the head's state after a 1 is scanned under its smallest part,
and 1.  So the heads of weight w enter every larger weight under their
1s keys, each derived once per distinct head key; the walk never places
a 1.  Each distinct key is closed into the chain mex and maex once, and
every requested (statistic, r) cell is filled from these counts.  The
(family, r) cells read each head three times: at r >= 2 a family value
of mu + 1^j depends on j only through its bucket, 0 for j = 0, 1 for
0 < j < r and r for j >= r, since every mu + 1^j with j >= 1 has mu's 1s
key, 1 is no multiple of r and lies above no mex or maex >= 1, and the
1s repeat r times exactly when j >= r.  So the walk keeps each head with
its key by weight, and after it, for each bucket b, each cell maps its
statistic over the mu + 1^b of each weight in one call and adds the
counts at every n that the bucket stands for.  The bijection side reads
the chain excludants through ``chain_mex_maex``, a one-r loop that
shares no scan code with the walk.  This module imports nothing of
chainex but ``partition``, and ``tests/test_routes.py`` checks which of
its names it reads.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from itertools import repeat
from operator import itemgetter

from . import partition as pt
from .partition import Partition, _is_count, scan_start, scan_step


class Tally(namedtuple("Tally", "count largest mex maex families r_max")):
    """What the engine gathers over the partitions of one n.

    ``count`` partitions, ``largest`` the sum of their largest parts,
    ``mex[i]`` the sum of their (i+1)-chain mex, ``maex[i][m]`` how many
    have (i+1)-chain maex m, and ``families[family, r][j]`` how many have
    the family statistic j.  The per-r lists stop at chain length n: a
    partition of n has no run of n missing values below its largest part,
    so every longer chain has the same mex and maex.  ``mex_sum`` and
    ``maex_counts`` read them for any r = 1..r_max.
    """
    __slots__ = ()

    def _index(self, r: int) -> int:
        if not 1 <= r <= self.r_max:
            raise ValueError(f"chain length r must be in 1..{self.r_max}, got {r}")
        return min(r, len(self.mex)) - 1

    def mex_sum(self, r: int) -> int:
        return self.mex[self._index(r)]

    def maex_counts(self, r: int) -> Counter:
        return self.maex[self._index(r)]

    def maex_sum(self, r: int) -> int:
        return sum(m * c for m, c in self.maex_counts(r).items())

    def off_class(self, r: int) -> int:
        """Partitions off the gap-bounded class, i.e. with r-chain maex > 0."""
        return self.count - self.maex_counts(r)[0]


# Sum of each statistic over the partitions of n, read off a tally.  The
# class offsets are linear in the off-class count: mex_offset is r-1 off
# the gap-bounded class and 0 on it, maex_offset is r off it and 1 on it.
_STAT_SUMS = {
    "mex": lambda t, r: t.mex_sum(r),
    "mex+offset": lambda t, r: t.mex_sum(r) + (r - 1) * t.off_class(r),
    "mex+r-1": lambda t, r: t.mex_sum(r) + (r - 1) * t.count,
    "largest-maex+offset": lambda t, r: (t.largest - t.maex_sum(r) + t.count
                                         + (r - 1) * t.off_class(r)),
    "sum-largest": lambda t, r: t.largest,
    "sum-maex": lambda t, r: t.maex_sum(1),
}

def _above_maex(lams, exs, r, mex, maex):
    # restricted off the gap-bounded class; -1 marks a partition on it
    return [pt.parts_above(lam, m) if m else -1 for lam, m in zip(lams, map(maex, exs))]


# Family statistic of each partition of a list at r >= 2, in input order,
# given their closed keys and the getters of the (r-1)-chain mex and maex,
# which the above-* families read.  Each maps its partition-core
# statistic, an attribute of the partition module read per call, over the
# whole list.
_FAMILY_VALUES = {
    "multiples": lambda lams, exs, r, mex, maex: map(pt.count_multiples, lams, repeat(r)),
    "largest-repeating": lambda lams, exs, r, mex, maex: map(pt.largest_repeating, lams,
                                                             repeat(r)),
    "top-multiple": lambda lams, exs, r, mex, maex: map(pt.top_multiple_multiplicity, lams,
                                                        repeat(r)),
    "smallest-repeating": lambda lams, exs, r, mex, maex: map(pt.smallest_repeating, lams,
                                                              repeat(r)),
    "above-mex": lambda lams, exs, r, mex, maex: map(pt.parts_above, lams, map(mex, exs)),
    "above-maex": _above_maex,
}

STATISTICS = tuple(_STAT_SUMS)

FAMILIES = tuple(_FAMILY_VALUES)


def _walk_heads(pairs, state, weight, n_max, depth, heads, largest, put_head):
    """Count every head of weight <= n_max that extends the head ``pairs``
    (of weight ``weight``, its values' scan state ``state``; ``()`` and
    None for the empty head) by values below its smallest: for each such
    value s >= 2, one scan step gives the key (state, s) that every
    multiplicity m of s shares, and each mu = pairs + (s, m) adds 1 to
    ``heads[|mu|][key]``, its largest part to ``largest[|mu|]``, and calls
    ``put_head(mu, |mu|, key)`` if ``put_head`` is not None.  It descends
    from mu when a smaller value s' >= 2 still fits, so at most as deep as
    a head has distinct values.  It is a module-level function: a closure that
    called itself would be a reference cycle and keep every counter alive
    until the cyclic collector ran."""
    above = pairs[-1][0] if pairs else n_max + 1
    top = pairs[0][0] if pairs else 0
    for s in range(min(above - 1, n_max - weight), 1, -1):
        state_s = scan_step(state, s, above, depth) if pairs else scan_start(s, depth)
        key = state_s, s
        big = top or s
        for w in range(weight + s, n_max + 1, s):
            heads[w][key] += 1
            largest[w] += big
        if put_head is not None:
            for m, w in enumerate(range(weight + s, n_max + 1, s), 1):
                put_head(pairs + ((s, m),), w, key)
        if s > 2:
            for m, w in enumerate(range(weight + s, n_max - 1, s), 1):
                _walk_heads(pairs + ((s, m),), state_s, w, n_max, depth, heads, largest, put_head)


def tallies(n_max: int, r_max: int, family_cells=()) -> list:
    """The tally of every n = 0..n_max from one walk over the heads of
    weight <= n_max: chain mex/maex for every r = 1..r_max and every
    (family, r) cell in ``family_cells``, which need 2 <= r <= r_max + 1.
    Partitions are streamed, not stored; with family cells the heads are
    kept by weight until the walk ends.

    Each partition mu + 1^j of n is counted through its head mu (the parts
    above 1; see the module docstring), and the walk counts each head once,
    under its key (state, smallest part).  mu itself counts under that key,
    and mu + 1^j for j >= 1 under mu's 1s key (the state after a 1 under
    mu's smallest part, 1), derived once per distinct head key when the
    heads of weight n - 1 enter the running sums at n.  Each distinct key
    is closed once, at every chain length the walk carries; an entry for r
    does not depend on how many chain lengths the state carries, so each
    tally keeps its entries up to its own n.  For the family cells, the
    walk lists each head with its key under its weight.  After it, for each
    bucket b in {0, 1} and every cell's r, the heads of each weight
    w <= n_max - b give the partitions mu + 1^b, each with its closed key
    (mu's own at b = 0, its 1s key otherwise), and each cell that reads
    bucket b counts its statistic over them from one call.  Those counts
    enter the tally of every n the bucket stands for: n = w at b = 0,
    w + 1..w + r - 1 at b = 1 and w + r..n_max at b = r.

    n_max >= 0 and r_max >= 1 must be ints (not bools), and each cell a
    (family, r) pair of a known family at an int r; anything else raises
    ValueError before the walk, as in the theorem harness."""
    for name, value, least in (("n", n_max, 0), ("r", r_max, 1)):
        if not _is_count(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")
    try:
        family_cells = list(family_cells)
    except TypeError:
        raise ValueError(f"family cells must be (family, r) pairs, got {family_cells!r}") from None
    for cell in family_cells:
        try:
            fam, r = cell
        except (TypeError, ValueError):
            raise ValueError(f"family cell {cell!r} is not a (family, r) pair") from None
        if fam not in FAMILIES:
            raise ValueError(f"unknown family {fam!r}")
        if not (_is_count(r) and 2 <= r <= r_max + 1):
            raise ValueError(f"family cell ({fam!r}, {r!r}) needs r in 2..{r_max + 1}")
    depth = min(r_max, max(n_max, 1))   # longer chains read the last entry
    # heads[w] counts the keys of the heads of weight w, each head once
    heads = [Counter() for _ in range(n_max + 1)]
    heads_largest = [0] * (n_max + 1)
    specs = {}
    for fam, r in family_cells:
        i = min(r - 1, depth) - 1
        specs[fam, r] = _FAMILY_VALUES[fam], r, itemgetter(i), itemgetter(depth + i)
    families = [{cell: Counter() for cell in specs} for _ in range(n_max + 1)]
    # the heads of each weight, each with its key, for the family cells
    by_weight = [[] for _ in range(n_max + 1)] if specs else ()
    closed = {}
    # the key of mu + 1^j, j >= 1, for each distinct head key: 1 goes
    # under mu's smallest part, or alone for the empty head
    empty_key = scan_start(0, depth), 0
    ones_keys = {empty_key: (scan_start(1, depth), 1)}

    def close(key):
        ex = closed.get(key)
        if ex is None:
            ex = closed[key] = scan_step(key[0], 0, key[1], depth)
        return ex

    def ones_of(key):
        ones_key = ones_keys.get(key)
        if ones_key is None:
            ones_key = ones_keys[key] = scan_step(key[0], 1, key[1], depth), 1
        return ones_key

    def put_head(head, w, key):
        by_weight[w].append((head, key))

    # the one head of weight 0: the empty partition
    heads[0][empty_key] += 1
    if specs:
        put_head((), 0, empty_key)
    _walk_heads((), None, 0, n_max, depth, heads, heads_largest, put_head if specs else None)

    # at a cell r, mu + 1^j takes the value of mu + 1^b for its bucket b:
    # 0 for j = 0, 1 for 0 < j < r and r for j >= r, the last j of the
    # bucket being 0, r - 1 and n_max
    buckets = {}
    for cell, (_, r, _, _) in specs.items():
        for b, last in ((0, 0), (1, r - 1), (r, n_max)):
            buckets.setdefault(b, []).append((cell, last))
    from_pairs = Partition._from_pairs
    for b, reads in buckets.items():
        for w, group in enumerate(by_weight[:max(n_max + 1 - b, 0)]):
            lams = [from_pairs(head + ((1, b),) if b else head) for head, _ in group]
            exs = [close(ones_of(key) if b else key) for _, key in group]
            for cell, last in reads:
                values, r, mex, maex = specs[cell]
                counts = Counter(values(lams, exs, r, mex, maex))
                for n in range(w + b, min(w + last, n_max) + 1):
                    families[n][cell].update(counts)

    def fold(keys, mex, maex):
        for key, count in keys:
            ex = close(key)
            for i in range(len(mex)):
                mex[i] += count * ex[i]
                maex[i][ex[depth + i]] += count

    # running sums over the heads with their 1s: the heads of weight n - 1
    # enter at n under their 1s keys, and each head below n_max was walked
    # once with its 1s; a maex is below the largest part, so below n_max
    mex_sums = [0] * depth
    maex_counts = [[0] * max(n_max, 1) for _ in range(depth)]
    count = largest = 0
    out = []
    for n in range(n_max + 1):
        if n:
            below = heads[n - 1]
            fold(((ones_of(key), c) for key, c in below.items()), mex_sums, maex_counts)
            count += below.total()
            # mu + 1^j keeps mu's largest part, and 1^j has largest part 1
            largest += heads_largest[n - 1] + (n == 1)
            heads[n - 1] = None     # folded
        cut = min(r_max, max(n, 1))
        mex, maex = mex_sums[:cut], [c[:] for c in maex_counts[:cut]]
        fold(heads[n].items(), mex, maex)
        maex = [Counter({m: c for m, c in enumerate(counts) if c}) for counts in maex]
        out.append(Tally(count + heads[n].total(), largest + heads_largest[n],
                         mex, maex, families[n], r_max))
    return out
