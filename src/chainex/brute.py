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
the largest down, and interns the keys (scan state, smallest part): each
distinct key gets a small int id, and the heads are counted by id.  It
pays once per prefix of larger values and smaller value s >= 2, not once
per head, by two exact facts.  A key reads a head's values, not their
multiplicities, so every multiplicity m of s shares the key that one
step gives: the walk records one start at the first weight, and one pass
after it runs each start up its progression of weights, step s.  And the
step from a key to its child under s depends on the key and s alone, so
the walk memoizes it by id and takes one scan step per distinct step.
mu + 1^j has one key for all j >= 1: the head's state after a 1 is
scanned under its smallest part, and 1.  So the heads of weight w enter
every larger weight under their 1s keys; the walk never places a 1.
After the walk, each key and its 1s key are closed into the chain mex
and maex once, into two lists indexed by id, and every requested
(statistic, r) cell is filled from the counts by id.  A
(family, r) cell calls its statistic once per head: at r >= 2 the family
value of mu + 1^j follows from mu's by a rule per family (``_PAST_R``),
since every mu + 1^j with j >= 1 has mu's 1s key, 1 is no multiple of r
and lies above no mex or maex >= 1, and the 1s repeat r times exactly
when j >= r.  The above-* cells also read mu + 1, one more partition
per head.  So the walk keeps each head with its key id by weight, and after
it each cell maps its statistic over the heads of each weight in one
call and adds the counts once per range of n that they stand for.  The
bijection side reads the chain excludants through ``chain_mex_maex``, a
one-r loop that shares no scan code with the walk.  This module imports
nothing of chainex but ``partition``, and ``tests/test_routes.py``
checks which of its names it reads.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import cache
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

# The rule beside each family's values, at r >= 2: the value of mu + 1^j
# (mu a head, so without part 1) follows from mu's.  Every mu + 1^j with
# j >= 1 has mu's 1s key, 1 is no multiple of r and lies above no mex or
# maex >= 1, and the 1s repeat r times exactly when j >= r.  So:
# - multiples and top-multiple take mu's value at every j;
# - smallest-repeating takes it for j < r and is 1 for j >= r;
# - largest-repeating takes it for j < r, and for j >= r keeps a nonzero
#   one and turns 0 into 1;
# - above-mex and above-maex (None) take mu's value at j = 0 and mu + 1's
#   at every j >= 1.
# Each entry maps the counts of mu's values over a list of heads to the
# counts of their mu + 1^j at any j >= r.
_PAST_R = {
    "multiples": lambda counts: counts,
    "largest-repeating": lambda counts: counts - Counter({0: counts[0]}) + Counter({1: counts[0]}),
    "top-multiple": lambda counts: counts,
    "smallest-repeating": lambda counts: Counter({1: counts.total()}),
    "above-mex": None,
    "above-maex": None,
}

STATISTICS = tuple(_STAT_SUMS)

FAMILIES = tuple(_FAMILY_VALUES)


def _walk_heads(pairs, state, weight, n_max, depth, heads, largest, put_head, ids):
    """Count every head of weight <= n_max that extends the head ``pairs``
    (of weight ``weight``, its values' scan state ``state``; ``()`` and
    None for the empty head) by values below its smallest.  ``ids`` interns
    the keys (scan state, smallest part): a key new to it takes the next
    int id, ``len(ids)``, in the order a depth-first walk meets it.  Each
    such head mu adds 1 to ``heads[|mu|][id]`` and its largest part to
    ``largest[|mu|]``, and ``put_head(mu, |mu|, id)`` is called once per
    head if ``put_head`` is not None.

    Two exact facts make the walk pay once per (prefix, value s), not once
    per head:
    - A key reads only which values a head has: the scan steps over values
      and never sees a multiplicity.  So the heads prefix + (s, m), m >= 1,
      share one id, their weights run |prefix| + m*s, and their largest
      part is the prefix's (s for the empty prefix).  The recursion
      (``_walk_starts``) records one start per (prefix, s) at weight
      |prefix| + s, and the pass below adds each weight's counts into
      weight + s, in ascending order, s being the id's smallest part.  So
      the count at w is the starts at w plus the count at w - s, which
      counts every m once.  The largest-part sums are kept by (weight, s)
      and run the same way.
    - From a key (state, s), the next value s' < s gives the key
      (``scan_step(state, s', s, depth)``, s'), which depends on the key,
      so on its id, and on s' alone.  So each id keeps a dict from s' to
      the child's id, and each distinct transition takes one scan step and
      one intern.  The dicts hold ints only; a state is read from ``keys``,
      the interned keys in id order.

    These are module-level functions: a closure that called itself would
    be a reference cycle and keep every counter alive until the cyclic
    collector ran."""
    keys = list(ids)
    nexts = [None] * len(keys)      # by id: {s': the child's id}, made on first use
    starts = [{} for _ in range(n_max + 1)]
    tops = [{} for _ in range(n_max + 1)]
    _walk_starts(pairs, state, weight, {}, n_max, depth, starts, tops, put_head, ids, keys,
                 nexts)
    steps = [s for _, s in keys]
    del keys, nexts     # freed before the pass below fills heads
    for w in range(weight + 1, n_max + 1):
        counts, sums = starts[w], tops[w]
        for i, c in counts.items():
            v = w + steps[i]
            if v <= n_max:
                later = starts[v]
                later[i] = later.get(i, 0) + c
        for s, t in sums.items():
            if w + s <= n_max:
                later = tops[w + s]
                later[s] = later.get(s, 0) + t
        heads[w].update(counts)
        largest[w] += sum(sums.values())
        starts[w] = tops[w] = None      # merged: only heads keeps the counts


def _walk_starts(pairs, state, weight, memo, n_max, depth, starts, tops, put_head, ids, keys,
                 nexts):
    """The recursion of ``_walk_heads``.  For each value s below the
    smallest of the head ``pairs`` (of weight ``weight``), it adds one start
    of the id of pairs + (s, 1) to ``starts[weight + s]`` and one of its
    largest part to ``tops[weight + s][s]``, then does the same below each
    pairs + (s, m).  ``memo`` maps s to that id from the key of ``pairs``,
    whose state is ``state``."""
    above = pairs[-1][0] if pairs else n_max + 1
    top = pairs[0][0] if pairs else 0
    for s in range(min(above - 1, n_max - weight), 1, -1):
        i = memo.get(s)
        if i is None:
            key = scan_step(state, s, above, depth) if pairs else scan_start(s, depth), s
            i = memo[s] = ids.setdefault(key, len(ids))
            if i == len(keys):
                keys.append(key)
                nexts.append(None)
        w = weight + s
        counts = starts[w]
        counts[i] = counts.get(i, 0) + 1
        sums = tops[w]
        sums[s] = sums.get(s, 0) + (top or s)
        if put_head is not None:
            for m, v in enumerate(range(w, n_max + 1, s), 1):
                put_head(pairs + ((s, m),), v, i)
        if s > 2 and w < n_max - 1:     # a value s' >= 2 below s still fits
            memo_i = nexts[i]
            if memo_i is None:
                memo_i = nexts[i] = {}
            child = keys[i][0]
            for m, v in enumerate(range(w, n_max - 1, s), 1):
                _walk_starts(pairs + ((s, m),), child, v, memo_i, n_max, depth, starts, tops,
                             put_head, ids, keys, nexts)


def tallies(n_max: int, r_max: int, family_cells=()) -> list:
    """The tally of every n = 0..n_max from one walk over the heads of
    weight <= n_max: chain mex/maex for every r = 1..r_max and every
    (family, r) cell in ``family_cells``, which need 2 <= r <= r_max + 1.
    Partitions are streamed, not stored; with family cells the heads are
    kept by weight until the walk ends.

    Each partition mu + 1^j of n is counted through its head mu (the parts
    above 1; see the module docstring), and the walk counts each head once,
    under the int id of its key (state, smallest part): the walk interns
    each distinct key as the next id.  It pays once per (prefix, value)
    and takes one scan step per distinct step between keys, not one per
    head (``_walk_heads`` says why both are exact); the empty head, id 0,
    is seeded at weight 0 and the walk does not move it.  mu itself
    counts under its key, and mu + 1^j for j >= 1 under mu's 1s key (the
    state after a 1 under mu's smallest part, 1), which enters the running
    sums at n for the heads of weight n - 1.  After the walk, two lists indexed by id hold
    each key closed and its 1s key closed, each computed once per distinct
    key, at every chain length the walk carries; an entry for r does not
    depend on how many chain lengths the state carries, so each tally
    keeps its entries up to its own n.  For the family cells, the walk
    lists each head with its key id under its weight.  After it, each
    cell counts its statistic over the heads mu of each weight w in one
    call, on lists of partitions and closed keys that all cells share, and
    an above-* cell over their mu + 1 in one more; no mu + 1^j with j >= 2
    is built.  By the cell's rule (``_PAST_R``), mu's counts hold for the
    mu + 1^j up to j = r - 1 (only j = 0 for an above-* cell), and the
    counts that the rule gives replace them from there on.  So each weight's
    counts enter a cell once per range of n: they are added at the range's
    first n and taken out after its last, and the tallies keep a running
    sum per cell.

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
    depth = min(r_max, max(n_max, 1))   # longer chains read the last entry
    specs = {}
    for cell in family_cells:
        try:
            fam, r = cell
        except (TypeError, ValueError):
            raise ValueError(f"family cell {cell!r} is not a (family, r) pair") from None
        if fam not in FAMILIES:
            raise ValueError(f"unknown family {fam!r}")
        if not (_is_count(r) and 2 <= r <= r_max + 1):
            raise ValueError(f"family cell ({fam!r}, {r!r}) needs r in 2..{r_max + 1}")
        i = min(r - 1, depth) - 1
        specs[fam, r] = _FAMILY_VALUES[fam], _PAST_R[fam], r, itemgetter(i), itemgetter(depth + i)
    # heads[w] counts the key ids of the heads of weight w, each head once;
    # the empty partition is the one head of weight 0, under id 0
    ids = {(scan_start(0, depth), 0): 0}
    heads = [Counter({0: 1})] + [Counter() for _ in range(n_max)]
    heads_largest = [0] * (n_max + 1)
    # families[n] holds each cell's changes at n, which the final loop sums
    families = [{cell: Counter() for cell in specs} for _ in range(n_max + 1)]
    # the family cells read the heads of each weight, each with its key id
    by_weight = [[((), 0)]] + [[] for _ in range(n_max)] if specs else ()
    _walk_heads((), None, 0, n_max, depth, heads, heads_largest,
                (lambda head, w, key: by_weight[w].append((head, key))) if specs else None,
                ids)
    # by id (ids lists its keys in id order, since each took len(ids)), each
    # key closed into its chain mex and maex, and the closed key of
    # mu + 1^j, j >= 1: 1 goes under mu's smallest part, or alone for the
    # empty head
    closed = [scan_step(state, 0, s, depth) for state, s in ids]
    ones = [scan_step(scan_step(state, 1, s, depth) if s else scan_start(1, depth), 0, 1, depth)
            for state, s in ids]
    del ids     # the lists and the ids now stand for the keys

    from_pairs = Partition._from_pairs
    # the mu + 1 of the heads of weight w and their closed keys, built for
    # the first above-* cell that reads them
    plus_one = cache(lambda w: ([from_pairs(head + ((1, 1),)) for head, _ in by_weight[w]],
                                [ones[key] for _, key in by_weight[w]]))
    for w, group in enumerate(by_weight):
        lams = [from_pairs(head) for head, _ in group]
        exs = [closed[key] for _, key in group]
        for cell, (values, past, r, mex, maex) in specs.items():
            counts = Counter(values(lams, exs, r, mex, maex))
            families[w][cell].update(counts)
            # from mu + 1^r (mu + 1 for an above-* cell) on, the counts
            # that the rule gives replace mu's; a rule that keeps mu's
            # counts changes nothing
            n = w + (r if past else 1)
            if n <= n_max:
                after = past(counts) if past else Counter(values(*plus_one(w), r, mex, maex))
                if after is not counts:
                    families[n][cell].update(after)
                    families[n][cell].subtract(counts)

    def fold(keys, exs, mex, maex):
        for key, count in keys:
            ex = exs[key]
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
            fold(below.items(), ones, mex_sums, maex_counts)
            count += below.total()
            # mu + 1^j keeps mu's largest part, and 1^j has largest part 1
            largest += heads_largest[n - 1] + (n == 1)
            heads[n - 1] = None     # folded
            # the running sums; Counter addition keeps only positive counts
            families[n] = {cell: d + families[n - 1][cell] for cell, d in families[n].items()}
        cut = min(r_max, max(n, 1))
        mex, maex = mex_sums[:cut], [c[:] for c in maex_counts[:cut]]
        fold(heads[n].items(), closed, mex, maex)
        maex = [Counter({m: c for m, c in enumerate(counts) if c}) for counts in maex]
        out.append(Tally(count + heads[n].total(), largest + heads_largest[n],
                         mex, maex, families[n], r_max))
    return out
