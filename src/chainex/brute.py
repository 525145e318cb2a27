"""The brute-force engine, ``tallies``: exact statistic sums and family
counts over every partition of every n <= n_max.

It uses only the partition core: the walk (``walk_scans``), the chain scan
(``scan_start``, ``scan_step``) and the family statistics; no series
builder and no bijection code.  One walk over the partitions of n_max
tallies every n <= n_max through a bijection: each partition of n splits
uniquely as mu + 1^j, where the head mu has no part 1 and |mu| + j = n,
and the heads of weight w are exactly the partitions of n_max with their
n_max - w 1s removed.  So the pairs (lambda of n_max, j up to lambda's
number of 1s) list every partition of every n <= n_max exactly once.

The walk carries the chain scan state of every r on the enumerator's
stack, so a pushed value pays one scan step and a partition pays none, and
a head's state is the stack level under the walked partition's 1s.
Partitions are counted under their (state, smallest part) key: a head once
under its own key at its weight, and once under the walked partition's key
at every larger weight, since mu + 1^j has that key for every j >= 1.
Each distinct key is closed into the chain mex and maex once, and every
requested (statistic, r) cell is filled from these counts.  The walk
builds every partition mu + 1^j for the (family, r) cells and puts it,
with its closed key, in a batch of its weight; each cell of that weight
maps its statistic over a full batch, and over what is left at the end of
the walk, in one call, so every partition reaches every cell once.  The
bijection side reads the chain excludants through ``chain_mex_maex``, a
one-r loop that shares no scan code with the walk.  This module imports
nothing of chainex but ``partition``, and ``tests/test_routes.py`` checks
which of its names it reads.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from itertools import chain, compress, repeat
from operator import itemgetter

from . import partition as pt
from .partition import EMPTY, Partition, _is_count, scan_start, scan_step, walk_scans


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
    maexes = list(map(maex, exs))
    return chain(map(pt.parts_above, compress(lams, maexes), filter(None, maexes)),
                 repeat(-1, maexes.count(0)))


# Family statistic of each partition of a batch at r >= 2, given their
# closed keys and the getters of the (r-1)-chain mex and maex, which the
# above-* families read.  Each maps its partition-core statistic, an
# attribute of the partition module read per call, over the whole batch.
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

# partitions of one weight that wait for the family cells before each
# cell maps its statistic over them in one call
_BATCH = 64

STATISTICS = tuple(_STAT_SUMS)

FAMILIES = tuple(_FAMILY_VALUES)


def tallies(n_max: int, r_max: int, family_cells=()) -> list:
    """The tally of every n = 0..n_max from one walk over the partitions of
    n_max: chain mex/maex for every r = 1..r_max and every (family, r) cell
    in ``family_cells``, which need 2 <= r <= r_max + 1.  Partitions are
    streamed, not stored.

    Each partition mu + 1^j of n is counted through its head mu (the parts
    above 1; see the module docstring): under mu's own key (state, smallest
    part) at j = 0, and under the key of the walked partition, (state, 1),
    for j >= 1.  Each distinct key is closed once, at every chain length
    the walk carries; an entry for r does not depend on how many chain
    lengths the state carries, so each tally keeps its entries up to its
    own n.  Each mu + 1^j is built once for the family cells and put, with
    its closed key, in a batch of up to ``_BATCH`` partitions of its
    weight; when a batch fills, and once more after the walk, every cell
    of that weight counts the values of its statistic over the batch from
    one ``map`` call.

    n_max >= 0 and r_max >= 1 must be ints (not bools); anything else
    raises ValueError before the walk, as in the theorem harness."""
    for name, value, least in (("n", n_max, 0), ("r", r_max, 1)):
        if not _is_count(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")
    for fam, r in family_cells:
        if not 2 <= r <= r_max + 1:
            raise ValueError(f"family cell ({fam!r}, {r}) needs r in 2..{r_max + 1}")
    depth = min(r_max, max(n_max, 1))   # longer chains read the last entry
    # heads[w] counts the own keys of the heads of weight w, and ones[n]
    # the keys of the heads of weight n - 1 with their 1s, which count
    # again at every later n
    heads = [Counter() for _ in range(n_max + 1)]
    ones = [Counter() for _ in range(n_max + 1)]
    heads_largest = [0] * (n_max + 1)
    ones_largest = [0] * (n_max + 1)
    specs = {}
    for fam, r in family_cells:
        i = min(r - 1, depth) - 1
        specs[fam, r] = _FAMILY_VALUES[fam], r, itemgetter(i), itemgetter(depth + i)
    families = [{cell: Counter() for cell in specs} for _ in range(n_max + 1)]
    cells = [[(fams[cell], *spec) for cell, spec in specs.items()] for fams in families]
    # the partitions of each weight, and their closed keys, not yet
    # evaluated by the family cells
    batches = [([], []) for _ in range(n_max + 1)] if specs else ()
    closed = {}

    def close(key):
        ex = closed.get(key)
        if ex is None:
            ex = closed[key] = scan_step(key[0], 0, key[1], depth)
        return ex

    def flush(n):
        lams, exs = batches[n]
        for counts, values, r, mex, maex in cells[n]:
            counts.update(values(lams, exs, r, mex, maex))
        lams.clear()
        exs.clear()

    def put(lam, n, ex):
        lams, exs = batches[n]
        lams.append(lam)
        exs.append(ex)
        if len(lams) == _BATCH:
            flush(n)

    from_pairs = Partition._from_pairs
    for pairs, states in walk_scans(n_max, depth):
        if not pairs:           # the partition of 0, the empty head: counted below
            continue
        smallest, k = pairs[-1]
        top = pairs[0][0]
        if smallest == 1:
            w = n_max - k
            ones_key = states[-1], 1
            ones[w + 1][ones_key] += 1
            ones_largest[w + 1] += top
            head_key = (states[-2], pairs[-2][0]) if w else None
        else:
            w, k = n_max, 0
            head_key = states[-1], smallest
        if w:
            heads[w][head_key] += 1
            heads_largest[w] += top
        if specs:
            head = tuple(pairs[:-1] if k else pairs)
            if w:
                put(from_pairs(head), w, close(head_key))
            if k:
                ex = close(ones_key)
                for j in range(1, k + 1):
                    put(from_pairs(head + ((1, j),)), w + j, ex)
    # the one head of weight 0: the empty partition
    empty_key = scan_start(0, depth), 0
    heads[0][empty_key] += 1
    if specs:
        put(EMPTY, 0, close(empty_key))
    for n, (lams, _) in enumerate(batches):
        if lams:
            flush(n)

    def fold(keys, mex, maex):
        for key, count in keys.items():
            ex = close(key)
            for i in range(len(mex)):
                mex[i] += count * ex[i]
                maex[i][ex[depth + i]] += count

    # running sums over the heads with their 1s, each entered at the least
    # weight it reaches; a maex is below the largest part, so below n_max
    mex_sums = [0] * depth
    maex_counts = [[0] * max(n_max, 1) for _ in range(depth)]
    count = largest = 0
    out = []
    for n in range(n_max + 1):
        fold(ones[n], mex_sums, maex_counts)
        count += ones[n].total()
        largest += ones_largest[n]
        cut = min(r_max, max(n, 1))
        mex, maex = mex_sums[:cut], [c[:] for c in maex_counts[:cut]]
        fold(heads[n], mex, maex)
        maex = [Counter({m: c for m, c in enumerate(counts) if c}) for counts in maex]
        out.append(Tally(count + heads[n].total(), largest + heads_largest[n],
                         mex, maex, families[n], r_max))
        ones[n] = heads[n] = None   # folded
    return out
