"""Brute-force accumulators and the identity verification harness.

Everything here compares exact integers.  The brute-force side only ever
uses the partition-core primitives (enumeration plus statistics); it never
calls the series builders or bijection code paths it is checking, so each
comparison really is two independent routes to the same number.

The brute-force side is one engine, ``tallies``.  It uses only the
partition core: the walk (``walk_scans``), the chain scan (``scan_start``,
``scan_step``) and the family statistics; no series builder and no
bijection code.  One walk over the partitions of n_max tallies every
n <= n_max through a bijection: each partition of n splits uniquely as
mu + 1^j, where the head mu has no part 1 and |mu| + j = n, and the heads
of weight w are exactly the partitions of n_max with their n_max - w 1s
removed.  So the pairs (lambda of n_max, j up to lambda's number of 1s)
list every partition of every n <= n_max exactly once.

The walk carries the chain scan state of every r on the enumerator's
stack, so a pushed value pays one scan step and a partition pays none, and
a head's state is the stack level under the walked partition's 1s.
Partitions are counted under their (state, smallest part) key: a head once
under its own key at its weight, and once under the walked partition's key
at every larger weight, since mu + 1^j has that key for every j >= 1.
Each distinct key is closed into the chain mex and maex once, and every
requested (statistic, r) and (family, r) cell is filled from these counts;
family cells build every partition mu + 1^j and evaluate it.  Each
statistic sum is then read off the tally of its n, so ``check_theorem``
walks the partitions of n_max once, whatever the r range.  The bijection
side reads the chain excludants through ``chain_mex_maex``, a one-r loop
that shares no scan code with the walk.

Bijection certification fills one report for every r of its range.  At
each r it lists every partition of each weight up to n once and counts: a
weight passes when every image lies in the codomain of that weight and
round-trips, so the map is injective, and domain and codomain have the
same size, so it is onto.  A partition map's domain and codomain
are the partitions that pass its membership tests.  An index-to-pair map
(gamma, gamma-star, delta) has as domain every (lambda, i) with i up to
the index bound, and as codomain exactly the pairs its public codomain
checker accepts among candidates it picks; counting needs it to test
alpha and beta separately.  No codomain rule is written out twice, so a
checker that accepts a pair the map never hits is shown that pair.
"""

from __future__ import annotations

import csv
import io
import json
import time
from collections import Counter, namedtuple

from . import bijections as bij
from . import qseries as qs
from .bijections import DomainError
from .partition import (
    EMPTY,
    Partition,
    chain_maex,
    chain_mex,
    count_multiples,
    is_regular,
    is_strict,
    largest_repeating,
    maex_offset,
    mex_offset,
    parts_above,
    partitions,
    scan_start,
    scan_step,
    smallest_repeating,
    top_multiple_multiplicity,
    walk_scans,
)


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

# Family statistic of one partition at r >= 2, given its (r-1)-chain mex
# and maex, which the above-* families read.
_FAMILY_VALUES = {
    "multiples": lambda lam, r, mex, maex: count_multiples(lam, r),
    "largest-repeating": lambda lam, r, mex, maex: largest_repeating(lam, r),
    "top-multiple": lambda lam, r, mex, maex: top_multiple_multiplicity(lam, r),
    "smallest-repeating": lambda lam, r, mex, maex: smallest_repeating(lam, r),
    "above-mex": lambda lam, r, mex, maex: parts_above(lam, mex),
    # restricted off the gap-bounded class; -1 marks a partition on it
    "above-maex": lambda lam, r, mex, maex: parts_above(lam, maex) if maex else -1,
}

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
    own n.  Family cells build every mu + 1^j and read its closed key.

    n_max >= 0 and r_max >= 1 must be ints (not bools); anything else
    raises ValueError before the walk, as in the theorem harness."""
    _resolve([n_max], None, "n", 0)
    _resolve([r_max], None, "r", 1)
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
    specs = {(fam, r): (_FAMILY_VALUES[fam], r, min(r - 1, depth) - 1)
             for fam, r in family_cells}
    families = [{cell: Counter() for cell in specs} for _ in range(n_max + 1)]
    cells = [[(fams[cell], *spec) for cell, spec in specs.items()] for fams in families]
    closed = {}

    def close(key):
        ex = closed.get(key)
        if ex is None:
            ex = closed[key] = scan_step(key[0], 0, key[1], depth)
        return ex

    def evaluate(lam, n, ex):
        for counts, value, r, i in cells[n]:
            counts[value(lam, r, ex[i], ex[depth + i])] += 1

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
                evaluate(from_pairs(head), w, close(head_key))
            if k:
                ex = close(ones_key)
                for j in range(1, k + 1):
                    evaluate(from_pairs(head + ((1, j),)), w + j, ex)
    # the one head of weight 0: the empty partition
    empty_key = scan_start(0, depth), 0
    heads[0][empty_key] += 1
    if specs:
        evaluate(EMPTY, 0, close(empty_key))

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


def sigma_stat(n: int, r: int, stat: str) -> int:
    """Exact sum of the chosen statistic over all partitions of n."""
    if stat not in _STAT_SUMS:
        raise ValueError(f"unknown statistic {stat!r}")
    return _STAT_SUMS[stat](tallies(n, r)[n], r)


def count_family(n: int, r: int, j: int, family: str) -> int:
    """Count partitions of n in one of the equinumerous families."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    _resolve([r], None, "r", 2)
    _check_ints("j", [j])
    # the least j is that of the theorem comparing the family
    least = next(spec.j.start for spec in _THEOREMS.values() if family in spec.families)
    if j < least:
        raise ValueError(f"family {family!r} needs j >= {least}")
    return tallies(n, r - 1, [(family, r)])[n].families[family, r][j]


class Row(namedtuple("Row", "r j n lhs rhs label", defaults=("",))):
    """One comparison: lhs against rhs at n, and at r and j (None where the
    check reads none), with an optional label naming what is compared."""
    __slots__ = ()

    @property
    def match(self) -> bool:
        return self.lhs == self.rhs


class VerificationReport:
    """The rows of one verification id, with its wall time in seconds."""

    def __init__(self, theorem: str, rows: list[Row] | None = None, wall_time: float = 0.0):
        self.theorem = theorem
        self.rows = [] if rows is None else rows
        self.wall_time = wall_time

    @property
    def vacuous(self) -> bool:
        """True when no row compares a nonzero value, which shows nothing."""
        return not any(row.lhs or row.rhs for row in self.rows)

    @property
    def passed(self) -> bool:
        """True when the report is not vacuous and every row matches."""
        return not self.vacuous and all(row.match for row in self.rows)

    def add(self, r, j, n, lhs, rhs, label=""):
        self.rows.append(Row(r, j, n, lhs, rhs, label))

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "theorem": self.theorem,
            "passed": self.passed,
            "wall_time": self.wall_time,
            "rows": [
                {"r": row.r, "j": row.j, "n": row.n, "label": row.label,
                 "lhs": str(row.lhs), "rhs": str(row.rhs), "match": row.match}
                for row in self.rows
            ],
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["theorem", "r", "j", "n", "lhs", "rhs", "match"])
        for row in self.rows:
            name = self.theorem + (f"/{row.label}" if row.label else "")
            writer.writerow([name, row.r, row.j, row.n, row.lhs, row.rhs, row.match])
        return buf.getvalue()

    def to_text(self) -> str:
        lines = [f"{self.theorem}: {'PASS' if self.passed else 'FAIL'} "
                 f"({len(self.rows)} checks)"]
        for row in self.rows:
            if not row.match:
                lines.append(f"  MISMATCH r={row.r} j={row.j} n={row.n} "
                             f"{row.label} lhs={row.lhs} rhs={row.rhs}")
        if self.vacuous:
            lines.append("  no row compares a nonzero value")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Theorem harness
# ---------------------------------------------------------------------------

def _check_ints(name, values):
    for value in values:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def _resolve(values, default, name, least):
    """The requested values, or ``default`` when unset: a range as it is,
    read from its two ends and never listed, any other iterable as a list;
    anything else, an empty one, a value not an int, or one below ``least``
    is rejected."""
    values = default if values is None else values
    ranged = isinstance(values, range)
    if not ranged:
        if not hasattr(values, "__iter__"):
            raise ValueError(f"{name} must be a range or a list of integers, got {values!r}")
        values = list(values)
        _check_ints(name, values)
    if not values:
        raise ValueError(f"empty {name} range")
    low = min(values[0], values[-1]) if ranged else min(values)
    if low < least:
        raise ValueError(f"{name} must be >= {least}, got {low}")
    return values


def _resolve_n(n_max, default, order):
    """(n_max, series order) with their defaults filled in; a series
    truncated below n_max would leave coefficients unchecked.  An id that
    reads no n (``default`` None) gets the default series order."""
    _check_ints("n", [] if n_max is None else [n_max])
    _check_ints("order", [] if order is None else [order])
    if default is None:
        return None, qs.DEFAULT_ORDER if order is None else order
    n_max = default if n_max is None else n_max
    if n_max < 0:
        raise ValueError(f"n must be >= 0, got {n_max}")
    if order is not None and order < n_max:
        raise ValueError(f"order {order} is below n {n_max}: the series must "
                         f"reach every coefficient up to n")
    return n_max, max(n_max, 1) if order is None else order


def _series_rows(spec, report, r_values, j_values, n_max, top):
    """The statistic sum of every tally against the series coefficient, for
    every r, and the series against its product form if it has one."""
    builder = getattr(qs, spec.series)
    by_n = tallies(n_max, max(r_values))
    for r in r_values:
        series = builder(r, top) if "r" in spec.takes else builder(top)
        for n, t in enumerate(by_n):
            report.add(r, None, n, spec.stat(t, r), series.coeff(n))
        if spec.product is not None:
            other = getattr(qs, spec.product)(r, top)
            for n in range(top + 1):
                report.add(r, None, n, series.coeff(n), other.coeff(n), "sum-vs-product")


def _family_rows(spec, report, r_values, j_values, n_max, top):
    """Every family's count of partitions with statistic j against the
    first family's, for every r and j, and against the series if any."""
    families = spec.families
    by_n = tallies(n_max, max(r_values) - 1,
                   [(fam, r) for r in r_values for fam in families])
    for r in r_values:
        for j in j_values:
            # the closed-form series counts the smallest-repeating
            # family, so it cross-checks the thm-1.10 triple only
            series = None if spec.series is None else getattr(qs, spec.series)(r, j, top)
            for n, t in enumerate(by_n):
                ref = t.families[families[0], r][j]
                for fam in families[1:]:
                    report.add(r, j, n, t.families[fam, r][j], ref, fam)
                if series is not None:
                    report.add(r, j, n, ref, series.coeff(n), "series")


def _q_binomial_rows(spec, report, r_values, j_values, n_max, top):
    cases = [(None, 1, False), (1, 1, False), (1, 2, True), (2, 1, False), (None, 2, False)]
    for a_exp, z_exp, a_negate in cases:
        lhs = qs.q_binomial_sum(a_exp, z_exp, top, a_negate)
        rhs = qs.q_binomial_product(a_exp, z_exp, top, a_negate)
        label = f"a={'0' if a_exp is None else ('-' if a_negate else '') + 'q^' + str(a_exp)},z=q^{z_exp}"
        for n in range(top + 1):
            report.add(None, None, n, lhs.coeff(n), rhs.coeff(n), label)


def _maex_distribution_rows(spec, report, r_values, j_values, n_max, top):
    by_n = tallies(n_max, max(r_values))
    for r in r_values:
        # a partition of n <= n_max has maex below its largest part, so at
        # most n_max - 1, whatever r
        z_top = max(n_max - 1, 0)
        series = qs.maex_bivariate(r, z_top, n_max)
        other = qs.maex_bivariate_double_sum(r, z_top, n_max)
        for m in range(z_top + 1):
            for n, t in enumerate(by_n):
                # maex 0 marks the gap-bounded class, which the
                # bivariate series leave out
                count = t.maex_counts(r)[m] if m else 0
                report.add(r, m, n, count, series[m].coeff(n), "enumeration")
                report.add(r, m, n, series[m].coeff(n), other[m].coeff(n), "double-sum")


class _Theorem(namedtuple("_Theorem", "rows takes n r j series stat product families",
                          defaults=(None, range(1, 2), None, None, None, None, ()))):
    """One theorem id.  ``rows`` fills its report; ``takes`` names the
    options it reads (r, j, n and order, named as the CLI options); ``n``,
    ``r`` and ``j`` are the defaults of those it reads (each r or j range
    starts at the least value the theorem, and ``count_family`` for its
    families, accepts; a theorem that does not read r runs at r = 1).  The
    rows compare the qseries builder named ``series`` with the statistic
    sum ``stat`` of a tally and with the builder named ``product``, or the
    counts of the ``families``, the first being the reference."""


_THEOREMS = {
    "thm-1.4": _Theorem(_series_rows, ("n", "order"), n=40,
                        series="series_sigma_mex", stat=_STAT_SUMS["mex"]),
    "thm-1.5": _Theorem(_family_rows, ("r", "j", "n"), n=25, r=range(2, 6), j=range(0, 6),
                        families=("multiples", "largest-repeating", "above-mex")),
    "thm-1.6": _Theorem(_series_rows, ("r", "n", "order"), n=30, r=range(1, 7),
                        series="series_chain_mex_shifted", stat=_STAT_SUMS["mex+r-1"]),
    "thm-1.7": _Theorem(_series_rows, ("r", "n", "order"), n=30, r=range(1, 7),
                        series="series_chain_mex_offset_sum", stat=_STAT_SUMS["mex+offset"]),
    "thm-1.8": _Theorem(_series_rows, ("n", "order"), n=30, series="series_maex_defect",
                        stat=lambda t, r: t.largest - t.maex_sum(r)),
    "thm-1.10": _Theorem(_family_rows, ("r", "j", "n", "order"), n=25, r=range(2, 6),
                         j=range(1, 6), series="series_parts_above",
                         families=("top-multiple", "smallest-repeating", "above-maex")),
    "thm-1.11": _Theorem(_series_rows, ("r", "n", "order"), n=30, r=range(1, 7),
                         series="series_chain_maex_sum", stat=_STAT_SUMS["largest-maex+offset"],
                         product="series_chain_maex_product"),
    "q-binomial": _Theorem(_q_binomial_rows, ("order",)),
    "maex-distribution": _Theorem(_maex_distribution_rows, ("r", "n"), n=20, r=range(1, 4)),
}

THEOREMS = tuple(_THEOREMS)


def check_theorem(theorem: str, r_values=None, n_max: int = None,
                  j_values=None, order: int = None) -> VerificationReport:
    """Run the brute-force vs series comparison for one identity.

    Malformed arguments, and an argument the theorem does not read, raise
    ``ValueError`` before any work starts; mismatches are recorded in the
    report, not raised.
    """
    if theorem not in _THEOREMS:
        raise ValueError(f"unknown theorem id {theorem!r}")
    check_arguments(theorem, r_values, j_values, n_max, order)
    spec = _THEOREMS[theorem]
    start = time.monotonic()
    report = VerificationReport(theorem)
    n_max, top = _resolve_n(n_max, spec.n, order)
    r_values = _resolve(r_values, spec.r, "r", spec.r.start)
    if spec.j is not None:
        j_values = _resolve(j_values, spec.j, "j", spec.j.start)
    spec.rows(spec, report, r_values, j_values, n_max, top)
    report.wall_time = time.monotonic() - start
    return report


# ---------------------------------------------------------------------------
# Bijection certification
# ---------------------------------------------------------------------------

def _round_trips(inverse, image, r, preimage) -> bool:
    """Whether the inverse sends a forward image back; an image it rejects
    is outside the codomain, a fault of the map, so it fails the trip."""
    try:
        return inverse(image, r) == preimage
    except DomainError:
        return False


class _Map(namedtuple("_Map", "domain codomain forward inverse fiber")):
    """A map between two families of partitions of the same weight: the
    domain and codomain membership tests (None: every partition), the
    names of the map and its inverse in bijections, and the fiber test,
    whether the image carries the input's statistic (None: no fiber).
    All maps share their options, default n and least r (they raise below 2)."""
    takes, n, least_r = ("r", "n"), 16, 2

    def certify(self, report, r_values, n_max):
        # looked up per call so that a patched module attribute is used
        forward, inverse = getattr(bij, self.forward), getattr(bij, self.inverse)
        for r in r_values:
            for n in range(n_max + 1):
                domain_size = codomain_size = 0
                ok = fibers = True
                for lam in partitions(n):
                    codomain_size += self.codomain is None or self.codomain(lam, r)
                    if self.domain is not None and not self.domain(lam, r):
                        continue
                    domain_size += 1
                    out = forward(lam, r)
                    if self.fiber is not None:
                        fibers &= self.fiber(lam, out, r)
                    ok &= _round_trips(inverse, out, r, lam)
                    ok &= out.weight == n and (self.codomain is None or self.codomain(out, r))
                # injective into a codomain of the same size, so onto
                ok &= domain_size == codomain_size
                # between all partitions of n the cardinalities agree trivially
                if self.domain is not None:
                    report.add(r, None, n, domain_size, codomain_size, "cardinality")
                report.add(r, None, n, int(ok), 1, "roundtrip")
                if self.fiber is not None:
                    report.add(r, None, n, int(fibers), 1, "fiber")


class _Pairing(namedtuple("_Pairing", "bound forward inverse checker untraced",
                          defaults=(("input", "output"),))):
    """An index-to-pair map: the index bound of lambda at r, the names of
    the forward map, its inverse and its codomain checker in bijections,
    and the keys of its trace that ``chainex bijection`` prints without
    --trace; options and default n as for ``_Map``, at any r >= 1.  The
    codomain is whatever the checker accepts among candidates it picks
    itself: the betas (and the colored empties 1..bound(EMPTY, r) + 1, one
    past the domain of weight 0) it accepts next to the empty alpha, and the
    alphas it accepts next to the first beta of weight 0 it accepts.  An
    image is in the codomain of weight n when its alpha is a candidate of
    weight a <= n and its beta one of weight n - a, as long as the checker
    tests alpha and beta separately, as all three do, and so accepts every
    candidate pair; a weight where it does not fails."""
    takes, n, least_r = ("r", "n"), 16, 1

    def certify(self, report, r_values, n_max):
        # looked up per call so that a patched module attribute is used
        forward, inverse = getattr(bij, self.forward), getattr(bij, self.inverse)
        checker, pair = getattr(bij, self.checker), bij.PartitionPair
        for r in r_values:
            # colors up to one past the size of the weight-0 domain, r for
            # gamma-star but 1 for gamma and delta, so a huge r lists no
            # huge color list, and a checker that accepts one color too
            # many or a bound one too low at EMPTY still fails at n = 0
            colored = [bij.ColoredEmpty(color)
                       for color in range(1, self.bound(EMPTY, r) + 2)]
            alphas, betas = [], []
            for n in range(n_max + 1):
                weight_n = list(partitions(n))
                accepted = [beta for beta in (weight_n + colored if n == 0 else weight_n)
                            if checker(pair(EMPTY, beta), r)]
                betas.append(set(accepted))
                if n == 0:
                    # with no beta of weight 0 accepted every codomain is
                    # empty, and the nonempty domain at n = 0 fails
                    anchor = accepted[:1]
                alphas.append({alpha for alpha in weight_n for beta in anchor
                               if checker(pair(alpha, beta), r)})
                codomain_size = sum(checker(pair(alpha, beta), r) for a in range(n + 1)
                                    for alpha in alphas[a] for beta in betas[n - a])
                # every candidate pair accepted: the codomain is all of them
                ok = codomain_size == sum(len(alphas[a]) * len(betas[n - a])
                                          for a in range(n + 1))
                domain_size = 0
                for lam in weight_n:
                    for i in range(1, self.bound(lam, r) + 1):
                        domain_size += 1
                        image = forward(lam, i, r)
                        ok &= _round_trips(inverse, image, r, (lam, i))
                        a = image.alpha.weight
                        ok &= a <= n and image.alpha in alphas[a] and image.beta in betas[n - a]
                # injective into a codomain of the same size, so onto
                ok &= domain_size == codomain_size
                report.add(r, None, n, domain_size, codomain_size, "cardinality")
                report.add(r, None, n, int(ok), 1, "roundtrip")


_BIJECTIONS = {
    "glaisher": _Map(lambda lam, r: is_regular(lam, r), lambda lam, r: is_strict(lam, r),
                     "glaisher_merge", "glaisher_split", None),
    "multiples-repeats": _Map(
        None, None, "multiples_to_repeats", "repeats_to_multiples",
        lambda lam, out, r: count_multiples(lam, r) == largest_repeating(out, r)),
    "top-multiple": _Map(
        lambda lam, r: not is_regular(lam, r), lambda lam, r: not is_strict(lam, r),
        "top_multiple_to_repeats", "repeats_to_top_multiple",
        lambda lam, out, r: top_multiple_multiplicity(lam, r) == smallest_repeating(out, r)),
    "gamma": _Pairing(lambda lam, r: chain_mex(lam, r) + mex_offset(lam, r),
                      "mex_pairing", "mex_pairing_inv", "in_mex_codomain"),
    "gamma-star": _Pairing(lambda lam, r: chain_mex(lam, r) + r - 1,
                           "mex_pairing_colored", "mex_pairing_colored_inv",
                           "in_colored_codomain", untraced=("input", "case", "output")),
    "delta": _Pairing(lambda lam, r: lam.largest - chain_maex(lam, r) + maex_offset(lam, r),
                      "maex_pairing", "maex_pairing_inv", "in_maex_codomain"),
}

BIJECTIONS = tuple(_BIJECTIONS)


def certify_bijection(name: str, r_values, n_max: int = None) -> VerificationReport:
    """Exhaustively certify one constructive map at every r in ``r_values``
    (a range, read from its two ends, or a list) for all weights <= n_max
    (default 16, the entry's n), each weight listed once: forward output
    lands in the codomain of its weight, the inverse round-trips, and the
    independently counted domain and codomain cardinalities agree."""
    if name not in _BIJECTIONS:
        raise ValueError(f"unknown bijection id {name!r}")
    spec = _BIJECTIONS[name]
    if r_values is None:
        raise ValueError("bijection verification requires --r")
    r_values = _resolve(r_values, None, "r", spec.least_r)
    n_max, _ = _resolve_n(n_max, spec.n, None)
    start = time.monotonic()
    report = VerificationReport(f"bijection:{name}")
    spec.certify(report, r_values, n_max)
    report.wall_time = time.monotonic() - start
    return report


# ---------------------------------------------------------------------------
# Any verification id
# ---------------------------------------------------------------------------

def check_arguments(vid: str, r=None, j=None, n=None, order=None) -> None:
    """Raise ``ValueError`` for an unknown verification id, or for an option
    it does not read (None means unset), named as the CLI options."""
    spec = {**_THEOREMS, **_BIJECTIONS}.get(vid)
    if spec is None:
        raise ValueError(f"unknown verification id {vid!r}; theorems: "
                         + ", ".join(THEOREMS) + "; bijections: " + ", ".join(BIJECTIONS))
    takes = spec.takes
    for name, value in (("r", r), ("j", j), ("n", n), ("order", order)):
        if value is not None and name not in takes:
            raise ValueError(f"verify {vid} does not take --{name}; it takes "
                             + ", ".join("--" + t for t in takes))


def run_check(vid: str, r_values=None, n_max: int = None, j_values=None,
              order: int = None) -> VerificationReport:
    """One report for any verification id: its theorem check, or the
    certification of its bijection at every r in ``r_values``."""
    if vid in _THEOREMS:
        return check_theorem(vid, r_values, n_max, j_values, order)
    check_arguments(vid, r_values, j_values, n_max, order)
    return certify_bijection(vid, r_values, n_max)


# separators that lay a row's keys out as indent=2 lays them out at depth 3
_ROW_ENCODER = json.JSONEncoder(separators=(",\n      ", ": "))


def report_to_format(report: VerificationReport, fmt: str) -> str:
    if fmt == "json":
        # the bytes of json.dumps(report.to_json(), indent=2); with indent
        # set, json takes its pure-Python encoder, so the rows, which are
        # nearly all of a report, go through the C encoder one at a time
        # and only the short head is indented by json.dumps; this holds
        # while a row holds only scalars and "rows" is the last key
        doc = report.to_json()
        rows = ",".join("\n    {\n      " + _ROW_ENCODER.encode(row)[1:-1] + "\n    }"
                        for row in doc.pop("rows"))
        rows += "\n  ]" if rows else "]"
        return json.dumps(doc, indent=2)[:-2] + ',\n  "rows": [' + rows + "\n}"
    if fmt == "csv":
        return report.to_csv()
    return report.to_text()
