"""The identity verification harness: one table of every verification id,
the checks its entries run, and the report.

Everything here compares exact integers.  The brute-force side is the
engine ``tallies`` of ``brute``, which uses only the partition core; it
never calls the series builders or bijection code paths it is checking, so
each comparison really is two independent routes to the same number.  Each
statistic sum is read off the tally of its n, so ``check_theorem`` walks
the heads of weight <= n_max once, whatever the r range.

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
from collections import namedtuple

from . import bijections as bij
from . import qseries as qs
from .bijections import DomainError
from .brute import _STAT_SUMS, FAMILIES, STATISTICS, tallies
from .partition import (
    EMPTY,
    _is_count,
    chain_maex,
    chain_mex,
    count_multiples,
    is_regular,
    is_strict,
    largest_repeating,
    maex_offset,
    mex_offset,
    partitions,
    smallest_repeating,
    top_multiple_multiplicity,
)


def sigma_stat(n: int, r: int, stat: str) -> int:
    """Exact sum of the chosen statistic over all partitions of n."""
    if stat not in STATISTICS:
        raise ValueError(f"unknown statistic {stat!r}")
    return _STAT_SUMS[stat](tallies(n, r)[n], r)


def count_family(n: int, r: int, j: int, family: str) -> int:
    """Count partitions of n in one of the equinumerous families."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    _resolve([r], None, "r", 2)
    _check_ints("j", [j])
    # the least j is that of the theorem comparing the family
    least = next(_IDS[vid].j.start for vid in THEOREMS if family in _IDS[vid].families)
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
        # one pass: rows that match compare a nonzero value when lhs is one
        nonzero = False
        for row in self.rows:
            if row.lhs != row.rhs:
                return False
            nonzero = nonzero or row.lhs
        return bool(nonzero)

    def add(self, r, j, n, lhs, rhs, label=""):
        self.rows.append(Row(r, j, n, lhs, rhs, label))

    def _head(self) -> dict:
        return {"schema": 1, "theorem": self.theorem, "passed": self.passed,
                "wall_time": self.wall_time}

    def to_json(self) -> dict:
        return {**self._head(), "rows": [
            {"r": row.r, "j": row.j, "n": row.n, "label": row.label,
             "lhs": str(row.lhs), "rhs": str(row.rhs), "match": row.match}
            for row in self.rows
        ]}


# ---------------------------------------------------------------------------
# Theorem harness
# ---------------------------------------------------------------------------

def _check_ints(name, values):
    for value in values:
        if not _is_count(value):
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


def _tallies_to(report, n_max, *args):
    """The engine's tallies of every n <= n_max; an engine that returns
    fewer is at fault, named with the id and the first n it left out."""
    by_n = tallies(n_max, *args)
    if len(by_n) <= n_max:
        raise ValueError(f"{report.theorem}: the brute-force engine returned "
                         f"no tally for n = {len(by_n)}")
    return by_n


def _series_rows(spec, report, r_values, j_values, n_max, top):
    """The statistic sum of every tally against the series coefficient, for
    every r, and the series against its product form if it has one."""
    builder = getattr(qs, spec.series)
    by_n = _tallies_to(report, n_max, max(r_values))
    for r in r_values:
        series = builder(r, top) if "r" in spec.takes else builder(top)
        for n in range(n_max + 1):
            report.add(r, None, n, spec.stat(by_n[n], r), series.coeff(n))
        if spec.product is not None:
            other = getattr(qs, spec.product)(r, top)
            for n in range(top + 1):
                report.add(r, None, n, series.coeff(n), other.coeff(n), "sum-vs-product")


def _family_rows(spec, report, r_values, j_values, n_max, top):
    """Every family's count of partitions with statistic j against the
    first family's, for every r and j, and against the series if any."""
    families = spec.families
    by_n = _tallies_to(report, n_max, max(r_values) - 1,
                       [(fam, r) for r in r_values for fam in families])
    for r in r_values:
        for j in j_values:
            # the closed-form series counts the smallest-repeating
            # family, so it cross-checks the thm-1.10 triple only
            series = None if spec.series is None else getattr(qs, spec.series)(r, j, top)
            for n in range(n_max + 1):
                counts = by_n[n].families
                ref = counts[families[0], r][j]
                for fam in families[1:]:
                    report.add(r, j, n, counts[fam, r][j], ref, fam)
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
    by_n = _tallies_to(report, n_max, max(r_values))
    for r in r_values:
        # a partition of n <= n_max has maex below its largest part, so at
        # most n_max - 1, whatever r
        z_top = max(n_max - 1, 0)
        series = qs.maex_bivariate(r, z_top, n_max)
        other = qs.maex_bivariate_double_sum(r, z_top, n_max)
        for m in range(z_top + 1):
            for n in range(n_max + 1):
                # maex 0 marks the gap-bounded class, which the
                # bivariate series leave out
                count = by_n[n].maex_counts(r)[m] if m else 0
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
    least_r = property(lambda self: self.r.start)


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
    All maps share their options, default n and least r (they raise below
    2), read no j and have no default r: a certification names its r."""
    takes, n, r, j, least_r = ("r", "n"), 16, None, None, 2

    @staticmethod
    def rows(spec, report, r_values, j_values, n_max, top):
        # looked up per call so that a patched module attribute is used
        forward, inverse = getattr(bij, spec.forward), getattr(bij, spec.inverse)
        for r in r_values:
            for n in range(n_max + 1):
                domain_size = codomain_size = 0
                ok = fibers = True
                for lam in partitions(n):
                    codomain_size += spec.codomain is None or spec.codomain(lam, r)
                    if spec.domain is not None and not spec.domain(lam, r):
                        continue
                    domain_size += 1
                    out = forward(lam, r)
                    if spec.fiber is not None:
                        fibers &= spec.fiber(lam, out, r)
                    ok &= _round_trips(inverse, out, r, lam)
                    ok &= out.weight == n and (spec.codomain is None or spec.codomain(out, r))
                # injective into a codomain of the same size, so onto
                ok &= domain_size == codomain_size
                # between all partitions of n the cardinalities agree trivially
                if spec.domain is not None:
                    report.add(r, None, n, domain_size, codomain_size, "cardinality")
                report.add(r, None, n, int(ok), 1, "roundtrip")
                if spec.fiber is not None:
                    report.add(r, None, n, int(fibers), 1, "fiber")


class _Pairing(namedtuple("_Pairing", "bound forward inverse checker untraced",
                          defaults=(("input", "output"),))):
    """An index-to-pair map: the index bound of lambda at r, the names of
    the forward map, its inverse and its codomain checker in bijections,
    and the keys of its trace that ``chainex bijection`` prints without
    --trace; options and defaults as for ``_Map``, at any r >= 1.  The
    codomain is whatever the checker accepts among candidates it picks
    itself: the betas (and the colored empties 1..bound(EMPTY, r) + 1, one
    past the domain of weight 0) it accepts next to the empty alpha, and the
    alphas it accepts next to the first beta of weight 0 it accepts.  An
    image is in the codomain of weight n when its alpha is a candidate of
    weight a <= n and its beta one of weight n - a, as long as the checker
    tests alpha and beta separately, as all three do, and so accepts every
    candidate pair; a weight where it does not fails."""
    takes, n, r, j, least_r = ("r", "n"), 16, None, None, 1

    @staticmethod
    def rows(spec, report, r_values, j_values, n_max, top):
        # looked up per call so that a patched module attribute is used
        forward, inverse = getattr(bij, spec.forward), getattr(bij, spec.inverse)
        checker, pair = getattr(bij, spec.checker), bij.PartitionPair
        for r in r_values:
            # colors up to one past the size of the weight-0 domain, r for
            # gamma-star but 1 for gamma and delta, so a huge r lists no
            # huge color list, and a checker that accepts one color too
            # many or a bound one too low at EMPTY still fails at n = 0
            colored = [bij.ColoredEmpty(color)
                       for color in range(1, spec.bound(EMPTY, r) + 2)]
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
                    for i in range(1, spec.bound(lam, r) + 1):
                        domain_size += 1
                        image = forward(lam, i, r)
                        ok &= _round_trips(inverse, image, r, (lam, i))
                        a = image.alpha.weight
                        ok &= a <= n and image.alpha in alphas[a] and image.beta in betas[n - a]
                # injective into a codomain of the same size, so onto
                ok &= domain_size == codomain_size
                report.add(r, None, n, domain_size, codomain_size, "cardinality")
                report.add(r, None, n, int(ok), 1, "roundtrip")


# ---------------------------------------------------------------------------
# Any verification id
# ---------------------------------------------------------------------------

_IDS = {
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

THEOREMS = tuple(vid for vid, spec in _IDS.items() if isinstance(spec, _Theorem))
BIJECTIONS = tuple(vid for vid in _IDS if vid not in THEOREMS)


def _run(name, spec, r_values, n_max, j_values=None, order=None) -> VerificationReport:
    """The report ``name`` of any table entry ``spec``: each argument checked
    and, if unset, set to the entry's n, r or j before its rows are run."""
    if r_values is None and spec.r is None:
        raise ValueError("bijection verification requires --r")
    n_max, top = _resolve_n(n_max, spec.n, order)
    r_values = _resolve(r_values, spec.r, "r", spec.least_r)
    if spec.j is not None:
        j_values = _resolve(j_values, spec.j, "j", spec.j.start)
    start = time.monotonic()
    report = VerificationReport(name)
    # a theorem's rows is a field and a map's a static method; both take the entry
    spec.rows(spec, report, r_values, j_values, n_max, top)
    report.wall_time = time.monotonic() - start
    return report


def check_theorem(theorem: str, r_values=None, n_max: int = None,
                  j_values=None, order: int = None) -> VerificationReport:
    """Run the brute-force vs series comparison for one identity.

    Malformed arguments, and an argument the theorem does not read, raise
    ``ValueError`` before any work starts; mismatches are recorded in the
    report, not raised.
    """
    if theorem not in THEOREMS:
        raise ValueError(f"unknown theorem id {theorem!r}")
    check_arguments(theorem, r=r_values, j=j_values, n=n_max, order=order)
    return _run(theorem, _IDS[theorem], r_values, n_max, j_values, order)


def certify_bijection(name: str, r_values, n_max: int = None) -> VerificationReport:
    """Exhaustively certify one constructive map at every r in ``r_values``
    (a range, read from its two ends, or a list) for all weights <= n_max
    (default 16, the entry's n), each weight listed once: forward output
    lands in the codomain of its weight, the inverse round-trips, and the
    independently counted domain and codomain cardinalities agree."""
    if name not in BIJECTIONS:
        raise ValueError(f"unknown bijection id {name!r}")
    return _run(f"bijection:{name}", _IDS[name], r_values, n_max)


def check_arguments(vid: str, *, r=None, j=None, n=None, order=None) -> None:
    """Raise ``ValueError`` for an unknown verification id, or for an option
    it does not read (None means unset), named as the CLI options."""
    if vid not in THEOREMS and vid not in BIJECTIONS:
        raise ValueError(f"unknown verification id {vid!r}; theorems: "
                         + ", ".join(THEOREMS) + "; bijections: " + ", ".join(BIJECTIONS))
    takes = _IDS[vid].takes
    for name, value in (("r", r), ("j", j), ("n", n), ("order", order)):
        if value is not None and name not in takes:
            raise ValueError(f"verify {vid} does not take --{name}; it takes "
                             + ", ".join("--" + t for t in takes))


def run_check(vid: str, r_values=None, n_max: int = None, j_values=None,
              order: int = None) -> VerificationReport:
    """One report for any verification id: its theorem check, or the
    certification of its bijection at every r in ``r_values``."""
    if vid in THEOREMS:
        return check_theorem(vid, r_values, n_max, j_values, order)
    check_arguments(vid, r=r_values, j=j_values, n=n_max, order=order)
    return certify_bijection(vid, r_values, n_max)


def report_to_format(report: VerificationReport, fmt: str) -> str:
    """The report as ``fmt``: json, csv or text."""
    if fmt == "json":
        # the bytes of json.dumps(report.to_json(), indent=2); the rows are
        # nearly all of a report, and a dict and an encoder call per row
        # cost more than the rest of the write, so each row is one template
        # spelling out the indent=2 layout of its scalars, its strings quoted
        # by the function json.dumps quotes them with; this holds while r, j
        # and n are ints or None and "rows" is the last key, after the head
        quote = json.encoder.encode_basestring_ascii
        rows = ",".join(f'''
    {{
      "r": {"null" if r is None else r},
      "j": {"null" if j is None else j},
      "n": {n},
      "label": {quote(label)},
      "lhs": {quote(str(lhs))},
      "rhs": {quote(str(rhs))},
      "match": {"true" if lhs == rhs else "false"}
    }}''' for r, j, n, lhs, rhs, label in report.rows)
        rows += "\n  ]" if rows else "]"
        return json.dumps(report._head(), indent=2)[:-2] + ',\n  "rows": [' + rows + "\n}"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["theorem", "r", "j", "n", "lhs", "rhs", "match"])
        for r, j, n, lhs, rhs, label in report.rows:
            name = report.theorem + (f"/{label}" if label else "")
            writer.writerow([name, r, j, n, lhs, rhs, lhs == rhs])
        return buf.getvalue()
    if fmt == "text":
        lines = [f"{report.theorem}: {'PASS' if report.passed else 'FAIL'} "
                 f"({len(report.rows)} checks)"]
        lines += [f"  MISMATCH r={r} j={j} n={n} {label} lhs={lhs} rhs={rhs}"
                  for r, j, n, lhs, rhs, label in report.rows if lhs != rhs]
        if report.vacuous:
            lines.append("  no row compares a nonzero value")
        return "\n".join(lines)
    raise ValueError(f"unknown report format {fmt!r}; formats: json, csv, text")
