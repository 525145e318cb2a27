"""Timing wrappers for the traced benchmark run.

The wrappers are installed from outside the library: every public function
of a layer is replaced, in each module namespace that holds it, by a wrapper
that records the call on one shared stack.  Hot functions (about 10^6 calls
in a pass) are aggregated per group as call count and self seconds; only
the coarse calls (one per CLI job, per top-level check_theorem or
certify_bijection and per top-level series builder) are kept as spans.

Accounting rules, which make the counts exact and the times add up:

* a call is counted only when the caller is not in the same group (nested
  calls are part of the outer one);
* self time is a call's duration minus the durations of wrapped calls made
  inside it, so the self times of all groups sum to the time spent inside
  the top-level wrapped calls;
* a layer's inclusive time counts calls whose caller is in another layer;
* work counters computed by the tracer itself (multiply-adds, serialized
  bytes, report rows) run in the group ``trace.hook`` so that their cost is
  not charged to any layer.
"""

from __future__ import annotations

from bisect import bisect_right
from contextlib import contextmanager
from itertools import compress
from time import perf_counter

import chainex
from chainex import bijections, cli, partition, qseries, verify

STATISTICS = (
    "chain_mex", "chain_maex", "mex_offset", "maex_offset", "parts_above_mex",
    "parts_above_maex", "largest_repeating", "smallest_repeating",
    "count_multiples", "top_multiple_multiplicity", "in_gap_class",
    "is_strict", "is_regular",
)
POCHHAMMER = ("poch_finite", "poch_inf")
BUILDERS = tuple(name for name in vars(qseries) if name.startswith("series_")) + (
    "q_binomial_sum", "q_binomial_product", "gaussian_binomial",
    "maex_bivariate", "maex_bivariate_double_sum",
)
FORWARD = ("glaisher_merge", "multiples_to_repeats", "top_multiple_to_repeats",
           "mex_pairing", "mex_pairing_colored", "maex_pairing")
INVERSE = ("glaisher_split", "repeats_to_multiples", "repeats_to_top_multiple",
           "mex_pairing_inv", "mex_pairing_colored_inv", "maex_pairing_inv")
CODOMAIN = ("in_mex_codomain", "in_colored_codomain", "in_maex_codomain")
HARNESS = ("sigma_stat", "count_family")
SPANNED_HARNESS = ("check_theorem", "certify_bijection")

NAMESPACES = (chainex, partition, qseries, bijections, verify, cli)

# group -> layer; a group's self time belongs to exactly one layer
GROUPS = {
    "partition.enum": "partition", "partition.stat": "partition",
    "qseries.mul": "qseries", "qseries.invert": "qseries",
    "qseries.poch": "qseries", "qseries.builder": "qseries",
    "bijections.forward": "bijections", "bijections.inverse": "bijections",
    "bijections.codomain": "bijections",
    "verify": "verify", "verify.serialize": "verify",
    "cli": "cli", "cli.parse": "cli",
    "bench.check": "bench", "trace.hook": "trace",
}


class Group:
    __slots__ = ("layer", "calls", "self_s")

    def __init__(self, layer):
        self.layer = layer
        self.calls = 0
        self.self_s = 0.0


class Tracer:
    """One traced pass: aggregated per-group timings, counters and spans."""

    def __init__(self):
        self.groups = {name: Group(layer) for name, layer in GROUPS.items()}
        self.layer_total = dict.fromkeys(set(GROUPS.values()), 0.0)
        self.counters = {"partition.enumerated": 0, "qseries.mul_madds": 0,
                         "verify.rows": 0, "verify.serialize_bytes": 0}
        self.stack = []      # frames: [group, child seconds]
        self.spans = []      # closed spans, in closing order
        self.open_spans = []
        self.job = None      # id shared by the spans of one CLI job

    # -- core accounting --------------------------------------------------

    def _enter(self, group):
        frame = [group, 0.0]
        self.stack.append(frame)
        return frame

    def _leave(self, frame, dt):
        stack = self.stack
        stack.pop()
        group = frame[0]
        parent = stack[-1][0] if stack else None
        if parent is not group:
            group.calls += 1
        if parent is None or parent.layer != group.layer:
            self.layer_total[group.layer] += dt
        group.self_s += dt - frame[1]
        if stack:
            stack[-1][1] += dt

    def _timed(self, group, fn, args, kwargs, span):
        if span is not None:
            self._open_span(span)
        frame = self._enter(group)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            self._leave(frame, dt)
            if span is not None:
                self._close_span(t0, dt)

    def call(self, group_name, fn, *args, span=None):
        """Run ``fn(*args)`` as a call of ``group_name``; ``span`` names a
        span to keep for it."""
        return self._timed(self.groups[group_name], fn, args, {}, span)

    def _open_span(self, name):
        parent = self.open_spans[-1][0] if self.open_spans else None
        self.open_spans.append((len(self.spans) + len(self.open_spans), name, parent))

    def _close_span(self, t0, dt):
        span_id, name, parent = self.open_spans.pop()
        self.spans.append({"id": span_id, "name": name, "parent": parent,
                           "job": self.job, "start": t0, "end": t0 + dt})

    def count(self, counter, hook, *args):
        """Add ``hook(*args)`` to a work counter, timed as tracing cost."""
        self.counters[counter] += self.call("trace.hook", hook, *args)

    # -- wrapper factories ------------------------------------------------

    def wrap(self, group_name, fn, spanned=False, after=None):
        """Wrapper of ``fn`` as a call of ``group_name``; ``spanned`` keeps a
        span for calls not nested in the same group, ``after(args, result)``
        runs once the call is timed."""
        group = self.groups[group_name]
        timed, stack = self._timed, self.stack
        name = getattr(fn, "__name__", group_name)

        def wrapper(*args, **kwargs):
            outermost = not (stack and stack[-1][0] is group)
            result = timed(group, fn, args, kwargs,
                           name if spanned and outermost else None)
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = name
        return wrapper

    def wrap_generator(self, group_name, fn):
        """Wrap a generator function so that each ``next()`` is one call."""
        group = self.groups[group_name]
        enter, leave, counters = self._enter, self._leave, self.counters

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                frame = enter(group)
                t0 = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    leave(frame, perf_counter() - t0)
                    return
                except BaseException:
                    leave(frame, perf_counter() - t0)
                    raise
                leave(frame, perf_counter() - t0)
                counters["partition.enumerated"] += 1
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_build_parser(self, fn):
        """build_parser plus the parse_args call on the parser it returns."""
        wrapped = self.wrap("cli.parse", fn)
        wrap = self.wrap

        def build_parser():
            parser = wrapped()
            parser.parse_args = wrap("cli.parse", parser.parse_args)
            return parser

        build_parser.__wrapped__ = fn
        return build_parser

    # -- work counters ----------------------------------------------------

    def _after_mul(self, args, result):
        if isinstance(args[1], qseries.PowerSeries):
            self.count("qseries.mul_madds", mul_madds, args[0], args[1])

    def _after_report(self, args, result):
        self.count("verify.rows", len, result.rows)

    def _after_serialize(self, args, result):
        self.count("verify.serialize_bytes", utf8_len, result)

    # -- installation -----------------------------------------------------

    @contextmanager
    def installed(self):
        """Patch every layer's public functions for the duration."""
        plan = []  # (owner, attribute, original, replacement)
        ps = qseries.PowerSeries
        mul = self.wrap("qseries.mul", ps.__mul__, after=self._after_mul)
        plan += [(ps, "__mul__", ps.__mul__, mul), (ps, "__rmul__", ps.__rmul__, mul),
                 (ps, "invert", ps.invert, self.wrap("qseries.invert", ps.invert))]
        replacements = {}
        replacements[partition.partitions] = self.wrap_generator(
            "partition.enum", partition.partitions)
        for names, module, group, spanned, after in (
                (STATISTICS, partition, "partition.stat", False, None),
                (POCHHAMMER, qseries, "qseries.poch", False, None),
                (BUILDERS, qseries, "qseries.builder", True, None),
                (FORWARD, bijections, "bijections.forward", False, None),
                (INVERSE, bijections, "bijections.inverse", False, None),
                (CODOMAIN, bijections, "bijections.codomain", False, None),
                (HARNESS, verify, "verify", False, None),
                (SPANNED_HARNESS, verify, "verify", True, self._after_report),
                (("report_to_format",), verify, "verify.serialize", False,
                 self._after_serialize)):
            for name in names:
                fn = getattr(module, name)
                replacements[fn] = self.wrap(group, fn, spanned, after)
        replacements[cli.build_parser] = self.wrap_build_parser(cli.build_parser)
        for module in NAMESPACES:
            for attr, value in list(vars(module).items()):
                if callable(value) and value in replacements:
                    plan.append((module, attr, value, replacements[value]))
        for owner, attr, _, replacement in plan:
            setattr(owner, attr, replacement)
        try:
            yield self
        finally:
            for owner, attr, original, _ in reversed(plan):
                setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def metrics(self):
        g = self.groups
        fwd = g["bijections.forward"]
        enum = g["partition.enum"]
        counters = self.counters
        return {
            "partition.enumerated": counters["partition.enumerated"],
            "partition.enum_s": enum.self_s,
            "partition.enum_rate": (counters["partition.enumerated"] / enum.self_s
                                    if enum.self_s else 0.0),
            "partition.stat_calls": g["partition.stat"].calls,
            "partition.stat_s": g["partition.stat"].self_s,
            "qseries.mul_calls": g["qseries.mul"].calls,
            "qseries.mul_s": g["qseries.mul"].self_s,
            "qseries.mul_madds": counters["qseries.mul_madds"],
            "qseries.invert_calls": g["qseries.invert"].calls,
            "qseries.invert_s": g["qseries.invert"].self_s,
            "qseries.poch_calls": g["qseries.poch"].calls,
            "qseries.poch_s": g["qseries.poch"].self_s,
            "qseries.builder_calls": g["qseries.builder"].calls,
            "qseries.builder_s": g["qseries.builder"].self_s,
            "bijections.forward_calls": fwd.calls,
            "bijections.forward_s": fwd.self_s,
            "bijections.inverse_s": g["bijections.inverse"].self_s,
            "bijections.codomain_calls": g["bijections.codomain"].calls,
            "bijections.codomain_s": g["bijections.codomain"].self_s,
            "bijections.us_per_roundtrip": (1e6 * self.layer_total["bijections"] / fwd.calls
                                            if fwd.calls else 0.0),
            "verify.rows": counters["verify.rows"],
            "verify.self_s": g["verify"].self_s,
            "verify.serialize_s": g["verify.serialize"].self_s,
            "verify.serialize_bytes": counters["verify.serialize_bytes"],
            "cli.parse_s": g["cli.parse"].self_s,
            "cli.self_s": g["cli"].self_s,
            "bench.check_s": g["bench.check"].self_s,
            "trace.hook_s": g["trace.hook"].self_s,
        }

    def attributed_s(self):
        """Sum of every group's self time: the time inside wrapped calls."""
        return sum(group.self_s for group in self.groups.values())


def mul_madds(a, b):
    """Multiply-adds the dense product ``a * b`` performs: pairs of nonzero
    a_i and b_j with i + j within the common truncation order.  Computed from
    the operands' nonzero positions, not counted inside the loop."""
    order = min(a.order, b.order)
    positions = range(order + 1)
    short, long = sorted((list(compress(positions, a.coeffs)),
                          list(compress(positions, b.coeffs))), key=len)
    return sum(bisect_right(long, order - i) for i in short)


def utf8_len(text):
    return len(text.encode())

