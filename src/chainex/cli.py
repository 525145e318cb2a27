"""Command-line surface: statistics, enumeration, series expansion,
bijection tracing, and identity verification.

Exit codes: 0 all requested checks pass, 1 a verification mismatch,
2 malformed input, out-of-contract arguments or a request too large to
allocate, 141 (128 + SIGPIPE) when the reader closes stdout before the
output is written.

Each command imports the modules it reads when it runs, so a start that
builds the parser loads no other chainex module, and ``series`` pays for
``qseries`` alone.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

SERIES_BUILDERS = {
    # name: (qseries builder, the options it reads before --order)
    "sigma-mex": ("series_sigma_mex", ()),
    "partitions": ("series_partition_count", ()),
    "chain-mex": ("series_chain_mex_sum", ("r",)),
    "chain-mex-shifted": ("series_chain_mex_shifted", ("r",)),
    "chain-mex-offset": ("series_chain_mex_offset_sum", ("r",)),
    "maex-defect": ("series_maex_defect", ()),
    "chain-maex": ("series_chain_maex_sum", ("r",)),
    "chain-maex-product": ("series_chain_maex_product", ("r",)),
    "strict": ("series_strict_count", ("r",)),
    "top-mult": ("series_top_multiplicity_count", ("r",)),
    "bottom-mult": ("series_bottom_multiplicity_count", ("r",)),
    "sigma-largest": ("series_sum_largest", ()),
    "j-parts": ("series_parts_above", ("r", "j")),
}


# the old CLI names of the multiples-repeats map and its inverse
ALIASES = {"multiples-to-repeats": "multiples-repeats",
           "repeats-to-multiples": "multiples-repeats-inv"}


def _parse_range(option: str, text: str) -> range:
    # checked from its two ends, never listed: a huge range costs nothing
    lo, dots, hi = text.partition("..")
    try:
        lo = int(lo)
        hi = int(hi) if dots else lo
    except ValueError:
        raise ValueError(f"--{option} must be an integer or a range LO..HI, "
                         f"got {text!r}") from None
    if hi < lo:
        raise ValueError(f"empty range {text!r}: the upper end is below the lower")
    return range(lo, hi + 1)


def _emit(text: str, out_path):
    # the same bytes to stdout and to --out, ending in one newline; print
    # writes that newline apart, which raises BrokenPipeError when the
    # reader left during the long write (a cut-short write raises nothing)
    text = text.removesuffix("\n")
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ValueError(f"cannot write --out {out_path!r}: {exc.strerror}") from None
    else:
        print(text)


def cmd_stats(args) -> int:
    from .partition import (
        Partition,
        chain_maex,
        chain_mex,
        in_gap_class,
        maex_offset,
        mex_offset,
        parts_above_mex,
    )

    lam = Partition.parse(args.partition, sort=args.sort)
    r = args.r
    record = {
        "partition": str(lam),
        "weight": lam.weight,
        "num_parts": lam.num_parts,
        "largest": lam.largest,
        "class": "P0" if in_gap_class(lam, r) else "P+",
        "mex": chain_mex(lam, r),
        "maex": chain_maex(lam, r),
        "omega": mex_offset(lam, r),
        "Omega": maex_offset(lam, r),
        "parts_above_mex": parts_above_mex(lam, r),
    }
    if args.format == "json":
        record["schema"] = 1
        _emit(json.dumps(record, indent=2), args.out)
    else:
        _emit("\n".join(f"{k}={v}" for k, v in record.items()), args.out)
    return 0


def _check_positive(option: str, value: int) -> None:
    if value < 1:
        raise ValueError(f"{option} must be >= 1, got {value}")


def cmd_enumerate(args) -> int:
    from .partition import in_gap_class, is_regular, is_strict, partitions

    preds = []
    if args.regular is not None:
        _check_positive("--regular", args.regular)
        preds.append(lambda p, r=args.regular: is_regular(p, r))
    if args.strict is not None:
        _check_positive("--strict", args.strict)
        preds.append(lambda p, r=args.strict: is_strict(p, r))
    if args.gap_class is not None:
        if args.r is None:
            raise ValueError("--gap-class requires --r")
        _check_positive("--r", args.r)
        want = args.gap_class == "bounded"
        preds.append(lambda p, r=args.r, w=want: in_gap_class(p, r) == w)
    elif args.r is not None:
        raise ValueError("enumerate reads --r only with --gap-class")
    items = [str(p) for p in partitions(args.n) if all(f(p) for f in preds)]
    if args.format == "json":
        _emit(json.dumps({"schema": 1, "n": args.n, "count": len(items),
                          "partitions": items}, indent=2), args.out)
    else:
        _emit("\n".join(items + [f"count={len(items)}"]), args.out)
    return 0


def cmd_series(args) -> int:
    from . import qseries as qs

    if args.name not in SERIES_BUILDERS:
        raise ValueError(f"unknown series {args.name!r}; choose from "
                         + ", ".join(sorted(SERIES_BUILDERS)))
    builder, reads = SERIES_BUILDERS[args.name]
    for name in reads:
        if getattr(args, name) is None:
            raise ValueError(f"series {args.name!r} requires --{name}")
    order = qs.DEFAULT_ORDER if args.order is None else args.order
    if order < 0:
        raise ValueError(f"--order must be >= 0, got {order}")
    # --r and --j are accepted, and left unread, by builders without them
    series = getattr(qs, builder)(*(getattr(args, name) for name in reads), order)
    if args.format == "json":
        _emit(json.dumps(series.to_json()), args.out)
    elif args.format == "csv":
        rows = ["n,coeff"] + [f"{n},{c}" for n, c in enumerate(series.coeffs)]
        _emit("\n".join(rows), args.out)
    else:
        _emit(str(series), args.out)
    return 0


def cmd_bijection(args) -> int:
    from . import bijections as bij
    from . import verify as vf
    from .partition import Partition

    lam = Partition.parse(args.lam, sort=args.sort)
    r = args.r
    # an id names its forward map and, for a partition map, the id plus
    # -inv its inverse; looked up per call, as certification does
    name = ALIASES.get(args.name, args.name)
    vid = name.removesuffix("-inv")
    spec = vf._IDS.get(vid)
    if isinstance(spec, vf._Pairing) and name == vid:
        if args.i is None:
            raise ValueError(f"bijection {name!r} requires --i")
        payload = bij.pairing_trace(lam, args.i, r, getattr(bij, spec.forward)(lam, args.i, r))
        if not args.trace:
            payload = {key: payload[key] for key in spec.untraced}
    elif isinstance(spec, vf._Map):
        for option, given in (("i", args.i is not None), ("trace", args.trace)):
            if given:
                raise ValueError(f"bijection {args.name} does not take --{option}")
        out = getattr(bij, spec.forward if name == vid else spec.inverse)(lam, r)
        payload = {"input": {"lambda": str(lam), "r": r}, "output": str(out)}
    else:
        raise ValueError(f"unknown bijection {args.name!r}")
    _emit(json.dumps(payload, indent=2), args.out)
    return 0


def cmd_verify(args) -> int:
    from . import verify as vf

    # the id and the options it reads are checked before a range is parsed
    vf.check_arguments(args.id, r=args.r, j=args.j, n=args.n, order=args.order)
    r_values = None if args.r is None else _parse_range("r", args.r)
    j_values = None if args.j is None else _parse_range("j", args.j)
    report = vf.run_check(args.id, r_values, args.n, j_values, args.order)
    _emit(vf.report_to_format(report, args.format), args.out)
    return 0 if report.passed else 1


class _VerifyHelp(argparse.HelpFormatter):
    """Fills the ids into the verify id's help when the help is printed, so
    that building the parser loads no verify module."""

    def _get_help_string(self, action):
        if action.dest != "id":
            return action.help
        from . import verify as vf

        return action.help.format(theorems=", ".join(vf.THEOREMS),
                                  bijections=", ".join(vf.BIJECTIONS))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainex",
        description="Exact partition statistics, bijections, q-series, and "
                    "identity verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats):
        # only the formats the command writes; the first is the default
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--out", default=None, help="write output to a file")

    p = sub.add_parser("stats", help="excludant statistics of one partition")
    p.add_argument("partition", help="partition literal, e.g. [5,3,1]")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--sort", action="store_true",
                   help="normalize a partition literal given in any order")
    common(p, ("text", "json"))
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("enumerate", help="list all partitions of n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--regular", type=int, default=None, metavar="R",
                   help="keep only R-regular partitions")
    p.add_argument("--strict", type=int, default=None, metavar="R",
                   help="keep only R-strict partitions")
    p.add_argument("--gap-class", choices=("bounded", "exceeds"), default=None)
    common(p, ("text", "json"))
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("series", help="expand a generating function")
    p.add_argument("name")
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--j", type=int, default=None)
    p.add_argument("--order", type=int, default=None)
    common(p, ("text", "json", "csv"))
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("bijection", help="apply a constructive map")
    p.add_argument("name")
    p.add_argument("--lambda", dest="lam", required=True,
                   help="partition literal, e.g. [5,3,1]")
    p.add_argument("--i", type=int, default=None)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--sort", action="store_true")
    p.add_argument("--trace", action="store_true",
                   help="include the intermediate steps in the JSON output")
    common(p, ("json",))
    p.set_defaults(func=cmd_bijection)

    p = sub.add_parser("verify", help="run an identity or bijection check",
                       formatter_class=_VerifyHelp)
    p.add_argument("id", help="a theorem ({theorems}) or a bijection ({bijections})")
    p.add_argument("--r", default=None, help="single value or range like 1..3")
    p.add_argument("--j", default=None, help="single value or range")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--order", type=int, default=None)
    common(p, ("text", "json", "csv"))
    p.set_defaults(func=cmd_verify)

    return parser


# built by the first run() and reused by every later one in the process;
# parse_args fills a new namespace each call and leaves the parser as it was
_parser = None


def run(argv=None) -> int:
    """Run one command line and return its exit code.

    In-process callers share one parser per process, built on the first
    call. The command functions are bound into it then, so a test that
    replaces a command's work patches the ``qseries``, ``verify`` or
    ``bijections`` attribute it reads, not ``cli.cmd_*``.  ``series``
    reads its ``--order`` default, ``qseries.DEFAULT_ORDER``, per run.
    """
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: not enough memory for this request", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: what is still buffered goes to devnull, so the
        # flush at exit does not fail again (the Python signal docs' recipe)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    main()
