"""chainex benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this process, one job at a time, through
``chainex.cli.run(argv)`` with ``--format json`` and stdout captured, and
checks every output.  It prints one line per metric (name, value, unit) and,
as the last line, a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  The metric names and units come from BENCHMARK.json:
``end_to_end`` with ``--trace 0``, ``per_layer`` with ``--trace 1``.

A run repeats the workload's full job list ("passes") until ``--seconds``
have been used, at least MIN_PASSES times, and reports per-job medians.
Before every job and every cold start it times a fixed piece of reference
work (``reference``), and it quotes each time at the host speed at which the
reference takes REF_SECONDS: the measured time divided by the reference
time, times REF_SECONDS.  The host's speed changes by up to 1.6x, within
seconds and for minutes at a time, and the reference slows and speeds up
with it.  The measured seconds are printed too.

The seed only shuffles the job order of each pass and draws the sampled
(lambda, i, r) objects of certify-bijections; it never changes a range, an
order or a sample size.  With ``--trace 1`` untraced and traced passes
alternate (see tracer.py) and only per-layer numbers are reported.

Why each workload exists, the seed's numbers and the observed spread are
in bench/BASELINE.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import re
import resource
import statistics
import subprocess
import sys
import traceback
from collections import namedtuple
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

from chainex import bijections, cli  # noqa: E402
from chainex.partition import (  # noqa: E402
    Partition, PartitionError, chain_maex, chain_mex, maex_offset, mex_offset)

MIN_PASSES = 3
REF_SECONDS = 0.02          # about the median time of reference() on the
                            # 2-vCPU Xeon VM of bench/BASELINE.md
SETUP_STARTS = 4            # cold starts timed before each pass
SAMPLE_SIZE = 5000          # sampled objects per map, reused by every pass
SAMPLE_WEIGHTS = (60, 200)  # |lambda| is drawn uniformly from this range
SAMPLE_R = (1, 3)

SERIES_NAMES = ("sigma-mex", "partitions", "chain-mex", "chain-mex-shifted",
                "chain-mex-offset", "maex-defect", "chain-maex",
                "chain-maex-product", "strict", "top-mult", "bottom-mult",
                "sigma-largest", "j-parts")

WORKLOADS = {
    # brute-force enumeration and statistics dominate; qseries is small
    "verify-theorems": {
        "cli": ["verify thm-1.4 --n 40",
                "verify thm-1.6 --r 1..6 --n 30",
                "verify thm-1.7 --r 1..6 --n 30",
                "verify thm-1.11 --r 1..6 --n 30 --order 60",
                "verify thm-1.8 --n 30",
                "verify thm-1.5 --r 2..5 --n 25",
                "verify thm-1.10 --r 2..5 --n 25",
                "verify maex-distribution --r 1..3 --n 20",
                "verify q-binomial --order 60"],
        "samples": (),
    },
    # dense PowerSeries multiply/invert and Pochhammer products; no
    # enumeration (q-binomial is held at order 80: order 150 takes ~12 s)
    "expand-series": {
        "cli": [f"series {name} --r 3 --j 2 --order 150" for name in SERIES_NAMES]
               + ["verify q-binomial --order 80"],
        "samples": (),
    },
    # bijection maps, predicate-filtered enumeration and pair products;
    # no qseries work
    "certify-bijections": {
        "cli": ["verify glaisher --r 2..4 --n 20",
                "verify multiples-repeats --r 2..4 --n 20",
                "verify top-multiple --r 2..4 --n 16",
                "verify gamma --r 1..3 --n 16",
                "verify gamma-star --r 1..3 --n 16",
                "verify delta --r 1..3 --n 16"],
        "samples": ("gamma", "gamma-star", "delta"),
    },
}

# sampled map -> (forward, inverse, codomain checker, index bound of lambda)
MAPS = {
    "gamma": ("mex_pairing", "mex_pairing_inv", "in_mex_codomain",
              lambda lam, r: chain_mex(lam, r) + mex_offset(lam, r)),
    "gamma-star": ("mex_pairing_colored", "mex_pairing_colored_inv",
                   "in_colored_codomain", lambda lam, r: chain_mex(lam, r) + r - 1),
    "delta": ("maex_pairing", "maex_pairing_inv", "in_maex_codomain",
              lambda lam, r: lam.largest - chain_maex(lam, r) + maex_offset(lam, r)),
}

# counts that must repeat exactly between passes (byte sizes do not: they
# include the report's wall_time, whose printed length varies)
COUNT_METRICS = {"partition.enumerated", "partition.stat_calls", "qseries.mul_calls",
                 "qseries.mul_madds", "qseries.invert_calls", "qseries.poch_calls",
                 "qseries.builder_calls", "bijections.forward_calls",
                 "bijections.codomain_calls", "verify.rows"}

JobResult = namedtuple("JobResult", "ok checks emitted seconds ref")

WALL_TIME_FIELD = re.compile(r'\n *"wall_time": [^,\n]*,?')


def load_json(name):
    with open(name) as fh:
        return json.load(fh)


def reference():
    """Fixed pure-Python work, timed before every job to gauge the host's
    speed at that moment.  It mixes the two kinds of work the workloads do,
    streaming partition enumeration with a statistic per partition and dense
    integer series products, and calls nothing in chainex, so a change to
    chainex cannot move it.  Changing it rescales every reported time."""
    def gen(remaining, cap, prefix):
        if remaining == 0:
            yield tuple(prefix)
            return
        for first in range(min(remaining, cap), 0, -1):
            prefix.append(first)
            yield from gen(remaining - first, first, prefix)
            prefix.pop()

    total = 0
    for parts in gen(26, 26, []):
        total += len(set(parts)) + parts[0]
    a = [(7 * i + 3) % 11 - 5 for i in range(80)]
    b = [(5 * i + 1) % 13 - 6 for i in range(80)]
    for _ in range(30):
        c = [0] * 80
        for i, x in enumerate(a):
            if x:
                for j in range(80 - i):
                    c[i + j] += x * b[j]
        a = [x % 1009 - 504 for x in c]
    return total + a[-1]


def plain_call(group, fn, *args, span=None):
    """Untraced stand-in for Tracer.call."""
    return fn(*args)


# ---------------------------------------------------------------------------
# Jobs and their correctness checks
# ---------------------------------------------------------------------------

def output_digest(text):
    """SHA-256 of a job's stdout with the report's wall_time removed."""
    return hashlib.sha256(WALL_TIME_FIELD.sub("", text).encode()).hexdigest()


def count_checks(doc):
    """Exact comparisons in one output: report rows or series coefficients."""
    return len(doc["rows"]) if "rows" in doc else len(doc["coeffs"])


def capture_cli(args, call=plain_call):
    """Run one CLI job; returns (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = call("cli", cli.run, args.split() + ["--format", "json"], span=args)
    return code, out.getvalue()


def check_cli_output(digest, code, text):
    """(ok, checks) for one CLI job: exit code 0, at least one row or
    coefficient, and the digest recorded at the seed commit."""
    try:
        checks = count_checks(json.loads(text))
    except (ValueError, KeyError, TypeError):
        return False, 0
    return code == 0 and checks > 0 and output_digest(text) == digest, checks


class CliJob:
    def __init__(self, args, digests):
        self.id = args
        self.digest = digests.get(args, {}).get("sha256")

    def run(self, call):
        code, text = capture_cli(self.id, call)
        ok, checks = call("bench.check", check_cli_output, self.digest, code, text)
        return ok, checks, len(text)


class SampleJob:
    """Round trips of seeded (lambda, i, r) objects through one index-to-pair
    map, its inverse and its codomain checker."""

    def __init__(self, name, objects):
        self.id = f"sample {name} x{len(objects)}"
        self.names = MAPS[name][:3]
        self.objects = objects

    def run(self, call):
        # looked up per pass so that patched module attributes take effect
        forward, inverse, checker = (getattr(bijections, n) for n in self.names)
        failed = call("bench.check", round_trips, self.objects, forward, inverse, checker)
        return failed == 0, len(self.objects), 0


def round_trips(objects, forward, inverse, checker):
    failed = 0
    for lam, i, r in objects:
        try:
            pair = forward(lam, i, r)
            ok = (pair.weight == lam.weight and checker(pair, r)
                  and inverse(pair, r) == (lam, i))
        except (bijections.DomainError, PartitionError):
            ok = False
        failed += not ok
    return failed


class PartitionSampler:
    """Uniformly random partitions of n <= n_max by unranking in decreasing
    lexicographic order."""

    def __init__(self, n_max):
        # below[n][k]: partitions of n with every part <= k
        below = [[1] * (n_max + 1)] + [[0] * (n_max + 1) for _ in range(n_max)]
        for n in range(1, n_max + 1):
            row = below[n]
            for k in range(1, n_max + 1):
                row[k] = row[k - 1] + (below[n - k][k] if k <= n else 0)
        self.below = below

    def draw(self, n, rng):
        rank = rng.randrange(self.below[n][n])
        parts, cap = [], n
        while n:
            for first in range(min(n, cap), 0, -1):
                count = self.below[n - first][first]
                if rank < count:
                    break
                rank -= count
            parts.append(first)
            n -= first
            cap = first
        return Partition(parts)


def draw_objects(name, rng, sampler):
    bound = MAPS[name][3]
    objects = []
    for _ in range(SAMPLE_SIZE):
        lam = sampler.draw(rng.randint(*SAMPLE_WEIGHTS), rng)
        r = rng.randint(*SAMPLE_R)
        objects.append((lam, rng.randint(1, bound(lam, r)), r))
    return objects


def build_jobs(workload, rng, digests):
    spec = WORKLOADS[workload]
    jobs = [CliJob(args, digests) for args in spec["cli"]]
    if spec["samples"]:
        sampler = PartitionSampler(SAMPLE_WEIGHTS[1])
        jobs += [SampleJob(name, draw_objects(name, rng, sampler))
                 for name in spec["samples"]]
    return jobs


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def timed(fn, *args, **kwargs):
    """Seconds one call of fn takes."""
    t0 = perf_counter()
    fn(*args, **kwargs)
    return perf_counter() - t0


def run_pass(jobs, call=plain_call, tracer=None):
    """Run every job once, each after one timed ``reference`` (untraced
    passes only); returns {job id: JobResult}."""
    results = {}
    for job in jobs:
        ref = None
        if tracer is None:
            ref = timed(reference)
        else:
            tracer.job = job.id
        t0 = perf_counter()
        try:
            ok, checks, emitted = job.run(call)
        except Exception:  # a crashing job is a failed job; keep measuring
            traceback.print_exc()
            ok, checks, emitted = False, 0, 0
        results[job.id] = JobResult(ok, checks, emitted, perf_counter() - t0, ref)
    return results


def cold_start():
    """(seconds, reference seconds): the wall time for a fresh interpreter to
    import chainex.cli and build the parser, and the reference timed just
    before it."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import chainex.cli; chainex.cli.build_parser()")
    ref = timed(reference)
    return timed(subprocess.run, [sys.executable, "-c", code, SRC], check=True), ref


def tally(passes):
    """(jobs attempted, jobs failed) over all passes."""
    return (sum(len(p) for p in passes),
            sum(not r.ok for p in passes for r in p.values()))


def per_pass(passes, field):
    """Per-pass totals of one JobResult field."""
    return [sum(getattr(r, field) for r in p.values()) for p in passes]


def median_wall(passes):
    """Sum over jobs of each job's median time across the passes."""
    return sum(statistics.median(p[job].seconds for p in passes) for job in passes[0])


def median_ref(passes):
    """Median time of the reference work over every job of the passes."""
    return statistics.median(r.ref for p in passes for r in p.values())


def median_wall_at_ref(passes):
    """Sum over jobs of the median, across the passes, of each job's time
    divided by the reference timed just before it, times REF_SECONDS.  The
    host's speed changes within seconds, so the adjacent reference tracks it
    better than the run's median reference does."""
    return REF_SECONDS * sum(
        statistics.median(p[job].seconds / p[job].ref for p in passes) for job in passes[0])


def pass_seconds(results):
    return sum(r.seconds for r in results.values())


def enough(start, seconds, passes_done, minimum, last):
    """Stop once the minimum is met and a further pass would end farther
    past ``seconds`` than stopping now falls short of it."""
    elapsed = perf_counter() - start
    return passes_done >= minimum and elapsed + last / 2 >= seconds


def prepare(workload, seed):
    """The seeded random source and the workload's jobs."""
    rng = random.Random(seed)
    return rng, build_jobs(workload, rng, load_json(os.path.join(BENCH_DIR, "digests.json")))


def measure(workload, seed, seconds):
    rng, jobs = prepare(workload, seed)
    passes, setups, start = [], [], perf_counter()
    while True:
        # spread over the run, like the passes, so both see the same host
        setups += [cold_start() for _ in range(SETUP_STARTS)]
        rng.shuffle(jobs)
        passes.append(run_pass(jobs))
        if enough(start, seconds, len(passes), MIN_PASSES, pass_seconds(passes[-1])):
            break
    attempted, failed = tally(passes)
    checks = per_pass(passes, "checks")
    consistent = len(set(checks)) == 1
    checks = min(checks)
    wall = median_wall_at_ref(passes)
    metrics = {
        "wall_s": wall,
        "checks": checks,
        "checks_per_s": checks / wall,
        "setup_s": REF_SECONDS * statistics.median(cold / ref for cold, ref in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        # printed, not reported: they move with the host's speed
        "measured_wall_s": median_wall(passes),
        "measured_setup_s": statistics.median(cold for cold, _ in setups),
        "ref_s": median_ref(passes),
    }
    return consistent, attempted, failed, metrics, len(passes)


def measure_traced(workload, seed, seconds):
    from tracer import Tracer

    rng, jobs = prepare(workload, seed)
    plain, traced, tracers = [], [], []
    start = perf_counter()
    while True:
        rng.shuffle(jobs)
        t0 = perf_counter()
        plain.append(run_pass(jobs))
        tracer = Tracer()
        with tracer.installed():
            traced.append(run_pass(jobs, tracer.call, tracer))
        tracers.append(tracer)
        if enough(start, seconds, len(traced), 1, perf_counter() - t0):
            break
    attempted, failed = tally(plain + traced)
    traced_wall = median_wall(traced)
    layers = [t.metrics() for t in tracers]
    consistent = True
    metrics = {}
    for name in layers[0]:
        values = [m[name] for m in layers]
        if name in COUNT_METRICS:
            consistent &= len(set(values)) == 1
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    metrics["cli.emit_bytes"] = statistics.median(per_pass(traced, "emitted"))
    metrics["bench.measured_wall_s"] = median_wall(plain)
    metrics["bench.ref_s"] = median_ref(plain)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - metrics["bench.measured_wall_s"]
    metrics["trace.unattributed_s"] = statistics.median(
        pass_seconds(p) - t.attributed_s() for p, t in zip(traced, tracers))
    write_spans(workload, seed, tracers)
    return consistent, attempted, failed, metrics, len(traced)


def write_spans(workload, seed, tracers):
    out_dir = os.path.join(BENCH_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{workload}-seed{seed}.json")
    with open(path, "w") as fh:
        json.dump([{"pass": k, "spans": t.spans} for k, t in enumerate(tracers)], fh)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    measure_run = measure_traced if args.trace else measure
    consistent, attempted, failed, values, passes = measure_run(
        args.workload, args.seed, args.seconds)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise SystemExit(f"error: metrics not produced: {missing}")
    if not consistent:
        print("error: counts differ between passes of the same run", file=sys.stderr)

    kind = "traced passes (each after an untraced one)" if args.trace else "passes"
    print(f"workload {args.workload} seed {args.seed}: {passes} {kind}, "
          f"{attempted} jobs run, {failed} failed")
    print(f"{'error_rate':28s} {failed / attempted:.6g} ratio")
    if not args.trace:
        for name in ("measured_wall_s", "measured_setup_s", "ref_s"):
            print(f"{name:28s} {values[name]:.6g} s")
    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:28s} {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({"correct": consistent and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
