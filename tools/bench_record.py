"""Record this tree's end-to-end benchmark figures as ``BENCH_<label>.json``.

    python3 tools/bench_record.py LABEL

It runs ``bench/run.py --workload W --seed S --seconds T`` for every
workload of ``BENCHMARK.json`` at seeds 1, 2 and 3, seed by seed, with T
the file's ``run_seconds``.  Each run's last line is kept as it was
printed, and per workload the median and interquartile range of each
end-to-end metric are computed from them.  ``wall_s`` and ``setup_s`` are
already quoted at the runner's reference host speed.

It then times the other end-to-end figures: the tier-1 suite, once, and
each acceptance test, as the median over ACCEPTANCE_RUNS runs of its call
time in pytest's ``--junitxml`` report (to the millisecond).  Each
acceptance run is divided by the median time of ``run.reference()``, timed
just before it, and multiplied by ``run.REF_SECONDS``, as the runner does,
so those figures from two hosts compare.  Tier-1 is quoted as measured on
the recording host: a reference timed around one 40 s pytest run does not
track its speed, so it compares only between records taken back to back.
``bench/run.py`` is imported only to read those two names.

It also times one layer in process, the tally walk (``chainex.brute.tallies``
from this tree's ``src``) at the shapes the verify-theorems workload
calls: heads/s of ``tallies(n, 1)`` at each n of TALLY_RATES, and ms per
call at each of TALLY_SHAPES.  Each figure is the median of LAYER_CALLS
calls, each divided by the median time of ``run.reference()`` timed just
before it and multiplied by ``run.REF_SECONDS``, as the acceptance figures
are, and goes into ``layers`` beside the per-workload ``summary``.

The file goes to the repository root and holds the git sha, the files under
SOURCE_PATHS that differ from it (modified, staged or untracked), the
Python version and the CPU count.  Only the standard library and this
tree's ``chainex`` are imported, and nothing under ``bench/`` is written.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from collections import Counter
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2, 3)
REFERENCE_CALLS = 5          # reference() timings before each acceptance run
ACCEPTANCE_RUNS = 5          # each acceptance test's time is the median of these
LAYER_CALLS = 5              # each layer figure is the median of these calls
TALLY_RATES = (40, 50)       # heads/s of tallies(n, 1) at these n
THM_1_5_CELLS = tuple((family, r) for r in range(2, 6)
                      for family in ("multiples", "largest-repeating", "above-mex"))
# the other tallies calls of the verify-theorems workload: name -> arguments
TALLY_SHAPES = {"30,6": (30, 6, ()), "30,1": (30, 1, ()),
                "25,4+thm-1.5": (25, 4, THM_1_5_CELLS), "20,3": (20, 3, ())}
SOURCE_PATHS = ("src", "bench", "tests", "tools", "pyproject.toml", "BENCHMARK.json")
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
ACCEPTANCE = ["-m", "pytest", "-q", "tests/test_acceptance.py", "-p", "no:cacheprovider",
              "-o", "junit_duration_report=call"]
OUTCOME = re.compile(r"(\d+) ([a-z]+)")


def summarize(runs) -> dict:
    """Per workload: how many runs, jobs and failed jobs, whether every run
    was correct, and for each metric the median, quartiles and IQR over the
    runs.  ``runs`` holds dicts with ``workload`` and ``result``, the
    runner's last line parsed."""
    by_workload = {}
    for run in runs:
        by_workload.setdefault(run["workload"], []).append(run["result"])
    out = {}
    for workload, results in by_workload.items():
        metrics = {}
        for name in results[0]["metrics"]:
            values = sorted(r["metrics"][name]["value"] for r in results)
            q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                         if len(values) > 1 else values * 3)
            metrics[name] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                             "iqr": q3 - q1, "unit": results[0]["metrics"][name]["unit"]}
        out[workload] = {"runs": len(results),
                         "attempted": sum(r["attempted"] for r in results),
                         "failed": sum(r["failed"] for r in results),
                         "correct": all(r["correct"] for r in results),
                         "metrics": metrics}
    return out


def parse_junit(path: str) -> dict:
    """Each test's call time in seconds, by test name, from a ``--junitxml``
    report (pytest writes them to the millisecond)."""
    return {case.get("name"): float(case.get("time"))
            for case in ET.parse(path).getroot().iter("testcase")}


def parse_outcome(text: str) -> dict:
    """The counts of pytest's closing line, e.g. {"passed": 763}."""
    lines = text.strip().splitlines()
    return {kind: int(count) for count, kind in OUTCOME.findall(lines[-1] if lines else "")}


def load_runner():
    """``bench/run.py`` as a module, without writing its bytecode."""
    sys.dont_write_bytecode = True
    spec = importlib.util.spec_from_file_location(
        "bench_run", os.path.join(ROOT, "bench", "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def reference_times(runner) -> list:
    """REFERENCE_CALLS timings of ``run.reference()``."""
    times = []
    for _ in range(REFERENCE_CALLS):
        t0 = perf_counter()
        runner.reference()
        times.append(perf_counter() - t0)
    return times


def pytest_run(args) -> tuple:
    """(pytest's stdout, its wall seconds), run on this tree's ``src``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")])))
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    return proc.stdout, perf_counter() - t0


def tier1() -> dict:
    """One tier-1 run, its outcome and its wall seconds on this host."""
    text, seconds = pytest_run(TIER1)
    return {"outcome": parse_outcome(text), "measured_s": round(seconds, 2)}


def acceptance(runner, scale) -> dict:
    """ACCEPTANCE_RUNS runs of the acceptance tests, each normalised by the
    reference timed just before it; per test the medians over the runs,
    kept to the millisecond the report gives."""
    outcome, times = Counter(), {}
    with tempfile.TemporaryDirectory() as tmp:
        report = os.path.join(tmp, "acceptance.xml")
        for _ in range(ACCEPTANCE_RUNS):
            ref = statistics.median(reference_times(runner))
            text, _ = pytest_run([*ACCEPTANCE, f"--junitxml={report}"])
            outcome.update(parse_outcome(text))
            for test, seconds in parse_junit(report).items():
                times.setdefault(test, []).append((seconds, seconds / ref * scale))
    return {"runs": ACCEPTANCE_RUNS, "outcome": dict(outcome), "tests": {
        test: {"measured_s": round(statistics.median(s for s, _ in pairs), 3),
               "normalised_s": round(statistics.median(n for _, n in pairs), 3)}
        for test, pairs in times.items()}}


def layers(reference, scale, tallies, clock=perf_counter) -> dict:
    """The tally walk's figures.  Each is the median over LAYER_CALLS calls
    of ``tallies``, each call's time divided by ``reference()`` (the host's
    reference time, taken just before the call) and multiplied by
    ``scale``.  ``heads`` is p(n) - 1, the heads of weight 1..n, read off
    the tally of n."""
    def timed(n_max, r_max, cells):
        runs = []
        for _ in range(LAYER_CALLS):
            ref = reference()
            t0 = clock()
            by_n = tallies(n_max, r_max, cells)
            seconds = clock() - t0
            runs.append((seconds, seconds / ref * scale))
        return (statistics.median(s for s, _ in runs), statistics.median(n for _, n in runs),
                by_n[n_max].count - 1)

    metrics = {}
    for n in TALLY_RATES:
        measured, normalised, heads = timed(n, 1, ())
        metrics[f"tallies.heads_per_s.{n},1"] = {
            "value": round(heads / normalised), "unit": "1/s", "heads": heads,
            "measured": round(heads / measured)}
    for name, args in TALLY_SHAPES.items():
        measured, normalised, _ = timed(*args)
        metrics[f"tallies.ms.{name}"] = {"value": round(normalised * 1e3, 3), "unit": "ms",
                                         "measured": round(measured * 1e3, 3)}
    return {"calls": LAYER_CALLS, "metrics": metrics}


def load_tallies():
    """``tallies`` from this tree's ``src``."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from chainex.brute import tallies
    return tallies


def git(*args):
    try:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.rstrip()
    except (OSError, subprocess.CalledProcessError):
        return None


def record(label) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    runs = []
    for seed in SEEDS:
        for workload in (w["name"] for w in spec["workloads"]):
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds)], cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode or not lines:
                raise SystemExit(f"error: bench/run.py {workload} seed {seed} exited "
                                 f"{proc.returncode}: {proc.stderr.strip()}")
            runs.append({"workload": workload, "seed": seed, "line": lines[-1],
                         "result": json.loads(lines[-1])})
            print(f"{workload} seed {seed}: {lines[-1]}", file=sys.stderr)
    runner = load_runner()
    scale = runner.REF_SECONDS
    status = git("status", "--porcelain", "--untracked-files=all", "--", *SOURCE_PATHS)
    return {
        "schema": 1,
        "label": label,
        "git_sha": git("rev-parse", "HEAD"),
        # modified, staged or untracked files under SOURCE_PATHS; [] is a clean tree
        "dirty_paths": None if status is None else [line[3:] for line in status.splitlines()],
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "seconds": seconds,
        "seeds": list(SEEDS),
        "runs": [{key: run[key] for key in ("workload", "seed", "line")} for run in runs],
        "summary": summarize(runs),
        "layers": layers(lambda: statistics.median(reference_times(runner)), scale,
                         load_tallies()),
        "ref_seconds": scale,
        "tier1": tier1(),
        "acceptance": acceptance(runner, scale),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("label", help="the file is BENCH_<label>.json")
    args = parser.parse_args(argv)
    if not re.fullmatch(r"[A-Za-z0-9._-]+", args.label):
        parser.error(f"a label is letters, digits, '.', '_' and '-', got {args.label!r}")
    doc = record(args.label)
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
