"""Golden replay: every job recorded in bench/digests.json, run through the
CLI, must reproduce its recorded output digest, so verification reports
match row for row.

The digest and the removal of ``wall_time`` come from bench/run.py itself,
so this test hashes exactly what the benchmark hashes.  It only reads the
files under bench/.
"""

import contextlib
import importlib.util
import io
import json
import os
import sys

import pytest

from chainex import cli

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def _load_bench_run():
    spec = importlib.util.spec_from_file_location(
        "chainex_bench_run", os.path.join(BENCH_DIR, "run.py"))
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no bench/__pycache__
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


bench_run = _load_bench_run()

with open(os.path.join(BENCH_DIR, "digests.json")) as fh:
    DIGESTS = json.load(fh)


@pytest.mark.parametrize("job", sorted(DIGESTS))
def test_job_reproduces_recorded_digest(job):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(job.split() + ["--format", "json"])
    text = out.getvalue()
    assert code == 0
    assert bench_run.count_checks(json.loads(text)) == DIGESTS[job]["checks"]
    assert bench_run.output_digest(text) == DIGESTS[job]["sha256"]
