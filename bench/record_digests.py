"""Record the reference output digests the benchmark checks against.

    python3 bench/record_digests.py

Runs every CLI job of every workload once and writes bench/digests.json:
for each job, the SHA-256 of its stdout (wall_time removed) and its count
of exact checks.  Run it only on a commit whose outputs are trusted; the
committed file was recorded at the commit that introduced the benchmark.
"""

import json
import os

from run import BENCH_DIR, WORKLOADS, capture_cli, count_checks, output_digest


def main():
    digests = {}
    for spec in WORKLOADS.values():
        for args in spec["cli"]:
            code, text = capture_cli(args)
            if code != 0:
                raise SystemExit(f"error: {args!r} exited with {code}")
            digests[args] = {"sha256": output_digest(text),
                             "checks": count_checks(json.loads(text))}
    with open(os.path.join(BENCH_DIR, "digests.json"), "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
