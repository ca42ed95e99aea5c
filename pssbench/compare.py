"""Run two sets of benchmark runs of the same code and compare them.

Usage, from the root of a checkout:

    python3 pssbench/compare.py [--runs N]

Every workload of BENCHMARK.json runs for its ``run_seconds``: set A with
seeds 1..N and set B with seeds N+1..2N, taking turns (A, B, A, B, ...).
For each end-to-end metric the report gives each set's median and spread,
the spread being the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  The sets
agree on a metric when both spreads are within the metric's bound in
BENCHMARK.json and set B's median differs from set A's, either way, by at
most the bound; they agree on a workload when they agree on every metric,
every output is correct and both sets fail the same share of requests.
Exits 0 when they agree everywhere, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".pssbench_out"


def spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worsening(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if better == "lower" else -change


def run_once(bench: dict, workload: str, seed: int) -> dict:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise RuntimeError("%s seed %d exited with code %d"
                           % (workload, seed, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def compare(bench: dict, workload: str, sets: list) -> bool:
    ok = True
    shares = [Fraction(sum(r["failed"] for r in runs),
                       sum(r["attempted"] for r in runs)) for runs in sets]
    if shares[0] != shares[1]:
        ok = False
    if not all(r["correct"] for runs in sets for r in runs):
        ok = False
    print("%s: failed share %s / %s" % (workload, shares[0], shares[1]))
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
        medians = [statistics.median(v) for v in values]
        spreads = [spread(v) for v in values]
        worse = worsening(medians[0], medians[1], metric["better"])
        agree = abs(worse) <= bound and max(spreads) <= bound
        ok = ok and agree
        print("  %-14s A %12.6g (spread %5.1f%%)  B %12.6g (spread %5.1f%%)"
              "  B worse by %6.1f%%  bound %4.1f%%  %s"
              % (name, medians[0], 100 * spreads[0], medians[1],
                 100 * spreads[1], 100 * worse, 100 * bound,
                 "agree" if agree else "DISAGREE"))
    return ok


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10,
                        help="runs per set and workload (default 10)")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("quartiles need at least two runs per set")
    OUT.mkdir(exist_ok=True)
    results = {}
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        sets = [[], []]
        for i in range(args.runs):
            for s in (0, 1):
                seed = 1 + i + s * args.runs
                sets[s].append(run_once(bench, workload, seed))
        results[workload] = sets
        ok = compare(bench, workload, sets) and ok
    path = OUT / ("compare-%d.json" % time.time())
    path.write_text(json.dumps(results))
    print("runs saved in %s; sets %s" % (path, "agree" if ok else "DISAGREE"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
