"""Run one workload of the pss benchmark and print its metrics.

Usage, from the root of a checkout:

    python3 pssbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run repeats whole rounds of its workload's requests for about
``--seconds`` (at least one round).  Every round runs in fresh processes, so
the program's in-process memos start cold.  With ``--trace 0`` the last
line of output is a JSON object with the end-to-end metrics; with
``--trace 1`` one untraced round is followed by traced rounds and the JSON
object holds the per-layer metrics and the tracing overhead.  Outputs are
checked against the references in ``checks.py``; see README.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import tracing
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".pssbench_out"
# extra worker start-ups per untraced run, for a steadier setup_s median
SETUP_PROBES = 8
CHILD_TIMEOUT = 170


class BenchError(RuntimeError):
    """The benchmark could not run the workload."""


@dataclass
class Round:
    setup_s: float
    wall_s: float = 0.0
    coefficients: int = 0
    latencies: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    maxrss_kb: int = 0
    # traced rounds: one summary per traced process, and for each the wall
    # time of the timed CLI invocation it served (None for other processes)
    summaries: list = field(default_factory=list)
    cli_walls: list = field(default_factory=list)

    def wrong(self, label: str, problems: list) -> None:
        self.failed += 1
        self.correct = False
        for problem in problems[:5]:
            sys.stderr.write("%s: %s\n" % (label, problem))


def _env() -> dict:
    env = dict(os.environ)
    paths = [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    # the same string hashes, and so the same set and dict orders, every run
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(spec: dict, go: bool):
    """Start a worker; return its set-up time and, if ``go``, its result."""
    cmd = [sys.executable, str(BENCH / "worker.py"), json.dumps(spec)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          env=_env(), text=True) as proc:
        try:
            line = proc.stdout.readline()
            setup = time.perf_counter() - t0
            if line.strip() != "ready":
                raise BenchError("worker did not start (%r)" % line)
            out, _ = proc.communicate("go\n" if go else "stop\n",
                                      timeout=CHILD_TIMEOUT)
        except BaseException:
            proc.kill()
            raise
    if proc.returncode != 0:
        raise BenchError("worker exited with code %d" % proc.returncode)
    return setup, (json.loads(out.strip().splitlines()[-1]) if go else None)


def _library_round(workload, seed: int, round_no: int, spans) -> Round:
    """One worker process runs the round; ``spans``: directory or None."""
    spec = {"workload": workload.name, "seed": seed, "round": round_no,
            "trace": str(spans / ("r%d.json" % round_no)) if spans else None}
    setup, result = _worker(spec, go=True)
    rnd = Round(setup, wall_s=result["wall_s"], maxrss_kb=result["maxrss_kb"])
    if spans:
        rnd.summaries.append(result["trace"])
        rnd.cli_walls.append(None)
    by_label = {req.label: req for req in workload.requests}
    for res in result["results"]:
        req = by_label[res["label"]]
        rnd.attempted += 1
        if "error" in res:
            rnd.failed += 1
            if res["error"] != req.known_fault:
                sys.stderr.write("%s failed: %s\n" % (req.label, res["message"]))
            continue
        problems, known = checks.check(req, res["output"])
        if problems:
            rnd.wrong(req.label, problems)
            continue
        if known:
            rnd.failed += 1
            continue
        rnd.coefficients += checks.coefficient_count(res["output"])
        rnd.latencies.append(res["seconds"])
    return rnd


def _cli(req, cache: Path, spans_path):
    """One ``pss`` invocation: (wall time, stdout bytes, exit code, stats)."""
    stats_path = OUT / ("cli-%d.json" % os.getpid())
    cmd = [sys.executable, str(BENCH / "cli_child.py"), str(stats_path),
           str(spans_path) if spans_path else "-",
           *req.cli_args(), "--cache", str(cache)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=_env(),
                          timeout=CHILD_TIMEOUT)
    wall = time.perf_counter() - t0
    stats = None
    if stats_path.exists():
        with open(stats_path, encoding="utf-8") as fh:
            stats = json.load(fh)
        stats_path.unlink()
    return wall, proc.stdout, proc.returncode, stats


def _replay_round(workload, seed: int, round_no: int, spans) -> Round:
    """Fill a cache file cold (the set-up), then replay from it.

    ``spans`` is the directory for the spans of traced processes, or None.
    """
    cache = OUT / ("cache-%d-%d.json" % (os.getpid(), round_no))
    if cache.exists():
        cache.unlink()
    invocations = itertools.count()

    def spans_path():
        return spans / ("r%d-%d.json" % (round_no, next(invocations))) \
            if spans else None

    cold = {}
    summaries = []
    t0 = time.perf_counter()
    for req in workload.requests:
        _, out, code, stats = _cli(req, cache, spans_path())
        if code != 0:
            raise BenchError("cold %s exited with code %d" % (req.label, code))
        cold[req.label] = out
        summaries.append(stats["trace"])
    rnd = Round(time.perf_counter() - t0)
    if spans:
        rnd.summaries += summaries
        rnd.cli_walls += [None] * len(summaries)
    counts = {}
    for req in workload.requests:
        data = json.loads(cold[req.label])
        problems, known = checks.check(req, data)
        if problems or known:
            rnd.wrong("cold " + req.label, problems + known)
        counts[req.label] = checks.coefficient_count(data)

    start = time.perf_counter()
    for req in workload.round_order(seed, round_no):
        wall, out, code, stats = _cli(req, cache, spans_path())
        rnd.attempted += 1
        if code != 0:
            rnd.failed += 1
            sys.stderr.write("replay %s exited with code %d\n"
                             % (req.label, code))
            continue
        if out != cold[req.label]:
            rnd.wrong("replay " + req.label,
                      ["output differs from the cold output of its set-up"])
            continue
        rnd.coefficients += counts[req.label]
        rnd.latencies.append(wall)
        rnd.maxrss_kb = max(rnd.maxrss_kb, stats["maxrss_kb"])
        if spans:
            rnd.summaries.append(stats["trace"])
            rnd.cli_walls.append(wall)
    rnd.wall_s = time.perf_counter() - start
    cache.unlink()
    return rnd


def _round(workload, seed: int, round_no: int, spans) -> Round:
    if workload.replays:
        return _replay_round(workload, seed, round_no, spans)
    return _library_round(workload, seed, round_no, spans)


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    spans = None
    untraced = None
    if trace:
        spans = OUT / ("spans-%s-seed%d" % (name, seed))
        shutil.rmtree(spans, ignore_errors=True)
        spans.mkdir()
        untraced = _round(workload, seed, 0, None)
    rounds = []
    durations = []
    start = time.perf_counter()
    # start another round only if it should end by ``seconds``, give or take
    # half a round, so that a run lasts about ``seconds`` however long its
    # rounds are
    while not rounds or (time.perf_counter() - start
                         + statistics.median(durations) / 2 < seconds):
        t0 = time.perf_counter()
        rounds.append(_round(workload, seed, len(rounds) + 1, spans))
        durations.append(time.perf_counter() - t0)
    done = rounds + ([untraced] if untraced else [])
    latencies = [x for r in rounds for x in r.latencies]
    if not latencies:
        raise BenchError("no request of the workload succeeded")

    if trace:
        metrics = tracing.layer_metrics(
            [p for r in rounds for p in r.summaries],
            [w for r in rounds for w in r.cli_walls])
        overhead = statistics.median(r.wall_s for r in rounds) - untraced.wall_s
        metrics["tracing.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        setups = [r.setup_s for r in rounds]
        if not workload.replays:
            spec = {"workload": name, "seed": seed, "round": 0, "trace": None}
            setups += [_worker(spec, go=False)[0] for _ in range(SETUP_PROBES)]
        metrics = {
            "wall_s": {"value": statistics.median(r.wall_s for r in rounds),
                       "unit": "s"},
            "coeffs_per_s": {"value": statistics.median(
                r.coefficients / r.wall_s for r in rounds), "unit": "1/s"},
            "request_p50_s": {"value": statistics.median(latencies),
                              "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": max(r.maxrss_kb for r in rounds) / 1024,
                            "unit": "MB"},
        }
    return {
        "correct": all(r.correct for r in done),
        "attempted": sum(r.attempted for r in done),
        "failed": sum(r.failed for r in done),
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "pss" / "__init__.py").exists():
        sys.stderr.write("no pss package under %s\n" % SRC)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write("benchmark failed: %s\n" % exc)
        return 1
    for metric, entry in result["metrics"].items():
        print("%-40s %14.6f %s" % (metric, entry["value"], entry["unit"]))
    print("requests attempted %d, failed %d, outputs correct: %s"
          % (result["attempted"], result["failed"], result["correct"]))
    line = json.dumps(result)
    with open(OUT / ("result-%s-seed%d-trace%d.json"
                     % (args.workload, args.seed, args.trace)), "w",
              encoding="utf-8") as fh:
        fh.write(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
