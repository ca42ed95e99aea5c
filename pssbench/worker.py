"""One round of a library workload, in a fresh process.

Run by ``run.py`` with a JSON spec as its only argument and ``src`` on
``PYTHONPATH``.  The worker imports the package, builds the round's
requests, prints ``ready`` and waits: ``go`` on stdin starts the timed
request stream, anything else ends the process (a set-up probe).  The last
line of its output is a JSON object with each request's time and output
and, when the spec names a spans file, the trace summary.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from fractions import Fraction

import tracing
from workloads import WORKLOADS


def _mapper(jobs: int, tracer):
    """The mapper ``pss compute --jobs`` builds, with spans handed over."""
    from pss import cli

    mapper = cli._mapper(jobs)
    if mapper is None or tracer is None:
        return mapper
    return lambda fn, tasks: mapper(tracer.bind(fn), tasks)


def main() -> int:
    spec = json.loads(sys.argv[1])
    workload = WORKLOADS[spec["workload"]]
    tracer = None
    if spec["trace"]:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    from pss import series_builder
    from pss.lattice_core import parse_gram

    requests = workload.round_order(spec["seed"], spec["round"])
    built = [
        series_builder.SeriesRequest(
            parse_gram(req.gram),
            None if req.weight is None else Fraction(req.weight),
            None if req.m is None else Fraction(req.m),
            None,
            req.precision,
        )
        for req in requests
    ]
    mapper = _mapper(workload.jobs, tracer)
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    results = []
    start = time.perf_counter()
    for req, series_request in zip(requests, built):
        t0 = time.perf_counter()
        try:
            expansion = series_builder.pss_expansion(series_request,
                                                     mapper=mapper)
        except Exception as exc:  # a failed request is reported, not fatal
            results.append({"label": req.label,
                            "seconds": time.perf_counter() - t0,
                            "error": type(exc).__name__,
                            "message": repr(exc)})
            continue
        seconds = time.perf_counter() - t0
        results.append({"label": req.label, "seconds": seconds,
                        "output": expansion.to_dict()})
    wall = time.perf_counter() - start
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    summary = None
    if tracer is not None:
        tracer.write_spans(spec["trace"])
        summary = tracer.summary()
    print(json.dumps({"wall_s": wall, "maxrss_kb": maxrss,
                      "results": results, "trace": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
