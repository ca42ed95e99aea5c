"""One ``pss`` command line invocation, as the ``pss`` entry point runs it.

Usage: ``cli_child.py STATS SPANS PSS-ARGS...`` with ``src`` on
``PYTHONPATH``.  The command's output goes to stdout unchanged.  The peak
resident memory of the process goes to the JSON file STATS; unless SPANS
is ``-``, the process is traced, its spans go to the file SPANS and their
summary to STATS.
"""

from __future__ import annotations

import json
import resource
import sys


def main() -> int:
    stats_path, spans_path = sys.argv[1], sys.argv[2]
    tracer = None
    if spans_path != "-":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    from pss import cli

    code = cli.main(sys.argv[3:])
    sys.stdout.flush()
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    summary = None
    if tracer is not None:
        tracer.write_spans(spans_path)
        summary = tracer.summary()
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump({"maxrss_kb": maxrss, "trace": summary}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
