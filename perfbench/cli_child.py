"""Run ``gapspline.cli.main`` under the tracer and write its spans as JSON.

    python perfbench/cli_child.py SPANS.json solve SCENE.json -o OUT.json

Each cli probe (``workloads.CliProbes``) runs this file, so that the
import and the layers inside the fresh interpreter are timed; the parent
hangs the spans under its ``cli.process`` span.  The exit code is main's.
"""

import json
import sys
import time

import tracing

start = time.perf_counter_ns()
import gapspline.cli  # noqa: E402  (timed as the cli.import span)

tracer = tracing.Tracer()
tracer.record("cli.import", start, time.perf_counter_ns())
tracer.install()
try:
    code = gapspline.cli.main(sys.argv[2:])
finally:
    tracer.uninstall()
    with open(sys.argv[1], "w") as out:
        json.dump({"spans": tracer.spans, "counts": tracer.counts}, out)
sys.exit(code)
