"""gapspline benchmark: one closed-loop client per run.

    python3 perfbench/run.py --workload {solve,curves} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root; the library is imported from ``src/``.
Each operation's input is generated from ``--seed`` just before it runs,
outside the timed call (see ``inputs.py``), and every operation is checked
against the outcomes pinned in ``reference.json``.

``--trace 0`` measures for S seconds with tracing off and reports the
end-to-end metrics: latency p50/p90 per operation, throughput of the single
client, peak resident memory, and set-up time (median of five set-ups, each
in a fresh interpreter: import, reference and base-scene loading).

Latency percentiles are taken within each round of the mix and averaged
over the run's rounds.  Every round holds the whole mix, so each round's
p50 and p90 estimate the same percentiles as the whole run's.  The
difference is how they follow a shared host whose speed drifts in spells of
seconds to minutes (by up to 1.6x on the 2-core VM the benchmark was tuned
on).  The p50 over all of a run's operations then jumps between a slow and
a fast mode with the share of the run the slow spells took, while the mean
over rounds moves in proportion to that share, as throughput does.  The
whole-run percentiles are printed beside them.

``--trace 1`` measures S/2 seconds untraced, then S/2 seconds with every
layer boundary traced (``tracing.py``), and reports per-layer metrics plus
the tracing overhead: traced minus untraced latency p50.  Both halves run
the same sequence of mix entries on inputs of their own.  It also traces
one ``gapspline solve`` process per shipped scene for the cli layer, and
every shipped scene once, unmoved, to report its residual and Jacobian
evaluations beside the counts pinned at the commit that added the
benchmark.

Measurement stops at the end of the first whole round of the mix after S
seconds, so the mix is exact.  The last line of standard output is a JSON
object {correct, attempted, failed, metrics}; the full result, with the
machine it ran on (and the spans, when traced), goes to ``perfbench/out/``.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_RUNS = 5
PYTHON_START_RUNS = 5


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["solve", "curves"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up, print it in seconds and exit")
    return parser.parse_args(argv)


def setup(args):
    """Import the library, load the references and the first input."""
    if not (ROOT / "src" / "gapspline").is_dir():
        sys.exit(f"error: no gapspline sources under {ROOT / 'src'}")
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import inputs
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, inputs.load_reference())
    workload.item(0)
    return workload, time.perf_counter() - start


def setup_seconds(args, first: float) -> float:
    """Median set-up time over ``first`` and fresh-interpreter set-ups."""
    times = [first]
    for _ in range(SETUP_RUNS - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def measure(workload, seconds: float, tracer=None, stream: int = 0) -> dict:
    """Run whole rounds of the mix for at least ``seconds``, one op at a time,
    on the inputs of ``stream``."""
    round_len = sum(weight for _, weight in workload.cycle)
    latencies, labels, bases, failed, flips = [], [], [], 0, 0
    deadline = time.perf_counter() + seconds
    op = 0
    while op % round_len or time.perf_counter() < deadline:
        item = workload.item(op, stream)
        if tracer is not None:
            tracer.op = op
            tracer.begin("op")
        start = time.perf_counter()
        outcome = workload.run(item)
        latencies.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.end()
        labels.append(f"{item.base} x{item.refine}")
        bases.append(item.base)
        check = workload.check(item, outcome)
        failed += not check.ok
        flips += check.flip
        op += 1
    return {"latencies": latencies, "labels": labels, "bases": bases, "failed": failed,
            "flips": flips, "round_len": round_len}


def by_scene(run: dict) -> dict:
    """Median latency (ms) and operation count of each mix entry."""
    groups = defaultdict(list)
    for label, latency in zip(run["labels"], run["latencies"]):
        groups[label].append(latency)
    return {label: [statistics.median(v) * 1e3, len(v)] for label, v in sorted(groups.items())}


def latency_ms(latencies: list, decile: int) -> float:
    """The ``decile``-th decile of the latencies in ms; decile 5 is the median."""
    return statistics.quantiles(latencies, n=10)[decile - 1] * 1e3


def round_latency_ms(run: dict, decile: int) -> float:
    """The ``decile``-th decile of each round's latencies, averaged over the
    rounds of ``run`` (which holds whole rounds only)."""
    lat, size = run["latencies"], run["round_len"]
    return statistics.mean(latency_ms(lat[i:i + size], decile)
                           for i in range(0, len(lat), size))


def end_to_end(run: dict) -> dict:
    """Latency deciles, throughput over the time spent inside operations (the
    client's input generation and checks excluded) and peak RSS."""
    lat = run["latencies"]
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "latency_ms.p50": (round_latency_ms(run, 5), "ms"),
        "latency_ms.p90": (round_latency_ms(run, 9), "ms"),
        "throughput_ops_s": (len(lat) / sum(lat), "1/s"),
        "peak_rss_mb": (usage.ru_maxrss / 1024.0, "MB"),
    }


def python_start_ms() -> float:
    times = []
    for _ in range(PYTHON_START_RUNS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def crosscheck(workload, spans, bases: list) -> dict:
    """Each shipped scene, unmoved and traced once, against the seed baseline.

    Reports residual/Jacobian evaluations per solve (pinned, unmoved now,
    and the mean over the moved copies this run traced) and, for 2D scenes,
    the wall time of one ``plan`` call.
    """
    import workloads
    from inputs import make_item

    out = {}
    for base, pin in workload.ref["scenes"].items():
        tracer = tracing.Tracer()
        tracer.install()
        try:
            tracer.op = "solve"
            workloads.solve_once(make_item(base, None, pin["stated_topology"]))
            if "plan" in pin:
                tracer.op = "curves"
                workloads.curves_once(make_item(base, None))
        finally:
            tracer.uninstall()
        names = Counter(s[1] for s in tracer.spans if s[2] == "solve")
        out[base] = {
            "pinned": [pin["counts"]["residual"], pin["counts"]["jacobian"]],
            "unmoved": [names["system.residual"], names["system.jacobian"]],
        }
        plan = [s for s in tracer.spans if s[1] == "planner.plan"]
        if plan:
            out[base]["plan_ms"] = (plan[0][5] - plan[0][4]) / 1e6
    per_op = defaultdict(Counter)
    for s in spans:
        per_op[s[2]][s[1]] += 1
    moved = defaultdict(list)
    for op, names in per_op.items():
        if names["system.residual"]:
            moved[bases[op]].append((names["system.residual"], names["system.jacobian"]))
    for base, counts in moved.items():
        out[base]["moved_mean"] = [statistics.mean(c[k] for c in counts) for k in (0, 1)]
        out[base]["moved_ops"] = len(counts)
    return out


def cli_probes(args, ref: dict):
    """Trace one ``gapspline solve`` process per shipped scene.

    Returns the tracer, the number of processes and how many of them failed
    their check.
    """
    import workloads

    workdir = OUT / f"work-{os.getpid()}"
    try:
        probes = workloads.CliProbes(args.seed, ref, workdir)
        tracer = tracing.Tracer()
        failed = 0
        for i in range(len(probes.items)):
            tracer.op = i
            tracer.begin("op")
            outcome = probes.run(i, tracer)
            tracer.end()
            failed += not probes.check(i, outcome).ok
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return tracer, len(probes.items), failed


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            model = next((line.split(":", 1)[1].strip() for line in f
                          if line.startswith("model name")), model)
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def main(argv=None):
    args = parse_args(argv)
    workload, first_setup = setup(args)
    if args.setup_only:
        print(f"{first_setup:.6f}")
        return 0
    result = run(args, workload, first_setup)

    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as f:
        json.dump(result, f, separators=(",", ":"))
    print(f"machine: {json.dumps(result['machine'])}")
    print(f"samples: {result['attempted']} operations, {result['failed']} failed "
          f"(error_rate {result['failed'] / result['attempted']:.4f}), "
          f"{result['verdict_flips']} orientation-verdict flips")
    untraced = result["latencies_s"]
    print(f"latency over all {len(untraced)} untraced operations: "
          f"p50 {latency_ms(untraced, 5):.4g} ms, p90 {latency_ms(untraced, 9):.4g} ms")
    for label, (median, count) in result["latency_by_scene_ms"].items():
        print(f"latency {label}: median {median:.4g} ms over {count} operations")
    for base, row in result.get("crosscheck", {}).items():
        print(f"crosscheck {base}: residual/jacobian pinned {row['pinned']} "
              f"unmoved {row['unmoved']} moved mean {row.get('moved_mean')}; "
              f"plan {row.get('plan_ms')} ms")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


def run(args, workload, first_setup: float) -> dict:
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine()}
    if not args.trace:
        measured = measure(workload, args.seconds)
        result["latencies_s"] = measured["latencies"]
        # peak memory is read before the set-up interpreters run
        metrics = end_to_end(measured)
        metrics["setup_s"] = (setup_seconds(args, first_setup), "s")
    else:
        plain = measure(workload, args.seconds / 2)
        result["latencies_s"] = plain["latencies"]
        tracer = tracing.Tracer()
        tracer.install()
        try:
            measured = measure(workload, args.seconds / 2, tracer, stream=1)
        finally:
            tracer.uninstall()
        ops = len(measured["latencies"])
        metrics = tracing.layer_metrics(tracer.spans, tracer.counts, ops)
        probes, count, failed = cli_probes(args, workload.ref)
        probe_metrics = tracing.layer_metrics(probes.spans, probes.counts, count)
        for name in ("cli.import_ms", "cli.process_ms"):
            metrics[name] = probe_metrics[name]
        measured["failed"] += failed
        result["cli_probes"] = {"operations": count, "failed": failed, "rows": probes.spans}
        metrics["cli.python_start_ms"] = (python_start_ms(), "ms")
        metrics["solver.verdict_flips"] = (measured["flips"] / ops, "count")
        metrics["trace.overhead_ms"] = (
            round_latency_ms(measured, 5) - round_latency_ms(plain, 5), "ms")
        measured["failed"] += plain["failed"]
        measured["flips"] += plain["flips"]
        problems = tracing.check_tree(tracer.spans)
        if problems:
            raise RuntimeError(f"malformed span tree: {problems[:5]}")
        result["crosscheck"] = crosscheck(workload, tracer.spans, measured["bases"])
        measured["latencies"] += plain["latencies"]
        measured["labels"] += plain["labels"]
        result["spans"] = {"fields": tracing.SPAN_FIELDS, "rows": tracer.spans}
    attempted = len(measured["latencies"]) + result.get("cli_probes", {}).get("operations", 0)
    result.update(attempted=attempted, failed=measured["failed"],
                  verdict_flips=measured["flips"], latency_by_scene_ms=by_scene(measured),
                  metrics=metrics)
    return result


if __name__ == "__main__":
    sys.exit(main())
