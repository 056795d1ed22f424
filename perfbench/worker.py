"""One workload in its own process.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S [--trace] [--setup-only]

After importing ffq and building the pass's inputs it prints `ready`, so the
parent can time set-up.  It then repeats the pass until another one would
overrun the time budget (at least one pass) and prints one JSON line: for
each job the sum over its chunks of the fastest time each chunk took, the
pass wall times, the check tallies and peak resident memory.  With --trace
it runs a traced and then an untraced pass instead and reports per-layer
metrics.
"""

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402  (needs the path above)
from benchenv import WORKDIR  # noqa: E402
from workloads import Checks, make_pass  # noqa: E402


def run_pass(p):
    """Run the pass's jobs back to back, timing every chunk, then check the
    results.  Returns the chunk times of each job and the pass's checks."""
    checks = Checks()
    results, times = [], []
    for name, chunks, _ in p.jobs:
        out, spent = [], []
        try:
            for chunk in chunks:
                t0 = perf_counter()
                out.append(chunk())
                spent.append(perf_counter() - t0)
        except Exception as exc:  # a raising job is one failed check
            traceback.print_exc()
            out = None
            checks.add(False, f"{name}: raised {type(exc).__name__}: {exc}")
        results.append(out)
        times.append(spent)
    p.check(results, checks)
    return times, checks


def _wall(times):
    return sum(map(sum, times))


def _peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def measure(args, p):
    """Repeat the pass within the budget.  Interference from other work on
    the host only ever slows a chunk, so each chunk counts at its fastest."""
    walls, tallies, best = [], [], None
    start = perf_counter()
    while True:
        times, checks = run_pass(p)
        walls.append(_wall(times))
        tallies.append(checks)
        best = times if best is None else [[min(a, b) for a, b in zip(x, y)]
                                           for x, y in zip(best, times)]
        if perf_counter() - start + statistics.median(walls) > args.seconds:
            break
    margins = [m for c in tallies for m in c.job_margins.values()]
    return {"job_times": [sum(t) for t in best], "walls": walls, **_tally(tallies),
            "margin": statistics.median(margins) if margins else None,
            "peak_rss_mb": _peak_rss_mb(args.workload)}


def _tally(tallies):
    return {"attempted": sum(c.attempted for c in tallies),
            "failed": sum(c.failed for c in tallies),
            "failures": [f for c in tallies for f in c.failures][:20]}


def traced(args, p, workdir):
    """A traced pass, then an untraced one that gives the CLI lines' wall
    times and the base of the tracing overhead."""
    from tracing import Tracer, layer_metrics, merge

    if args.workload == "cli":
        trace_dir = workdir / "trace"
        trace_dir.mkdir()
        traced_times, traced_checks = run_pass(
            make_pass(args.workload, args.seed, workloads.CliRunner(workdir, trace_dir)))
        children = [json.loads(f.read_text()) for f in sorted(trace_dir.glob("*.json"))]
        summary = merge(c["summary"] for c in children)
        import_s = statistics.median(c["import_s"] for c in children) if children else 0.0
    else:
        with Tracer() as tracer:
            traced_times, traced_checks = run_pass(p)
        tracer.dump(WORKDIR / f"spans-{args.workload}.json")
        summary = tracer.summary()
        import_s = 0.0
    times, checks = run_pass(p)
    metrics = layer_metrics(summary)
    metrics["cli.import_s"] = import_s
    metrics["cli.main.self_s"] = summary.get("cli.main", {}).get("self_s", 0.0)
    cli_walls = {name: sum(t) for (name, _, _), t in zip(p.jobs, times)}
    for name, _, _ in workloads.CLI_LINES:
        metrics[f"cli.job.{name}.wall_s"] = cli_walls.get(name, 0.0)
    metrics["trace.overhead_share"] = _wall(traced_times) / _wall(times) - 1.0
    return {"layer_metrics": metrics, **_tally([traced_checks, checks])}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    WORKDIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORKDIR))
    try:
        runner = workloads.CliRunner(workdir) if args.workload == "cli" else None
        p = make_pass(args.workload, args.seed, runner)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        result = traced(args, p, workdir) if args.trace else measure(args, p)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
