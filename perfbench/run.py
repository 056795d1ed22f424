"""The ffq benchmark: one seeded workload, measured end to end or traced.

    python3 perfbench/run.py --workload {norms,kernels,algebra,cli} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout; it measures the library in `src/`.  The
workload runs in its own process (perfbench/worker.py).  With --trace 0 the
last line of output is a JSON object with the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of one traced pass.  A line before
it records the machine and the run's sample counts.
"""

import argparse
import json
import platform
import statistics
import subprocess
import sys
from time import perf_counter

from benchenv import HERE, ROOT, child_env, nproc

WORKER = HERE / "worker.py"
SETUP_PROBES = 9
TIMEOUT_S = 170.0


def spawn(args, deadline, *extra):
    """Start the worker; return (set-up seconds, its last stdout line).  Set-up
    runs from process start to the worker's `ready` line."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), *extra]
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup = perf_counter() - start
        rest, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"worker for {args.workload} timed out")
    if proc.returncode != 0 or ready.strip() != "ready":
        raise SystemExit(f"worker for {args.workload} failed with exit code {proc.returncode}")
    lines = rest.strip().splitlines()
    return setup, lines[-1] if lines else ""


def machine():
    import numpy
    return {"nproc": nproc(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas_threads": child_env()["OPENBLAS_NUM_THREADS"]}


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, deadline):
    setup, line = spawn(args, deadline)
    result = json.loads(line)
    setups = [setup] + [spawn(args, deadline, "--setup-only")[0] for _ in range(SETUP_PROBES)]
    attempted, failed = result["attempted"], result["failed"]
    info = {"failed_share": failed / attempted, "walls": result["walls"],
            "jobs": result["job_times"], "setups": setups}
    metrics = {
        "wall_s": metric(sum(result["job_times"]), "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "job_p50_s": metric(statistics.median(result["job_times"]), "s"),
        "peak_rss_mb": metric(result["peak_rss_mb"], "MB"),
        "pass_share": metric(1.0 - failed / attempted, "ratio"),
        "accuracy_margin_digits": metric(result["margin"], "digits"),
    }
    return result, info, metrics


def per_layer(args, deadline):
    from tracing import metric_unit

    _, line = spawn(args, deadline, "--trace")
    result = json.loads(line)
    metrics = {name: metric(value, metric_unit(name))
               for name, value in result["layer_metrics"].items()}
    return result, {}, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("norms", "kernels", "algebra", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "ffq" / "__init__.py").is_file():
        print(f"no ffq sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    deadline = perf_counter() + TIMEOUT_S
    result, info, metrics = (per_layer if args.trace else end_to_end)(args, deadline)
    for failure in result["failures"]:
        print(f"failed: {failure}", file=sys.stderr)
    attempted, failed = result["attempted"], result["failed"]
    print(json.dumps({"workload": args.workload, "seed": args.seed, "machine": machine(),
                      "attempted": attempted, "failed": failed, **info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
