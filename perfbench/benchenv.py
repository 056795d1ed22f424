"""Paths and the child-process environment shared by the benchmark's scripts."""

import os
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench-work"


def nproc():
    return len(os.sched_getaffinity(0))


def child_env():
    """Environment of every process the benchmark starts: the checkout's
    sources first on the path, BLAS threads capped at the core count."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc())
    return env
