"""The benchmark's workloads: seeded inputs, the fixed job list of one pass,
and the correctness gate applied to what the jobs return.

A pass is built by `make_pass(workload, seed)` outside any timed region.
Each job is a list of chunks, timed one by one; most jobs are one call, the
algebra jobs are loops cut into chunks of about 10 ms.  A run repeats the
same pass, and afterwards `Pass.check()` feeds every job's chunk results
through the gate into a `Checks` tally.
"""

import csv
import io
import json
import math
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np

from benchenv import ROOT, child_env

from ffq import ff_complex, ff_quaternionic, verify
from ffq import slice_regular as sr
from ffq.errors import INF
from ffq.ff_complex import dirichlet_norm_closed_k1
from ffq.ff_real import FFParams
from ffq.holo_series import CPowerSeries
from ffq.quaternion import Quaternion, random_frame
from ffq.slice_regular import QPowerSeries

WORKLOADS = ("norms", "kernels", "algebra", "cli")

# norms: 7 monomials + 20 random polynomials over 3 alphas x 3 sigmas x 3 k;
# at (alpha=1, k=2) every non-constant function (26 of them) is divergent
NORM_ROWS = 729
NORM_DIVERGENT = 78
DIVERGENT_CELL = (1.0, "2")

# kernels: verify's own point sets at DEFAULT_SEED + j, j < KERNEL_POOL
KERNEL_POOL = 8
KERNEL_ROWS = {"reproducing": 20, "kernel": 13, "qkernel": 4}

# algebra sizes, chosen so that each of the five jobs takes about as long
# (about 0.3 s on 2 cores) and the median job is not a boundary between
# jobs of different cost; loops run in chunks of CHUNK items
N_INVERSE = 1600
INVERSE_DEGREE = 8
INVERSE_CONDITION = 2.0
N_TWIST = 2000
N_ROUND_TRIP = 2000
N_BOUND_POLYS = 700
BOUND_PARAMS = FFParams(alpha=0.7, sigma=0.4, k=2)  # as in verify.quaternionic_bound
N_POINTWISE_SEEDS = 6
LIMIT_ROWS = 37
FACTOR_ROWS = 100
CHUNK = 50


class Checks:
    """Tally of checks and failures, plus each job's accuracy margin: the
    least log10(pinned tolerance / measured error) over the job's checks
    that measure an error."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.job_margins = {}
        self.job = None

    def add(self, ok, what, errors=()):
        """One check; errors is a sequence of (measured error, tolerance)."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        for err, tol in errors:
            if err > 0 and math.isfinite(err):
                margin = math.log10(tol / err)
                self.job_margins[self.job] = min(self.job_margins.get(self.job, margin), margin)


class Pass:
    """A fixed list of (name, chunks, check) jobs and a gate over the pass.
    check(name, chunk_results, checks) sees the job's chunk results in order;
    a job that raised has None instead."""

    def __init__(self, jobs, gate=None):
        self.jobs = jobs
        self.gate = gate

    def check(self, results, checks):
        for (name, _, check), result in zip(self.jobs, results):
            if result is not None:
                checks.job = name
                check(name, result, checks)
        checks.job = None
        if self.gate:
            self.gate(results, checks)


def late(module, name, *args, **kwargs):
    """A thunk that looks the function up when called, so a tracer
    installed after the pass was built still sees the call."""
    return lambda: getattr(module, name)(*args, **kwargs)


def one_call(name, thunk, check):
    """A job of a single chunk whose check takes the call's result."""
    return name, [thunk], lambda job, results, checks: check(job, results[0], checks)


def _chunks(fn, items):
    return [partial(fn, items[i : i + CHUNK]) for i in range(0, len(items), CHUNK)]


def _rows_of(results):
    return [row for result in results if result is not None for row in result[0][0]]


# ---------------------------------------------------------------- norms

def _k_label(k):
    return "inf" if k == INF else str(k)


def _check_norm_rows(name, result, checks):
    rows, _ = result
    for row in rows:
        what = f"{name} {row['f']} sigma={row['sigma']}"
        if row["status"] == "divergent":
            checks.add((row["alpha"], row["k"]) == DIVERGENT_CELL, what + " divergent")
        else:
            checks.add(row["status"] == "pass", what + f" rel_diff={row['rel_diff']}",
                       [(row["rel_diff"], verify.TOL_NORM_AGREEMENT)])


def _norms_gate(results, checks):
    rows = _rows_of(results)
    divergent = sum(row["status"] == "divergent" for row in rows)
    checks.add(len(rows) == NORM_ROWS, f"norms: {len(rows)} rows, want {NORM_ROWS}")
    checks.add(divergent == NORM_DIVERGENT,
               f"norms: {divergent} divergent rows, want {NORM_DIVERGENT}")


def norms_pass(seed):
    """One verify.norm_agreement call per (alpha, k) cell of the sweep."""
    functions = verify.sweep_functions(seed=seed)
    jobs = [one_call(f"a{alpha}-k{_k_label(k)}",
                     late(verify, "norm_agreement", functions=functions, alphas=(alpha,),
                          ks=(k,)),
                     _check_norm_rows)
            for alpha in verify.GRID_ALPHAS for k in verify.GRID_KS]
    return Pass(jobs, _norms_gate)


# -------------------------------------------------------------- kernels

def _check_verify_rows(expected_rows, errors_of):
    """Gate for a verify suite's (rows, ok): the row count and ok flag as
    one check, then one check per row with the errors errors_of(row) gives."""
    def check(name, result, checks):
        rows, ok = result
        checks.add(ok and len(rows) == expected_rows, f"{name}: {len(rows)} rows, ok={ok}")
        for row in rows:
            checks.add(row["status"] == "pass", f"{name} {row}", errors_of(row))
    return check


def _kernel_errors(row):
    record = row.get("record")
    if record == "q_reproduce":
        return [(row["identity1"], 10 * verify.TOL_REPRODUCE_1),
                (row["identity2"], verify.TOL_REPRODUCE_2)]
    if record == "identity2":
        return [(row["residual"], verify.TOL_REPRODUCE_2)]
    if record == "path_independence":
        return [(row["residual"], verify.TOL_PATH_INDEPENDENCE)]
    return [(row["residual"], verify.TOL_REPRODUCE_1)]


def kernels_pass(seed):
    """verify reproducing, verify kernel and qverify kernel on each point set
    of the pool, in an order drawn from the seed."""
    suites = (("reproducing", "reproducing"), ("kernel", "kernel_reproducing"),
              ("qkernel", "quaternionic_kernel"))
    jobs = []
    for j in np.random.default_rng(seed).permutation(KERNEL_POOL):
        for suite, fn in suites:
            jobs.append(one_call(f"{suite}-{j}", late(verify, fn, seed=verify.DEFAULT_SEED + int(j)),
                                 _check_verify_rows(KERNEL_ROWS[suite], _kernel_errors)))
    return Pass(jobs)


# -------------------------------------------------------------- algebra

def _rand_q(rng, scale=1.0):
    return Quaternion(*(scale * rng.standard_normal(4)))


def _ball_point(rng):
    """verify.star_suite's twist point 0.2*N(0,1)^4, redrawn until it lies in
    the open unit ball where eval_q is defined.  star_suite itself does not
    redraw and raises DomainError at some seeds (see perfbench/README.md)."""
    while True:
        q = _rand_q(rng, 0.2)
        if q.norm() < 1.0:
            return q


def _inverse_input(rng):
    """verify.star_suite's star-inverse input, redrawn until no coefficient
    exceeds INVERSE_CONDITION times the constant term.  The reciprocal series'
    rounding grows like that ratio to the 8th power; star_suite does not bound
    it and fails its own tolerance now and then (see perfbench/README.md)."""
    while True:
        f = QPowerSeries([_rand_q(rng, 0.5) + (1.0 if n == 0 else 0.0)
                          for n in range(int(rng.integers(1, 5)))])
        head = f.coeffs[0].norm()
        if all(c.norm() <= INVERSE_CONDITION * head for c in f.coeffs[1:]):
            return f


def _inverse_residuals(polys):
    out = []
    for f in polys:
        prod = sr.star_product(f, sr.star_inverse(f, INVERSE_DEGREE))
        out.append(max(abs(c - (1.0 if n == 0 else 0.0))
                       for n, c in enumerate(prod.coeffs[: INVERSE_DEGREE + 1])))
    return out


def _twist_residuals(cases):
    out = []
    for f, g, q in cases:
        fq = sr.eval_q(f, q)
        if fq.norm() < 1e-6:
            continue
        lhs = sr.eval_q(sr.star_product(f, g), q)
        rhs = fq * sr.eval_q(g, fq.inverse() * q * fq)
        out.append((lhs - rhs).norm())
    return out


def _round_trip_residuals(cases):
    return [(sr.extend_from_slice(sr.split(f, frame), q) - sr.eval_q(f, q)).norm()
            for f, frame, q in cases]


def _bound_table(state):
    state["ci"] = ff_complex.coefficient_integrals(BOUND_PARAMS, 4)


def _bound_ratios(state, cases):
    return [ff_quaternionic.slice_norm_compare(f, BOUND_PARAMS, fr1, fr2, ci=state["ci"])
            for f, fr1, fr2 in cases]


def _check_residuals(tol):
    def check(name, chunk_results, checks):
        for i, err in enumerate(e for chunk in chunk_results for e in chunk):
            checks.add(err <= tol, f"{name}[{i}] residual={err}", [(err, tol)])
    return check


def _check_bound(name, chunk_results, checks):
    for i, ratio in enumerate(r for chunk in chunk_results[1:] for r in chunk):
        checks.add(ratio <= ff_quaternionic.SLICE_BOUND + 1e-9, f"{name}[{i}] ratio={ratio}")


def _limit_errors(row):
    if row["record"] == "limit_ratio":
        worst = max(abs(row["ratio_at_0"] - 2.0), abs(row["ratio_at_1"] - 2.0))
        return [(worst, verify.TOL_LIMIT_RATIO)]
    return [(row["rel_diff"], verify.TOL_REAL_CLOSED_FORMS)]


def _check_pointwise(name, chunk_results, checks):
    check_limits = _check_verify_rows(LIMIT_ROWS, _limit_errors)
    check_factor = _check_verify_rows(
        FACTOR_ROWS, lambda row: [(row["residual"], verify.TOL_FACTOR_IDENTITY)])
    for limits, factor in zip(chunk_results[::2], chunk_results[1::2]):
        check_limits(name + ".limits", limits, checks)
        check_factor(name + ".factor", factor, checks)


def algebra_pass(seed):
    """The star_suite checks at larger sizes, the series slice-comparison
    bound of verify.quaternionic_bound without its quadrature checks, and the
    pointwise limit and integrating-factor suites on several seeds."""
    rng = np.random.default_rng(seed)
    inverses = [_inverse_input(rng) for _ in range(N_INVERSE)]
    twists = [(QPowerSeries([_rand_q(rng) for _ in range(4)]),
               QPowerSeries([_rand_q(rng) for _ in range(4)]), _ball_point(rng))
              for _ in range(N_TWIST)]
    trips = [(QPowerSeries([_rand_q(rng) for _ in range(5)]), random_frame(rng),
              _ball_point(rng)) for _ in range(N_ROUND_TRIP)]
    bounds = [(f, random_frame(rng), random_frame(rng))
              for _, f in verify.random_qpolys(N_BOUND_POLYS, max_degree=4, seed=seed + 5)]
    table = {}
    pointwise = [late(verify, suite, seed=int(s))
                 for s in rng.integers(2**31, size=N_POINTWISE_SEEDS)
                 for suite in ("operator_limits", "factor_identity")]
    jobs = [
        ("star_inverse", _chunks(_inverse_residuals, inverses),
         _check_residuals(verify.TOL_STAR_INVERSE)),
        ("twist", _chunks(_twist_residuals, twists), _check_residuals(verify.TOL_TWIST)),
        ("round_trip", _chunks(_round_trip_residuals, trips),
         _check_residuals(verify.TOL_ROUND_TRIP)),
        ("bound", [partial(_bound_table, table)] + _chunks(partial(_bound_ratios, table), bounds),
         _check_bound),
        ("pointwise", pointwise, _check_pointwise),
    ]
    return Pass(jobs)


# ------------------------------------------------------------------ cli

ANCHOR = 1.0 + math.pi / 4.0
TABLE_F = [[0, 0], [1, 0]]
TABLE_ALPHAS = [0.3, 0.7, 1.0]
TABLE_SIGMAS = [0.2, 0.5, 0.8]

# every README `ffq` line except verify/qverify, plus the divergent norm:
# (name, argv, expected exit code)
CLI_LINES = (
    ("norm_anchor", ["norm", "--f", "[[1,0]]", "--alpha", "1", "--sigma", "0.5",
                     "--k", "1"], 0),
    ("norm_closed_k1", ["norm", "--f", "[[0,0],[1,0],[0,1]]", "--alpha", "0.7",
                        "--k", "1", "--method", "closed-k1"], 0),
    ("norm_inner", ["norm", "--f", "[[0,0],[0,0],[1,0]]",
                    "--g", "[[0,0],[0,0],[0,0],[1,0]]", "--alpha", "1", "--sigma", "1",
                    "--k", "1"], 0),
    ("deriv_complex", ["deriv", "--f", "[[0,0],[0,0],[1,0]]", "--alpha", "0.5",
                       "--sigma", "0.6", "--k", "1", "--z", "[0.25,0]"], 0),
    ("deriv_real", ["deriv", "--real-f", "sin-offset", "--t", "0.9", "--alpha", "0.6",
                    "--sigma", "0.4", "--k", "2"], 0),
    ("qnorm", ["qnorm", "--f", "[[0,0,0,0],[0,0,0,1]]", "--alpha", "0.7",
               "--sigma", "0.3", "--k", "2"], 0),
    ("kernel", ["kernel", "--z", "[0.5,0.2]", "--zeta", "[0.3,0.1]", "--sigma", "0.5"], 0),
    ("table", ["table", "--f", json.dumps(TABLE_F), "--alphas", json.dumps(TABLE_ALPHAS),
               "--sigmas", json.dumps(TABLE_SIGMAS), "--ks", '[1,2,"inf"]',
               "--format", "csv", "--out", "norms.csv"], 0),
    ("norm_divergent", ["norm", "--f", "[[1,0],[1,0]]", "--alpha", "1", "--k", "2"], 4),
)


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def strict_json(text):
    return json.loads(text, parse_constant=_reject_constant)


class CliRunner:
    """Runs one `ffq` line as its own process in a scratch directory.  With
    a trace directory the line runs under cli_child.py, which writes the
    child's span summary there."""

    def __init__(self, workdir, trace_dir=None):
        self.workdir = Path(workdir)
        self.trace_dir = trace_dir
        self.env = child_env()

    def __call__(self, name, argv):
        out_file = self.workdir / "norms.csv"
        if out_file.exists():
            out_file.unlink()
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "ffq.cli", *argv]
        else:
            summary = Path(self.trace_dir) / f"{name}.json"
            cmd = [sys.executable, str(ROOT / "perfbench" / "cli_child.py"), str(summary), *argv]
        proc = subprocess.run(cmd, cwd=self.workdir, env=self.env, capture_output=True,
                              text=True, timeout=150)
        written = out_file.read_text(encoding="utf-8") if out_file.exists() else None
        return proc.returncode, proc.stdout, proc.stderr, written


def _check_table(name, text, checks):
    rows = list(csv.DictReader(io.StringIO(text)))
    want = len(TABLE_ALPHAS) * len(TABLE_SIGMAS) * 3
    checks.add(len(rows) == want, f"{name}: {len(rows)} rows, want {want}")
    f = CPowerSeries([complex(*c) for c in TABLE_F])
    for row in rows:
        alpha, sigma, k = float(row["alpha"]), float(row["sigma"]), row["k"]
        divergent = (alpha, k) == DIVERGENT_CELL
        what = f"{name} alpha={alpha} sigma={sigma} k={k} status={row['status']}"
        if divergent or row["status"] != "ok":
            checks.add(divergent and row["status"] == "divergent", what)
            continue
        value = float(row["norm_sq"])
        if not math.isfinite(value):
            checks.add(False, what + " non-finite")
        elif k == "1":
            exact = dirichlet_norm_closed_k1(f, FFParams(alpha=alpha, sigma=sigma, k=1)).norm_sq
            err = abs(value - exact) / abs(exact)
            checks.add(err <= verify.TOL_NORM_AGREEMENT, what + f" rel_err={err}",
                       [(err, verify.TOL_NORM_AGREEMENT)])


def _check_cli(expected_code):
    def check(name, result, checks):
        code, stdout, stderr, written = result
        checks.add(code == expected_code, f"{name}: exit {code}, want {expected_code}")
        try:
            if name == "table":
                checks.add(written is not None and stdout == "", f"{name}: no CSV written")
                _check_table(name, written or "", checks)
            elif code == 0:
                doc = strict_json(stdout)
                checks.add(True, name)
                if name == "norm_anchor":
                    err = abs(doc["norm_sq"] - ANCHOR)
                    checks.add(err <= verify.TOL_ANCHOR, f"{name}: |error| {err}",
                               [(err, verify.TOL_ANCHOR)])
            else:
                checks.add(isinstance(strict_json(stderr).get("error"), dict),
                           f"{name}: stderr is not an error record")
        except (ValueError, KeyError, TypeError) as exc:
            checks.add(False, f"{name}: output does not parse: {exc}")
    return check


def cli_pass(seed, runner):
    """Each line as its own process, one after another, in a seeded order."""
    order = np.random.default_rng(seed).permutation(len(CLI_LINES))
    jobs = []
    for i in order:
        name, argv, code = CLI_LINES[i]
        jobs.append(one_call(name, partial(runner, name, argv), _check_cli(code)))
    return Pass(jobs)


def make_pass(workload, seed, cli_runner=None):
    if workload == "norms":
        return norms_pass(seed)
    if workload == "kernels":
        return kernels_pass(seed)
    if workload == "algebra":
        return algebra_pass(seed)
    if workload == "cli":
        return cli_pass(seed, cli_runner)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
