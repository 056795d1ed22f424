"""The benchmark's correctness gate fails runs that do less work or return
wrong numbers, and the known star_suite sampler defect stays visible."""

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from ffq import verify  # noqa: E402
from ffq.errors import DomainError  # noqa: E402
from ffq.ff_complex import dirichlet_norm_closed_k1  # noqa: E402
from ffq.ff_real import FFParams  # noqa: E402
from ffq.holo_series import CPowerSeries  # noqa: E402

import workloads  # noqa: E402
from workloads import Checks, Pass  # noqa: E402


def _norm_rows(n_functions=27, divergent_at=workloads.DIVERGENT_CELL):
    rows = []
    for alpha in verify.GRID_ALPHAS:
        for k in ("1", "2", "inf"):
            for sigma in verify.GRID_SIGMAS:
                for i in range(n_functions):
                    row = {"f": f"f{i}", "alpha": alpha, "sigma": sigma, "k": k}
                    if (alpha, k) == divergent_at and i > 0:
                        row.update(status="divergent", rel_diff="")
                    else:
                        row.update(status="pass", rel_diff=1e-12)
                    rows.append(row)
    return rows


def _gate_norms(rows):
    checks = Checks()
    Pass([workloads.one_call("all", None, workloads._check_norm_rows)],
         workloads._norms_gate).check([[(rows, True)]], checks)
    return checks


def test_norms_gate_accepts_the_full_sweep():
    checks = _gate_norms(_norm_rows())
    assert (checks.attempted, checks.failed) == (731, 0)
    assert checks.job_margins == {"all": pytest.approx(6.0)}


def test_norms_gate_rejects_a_smaller_sweep_and_misplaced_divergence():
    assert _gate_norms(_norm_rows(n_functions=26)).failed == 2
    assert _gate_norms(_norm_rows(divergent_at=(0.7, "2"))).failed == 78


def test_failed_row_fails_the_kernel_gate():
    rows = [{"record": "q_reproduce", "identity1": 1e-9, "identity2": 2e-5, "status": "fail"}]
    checks = Checks()
    check = workloads._check_verify_rows(workloads.KERNEL_ROWS["qkernel"],
                                         workloads._kernel_errors)
    check("qkernel-0", (rows, False), checks)
    assert checks.failed == 2  # the row and the row-count/ok check


def _cli_checks(name, code, stdout="", stderr="", written=None):
    expected = {n: c for n, _, c in workloads.CLI_LINES}[name]
    checks = Checks()
    Pass([workloads.one_call(name, None, workloads._check_cli(expected))]).check(
        [[(code, stdout, stderr, written)]], checks)
    return checks


def test_cli_gate_checks_exit_codes_strict_json_and_the_anchor():
    good = json.dumps({"norm_sq": 1.0 + math.pi / 4.0})
    assert _cli_checks("norm_anchor", 0, good).failed == 0
    assert _cli_checks("norm_anchor", 3, good).failed == 2  # exit code, no error record
    assert _cli_checks("norm_anchor", 0, '{"norm_sq": NaN}').failed == 1
    assert _cli_checks("norm_anchor", 0, json.dumps({"norm_sq": 1.78})).failed == 1
    record = json.dumps({"error": {"type": "no_convergence"}})
    assert _cli_checks("norm_divergent", 4, stderr=record).failed == 0
    assert _cli_checks("norm_divergent", 0, stdout=good).failed == 1


def _table_csv(scale=1.0):
    f = CPowerSeries([0.0, 1.0])
    lines = ["alpha,sigma,k,norm_sq,point_term,field_term,method,status"]
    for alpha in workloads.TABLE_ALPHAS:
        for sigma in workloads.TABLE_SIGMAS:
            for k in ("1", "2", "inf"):
                if (alpha, k) == workloads.DIVERGENT_CELL:
                    lines.append(f"{alpha},{sigma},{k},,,,quad,divergent")
                    continue
                value = 1.0
                if k == "1":
                    value = dirichlet_norm_closed_k1(
                        f, FFParams(alpha=alpha, sigma=sigma, k=1)).norm_sq * scale
                lines.append(f"{alpha},{sigma},{k},{value!r},0,0,quad,ok")
    return "\n".join(lines) + "\n"


def test_cli_gate_checks_the_table_against_the_closed_form():
    assert _cli_checks("table", 0, written=_table_csv()).failed == 0
    assert _cli_checks("table", 0, written=_table_csv(scale=1.0 + 1e-5)).failed == 9
    assert _cli_checks("table", 0, written=None).failed == 2


@pytest.mark.xfail(raises=DomainError, strict=True,
                   reason="known defect: star_suite twist points are not bounded to |q| < 1")
def test_star_suite_twist_points_stay_in_the_ball():
    verify.star_suite(seed=252)


@pytest.mark.xfail(strict=True,
                   reason="known defect: star_suite star-inverse inputs are not kept well conditioned")
def test_star_suite_star_inverse_inputs_meet_the_pinned_tolerance():
    rows, ok = verify.star_suite(seed=551)
    assert ok, [row for row in rows if row["status"] != "pass"]
