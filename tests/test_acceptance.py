"""Acceptance suite: one test per criterion, each printing a pass/fail line
(run with `pytest -s tests/test_acceptance.py -v` to see them inline).

Criterion 1 sweeps the full parameter grid.  The cell (alpha = 1, k = 2) has
no finite norm for functions with a nonzero derivative at -1 (the measure's
order-1 factor vanishes at the boundary point -1, making the field integral
log-divergent), so those functions are simply not members of the space
there; the criterion is vacuous on them and the test instead asserts that
both computation routes diagnose the divergence.
"""

import math
import time

import numpy as np
import pytest

from ffq import (E1, E2, INF, FFParams, QPowerSeries, Quaternion,
                 SliceFrame, coefficient_integrals, eval_q,
                 extend_from_slice, random_frame, regular_conjugate,
                 representation_formula, slice_decompose, slice_norm_compare,
                 split, star_inverse, star_product)
from ffq import verify


def report(number, name, ok, detail=""):
    line = f"[acceptance] criterion {number} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" -- {detail}"
    print(line)
    return ok


def test_criterion_1_series_vs_quadrature_sweep():
    start = time.perf_counter()
    rows, ok = verify.norm_agreement()
    elapsed = time.perf_counter() - start
    finite = [r for r in rows if r["status"] == "pass"]
    divergent = [r for r in rows if r["status"] == "divergent"]
    failed = [r for r in rows if r["status"] == "fail"]
    worst = max(r["rel_diff"] for r in finite)
    detail = (f"{len(finite)} finite cells <= 1e-6 (worst {worst:.2e}), "
              f"{len(divergent)} divergent cells at (alpha=1, k=2) "
              f"diagnosed on both routes, {len(failed)} failures, "
              f"{elapsed:.1f}s (budget 120s)")
    assert report(1, "series-vs-quadrature norms", ok and elapsed <= 120.0,
                  detail)
    assert not failed
    assert worst <= 1e-6
    assert {(r["alpha"], r["k"]) for r in divergent} == {(1.0, "2")}
    assert elapsed <= 120.0


def test_criterion_2_closed_form_anchors():
    rows, ok = verify.anchors()
    detail = "; ".join(f"{r['f']}: err {r['abs_err']:.2e}" for r in rows)
    assert report(2, "closed-form anchors", ok, detail)
    for r in rows:
        assert r["abs_err"] <= 1e-9


def test_criterion_3_reproducing_identity_1():
    rows, ok = verify.reproducing(n_points=20)
    worst = max(r["residual"] for r in rows)
    assert report(3, "reproducing identity 1", ok,
                  f"20 points, worst residual {worst:.2e} (< 1e-6)")
    assert worst < 1e-6


def test_criterion_4_reproducing_identity_2_and_path_independence():
    rows, ok = verify.kernel_reproducing(n_points=10)
    ident = [r for r in rows if r["record"] == "identity2"]
    paths = [r for r in rows if r["record"] == "path_independence"]
    worst_i = max(r["residual"] for r in ident)
    worst_p = max(r["residual"] for r in paths)
    assert report(4, "path-kernel reproduction", ok,
                  f"10 points, worst residual {worst_i:.2e} (< 1e-5); "
                  f"path independence {worst_p:.2e} (< 1e-9)")
    assert worst_i < 1e-5
    assert worst_p < 1e-9


def test_criterion_5_differential_identity():
    rows, ok = verify.factor_identity()
    worst = max(r["residual"] for r in rows)
    n_c = sum(r["variant"] == "complex" for r in rows)
    n_q = sum(r["variant"] == "quaternionic-slice" for r in rows)
    assert report(5, "integrating-factor identity", ok,
                  f"{n_c} complex + {n_q} slice points, "
                  f"worst residual {worst:.2e} (< 1e-6, h = 1e-5)")
    assert worst < 1e-6


def test_criterion_6_splitting_norm_identity_and_series():
    rows_split, ok_split = verify.quaternionic_split()
    rows_series, ok_series = verify.quaternionic_series()
    worst_gap = max(r["gap"] / max(r["norm_sq"], 1.0) for r in rows_split)
    worst_rel = max(r["rel_diff"] for r in rows_series)
    assert report(6, "splitting-norm identity", ok_split and ok_series,
                  f"algebraic gap {worst_gap:.2e} (<= 1e-12); series vs "
                  f"splitting quadrature {worst_rel:.2e} (<= 1e-6)")
    assert worst_gap <= 1e-12
    assert worst_rel <= 1e-6


def test_criterion_7_slice_comparison_bound():
    rows, ok = verify.quaternionic_bound()
    checks = [r for r in rows if r["record"] == "bound_quadrature_check"]
    worst = max(abs(r["ratio"] - 1.0) for r in checks)
    max_ratio = rows[0]["ratio"]
    assert report(7, "8x slice-comparison bound", ok,
                  f"{len(checks)} random polynomials and frame pairs by quadrature, "
                  f"max |ratio - 1| {worst:.2e} (<= {verify.TOL_SLICE_RATIO:g}), "
                  f"reported max ratio {max_ratio:.12f} (bound 8)")
    assert len(checks) == 5 and worst <= verify.TOL_SLICE_RATIO
    assert max_ratio == max(r["ratio"] for r in checks) <= 8.0


def test_criterion_7_series_ratio_is_one_to_rounding():
    # sharper companion of the 8x bound: on the series route the squared
    # norm sum(P * (G P)) never reads the frame, so every ratio is exactly 1
    p = FFParams(alpha=0.7, sigma=0.4, k=2)
    ci = coefficient_integrals(p, 4)
    rng = np.random.default_rng(verify.DEFAULT_SEED)
    ratios = [slice_norm_compare(f, p, random_frame(rng), random_frame(rng), ci=ci)
              for _, f in verify.random_qpolys(200, max_degree=4,
                                               seed=verify.DEFAULT_SEED + 5)]
    assert report(7, "series slice ratio", all(r == 1.0 for r in ratios),
                  f"200 random polynomials and frame pairs, ratios "
                  f"{min(ratios)!r}..{max(ratios)!r} (== 1.0)")
    assert all(r == 1.0 for r in ratios)


def test_criterion_8_star_algebra_suite():
    rows, ok = verify.star_suite()
    by = {r["record"]: r for r in rows if r["record"] != "star_inverse"}
    worst_inv = max(r["residual"] for r in rows if r["record"] == "star_inverse")

    # representation-formula round trip on top of the split/extension one
    rng = np.random.default_rng(99)
    worst_rep = 0.0
    for _ in range(20):
        f = QPowerSeries([Quaternion(*rng.standard_normal(4))
                          for _ in range(5)])
        frame = random_frame(rng)
        q = Quaternion(*(0.2 * rng.standard_normal(4)))
        sp = slice_decompose(q)
        v = representation_formula(lambda w: eval_q(f, w), frame, sp.x, sp.y,
                                   sp.axis)
        worst_rep = max(worst_rep, (v - eval_q(f, q)).norm())
    ok = ok and worst_rep <= 1e-12
    assert report(8, "star-algebra suite", ok,
                  f"star inverse {worst_inv:.2e} (<= 1e-10, degree 8); twist "
                  f"{by['twist']['residual']:.2e} (<= 1e-11, 50 points); "
                  f"split/extension {by['split_round_trip']['residual']:.2e} "
                  f"and representation {worst_rep:.2e} round trips (<= 1e-12)")
    assert worst_inv <= 1e-10
    assert by["twist"]["residual"] <= 1e-11
    assert by["split_round_trip"]["residual"] <= 1e-12
    assert worst_rep <= 1e-12


def test_criterion_9_operator_limits():
    rows, ok = verify.operator_limits()
    ratios = [r for r in rows if r["record"] == "limit_ratio"]
    closed = [r for r in rows if r["record"] == "real_closed_form"]
    worst_r0 = max(abs(r["ratio_at_0"] - 2.0) for r in ratios)
    worst_r1 = max(abs(r["ratio_at_1"] - 2.0) for r in ratios)
    worst_c = max(r["rel_diff"] for r in closed)
    assert report(9, "operator limits", ok,
                  f"halving ratios within {max(worst_r0, worst_r1):.3f} of 2 "
                  f"(tol 0.1) at both endpoints; real-line closed forms vs "
                  f"limit quotient {worst_c:.2e} (<= 1e-6)")
    assert worst_r0 <= 0.1 and worst_r1 <= 0.1
    assert worst_c <= 1e-6


def test_criterion_10_discrepancy_record():
    rows, ok = verify.closed_k1_discrepancy()
    diag = [r for r in rows if r["record"] == "diagonal"]
    norms = [r for r in rows if r["record"] == "norm"]
    # the variant's diagonal term is short by exactly 2 pi
    ratio_err = max(abs(r["ratio_vs_variant"] - 2.0 * math.pi) for r in diag)
    variant_gap = min(r["ratio_vs_variant"] for r in norms)
    assert report(10, "closed-form discrepancy record", ok,
                  f"quadrature matches the implemented closed form and finds "
                  f"the variant's diagonal off by 2*pi "
                  f"(ratio error {ratio_err:.2e}); variant norm deviates by "
                  f">= {variant_gap:.3f} relative")
    assert ok
    assert ratio_err <= 1e-4 * 2.0 * math.pi
    assert variant_gap > 1e-3
