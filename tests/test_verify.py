import inspect

import numpy as np
import pytest

from ffq import verify

# every keyword a caller may pass; tolerances and quadrature rules are
# module constants, so no caller can loosen a pinned check
KEYWORDS = {
    "sweep_functions": ("max_degree", "n_random", "seed"),
    "random_qpolys": ("max_degree", "seed"),
    "random_slit_points": ("seed", "r_range"),
    "norm_agreement": ("functions", "alphas", "sigmas", "ks"),
    "anchors": (),
    "closed_k1_discrepancy": (),
    "reproducing": ("n_points", "seed"),
    "kernel_reproducing": ("n_points", "seed"),
    "factor_identity": ("seed",),
    "operator_limits": ("seed",),
    "star_suite": ("seed",),
    "quaternionic_split": (),
    "quaternionic_series": (),
    "quaternionic_bound": (),
    "quaternionic_kernel": ("seed", "n_points"),
    "run_suite": ("quaternionic",),
}


def _public_functions():
    return {name: fn for name, fn in vars(verify).items()
            if inspect.isfunction(fn) and fn.__module__ == verify.__name__
            and not name.startswith("_")}


def test_verify_keyword_parameters_are_pinned():
    found = {name: tuple(p.name for p in inspect.signature(fn).parameters.values()
                         if p.default is not inspect.Parameter.empty)
             for name, fn in _public_functions().items()}
    assert found == KEYWORDS


def test_no_tolerance_or_spec_can_be_passed_to_verify():
    for name, fn in _public_functions().items():
        for param in inspect.signature(fn).parameters.values():
            assert param.kind is not inspect.Parameter.VAR_KEYWORD, name
            assert param.name not in ("tol", "spec"), name
            assert not param.name.endswith(("_tol", "_spec")), name


def test_stacked_sweep_quadrature_is_the_one_series_value():
    # every stacked row keeps the value it gets alone; (1, 2) stacks only
    # the constants beside the divergent rows
    from ffq import FFParams, dirichlet_norm_quad
    functions = verify.sweep_functions()
    by_label = dict(functions)
    rows, ok = verify.norm_agreement(alphas=(0.7, 1.0), sigmas=(0.8,), ks=(2,))
    assert ok and len(rows) == 2 * len(functions)
    finite = [r for r in rows if r["status"] == "pass"]
    assert len(finite) == len(functions) + 1
    for r in finite:
        p = FFParams(alpha=r["alpha"], sigma=r["sigma"], k=int(r["k"]))
        alone = dirichlet_norm_quad(by_label[r["f"]], p, verify.DEFAULT_SPEC).norm_sq
        assert abs(r["quadrature"] - alone) <= 1e-13 * alone


def test_sweep_series_values_are_the_one_series_values_bit_for_bit():
    # one Gram matrix per (alpha, sigma, k) serves every degree of the sweep,
    # and the constants of the divergent cell, which has no table
    from ffq import FFParams, dirichlet_norm_series
    from ffq.ff_complex import _series_table
    functions = verify.sweep_functions()
    by_label = dict(functions)
    max_deg = max(f.degree for _, f in functions)
    rows, ok = verify.norm_agreement()
    assert ok and len(rows) == 27 * len(functions)
    tables, checked = {}, 0
    for r in rows:
        if r["status"] == "divergent":
            continue
        k = verify.INF if r["k"] == "inf" else int(r["k"])
        if (r["alpha"], k) not in tables:
            try:
                tables[r["alpha"], k] = _series_table(
                    FFParams(alpha=r["alpha"], sigma=0.5, k=k), max_deg, verify.DEFAULT_SPEC)
            except verify.NoConvergence:
                tables[r["alpha"], k] = None
        p = FFParams(alpha=r["alpha"], sigma=r["sigma"], k=k)
        alone = dirichlet_norm_series(by_label[r["f"]], p, tables[r["alpha"], k]).norm_sq
        assert type(r["series"]) is float
        assert np.float64(r["series"]).tobytes() == np.float64(alone).tobytes()
        checked += 1
    assert checked == 27 * len(functions) - 3 * (len(functions) - 1)


@pytest.mark.parametrize("offset", [0, 3])
def test_reproducing_rows_are_the_per_point_residuals(offset):
    # the suite integrates each (sigma, k) cell's points as one stack; each
    # row must be the residual reproduce_identity_1 gives its point alone
    from ffq import INF, CPowerSeries, FFParams, reproduce_identity_1
    seed = verify.DEFAULT_SEED + offset
    rows, ok = verify.reproducing(seed=seed)
    assert ok and len(rows) == 20
    rng = np.random.default_rng(seed)
    points = verify.random_slit_points(20, seed=seed + 1)
    combos = [(s, k) for s in (0.3, 0.5, 0.7) for k in (1, INF)]
    for idx, (z, row) in enumerate(zip(points, rows)):
        s, k = combos[idx % len(combos)]
        deg = int(rng.integers(0, 5))
        f = CPowerSeries(rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1))
        res = reproduce_identity_1(f, FFParams(alpha=1.0, sigma=s, k=k), z,
                                   verify.DEFAULT_SPEC)
        assert (row["z"], row["sigma"], row["k"], row["deg"]) == (
            str(z), s, verify._k_label(k), deg)
        assert type(row["residual"]) is float
        assert abs(row["residual"] - res) <= 1e-13
        assert row["status"] == ("pass" if res < verify.TOL_REPRODUCE_1 else "fail")


def test_kernel_and_factor_suites_fail_on_a_planted_kernel_weight(monkeypatch):
    # the kernel, the second identity's integrand and the derivative identity
    # all read _kernel_weight; a 1e-4 relative error in it must show
    from ffq import ff_complex
    weight = ff_complex._kernel_weight

    def planted(w, p):
        return weight(w, p) * (1.0 + 1e-4)

    monkeypatch.setattr(ff_complex, "_kernel_weight", planted)
    monkeypatch.setattr(verify, "_kernel_weight", planted)
    for suite in (verify.kernel_reproducing, verify.factor_identity):
        _, ok = suite()
        assert not ok


def test_discrepancy_suite_fails_on_a_planted_closed_form(monkeypatch):
    # the suite's degree-4 norm rows never read A[4, 4]; its diagonal rows must
    from ffq import ff_complex
    exact = ff_complex.exact_coefficient_integrals

    def planted(p, N):
        ci = exact(p, N)
        if N >= 4:
            ci.alpha_mn[4, 4] *= 1.0 + 1e-5
        return ci

    monkeypatch.setattr(ff_complex, "exact_coefficient_integrals", planted)
    monkeypatch.setattr(verify, "exact_coefficient_integrals", planted)
    rows, ok = verify.closed_k1_discrepancy()
    assert not ok
    assert [(row["record"], row["n"]) for row in rows
            if row["status"] == "fail"] == [("diagonal", 4)] * 2


@pytest.mark.parametrize("sign, ok", [(1.0, True), (-1.0, False)])
def test_norm_sweep_fails_on_a_sign_flip_in_the_k_inf_sinc_argument(sign, ok, monkeypatch):
    # B rebuilt from its k = inf double sum, c_j = (-1)**j / j!; sign = -1
    # flips the a j term of the sinc argument, sign = 1 is the control
    import math
    from dataclasses import replace
    from ffq import ff_complex
    from ffq.errors import INF
    exact = ff_complex.exact_coefficient_integrals

    def planted(p, N):
        j = np.arange(30)
        c = np.array([(-1.0) ** i / math.factorial(i) for i in j])
        m, n = np.arange(N + 1)[:, None, None], np.arange(N + 1)[None, :, None]
        x = p.alpha * j
        B = 2.0 * math.pi * np.sum(c * np.sinc(m + 1 - n - p.alpha + sign * x)
                                   / (n + m + 3 - p.alpha + x), axis=-1)
        return replace(exact(p, N), beta_mn=B)

    monkeypatch.setattr(ff_complex, "exact_coefficient_integrals", planted)
    _, got = verify.norm_agreement(alphas=(0.7,), ks=(INF,))
    assert got is ok


def test_norm_sweep_fails_on_a_planted_two_pi_slip(monkeypatch):
    # the angular factor 2 pi dropped from A: every non-constant row reads A
    import math
    from dataclasses import replace
    from ffq import ff_complex
    from ffq.errors import INF
    exact = ff_complex.exact_coefficient_integrals

    def planted(p, N):
        ci = exact(p, N)
        return replace(ci, alpha_mn=ci.alpha_mn / (2.0 * math.pi))

    monkeypatch.setattr(ff_complex, "exact_coefficient_integrals", planted)
    for k in (1, INF):
        rows, ok = verify.norm_agreement(alphas=(0.3,), ks=(k,))
        assert not ok
        assert {row["f"] for row in rows if row["status"] == "fail"} == {
            label for label, f in verify.sweep_functions() if f.degree > 0}
