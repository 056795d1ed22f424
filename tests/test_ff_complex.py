import contextlib
import math
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ffq import (CPowerSeries, FFParams, INF, BranchError, DegreeMismatch,
                 DivergentIntegral, DomainError, NoConvergence, QuadratureSpec,
                 bergman_kernel, coefficient_integrals, dirichlet_norm,
                 dirichlet_norm_quad, dirichlet_norms_quad,
                 dirichlet_norm_series, exact_coefficient_integrals, ff_eval_c,
                 ff_eval_stack, inner_product_c, integrating_factor_residual, kernel_K_half,
                 reproduce_identity_1, reproduce_identity_2, integrate_disk,
                 reproduction_rhs_1_stack, reproduction_rhs_2_stack)
from ffq import ff_complex, holo_series, quadrature
from ffq.holo_series import fractal_measure_c, fractal_measure_deriv_c, in_slit_disk
from ffq.quadrature import _composite, _path_rule, build_slit_path
from ffq.verify import DIVERGENCE_SPEC, GRID_ALPHAS, NESTED_SPEC


@pytest.fixture(scope="module")
def spec():
    return QuadratureSpec()


def test_ff_eval_examples():
    p = FFParams(alpha=0.7, sigma=0.3, k=2)
    c = 2.0 - 1.0j
    assert abs(ff_eval_c(CPowerSeries([c]), p, 0.4j) - (1 - 0.3) * c) < 1e-15

    p = FFParams(alpha=1.0, sigma=0.25, k=1)
    z = 0.3 + 0.2j
    got = ff_eval_c(CPowerSeries([0, 1]), p, z)
    assert abs(got - ((1 - 0.25) * z + 0.25)) < 1e-15

    # hand substitution: f = z^2, alpha = 1/2, k = 1 at z = 1/4 gives
    # (1 - s)/16 + s/2 since alpha z^(alpha-1) = 1 there
    p = FFParams(alpha=0.5, sigma=0.6, k=1)
    got = ff_eval_c(CPowerSeries([0, 0, 1]), p, 0.25)
    assert abs(got - ((1 - 0.6) / 16.0 + 0.6 / 2.0)) < 1e-15


def test_ff_eval_domain_checks():
    p = FFParams(alpha=0.5, sigma=0.5, k=1)
    with pytest.raises(BranchError):
        ff_eval_c(CPowerSeries([1]), p, -0.5)
    with pytest.raises(DomainError):
        ff_eval_c(CPowerSeries([1]), FFParams(alpha=0.5, sigma=0.5, k=0), 0.3)


@pytest.mark.parametrize("sigma", [0.0, 0.5])
def test_ff_eval_rejects_points_off_the_slit_disk(sigma):
    p = FFParams(alpha=0.5, sigma=sigma, k=1)
    for z in (-0.5, 0.0, 1.2, np.array([0.3, -0.25])):
        with pytest.raises(BranchError, match="evaluation point outside the slit unit disk"):
            ff_eval_c(CPowerSeries([1.0, 0.5]), p, z)


def _spy_slit_checks(monkeypatch):
    """The sizes of the arrays in_slit_disk checks, in ff_complex and in
    holo_series (fractal_measure_deriv_c)."""
    checked = []

    def spy_check(z):
        checked.append(np.size(z))
        return in_slit_disk(z)

    monkeypatch.setattr(holo_series, "in_slit_disk", spy_check)
    monkeypatch.setattr(ff_complex, "in_slit_disk", spy_check)
    return checked


def test_rule_blocks_are_never_rechecked_for_the_slit_disk(monkeypatch):
    # the rule puts its nodes in the slit disk, at sigma = 0 and sigma > 0
    # alike; the point checks of reproduction_rhs_1_stack see one point per
    # series, so no check may see more
    checked, blocks = _spy_slit_checks(monkeypatch), []

    def spy_rows(fs, p, sigmas, zz):
        blocks.append(zz.size)
        return stack_rows(fs, p, sigmas, zz)

    stack_rows = ff_complex._stack_rows
    monkeypatch.setattr(ff_complex, "_stack_rows", spy_rows)
    fs = [CPowerSeries([1.0, 0.5]), CPowerSeries([0.0, 0.0, 1.0])]
    p = FFParams(alpha=0.7, sigma=0.5, k=2)
    for sigmas in ((0.0,), (0.0, 0.5)):
        dirichlet_norms_quad(fs, p, sigmas=sigmas)
    reproduction_rhs_1_stack(fs, p, [0.3 + 0.2j, 0.5j])
    assert len(blocks) > 3
    assert checked and max(checked) <= len(fs)


@pytest.mark.parametrize("sigma", [0.0, 0.5])
def test_a_non_rule_array_is_checked_for_the_slit_disk_once(sigma, monkeypatch):
    # a user's array, and a copy of a rule block inside an integrand, are
    # checked once per call: by fractal_measure_deriv_c or by _stack_rows
    checked = _spy_slit_checks(monkeypatch)
    fs = [CPowerSeries([1.0, 0.5]), CPowerSeries([0.0, 0.0, 1.0])]
    p = FFParams(alpha=0.7, sigma=sigma, k=2)
    z = 0.6 * np.exp(1j * np.linspace(-3.0, 3.0, 100))
    ff_eval_stack(fs, p, z)
    assert checked == [100]
    checked.clear()
    sizes = []

    def copied(zeta):
        sizes.append(zeta.size)
        return ff_eval_stack(fs, p, zeta.copy())

    integrate_disk(copied, NESTED_SPEC)
    assert checked == sizes


def test_ff_eval_fractional_beta():
    # with f = const c, beta < 1: (1-s) c + s * 0 since f' = 0
    p = FFParams(alpha=0.5, sigma=0.4, k=1, beta=0.5)
    assert abs(ff_eval_c(CPowerSeries([4.0]), p, 0.3) - 0.6 * 4.0) < 1e-14
    # oracle: chain rule beta f^(beta-1) f' with alpha z^(alpha-1) = 1
    got = ff_eval_c(CPowerSeries([0.0, 0.0, 1.0]), p, 0.25)
    expected = 0.6 * 0.0625 + 0.4 * 0.5 * 0.0625 ** (-0.5) * 0.5
    assert abs(got - expected) < 1e-14
    # f vanishing at the evaluation point is rejected
    with pytest.raises(DomainError):
        ff_eval_c(CPowerSeries([-0.5, 1.0]), p, 0.5)
    # values on the negative real axis have no principal power
    with pytest.raises(BranchError):
        ff_eval_c(CPowerSeries([-2.0, 1.0]), p, 0.5)


def test_norm_anchors(spec):
    assert dirichlet_norm_quad(CPowerSeries([0.0]),
                               FFParams(alpha=0.5, sigma=0.5, k=1)).norm_sq == 0.0
    v = dirichlet_norm_quad(CPowerSeries([1.0]),
                            FFParams(alpha=1.0, sigma=0.5, k=1), spec)
    assert abs(v.norm_sq - (1.0 + math.pi / 4.0)) <= 1e-9
    assert v.norm_sq == v.point_term + v.field_term
    v = dirichlet_norm_quad(CPowerSeries([0.0, 1.0]),
                            FFParams(alpha=1.0, sigma=1.0, k=1), spec)
    assert abs(v.norm_sq - (0.25 + math.pi)) <= 1e-9


def _mp_norm(mpmath, f, p):
    """alpha |f(1/2)|**2 + int |Df|**2 over the slit disk in mpmath
    arithmetic: Df from the coefficients of f (beta = 1, finite k), the area
    integral by tanh-sinh in (r, theta)."""
    a = [mpmath.mpc(c.real, c.imag) for c in f.coeffs]
    da = [n * a[n] for n in range(1, len(a))] or [mpmath.mpc(0)]

    def D(z):
        w = mpmath.power(z, p.alpha)
        den = p.alpha * w / z * sum(w ** n / mpmath.factorial(n) for n in range(p.k))
        return (1 - p.sigma) * mpmath.polyval(a[::-1], z) + p.sigma * mpmath.polyval(da[::-1], z) / den

    field = mpmath.quad(lambda r, t: abs(D(r * mpmath.expj(t))) ** 2 * r,
                        [0, 1], [-mpmath.pi, mpmath.pi], method="tanh-sinh")
    return p.alpha * abs(mpmath.polyval(a[::-1], mpmath.mpf(1) / 2)) ** 2 + field


def test_norm_anchors_against_an_mpmath_oracle():
    mpmath = pytest.importorskip("mpmath")
    from ffq.verify import DEFAULT_SPEC, TOL_ANCHOR
    with mpmath.workdps(30):
        cases = [(CPowerSeries([1.0]), FFParams(alpha=1.0, sigma=0.5, k=1),
                  1 + mpmath.pi / 4),
                 (CPowerSeries([0.0, 1.0]), FFParams(alpha=1.0, sigma=1.0, k=1),
                  mpmath.mpf(1) / 4 + mpmath.pi)]
        for f, p, exact in cases:
            oracle = _mp_norm(mpmath, f, p)
            assert abs(oracle - exact) <= mpmath.mpf("1e-25")
            got = dirichlet_norm_quad(f, p, DEFAULT_SPEC).norm_sq
            assert abs(got - float(oracle)) <= TOL_ANCHOR


def test_inner_product(spec, rng):
    p = FFParams(alpha=1.0, sigma=1.0, k=1)
    got = inner_product_c(CPowerSeries([0, 0, 1]), CPowerSeries([0, 0, 0, 1]),
                          p, spec)
    # field term vanishes by angular orthogonality; point term (1/2)^2 (1/2)^3
    assert abs(got - (0.5 ** 5)) < 1e-10

    p = FFParams(alpha=0.7, sigma=0.4, k=INF)
    for _ in range(3):
        f = CPowerSeries(rng.standard_normal(4) + 1j * rng.standard_normal(4))
        g = CPowerSeries(rng.standard_normal(4) + 1j * rng.standard_normal(4))
        fg = inner_product_c(f, g, p, spec)
        gf = inner_product_c(g, f, p, spec)
        assert abs(fg - np.conj(gf)) <= 1e-10
        nf = dirichlet_norm_quad(f, p, spec).norm_sq
        assert abs(inner_product_c(f, f, p, spec) - nf) <= 1e-10 * max(nf, 1.0)


def test_parallelogram_law(spec, rng):
    p = FFParams(alpha=0.7, sigma=0.5, k=1)
    f = CPowerSeries(rng.standard_normal(4) + 1j * rng.standard_normal(4))
    g = CPowerSeries(rng.standard_normal(4) + 1j * rng.standard_normal(4))
    ns = lambda h: dirichlet_norm_quad(h, p, spec).norm_sq
    lhs = ns(f + g) + ns(f - g)
    rhs = 2.0 * ns(f) + 2.0 * ns(g)
    assert abs(lhs - rhs) <= 1e-9 * max(rhs, 1.0)


def test_coefficient_integrals_k1_closed_forms(spec):
    p = FFParams(alpha=0.4, sigma=0.5, k=1)
    ci = coefficient_integrals(p, 4, spec)
    for n in range(5):
        expected = 2.0 * math.pi / (2 * n + 4 - 2 * 0.4)
        assert abs(ci.alpha_mn[n, n] - expected) <= 1e-9 * expected
        for m in range(5):
            if m != n:
                assert abs(ci.alpha_mn[m, n]) <= 1e-9
            # oracle: analytic theta integral over (-pi, pi)
            c = m + 1 - n - 0.4
            expected_b = 2.0 * math.sin(math.pi * c) / c / (n + m + 3 - 0.4)
            assert abs(ci.beta_mn[m, n] - expected_b) <= 1e-8


def test_coefficient_integrals_conjugate_symmetry(spec):
    for p in (FFParams(alpha=0.6, sigma=0.5, k=2),
              FFParams(alpha=0.9, sigma=0.5, k=INF)):
        ci = coefficient_integrals(p, 3, spec)
        assert np.max(np.abs(ci.alpha_mn - ci.alpha_mn.conj().T)) <= 1e-10


def _closed_k1_reference(alpha, N):
    """The k = 1 tables in the expression order of the closed form that
    exact_coefficient_integrals keeps."""
    m = np.arange(N + 1)[:, None]
    n = np.arange(N + 1)[None, :]
    A = np.where(m == n, 2.0 * math.pi / (n + m + 4.0 - 2.0 * alpha), 0.0)
    c = m + 1.0 - n - alpha
    B = 2.0 * math.pi * np.sinc(c) / (n + m + 3.0 - alpha)
    return A, B


@pytest.mark.parametrize("alpha", GRID_ALPHAS + (0.55,))
def test_k1_exact_tables_are_the_closed_form_bit_for_bit(alpha, no_quadrature):
    p = FFParams(alpha=alpha, sigma=0.5, k=1)
    for N in (0, 4):
        ci = exact_coefficient_integrals(p, N)
        A, B = _closed_k1_reference(alpha, N)
        assert ci.alpha_mn.tobytes() == A.tobytes()
        assert ci.beta_mn.tobytes() == B.tobytes()
        assert ci.error == 0.0 and ci.params == p


@pytest.mark.parametrize("alpha", GRID_ALPHAS)
@pytest.mark.parametrize("k", [1, 3, 4, INF])
def test_exact_tables_match_the_quadrature_tables(alpha, k, spec):
    # at k = 1 the exact tables are the closed form, which the quadrature
    # tables meet far inside TOL_CLOSED_K1 = 1e-6: the graded first panel
    # integrates the origin's non-integer r-powers to rounding
    tol = 1e-13 if k == 1 else 1e-12
    p = FFParams(alpha=alpha, sigma=0.5, k=k)
    exact = exact_coefficient_integrals(p, 6)
    quad = coefficient_integrals(p, 6, spec)
    for got, want in ((exact.alpha_mn, quad.alpha_mn), (exact.beta_mn, quad.beta_mn)):
        assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))
    assert exact.error <= 1e-14


def test_exact_tables_exist_for_every_k_but_2(no_quadrature):
    for alpha in GRID_ALPHAS:
        assert exact_coefficient_integrals(FFParams(alpha=alpha, sigma=0.5, k=2), 4) is None
    # e_{k-1} and exp share their first k terms, so a huge k sums the k = inf
    # coefficients under the k = inf bound
    inf = exact_coefficient_integrals(FFParams(alpha=0.7, sigma=0.5, k=INF), 4)
    huge = exact_coefficient_integrals(FFParams(alpha=0.7, sigma=0.5, k=10 ** 400), 4)
    assert huge.alpha_mn.tobytes() == inf.alpha_mn.tobytes()
    assert huge.beta_mn.tobytes() == inf.beta_mn.tobytes()


@pytest.mark.parametrize("alpha, k", [(0.3, 3), (0.7, 4), (0.7, INF)])
def test_exact_table_is_the_mpmath_sum_of_its_float_coefficients(alpha, k, no_quadrature):
    # the terms of A cancel (at (0.3, 3) their moduli sum to 24 A_00), so the
    # order of the float sum sets its last digits; the oracle sums the same
    # float c_j in 30 digits, dropping the c_j past the first Jr, whose
    # moduli sum below 1e-20 and move no entry by 1e-19
    mpmath = pytest.importorskip("mpmath")
    c, _ = ff_complex._reciprocal_measure_coeffs(k)
    Jr = int(np.sum(np.cumsum(np.abs(c)[::-1])[::-1] >= 1e-20))
    A = exact_coefficient_integrals(FFParams(alpha=alpha, sigma=0.5, k=k), 6).alpha_mn
    with mpmath.workdps(30):
        a = mpmath.mpf(alpha)
        cm = [mpmath.mpf(x) for x in c[:Jr]]
        for m, n in ((0, 0), (0, 1), (2, 5), (6, 6)):
            sinc = [mpmath.sincpi(n - m + a * d) for d in range(1 - Jr, Jr)]
            den = [1 / (n + m + 4 - 2 * a + a * s) for s in range(2 * Jr - 1)]
            want = 2 * mpmath.pi * mpmath.fsum(cm[j] * cm[l] * sinc[j - l + Jr - 1] * den[j + l]
                                               for j in range(Jr) for l in range(Jr))
            assert abs(A[m, n] - want) <= 4e-15 * A[0, 0]


@pytest.mark.parametrize("k", [3, 4, 5, 8, INF])
def test_exact_table_meets_the_sum_over_the_dense_pair_matrix(k, no_quadrature):
    # the sum as it was first written: every pair (j, l) scattered into a
    # dense (2J - 1)**2 matrix P[j + l, j - l + J - 1], one product with the
    # sinc row of every (m, n).  The parity split sums the same terms, in
    # another order; J is odd at k = 3 and inf, even at k = 4
    c, _ = ff_complex._reciprocal_measure_coeffs(k)
    J, N = len(c), 6
    j = np.arange(J)
    m = np.arange(N + 1)[:, None]
    n = np.arange(N + 1)[None, :]
    P = np.zeros((2 * J - 1, 2 * J - 1))
    P[j[:, None] + j, j[:, None] - j + J - 1] = np.outer(c, c)
    for alpha in GRID_ALPHAS + (0.02, 0.55):
        s = alpha * np.arange(2 * J - 1)
        angular = np.sinc((n - m).reshape(-1, 1) + alpha * np.arange(1 - J, J))
        terms = ((angular @ P.T).reshape(N + 1, N + 1, -1)
                 / ((n + m)[..., None] + 4.0 - 2.0 * alpha + s))
        want = 2.0 * math.pi * np.cumsum(terms[..., ::-1], axis=-1)[..., -1]
        got = exact_coefficient_integrals(FFParams(alpha=alpha, sigma=0.5, k=k), N).alpha_mn
        assert np.max(np.abs(got - want)) <= 2e-15 * want[0, 0]


@pytest.mark.parametrize("k", [3, 4, 5, 8, INF])
def test_reciprocal_coefficients_meet_their_tail_bound(k):
    c, tail = ff_complex._reciprocal_measure_coeffs(k)
    J = len(c)
    assert tail <= 1e-16
    j = np.arange(J)
    if k == INF:
        want = np.array([(-1.0) ** i / math.factorial(i) for i in j])
        dropped = math.fsum(1.0 / math.factorial(i) for i in range(J, J + 40))
    else:
        # residues: c_j = (k-1)! sum_i zeta_i**-(j+k) over the zeros of e_{k-1},
        # so the dropped tail is at most (k-1)! sum_i |zeta_i|**-(J+k) / (1 - 1/|zeta_i|)
        zeros = np.roots([1.0 / math.factorial(i) for i in range(k - 1, -1, -1)])
        scale = math.factorial(k - 1)
        want = scale * np.sum(zeros[:, None] ** -(j + k), axis=0).real
        rho = np.abs(zeros)
        dropped = scale * float(np.sum(rho ** -(J + k) / (1.0 - 1.0 / rho)))
    assert np.allclose(c, want, rtol=1e-9, atol=1e-15)
    assert dropped <= tail


def test_series_norm_examples(spec):
    p = FFParams(alpha=0.8, sigma=0.35, k=1)
    ci = coefficient_integrals(p, 1, spec)
    v = dirichlet_norm_series(CPowerSeries([1.0]), p, ci)
    assert abs(v.norm_sq - (0.8 + (1 - 0.35) ** 2 * math.pi)) <= 1e-10

    p = FFParams(alpha=1.0, sigma=1.0, k=1)
    ci = coefficient_integrals(p, 1, spec)
    v = dirichlet_norm_series(CPowerSeries([0.0, 1.0]), p, ci)
    assert abs(v.norm_sq - (0.25 + math.pi)) <= 1e-9


def test_series_norm_matches_quadrature_on_random_poly(spec, rng):
    f = CPowerSeries(rng.standard_normal(6) + 1j * rng.standard_normal(6))
    p = FFParams(alpha=0.55, sigma=0.65, k=2)
    ci = coefficient_integrals(p, 5, spec)
    ns = dirichlet_norm_series(f, p, ci).norm_sq
    nq = dirichlet_norm_quad(f, p, spec).norm_sq
    assert abs(ns - nq) <= 1e-6 * nq


def test_series_norm_guards(spec):
    p = FFParams(alpha=0.5, sigma=0.5, k=1)
    ci = coefficient_integrals(p, 2, spec)
    from ffq import DegreeMismatch
    with pytest.raises(DegreeMismatch):
        dirichlet_norm_series(CPowerSeries([0, 0, 0, 1]), p, ci)
    with pytest.raises(DomainError):
        dirichlet_norm_series(CPowerSeries([1]),
                              FFParams(alpha=0.6, sigma=0.5, k=1), ci)


def test_closed_k1(spec, rng):
    p = FFParams(alpha=0.5, sigma=0.5, k=1)
    f = CPowerSeries(rng.standard_normal(3) + 1j * rng.standard_normal(3))
    nc = dirichlet_norm(f, p, method="closed-k1").norm_sq
    nq = dirichlet_norm_quad(f, p, spec).norm_sq
    assert abs(nc - nq) <= 1e-8 * nq
    with pytest.raises(DomainError):
        dirichlet_norm(f, FFParams(alpha=0.5, sigma=0.5, k=2), method="closed-k1")


def test_closed_k1_is_the_series_route_bit_for_bit(rng):
    for _ in range(300):
        p = FFParams(alpha=rng.uniform(0.02, 1.0), sigma=rng.uniform(0.0, 1.0), k=1)
        n = rng.integers(0, 9)
        f = CPowerSeries(rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1))
        closed = dirichlet_norm(f, p, method="closed-k1")
        assert closed.method == "closed-k1"
        assert replace(closed, method="series") == dirichlet_norm(f, p, method="series")


@pytest.mark.parametrize("alpha, k", [(1.0, 2), (0.5, 2), (0.7, 3), (1.0, INF)])
@pytest.mark.parametrize("coeffs", [[1.0], [0.0, 2.0, 1.0]])
def test_closed_k1_refuses_k_other_than_1_before_any_table(alpha, k, coeffs, no_quadrature,
                                                            monkeypatch):
    # [0, 2, 1] has f'(-1) = 0, so its norm is finite at (1, 2) too, where
    # the series route would refuse for want of a table
    def refuse(*args):
        raise AssertionError("a table was built")
    monkeypatch.setattr(ff_complex, "exact_coefficient_integrals", refuse)
    with pytest.raises(DomainError, match="^closed form available only for k = 1: "
                                          "use method series or quad$"):
        dirichlet_norm(CPowerSeries(coeffs), FFParams(alpha=alpha, sigma=0.5, k=k),
                       method="closed-k1")


def test_series_norm_of_a_constant_needs_no_table(no_quadrature):
    # a constant belongs to every member, (1, 2) included: the degree-0
    # block of G reads no table entry
    p = FFParams(alpha=1.0, sigma=0.5, k=2)
    v = dirichlet_norm(CPowerSeries([1.0]), p, method="series")
    assert abs(v.norm_sq - (1.0 + math.pi / 4.0)) <= 1e-12 * (1.0 + math.pi / 4.0)
    assert v.method == "series"
    assert dirichlet_norm_series(CPowerSeries([1.0]), p, None) == v
    with pytest.raises(DegreeMismatch):
        dirichlet_norm_series(CPowerSeries([1.0, 1.0]), p, None)


def test_series_norm_rejects_beta_below_one_before_any_table(no_quadrature):
    # at (1, 2) too, where a table would have been refused as divergent
    for alpha in (0.7, 1.0):
        p = FFParams(alpha=alpha, sigma=0.5, k=2, beta=0.5)
        for coeffs in ([1.0], [0.0, 1.0]):
            with pytest.raises(DomainError, match="beta = 1"):
                dirichlet_norm(CPowerSeries(coeffs), p, method="series")


def test_dirichlet_norm_dispatch(spec):
    p = FFParams(alpha=0.6, sigma=0.3, k=1)
    f = CPowerSeries([0.0, 1.0, 0.5 + 0.5j])
    ci = exact_coefficient_integrals(p, 2)
    assert dirichlet_norm(f, p, spec) == dirichlet_norm_quad(f, p, spec)
    assert (dirichlet_norm(f, p, spec, "series")
            == dirichlet_norm_series(f, p, ci))
    assert (dirichlet_norm(f, p, method="closed-k1")
            == ff_complex.dirichlet_norm_closed_k1(f, p))
    with pytest.raises(ValueError):
        dirichlet_norm(f, p, spec, "closed")


def test_bergman_kernel_reproduces_monomials(spec):
    assert abs(bergman_kernel(0.3 + 0.1j, 0.0) - 1.0 / math.pi) < 1e-15
    assert abs(bergman_kernel(0.0, 0.5j) - 1.0 / math.pi) < 1e-15
    z = 0.35 - 0.2j
    for n in range(5):
        got = integrate_disk(lambda zeta: bergman_kernel(z, zeta) * zeta ** n,
                             spec).value
        assert abs(got - z ** n) <= 1e-8


def test_reproduce_identity_1(spec):
    # constants reproduce for every parameter choice
    for alpha, k in ((0.4, 1), (0.8, INF), (1.0, 2)):
        p = FFParams(alpha=alpha, sigma=0.45, k=k)
        assert reproduce_identity_1(CPowerSeries([2.0 - 1.0j]), p,
                                    -0.2 + 0.5j, spec) <= 1e-9
    p = FFParams(alpha=1.0, sigma=0.5, k=1)
    res = reproduce_identity_1(CPowerSeries([0, 0, 1]), p, 0.3 + 0.2j, spec)
    assert res < 1e-7


def test_reproduce_identity_fails_off_hypothesis(spec):
    # alpha < 1 puts Df outside the disk Bergman space (branch cut on the
    # slit); the oracle must catch it by a conclusively large residual
    p = FFParams(alpha=0.6, sigma=0.7, k=INF)
    res = reproduce_identity_1(CPowerSeries([1.0, 1.0]), p, 0.5j, spec)
    assert res > 0.1
    p = FFParams(alpha=0.8, sigma=0.6, k=1)
    res = reproduce_identity_2(CPowerSeries([0, 0, 1]), p,
                               0.4 * np.exp(1j * math.pi / 3), spec)
    assert res > 1e-3


def test_kernel_K_half(spec):
    p = FFParams(alpha=1.0, sigma=0.5, k=1)
    assert kernel_K_half(0.5, 0.3 + 0.1j, p, spec) == 0.0  # empty path

    # continuity toward sigma = 1: the exponential weights flatten out
    z, zeta = 0.5j, 0.3 + 0.1j
    values = [kernel_K_half(z, zeta, FFParams(alpha=1.0, sigma=s, k=1), spec)
              for s in (0.999, 0.9999)]
    assert abs(values[0] - values[1]) < 5e-4 * max(abs(values[1]), 1.0)

    def bare(w):
        return fractal_measure_deriv_c(w, 1.0, 1) * bergman_kernel(w, zeta)

    from ffq import build_slit_path, path_integral
    limit = path_integral(bare, build_slit_path(z), spec).value
    assert abs(values[1] - limit) < 1e-3 * max(abs(limit), 1.0)


# z across the disk, out to |z| = 0.97, where the path rule's coarse levels
# need more series terms than the dense product costs
MOMENT_POINTS = (0.5 + 0.3j, 0.85j, 0.95 * np.exp(2.5j), 0.97)


def _zeta_grid():
    """Zetas on rings out to the last Gauss ring of NESTED_SPEC's finest
    level, the largest |zeta| its disk rule evaluates the kernel at."""
    rn, _ = _composite(0.0, 1.0, NESTED_SPEC.panels_r << NESTED_SPEC.max_refine,
                       NESTED_SPEC.nr)
    r = np.append(np.linspace(0.0, 0.99, 20), rn[-1])
    t = np.linspace(-math.pi, math.pi, 32, endpoint=False) + 0.01
    return (r[:, None] * np.exp(1j * t)[None, :]).ravel()


def test_moment_form_matches_dense_path_sum():
    zt = _zeta_grid()
    p = FFParams(alpha=1.0, sigma=0.5, k=1)
    for z in MOMENT_POINTS:
        path = build_slit_path(z)
        for level in range(NESTED_SPEC.max_refine + 1):
            wn, cw = _path_rule(path, NESTED_SPEC, level)
            wt = cw * ff_complex._kernel_weight(wn, p)
            N = ff_complex._moment_order(np.max(np.abs(wn)) * np.max(np.abs(zt)))
            dense = ff_complex._dense_path_sum(wn, wt, zt)
            moment = ff_complex._moment_path_sum(ff_complex._path_moments(wn, wt, N), zt)
            assert np.max(np.abs(moment - dense)) <= 1e-13 * np.max(np.abs(dense))


def _plain_moment_path_sum(wn, wt, zt, N):
    """Reference: one moment per degree, then Horner in conj(zeta)."""
    c = np.array([np.sum(wt * wn ** n) for n in range(N + 1)])
    c *= np.arange(1.0, N + 2) / math.pi
    out = np.full(zt.shape, c[N])
    for n in range(N - 1, -1, -1):
        out = out * np.conj(zt) + c[n]
    return out


@pytest.mark.parametrize("N", [0, 15, 16, 17, 264])
def test_blocked_moment_sum_matches_the_plain_series(N):
    rng = np.random.default_rng(N)
    p = FFParams(alpha=1.0, sigma=0.5, k=1)
    wn, cw = _path_rule(build_slit_path(0.85j), NESTED_SPEC, 1)
    wt = cw * ff_complex._kernel_weight(wn, p)
    n = quadrature._BLOCK_NODES + 77  # a full chunk and a short one
    zetas = 0.9 * np.sqrt(rng.random(n)) * np.exp(1j * rng.uniform(-math.pi, math.pi, n))
    for zt in (zetas, zetas[:1]):
        want = _plain_moment_path_sum(wn, wt, zt, N)
        got = ff_complex._moment_path_sum(ff_complex._path_moments(wn, wt, N), zt)
        assert got.shape == zt.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_moment_order_meets_the_tail_bound():
    for rho in (0.0, 0.3, 0.85, 0.97, 0.99999):
        N = ff_complex._moment_order(rho)
        assert (N + 2) * rho ** (N + 1) / (1.0 - rho) ** 2 <= 1e-16
        if N > 0:
            assert (N + 1) * rho ** N / (1.0 - rho) ** 2 > 1e-16
    assert ff_complex._moment_order(1.0) == math.inf


def test_kernel_takes_both_branches_and_matches_the_dense_kernel(monkeypatch):
    zt = _zeta_grid()
    p = FFParams(alpha=1.0, sigma=0.5, k=1)
    seen = set()

    def spy(name):
        orig = getattr(ff_complex, name)

        def run(*args):
            seen.add(name)
            return orig(*args)
        monkeypatch.setattr(ff_complex, name, run)

    spy("_dense_path_sum")
    spy("_moment_path_sum")
    mixed = [kernel_K_half(z, zt, p, NESTED_SPEC) for z in MOMENT_POINTS]
    assert seen == {"_dense_path_sum", "_moment_path_sum"}
    monkeypatch.setattr(ff_complex, "_DENSE_COST", 0)  # every level dense
    for z, got in zip(MOMENT_POINTS, mixed):
        dense = kernel_K_half(z, zt, p, NESTED_SPEC)
        assert np.max(np.abs(got - dense)) <= 1e-13 * np.max(np.abs(dense))


@pytest.mark.parametrize("alpha, sigma, k", [(1.0, 0.5, 1), (0.7, 0.3, 2), (0.4, 0.8, INF),
                                             (0.9, 0.6, 3)])
def test_kernel_at_zeta_zero_is_its_closed_form(alpha, sigma, k):
    # B(w, 0) = 1/pi and the weight is F'/(1 - sigma), F the integrating
    # factor, so K(z, 0) = (1 - F(1/2)/F(z)) / (pi (1 - sigma)); rho = 0
    # there, so the series has one term
    p = FFParams(alpha=alpha, sigma=sigma, k=k)
    factor = ff_complex._integrating_factor
    for z in MOMENT_POINTS + (-0.3 + 0.2j,):
        want = (1.0 - factor(0.5, p) / factor(complex(z), p)) / (math.pi * (1.0 - sigma))
        got = kernel_K_half(z, 0.0, p, NESTED_SPEC)
        assert abs(got - want) <= 1e-13 * abs(want)


def test_kernel_rejects_non_finite_zeta():
    p = FFParams(alpha=1.0, sigma=0.5, k=1)
    with pytest.raises(DomainError):
        kernel_K_half(0.3j, complex(math.nan, 0.0), p, NESTED_SPEC)
    # off the disk the Bergman series diverges and the dense product serves
    far = kernel_K_half(0.3j, 1.5 + 0.5j, p, NESTED_SPEC)
    assert np.isfinite(far)


def test_kernel_of_an_empty_zeta_batch_is_empty():
    p = FFParams(alpha=0.6, sigma=0.5, k=2)
    for z in (0.6 + 0.1j, 0.5):  # a path, and the base point's empty one
        out = kernel_K_half(z, np.array([], dtype=complex), p, NESTED_SPEC)
        assert out.shape == (0,) and out.dtype == complex


def test_kernel_no_convergence_carries_scaled_changes():
    capped = QuadratureSpec(nr=4, ntheta=4, panels_r=1, panels_theta=1,
                            rel_tol=1e-300, abs_tol=0.0, max_refine=1)
    p = FFParams(alpha=0.7, sigma=0.5, k=2)
    zetas = np.array([0.3 + 0.1j, -0.2 + 0.4j, 0.6j])
    with pytest.raises(NoConvergence) as info:
        kernel_K_half(0.5j, zetas, p, capped)
    changes = info.value.changes
    assert changes.shape == info.value.value.shape == zetas.shape
    assert np.all(changes > 0) and np.max(changes) == info.value.error
    with pytest.raises(NoConvergence) as one:
        kernel_K_half(0.5j, zetas[1], p, capped)
    assert type(one.value.changes) is float
    assert one.value.changes == one.value.error
    assert abs(one.value.changes - changes[1]) <= 1e-9 * changes[1]


def _explicit_kernel(z, zeta, p, spec):
    """The kernel by the explicit two-level procedure: every level's path
    rule built afresh and evaluated at every zeta, level L accepted when it
    agrees with level L - 1 at each zeta.  Returns (values, level)."""
    path = build_slit_path(z)
    zt = np.atleast_1d(np.asarray(zeta, dtype=complex))
    zeta_max = float(np.max(np.abs(zt)))
    outer = 1.0 / ff_complex._integrating_factor(complex(z), p)

    def estimate(level):
        wn, cw = _path_rule(path, spec, level)
        wt = cw * ff_complex._kernel_weight(wn, p)
        N = ff_complex._moment_order(float(np.max(np.abs(wn))) * zeta_max)
        if N > ff_complex._DENSE_COST * len(wn):
            return ff_complex._dense_path_sum(wn, wt, zt)
        return ff_complex._moment_path_sum(ff_complex._path_moments(wn, wt, N), zt)

    prev = estimate(0)
    for level in range(1, spec.max_refine + 1):
        cur = estimate(level)
        diff = np.abs(cur - prev)
        if np.all(diff <= np.maximum(spec.rel_tol * np.abs(cur), spec.abs_tol)):
            return outer * cur, level
        prev = cur
    raise NoConvergence("cap", outer * cur, float(np.max(diff)) * abs(outer),
                        diff * abs(outer))


def _spy_certificate(monkeypatch):
    """Record what each call of _certified_change returns."""
    seen = []
    certify = ff_complex._certified_change

    def run(*args):
        seen.append(certify(*args))
        return seen[-1]
    monkeypatch.setattr(ff_complex, "_certified_change", run)
    return seen


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("spec", [NESTED_SPEC, quadrature.DEFAULT_SPEC],
                         ids=["nested", "default"])
def test_certified_kernel_is_the_explicit_procedure_bit_for_bit(spec, monkeypatch):
    seen = _spy_certificate(monkeypatch)
    grid = _zeta_grid()
    batches = [grid] + list(grid.reshape(-1, 32))  # the grid, then ring by ring
    for p in (FFParams(alpha=1.0, sigma=0.5, k=1), FFParams(alpha=0.7, sigma=0.3, k=2)):
        for z in MOMENT_POINTS:
            for zt in batches:
                want, _ = _explicit_kernel(z, zt, p, spec)
                assert _same_bits(kernel_K_half(z, zt, p, spec), want)
    # the certificate both accepted levels and handed them to the explicit test
    assert any(b is None for b in seen) and any(b is not None for b in seen)


def test_dense_kernel_is_the_explicit_procedure_bit_for_bit(monkeypatch):
    seen = _spy_certificate(monkeypatch)
    monkeypatch.setattr(ff_complex, "_DENSE_COST", 0)  # every level dense
    p = FFParams(alpha=1.0, sigma=0.5, k=1)
    grid = _zeta_grid()
    for z in MOMENT_POINTS:
        for zt in (grid, grid[32:64], grid[-32:]):
            want, _ = _explicit_kernel(z, zt, p, NESTED_SPEC)
            assert _same_bits(kernel_K_half(z, zt, p, NESTED_SPEC), want)
    assert seen == []  # no moments, no certificate


def test_failed_certificate_falls_back_to_the_explicit_test(monkeypatch):
    # a rel_tol between the levels' largest relative change and what the
    # certificate can prove: the explicit test passes at level 1 where the
    # certificate cannot
    p = FFParams(alpha=0.7, sigma=0.3, k=2)
    z, zt = 0.5 + 0.3j, _zeta_grid().reshape(-1, 32)[10]
    path = build_slit_path(z)
    zeta_max = float(np.max(np.abs(zt)))
    moments, sums = [], []
    for level in (1, 0):
        wn, cw = _path_rule(path, NESTED_SPEC, level)
        wt = cw * ff_complex._kernel_weight(wn, p)
        N = ff_complex._moment_order(float(np.max(np.abs(wn))) * zeta_max)
        assert N <= ff_complex._DENSE_COST * len(wn)
        moments.append(ff_complex._path_moments(wn, wt, N))
        sums.append(ff_complex._moment_path_sum(moments[-1], zt))
    lax = replace(NESTED_SPEC, rel_tol=1e3, abs_tol=0.0)
    bound = ff_complex._certified_change(*moments, zeta_max, sums[0], lax)
    change = np.max(np.abs(sums[0] - sums[1]) / np.abs(sums[0]))
    provable = bound / np.min(np.abs(sums[0]))
    assert 0.0 < change < provable
    tight = replace(NESTED_SPEC, rel_tol=math.sqrt(change * provable), abs_tol=0.0)
    seen = _spy_certificate(monkeypatch)
    want, level = _explicit_kernel(z, zt, p, tight)
    assert level == 1
    assert _same_bits(kernel_K_half(z, zt, p, tight), want)
    assert seen == [None]


def test_capped_kernel_changes_are_the_explicit_procedures():
    capped = QuadratureSpec(nr=4, ntheta=4, panels_r=1, panels_theta=1,
                            rel_tol=1e-300, abs_tol=0.0, max_refine=2)
    p = FFParams(alpha=0.7, sigma=0.5, k=2)
    zetas = np.array([0.3 + 0.1j, -0.2 + 0.4j, 0.6j])
    with pytest.raises(NoConvergence) as want:
        _explicit_kernel(0.5j, zetas, p, capped)
    with pytest.raises(NoConvergence) as got:
        kernel_K_half(0.5j, zetas, p, capped)
    assert _same_bits(got.value.changes, want.value.changes)
    assert _same_bits(got.value.value, want.value.value)
    assert got.value.error == want.value.error


def test_each_level_forms_its_moments_once_per_kernel_call(monkeypatch):
    formed = []
    moments = ff_complex._path_moments

    def spy(wn, wt, N):
        formed.append(len(wn))  # the path's node count names the level
        return moments(wn, wt, N)
    monkeypatch.setattr(ff_complex, "_path_moments", spy)
    seen = _spy_certificate(monkeypatch)
    rings = _zeta_grid().reshape(-1, 32)
    capped = QuadratureSpec(nr=4, ntheta=4, panels_r=1, panels_theta=1,
                            rel_tol=1e-300, abs_tol=0.0, max_refine=2)
    cases = [  # certified at level 1, refused and converged at level 2, capped
        (0.5 + 0.3j, rings[10], FFParams(alpha=0.7, sigma=0.3, k=2), NESTED_SPEC, 2),
        (0.85j, rings[17], FFParams(alpha=1.0, sigma=0.5, k=1), NESTED_SPEC, 3),
        (0.5j, np.array([0.3 + 0.1j, -0.2 + 0.4j, 0.6j]), FFParams(alpha=0.7, sigma=0.5, k=2),
         capped, 3)]
    for z, zt, p, spec, n_levels in cases:
        formed.clear()
        seen.clear()
        with pytest.raises(NoConvergence) if spec is capped else contextlib.nullcontext():
            kernel_K_half(z, zt, p, spec)
        assert len(formed) == len(set(formed)) == n_levels
        # one certificate, which accepts exactly when level 1 is returned
        assert len(seen) == 1 and (seen[0] is not None) == (n_levels == 2)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.05, 0.95), st.floats(-3.1, 3.1),
       st.lists(st.tuples(st.floats(0.0, 0.99), st.floats(-3.14, 3.14)),
                min_size=1, max_size=6),
       st.floats(0.1, 1.0), st.floats(0.05, 0.95), st.sampled_from([1, 2, 3, INF]),
       st.integers(1, 3), st.floats(-16.0, -6.0))
def test_an_accepted_certificate_implies_the_explicit_test(r, t, polar, alpha, sigma, k,
                                                           level, log_tol):
    p = FFParams(alpha=alpha, sigma=sigma, k=k)
    spec = replace(NESTED_SPEC, rel_tol=10.0 ** log_tol)
    path = build_slit_path(r * np.exp(1j * t))
    assume(path.segments)
    zt = np.array([rho * np.exp(1j * a) for rho, a in polar])
    zeta_max = float(np.max(np.abs(zt)))
    moments, sums = [], []
    for lv in (level, level - 1):
        wn, cw = _path_rule(path, spec, lv)
        wt = cw * ff_complex._kernel_weight(wn, p)
        N = ff_complex._moment_order(float(np.max(np.abs(wn))) * zeta_max)
        assume(N <= ff_complex._DENSE_COST * len(wn))
        moments.append(ff_complex._path_moments(wn, wt, N))
        sums.append(ff_complex._moment_path_sum(moments[-1], zt))
    bound = ff_complex._certified_change(*moments, zeta_max, sums[0], spec)
    if bound is not None:
        diff = np.abs(sums[0] - sums[1])
        assert np.max(diff) <= bound
        assert np.all(diff <= np.maximum(spec.rel_tol * np.abs(sums[0]), spec.abs_tol))


def _count_calls(monkeypatch, name):
    calls = [0]
    orig = getattr(ff_complex, name)

    def run(*args, **kwargs):
        calls[0] += 1
        return orig(*args, **kwargs)
    monkeypatch.setattr(ff_complex, name, run)
    return calls


def test_nested_integral_builds_each_path_level_once_per_call(monkeypatch):
    p = FFParams(alpha=1.0, sigma=0.4, k=INF)
    fs = (CPowerSeries([1.0, 2.0 - 1.0j, 0.5]),)
    spec = replace(NESTED_SPEC, panels_r=4, panels_theta=4)  # several blocks a level
    builds = _count_calls(monkeypatch, "_kernel_weight")
    kernels = _count_calls(monkeypatch, "kernel_K_half")
    factors = _count_calls(monkeypatch, "_integrating_factor")
    first = reproduction_rhs_2_stack(fs, p, 0.3 + 0.4j, spec)
    work = builds[0], kernels[0]
    # F(z) once for the prefactor and every kernel call, F(1/2) once, and
    # F at the nodes of each path level the kernel weights
    assert factors[0] == 2 + work[0]
    second = reproduction_rhs_2_stack(fs, p, 0.3 + 0.4j, spec)
    assert (builds[0], kernels[0]) == (2 * work[0], 2 * work[1])
    assert _same_bits(first, second)
    # one build per path level however many node blocks call the kernel
    assert 2 <= work[0] < work[1] and work[0] <= spec.max_refine + 1
    assert ff_complex._PATH_LEVELS.get() is None


def test_path_levels_do_not_outlive_a_failed_nested_integral():
    capped = QuadratureSpec(nr=4, ntheta=4, panels_r=1, panels_theta=1,
                            rel_tol=1e-300, abs_tol=0.0, max_refine=1)
    p = FFParams(alpha=0.7, sigma=0.5, k=2)
    with pytest.raises(NoConvergence):
        reproduction_rhs_2_stack((CPowerSeries([0.0, 1.0]),), p, 0.5j, capped)
    assert ff_complex._PATH_LEVELS.get() is None
    kernel_K_half(0.5j, 0.3, p, NESTED_SPEC)  # alone, it keeps nothing either
    assert ff_complex._PATH_LEVELS.get() is None


def test_concurrent_nested_integrals_give_their_serial_bits():
    jobs = [((CPowerSeries([1.0, 2.0 - 1.0j, 0.5]),), FFParams(alpha=1.0, sigma=0.4, k=INF),
             0.3 + 0.4j),
            ((CPowerSeries([0.3j, 0.0, 1.0]),), FFParams(alpha=0.7, sigma=0.6, k=2), -0.2 + 0.5j)]
    serial = [reproduction_rhs_2_stack(fs, p, z, NESTED_SPEC) for fs, p, z in jobs]
    start = threading.Barrier(len(jobs))
    results = [[] for _ in jobs]

    def run(i):
        fs, p, z = jobs[i]
        start.wait()
        for _ in range(3):
            results[i].append(reproduction_rhs_2_stack(fs, p, z, NESTED_SPEC))

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(jobs))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for want, got in zip(serial, results):
        assert len(got) == 3 and all(_same_bits(value, want) for value in got)


def test_stacked_right_hand_sides_match_one_series():
    p = FFParams(alpha=1.0, sigma=0.4, k=INF)
    pair = (CPowerSeries([1.0, 2.0 - 1.0j, 0.5]), CPowerSeries([0.3j, 0.0, 1.0]))
    z = 0.3 + 0.4j
    for stack in (reproduction_rhs_1_stack, reproduction_rhs_2_stack):
        got = stack(pair, p, z, NESTED_SPEC)
        for f, value in zip(pair, got):
            alone = complex(stack((f,), p, z, NESTED_SPEC)[0])
            assert abs(value - alone) <= 1e-13 * abs(alone)


def test_stacked_rhs_1_takes_one_point_per_series():
    p = FFParams(alpha=1.0, sigma=0.4, k=INF)
    fs = (CPowerSeries([1.0, 2.0 - 1.0j, 0.5]), CPowerSeries([0.3j, 0.0, 1.0]),
          CPowerSeries([0.7]), CPowerSeries([0.0, 0.0, 0.0, 1.0 + 1.0j]))
    zs = (0.3 + 0.4j, -0.2 - 0.5j, 0.6, 0.85j)
    got = reproduction_rhs_1_stack(fs, p, zs, NESTED_SPEC)
    assert got.shape == (len(fs),)
    for f, z, value in zip(fs, zs, got):
        alone = complex(reproduction_rhs_1_stack((f,), p, z, NESTED_SPEC)[0])
        assert abs(value - alone) <= 1e-13 * abs(alone)
    with pytest.raises(DomainError):
        reproduction_rhs_1_stack(fs, p, (0.3, -0.5, 0.2, 0.1j), NESTED_SPEC)
    with pytest.raises(ValueError):
        reproduction_rhs_1_stack(fs, p, zs[:2], NESTED_SPEC)


def _stacked_formula(fs, p, z):
    """ff_eval_stack as whole-stack arrays: the same operations in the same
    order as each row's."""
    zz = np.atleast_1d(np.asarray(z, dtype=complex))
    s = p.sigma
    fv = np.stack([f(zz) for f in fs])
    if s == 0.0:
        return fv
    fp = np.stack([f.derivative()(zz) for f in fs])
    den = fractal_measure_deriv_c(zz, p.alpha, p.k)
    if p.beta == 1.0:
        frac = fp / den
    else:
        frac = p.beta * fv ** (p.beta - 1.0) * fp / den
    return (1.0 - s) * fv + s * frac


def _large_nodes(rng, n=40_000):
    """Nodes enough that a complex row passes numpy's 256 KiB threshold for
    reusing a temporary operand as the output."""
    return rng.uniform(0.05, 0.95, n) * np.exp(1j * rng.uniform(-3.0, 3.0, n))


@pytest.mark.parametrize("beta", [1.0, 0.5])
@pytest.mark.parametrize("sigma", [0.0, 0.3, 0.5, 1.0])
def test_eval_stack_rows_are_the_stacked_formula_bit_for_bit(beta, sigma, rng):
    p = FFParams(alpha=0.7, sigma=sigma, k=2, beta=beta)
    if beta == 1.0:
        fs = [CPowerSeries(rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1))
              for d in range(5)] + [CPowerSeries([]), CPowerSeries([2.0 - 1.0j])]
    else:
        # nonvanishing, off the negative axis on |z| < 1
        fs = [CPowerSeries([3.0, 0.5 - 0.5j, 0.25j]), CPowerSeries([2.0 - 1.0j])]
    z = rng.uniform(0.05, 0.95, (7, 13)) * np.exp(1j * rng.uniform(-3.0, 3.0, (7, 13)))
    zetas = (z, z.ravel(), z[0, 0]) + ((_large_nodes(rng),) if sigma in (0.3, 1.0) else ())
    for zeta in zetas:
        got = ff_eval_stack(fs, p, zeta)
        want = _stacked_formula(fs, p, zeta)
        assert got.shape == want.shape == (len(fs),) + np.atleast_1d(zeta).shape
        assert got.tobytes() == want.tobytes()


def _traced_peak(fn):
    """fn() and the peak of the memory traced while it ran, in bytes."""
    import tracemalloc
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_eval_stack_peak_memory_stays_near_its_output():
    from ffq.verify import sweep_functions
    fs = [f for _, f in sweep_functions()]
    assert len(fs) == 27
    rng = np.random.default_rng(0)
    n = 65536
    z = rng.uniform(0.05, 0.95, n) * np.exp(1j * rng.uniform(-3.0, 3.0, n))
    p = FFParams(alpha=0.7, sigma=0.5, k=2)
    out, peak = _traced_peak(lambda: ff_eval_stack(fs, p, z))
    assert out.shape == (27, n)
    # a few rows of temporaries over the output; whole-stack temporaries
    # cost five times the output's bytes
    assert peak < 1.5 * out.nbytes


@pytest.mark.parametrize("beta", [1.0, 0.5])
def test_multi_sigma_rows_are_the_one_sigma_rows_bit_for_bit(beta, rng):
    sigmas = (0.0, 0.3, 1.0)
    p = FFParams(alpha=0.7, sigma=0.5, k=2, beta=beta)
    if beta == 1.0:
        fs = [CPowerSeries(rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1))
              for d in range(5)] + [CPowerSeries([]), CPowerSeries([2.0 - 1.0j])]
    else:
        fs = [CPowerSeries([3.0, 0.5 - 0.5j, 0.25j]), CPowerSeries([2.0 - 1.0j])]
    z = rng.uniform(0.05, 0.95, (7, 13)) * np.exp(1j * rng.uniform(-3.0, 3.0, (7, 13)))
    for zeta in (z, z.ravel(), z[0, 0], _large_nodes(rng)):
        zz = np.atleast_1d(zeta).astype(complex)
        # the rows dirichlet_norms_quad squares
        got = np.full((len(sigmas) * len(fs),) + zz.shape, np.nan, dtype=complex)
        for i, row in ff_complex._stack_rows(fs, p, sigmas, zz):
            got[i] = row
        for j, s in enumerate(sigmas):
            alone = ff_eval_stack(fs, replace(p, sigma=s), zeta)
            assert got[j * len(fs) : (j + 1) * len(fs)].tobytes() == alone.tobytes()
        # the |Df|**2 rows the norms integrate hold the same bits as well
        assert (ff_complex._abs2_stack(fs, p, zeta, sigmas).tobytes()
                == (np.abs(got) ** 2).tobytes())


def test_stacked_sigmas_match_one_sigma_at_a_time(spec, rng):
    sigmas = (0.2, 0.5, 0.8)
    p = FFParams(alpha=0.7, sigma=0.5, k=2)
    fs = [CPowerSeries(rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1))
          for d in range(6)] + [CPowerSeries([2.0])]
    stacked = dirichlet_norms_quad(fs, p, spec, sigmas=sigmas)
    assert len(stacked) == len(sigmas) * len(fs)
    for j, s in enumerate(sigmas):
        alone = dirichlet_norms_quad(fs, replace(p, sigma=s), spec)
        for v, w in zip(stacked[j * len(fs) : (j + 1) * len(fs)], alone):
            assert abs(v.norm_sq - w.norm_sq) <= 1e-14 * w.norm_sq
            assert v.point_term == w.point_term
    assert dirichlet_norms_quad(fs, p, spec, sigmas=()) == []


def test_each_stacked_sigma_is_checked_before_any_quadrature(no_quadrature):
    p = FFParams(alpha=0.7, sigma=0.5, k=2)
    for bad in (1.5, -0.1, math.nan):
        with pytest.raises(DomainError, match="sigma"):
            dirichlet_norms_quad([CPowerSeries([1.0, 1.0])], p, sigmas=(0.2, bad))


def test_abs2_stack_peak_memory_stays_near_its_output():
    from ffq.verify import GRID_SIGMAS, sweep_functions
    fs = [f for _, f in sweep_functions()]
    rng = np.random.default_rng(0)
    n = 65536
    z = rng.uniform(0.05, 0.95, n) * np.exp(1j * rng.uniform(-3.0, 3.0, n))
    p = FFParams(alpha=0.7, sigma=0.5, k=2)
    out, peak = _traced_peak(lambda: ff_complex._abs2_stack(fs, p, z, GRID_SIGMAS))
    assert out.shape == (81, n) and out.dtype == np.float64
    # np.abs(ff_eval_stack(...)) ** 2 over the same rows peaks at 3x
    assert peak < 1.3 * out.nbytes


def test_short_stacks_integrate_in_small_blocks(monkeypatch):
    # a stack of a few rows gets disk blocks of at most 2**14 nodes, so each
    # row-sized temporary stays at 256 KiB; blocks of 2**19 elements over
    # the rows peaked at 25 MiB here and 9 MiB for the one-row norm
    levels = []

    def spy(*args):
        res = integrate_disk(*args)
        levels.append(res.refinements)
        return res
    monkeypatch.setattr(ff_complex, "integrate_disk", spy)
    fs = [CPowerSeries([1.0]), CPowerSeries([0.0, 1.0]), CPowerSeries([1.0, -0.5j, 0.25]),
          CPowerSeries([0.5, 0.0, 0.0, 1.0])]
    z = 0.84 * np.exp(2.5j)
    p = FFParams(alpha=1.0, sigma=0.5, k=INF)
    out, peak = _traced_peak(lambda: reproduction_rhs_1_stack(fs, p, z))
    assert levels == [2]
    assert np.max(np.abs(out - [f(z) for f in fs])) < 1e-12
    assert peak < 6 * 2 ** 20
    p = FFParams(alpha=0.7, sigma=0.5, k=INF)
    _, peak = _traced_peak(lambda: dirichlet_norm_quad(CPowerSeries([0.0, 1.0]), p))
    assert peak < 4 * 2 ** 20


def test_reproduce_identity_2(spec):
    p = FFParams(alpha=1.0, sigma=0.5, k=1)
    assert reproduce_identity_2(CPowerSeries([0, 1]), p, 0.7, spec) < 1e-5
    # z = 1/2 collapses to f(1/2) = f(1/2)
    assert reproduce_identity_2(CPowerSeries([1, 2, 3]), p, 0.5, spec) < 1e-12
    p = FFParams(alpha=1.0, sigma=0.6, k=INF)
    res = reproduce_identity_2(CPowerSeries([1, 0, 1]), p,
                               0.4 * np.exp(1j * math.pi / 3), spec)
    assert res < 1e-5


def test_integrating_factor_identity(spec):
    p = FFParams(alpha=1.0, sigma=0.5, k=1)
    assert integrating_factor_residual(CPowerSeries([0.0]), p, 0.3) == 0.0
    assert integrating_factor_residual(CPowerSeries([1.0]), p, 0.3) < 1e-8
    p = FFParams(alpha=0.5, sigma=0.8, k=INF)
    res = integrating_factor_residual(CPowerSeries([0, 0, 0, 1]), p,
                                      0.5 + 0.1j)
    assert res < 1e-6


def test_integrating_factor_residual_rejects_a_step_off_the_disk():
    p = FFParams(alpha=0.7, sigma=0.5, k=2)
    f = CPowerSeries([1.0, 0.5])
    # z is in the slit disk, but z - h lands on the cut or z + h beyond |z| = 1
    for z in (0.5e-5, 1.0 - 0.5e-5):
        with pytest.raises(DomainError):
            integrating_factor_residual(f, p, z)


def test_factor_and_weight_are_the_written_out_formulas_bit_for_bit(rng):
    w = rng.uniform(0.05, 0.95, 64) * np.exp(1j * rng.uniform(-3.0, 3.0, 64))
    for alpha in (0.3, 0.7, 1.0):
        for sigma in (0.2, 0.5, 0.8, 1.0):
            for k in (1, 2, INF):
                p = FFParams(alpha=alpha, sigma=sigma, k=k)
                lam = (1.0 - sigma) / sigma
                for x in (w, complex(w[0])):
                    factor = np.exp(lam * fractal_measure_c(x, alpha, k))
                    weight = (1.0 / sigma) * factor * fractal_measure_deriv_c(x, alpha, k)
                    got = (ff_complex._integrating_factor(x, p), ff_complex._kernel_weight(x, p))
                    for value, want in zip(got, (factor, weight)):
                        assert np.shape(value) == np.shape(want)
                        assert np.asarray(value).tobytes() == np.asarray(want).tobytes()


def test_integrating_factor_sign_is_forced():
    # flipping the exponent sign (the other reading of the weight) breaks
    # the identity by orders of magnitude; the finite-difference oracle
    # adjudicates the sign
    p = FFParams(alpha=1.0, sigma=0.5, k=1)
    f = CPowerSeries([1.0])
    z = 0.3
    good = integrating_factor_residual(f, p, z)
    lam_wrong = (p.sigma - 1.0) / p.sigma
    h = 1e-5

    def weighted(w):
        return np.exp(lam_wrong * fractal_measure_c(w, p.alpha, p.k)) * f(w)

    lhs = (weighted(z + h) - weighted(z - h)) / (2.0 * h)
    rhs = ((1.0 / p.sigma)
           * np.exp(lam_wrong * fractal_measure_c(z, p.alpha, p.k))
           * fractal_measure_deriv_c(z, p.alpha, p.k)
           * ff_eval_c(f, p, z))
    assert abs(lhs - rhs) > 1e4 * max(good, 1e-12)


def test_operator_limits(rng):
    zs = np.array([0.4 + 0.2j, 0.1 - 0.5j, 0.7, 0.2 + 0.6j])
    f = CPowerSeries(rng.standard_normal(4) + 1j * rng.standard_normal(4))
    for k in (1, INF):
        dev = lambda s: float(np.max(np.abs(
            ff_eval_c(f, FFParams(alpha=0.8, sigma=s, k=k), zs) - f(zs))))
        assert abs(dev(1e-2) / dev(5e-3) - 2.0) <= 0.1
        pure = FFParams(alpha=0.8, sigma=1.0, k=k)
        dev1 = lambda s: float(np.max(np.abs(
            ff_eval_c(f, FFParams(alpha=0.8, sigma=s, k=k), zs)
            - ff_eval_c(f, pure, zs))))
        assert abs(dev1(1 - 1e-2) / dev1(1 - 5e-3) - 2.0) <= 0.1


def test_family_endpoints(spec, rng):
    f = CPowerSeries(rng.standard_normal(3) + 1j * rng.standard_normal(3))
    # alpha = 1, sigma = 1, k = 1: point term plus the derivative's square
    p = FFParams(alpha=1.0, sigma=1.0, k=1)
    v = dirichlet_norm_quad(f, p, spec)
    dirichlet_field = integrate_disk(
        lambda z: np.abs(f.derivative()(z)) ** 2, spec).value
    assert abs(v.field_term - dirichlet_field) <= 1e-10 * dirichlet_field
    assert abs(v.point_term - abs(f(0.5)) ** 2) < 1e-15

    # alpha -> 0 along sigma = alpha^2: the field term approaches the plain
    # square integral of f at a first-order rate in alpha
    bergman_field = integrate_disk(lambda z: np.abs(f(z)) ** 2, spec).value

    def field(alpha):
        pa = FFParams(alpha=alpha, sigma=alpha * alpha, k=1)
        return dirichlet_norm_quad(f, pa, spec).field_term

    dev5 = abs(field(1e-5) - bergman_field) / bergman_field
    assert dev5 <= 1e-4
    dev4 = abs(field(1e-4) - bergman_field) / bergman_field
    dev3 = abs(field(1e-3) - bergman_field) / bergman_field
    assert 5.0 <= dev3 / dev4 <= 20.0  # linear rate in alpha


def test_divergence_predicate_matches_the_roots_of_exponential_sums():
    # e_{k-1}(z**alpha) vanishes on the closed slit disk exactly when e_{k-1}
    # has a root w with |w| <= 1 and |Arg w| <= alpha pi (w = z**alpha)
    from ffq.ff_complex import _measure_vanishes
    alphas = (0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 1.0)
    for k in list(range(1, 61)) + [INF]:
        if k == INF:
            roots = np.array([])  # exp has no zeros
        else:
            roots = np.roots([1.0 / math.factorial(j) for j in range(k - 1, -1, -1)])
        for alpha in alphas:
            hit = bool(np.any((np.abs(roots) <= 1.0 + 1e-12)
                              & (np.abs(np.angle(roots)) <= alpha * math.pi)))
            assert _measure_vanishes(alpha, k) == hit, (alpha, k)
    assert [k for k in range(1, 61) if _measure_vanishes(1.0, k)] == [2]


def test_divergent_table_grows_by_a_constant_increment():
    # the numerical witness behind the up-front verdict: at (1, 2) the
    # coefficient integral A[0, 0] gains about pi log 2 per panel doubling
    from ffq.ff_complex import _matrix_estimate
    from ffq.verify import DIVERGENCE_SPEC
    p = FFParams(alpha=1.0, sigma=0.5, k=2)
    a00 = [_matrix_estimate(p, 2, DIVERGENCE_SPEC, level)[0][0, 0].real
           for level in range(4)]
    increments = np.diff(a00)
    assert np.all(np.abs(increments / (math.pi * math.log(2.0)) - 1.0) < 0.01)
    with pytest.raises(DivergentIntegral):
        coefficient_integrals(p, 2)


def test_up_front_verdicts_run_no_quadrature(no_quadrature):
    p = FFParams(alpha=1.0, sigma=0.5, k=2)
    with pytest.raises(DivergentIntegral):
        coefficient_integrals(p, 3)
    for coeffs in ([0, 1], [1, 1], [0, 0, 1], [0, 1j, 0, 2]):
        for method in ("quad", "series"):
            with pytest.raises(DivergentIntegral):
                dirichlet_norm(CPowerSeries(coeffs), p, method=method)
    # f'(-1) = 0 (or sigma = 0) leaves the quadrature route open
    for f, q in ((CPowerSeries([0, 2, 1]), p),
                 (CPowerSeries([1.0]), p),
                 (CPowerSeries([0, 1]), FFParams(alpha=1.0, sigma=0.0, k=2))):
        with pytest.raises(AssertionError, match="quadrature ran"):
            dirichlet_norm(f, q)
    # beta < 1 is outside the norm's linear space on every route
    for method in ("quad", "series"):
        with pytest.raises(DomainError, match="beta = 1"):
            dirichlet_norm(CPowerSeries([1, 1]),
                           FFParams(alpha=1.0, sigma=0.5, k=2, beta=0.5), method=method)


def test_stacked_norms_match_one_at_a_time(spec, rng):
    p = FFParams(alpha=0.7, sigma=0.8, k=2)
    fs = [CPowerSeries(rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1))
          for d in range(6)] + [CPowerSeries([0, 0, 0, 1]), CPowerSeries([2.0])]
    stacked = dirichlet_norms_quad(fs, p, spec)
    for f, v in zip(fs, stacked):
        alone = dirichlet_norm_quad(f, p, spec)
        assert abs(v.norm_sq - alone.norm_sq) <= 1e-13 * alone.norm_sq
        assert v.point_term == alone.point_term
    assert dirichlet_norms_quad([], p, spec) == []


def test_measure_derivative_once_per_node_block(spec, rng, monkeypatch):
    # every node block forms the field once, from its rows, for the whole
    # stack; the checked per-node route is not taken on rule nodes
    import ffq.ff_complex
    from ffq import STANDARD_FRAME, QPowerSeries, Quaternion
    from ffq import qdirichlet_inner_product, quadrature
    calls = {"rows": 0, "checked": 0, "blocks": 0}
    rows, blocks = ffq.ff_complex._rule_measure_deriv, quadrature._polar_blocks
    checked = ffq.ff_complex.fractal_measure_deriv_c

    def counted(name, fn):
        def run(*args):
            calls[name] += 1
            return fn(*args)
        return run

    def counted_blocks(*args):
        for block in blocks(*args):
            calls["blocks"] += 1
            yield block

    monkeypatch.setattr(ffq.ff_complex, "_rule_measure_deriv", counted("rows", rows))
    monkeypatch.setattr(ffq.ff_complex, "fractal_measure_deriv_c", counted("checked", checked))
    monkeypatch.setattr(quadrature, "_polar_blocks", counted_blocks)
    p = FFParams(alpha=0.6, sigma=0.5, k=1)
    f = CPowerSeries([1.0, 2.0, 0.5j])
    g = CPowerSeries([0.0, 1.0])
    fq = QPowerSeries([Quaternion(*rng.standard_normal(4)) for _ in range(3)])
    for run in (lambda: inner_product_c(f, g, p, spec),
                lambda: qdirichlet_inner_product(fq, fq, p, STANDARD_FRAME, spec),
                lambda: dirichlet_norms_quad([f, g, f + g], p, spec)):
        calls.update(rows=0, checked=0, blocks=0)
        run()
        assert calls["blocks"] > 0 and calls["rows"] == calls["blocks"]
        assert calls["checked"] == 0


_RULE_ALPHAS = (0.02, 0.3, 0.7, 1.0)
_RULE_KS = (1, 2, 3, INF)


@pytest.mark.parametrize("alpha", _RULE_ALPHAS)
def test_rule_measure_derivative_matches_the_checked_route(alpha):
    # the rows field against fractal_measure_deriv_c at every node of levels
    # 0-2: the checked route's complex power itself errs by up to 1.8e-15
    # where |log z| is large (|z| near 1e-7), against 7e-17 for the rows
    # field (mpmath), so the two meet to 2.5e-15
    from ffq.ff_complex import _rule_measure_deriv
    from ffq.quadrature import _polar_blocks
    for k in _RULE_KS:
        for spec in (quadrature.DEFAULT_SPEC, NESTED_SPEC):
            for level in range(3):
                for block in _polar_blocks(spec, level):
                    got = _rule_measure_deriv(block, alpha, k)
                    want = fractal_measure_deriv_c(block.z, alpha, k)
                    assert np.all(np.abs(got - want) <= 2.5e-15 * np.abs(want))
                    if alpha == 1.0:
                        km1 = INF if k == INF else k - 1
                        assert got.tobytes() == holo_series.truncated_exp_c(
                            block.z, km1).tobytes()


@pytest.mark.parametrize("alpha", _RULE_ALPHAS)
def test_rule_measure_derivative_matches_mpmath_at_sampled_nodes(alpha, rng):
    mpmath = pytest.importorskip("mpmath")
    from ffq.ff_complex import _rule_measure_deriv
    from ffq.quadrature import _polar_blocks
    for level in range(2):
        blocks = list(_polar_blocks(quadrature.DEFAULT_SPEC, level))
        # the smallest and largest radii, the angles nearest +-pi, and a few more
        picks = [(blocks[0], 0), (blocks[0], len(blocks[0].tn) // 3),
                 (blocks[-1], -1), (blocks[-1], -len(blocks[-1].tn))]
        picks += [(blocks[b], int(rng.integers(len(blocks[b].z))))
                  for b in rng.integers(len(blocks), size=4)]
        for k in _RULE_KS:
            for block, i in picks:
                with mpmath.workdps(40):
                    z = mpmath.mpc(block.z[i])
                    w = mpmath.power(z, alpha)
                    e = (mpmath.exp(w) if k == INF
                         else mpmath.fsum(w ** n / mpmath.factorial(n) for n in range(k)))
                    want = alpha * mpmath.power(z, alpha - 1) * e
                got = _rule_measure_deriv(block, alpha, k)[i]
                assert abs(got - want) <= 1e-15 * abs(want)


@pytest.mark.parametrize("sigma", [0.0, 0.5])
def test_a_rule_copy_or_an_off_disk_array_takes_the_checked_route(sigma, monkeypatch):
    # inside an integrand only the block's own node array reads the rows
    p = FFParams(alpha=0.7, sigma=sigma, k=3)
    fs = [CPowerSeries([1.0, 0.5])]
    for moved in (lambda z: 1.5 * z, lambda z: z - 1.0, lambda z: -np.abs(z)):
        with pytest.raises(BranchError, match="outside the slit unit disk"):
            integrate_disk(lambda z: ff_eval_stack(fs, p, moved(z)), NESTED_SPEC)
    if sigma == 0.0:
        return
    called = []
    checked = ff_complex.fractal_measure_deriv_c
    monkeypatch.setattr(ff_complex, "fractal_measure_deriv_c",
                        lambda *args: called.append(1) or checked(*args))
    own = integrate_disk(lambda z: ff_eval_stack(fs, p, z)[0], NESTED_SPEC)
    assert not called
    copy = integrate_disk(lambda z: ff_eval_stack(fs, p, z.copy())[0], NESTED_SPEC)
    assert called and abs(copy.value - own.value) <= 1e-14 * abs(own.value)


def test_concurrent_rule_integrals_give_their_serial_bits():
    # each thread reads the rows of its own block: every block of each
    # integral waits until the other thread has published its own block too
    fs = [CPowerSeries([1.0, 2.0 - 1.0j, 0.5]), CPowerSeries([0.3j, 0.0, 1.0])]
    params = [FFParams(alpha=0.3, sigma=0.6, k=2), FFParams(alpha=0.7, sigma=0.4, k=INF)]
    # refinement stops at level 1 for both, so both run the same blocks
    spec = replace(NESTED_SPEC, rel_tol=1.0, max_refine=1)
    meet = threading.Barrier(len(params), timeout=60)

    def integral(p, wait):
        def g(z):
            wait()
            return ff_eval_stack(fs, p, z)
        return integrate_disk(g, spec).value

    serial = [integral(p, lambda: None) for p in params]
    results = [None] * len(params)

    def run(i):
        results[i] = integral(params[i], meet.wait)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(params))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    assert all(_same_bits(got, want) for got, want in zip(results, serial))


def _perfbench_tracer():
    import importlib.util
    from pathlib import Path
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def test_traced_rule_integrals_keep_their_bits():
    # the benchmark's tracer hands each integrand the block's own z, so a
    # traced run reads the same rows
    Tracer = _perfbench_tracer()
    fs = [CPowerSeries([1.0, 2.0 - 1.0j, 0.5]), CPowerSeries([0.3j, 0.0, 1.0])]
    p = FFParams(alpha=0.7, sigma=0.4, k=2)

    def job():
        return ([dirichlet_norm_quad(fs[0], p, NESTED_SPEC).norm_sq]
                + list(reproduction_rhs_1_stack(fs, p, [0.3 + 0.2j, -0.4 + 0.1j], NESTED_SPEC)))

    plain = job()
    with Tracer() as tracer:
        traced = job()
    assert _same_bits(traced, plain)
    assert tracer.summary()["quadrature.integrate_disk"]["nodes"] > 0
    # only the two points are checked, never a block
    checks = [span.counts["elements"] for span in tracer.spans
              if span.name == "holo_series.in_slit_disk"]
    assert checks and max(checks) <= len(fs)


# -------------------------------------------------- series values from the rows

def _horner_bound(coeffs, z):
    """4 (d + 1) u sum_n |a_n| |z|**n, the bound the rows route meets
    against Horner's rule and the exact value."""
    a = np.abs(np.asarray(coeffs))
    if len(a) == 0:
        return np.zeros(np.shape(z))
    return 4 * len(a) * ff_complex._UNIT * np.polynomial.polynomial.polyval(np.abs(z), a)


def _random_series(rng, degrees=range(9)):
    """The empty and a constant series, then one random series per degree."""
    fs = [CPowerSeries([]), CPowerSeries([0.7 - 0.2j])]
    return fs + [CPowerSeries(rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1))
                 for d in degrees]


@pytest.mark.parametrize("spec", [quadrature.DEFAULT_SPEC, NESTED_SPEC, DIVERGENCE_SPEC],
                         ids=["default", "nested", "divergence"])
def test_series_rows_match_horner_at_every_node(spec, rng):
    # one evaluator per block serves every degree up to the stack's largest,
    # as in _stack_rows; f' rides on the same tables
    fs = _random_series(rng)
    fs += [f.derivative() for f in fs]
    for level in range(3):
        for block in quadrature._polar_blocks(spec, level):
            values = ff_complex._rule_series(block, 8)
            for f in fs:
                got = values(f)
                assert got.shape == block.z.shape and got.dtype == complex
                assert np.all(np.abs(got - f(block.z)) <= _horner_bound(f.coeffs, block.z))
                if f.degree <= 0:  # the empty and the constant series, exactly
                    assert _same_bits(got, f(block.z))


def test_series_rows_match_mpmath_at_sampled_nodes(rng):
    mpmath = pytest.importorskip("mpmath")
    fs = _random_series(rng, degrees=(1, 4, 8))
    for level in range(2):
        blocks = list(quadrature._polar_blocks(quadrature.DEFAULT_SPEC, level))
        # the smallest and largest radii, the angles nearest +-pi, and a few more
        picks = [(blocks[0], 0), (blocks[0], len(blocks[0].tn) // 3),
                 (blocks[-1], -1), (blocks[-1], -len(blocks[-1].tn))]
        picks += [(blocks[b], int(rng.integers(len(blocks[b].z))))
                  for b in rng.integers(len(blocks), size=4)]
        for block, i in picks:
            values = ff_complex._rule_series(block, 8)
            for f in fs + [f.derivative() for f in fs]:
                with mpmath.workdps(40):
                    z = mpmath.mpc(block.z[i])
                    want = mpmath.fsum(mpmath.mpc(a) * z ** n for n, a in enumerate(f.coeffs))
                got = values(f)[i]
                assert abs(got - want) <= _horner_bound(f.coeffs, block.z[i])


@pytest.mark.parametrize("spec", [quadrature.DEFAULT_SPEC,
                                  QuadratureSpec(nr=64, ntheta=4, panels_r=32, panels_theta=1)],
                         ids=["default", "ring-heavy"])
def test_series_rows_of_a_high_degree_series_stay_within_a_few_rows(spec, rng):
    # degree 2,000 is summed in slices of the power axis: no table exceeds
    # _BLOCK_NODES entries, so the peak is a few node-sized arrays (the
    # output, which is the Horner accumulator, z**w, one slice's product,
    # the scaled ring table and the two tables), 5.5 outputs and numpy's
    # own temporaries, not 2,001 powers of every ring or angle (31 outputs
    # on the default spec, 250 on the ring-heavy one)
    import tracemalloc
    f = CPowerSeries(rng.standard_normal(2001) + 1j * rng.standard_normal(2001))
    block = next(quadrature._polar_blocks(spec, 0))
    want = f(block.z)
    tracemalloc.start()
    try:
        got = ff_complex._rule_series(block, f.degree)(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.abs(got - want) <= _horner_bound(f.coeffs, block.z))
    assert peak <= 8 * got.nbytes


def test_series_rows_give_the_stacks_f_and_f_prime():
    # on rule nodes the stack's f and f' come from the rows: at sigma = 0 a
    # row is f, and at sigma = 1, alpha = 1, k = 1 it is f' (the measure
    # factor is exactly 1); Horner's rule gives each on a copy of the nodes
    rng = np.random.default_rng(7)
    fs = _random_series(rng)
    worst = []

    def integrand(z):
        for sigma, part in ((0.0, lambda f: f), (1.0, lambda f: f.derivative())):
            rows = ff_eval_stack(fs, FFParams(alpha=1.0, sigma=sigma, k=1), z)
            for f, got in zip(fs, rows):
                g = part(f)
                worst.append(np.max(np.abs(got - g(z.copy())) - _horner_bound(g.coeffs, z)))
        return np.zeros(z.shape)

    integrate_disk(integrand, replace(NESTED_SPEC, max_refine=1))
    assert worst and max(worst) <= 0.0


def test_series_rows_tables_are_built_once_per_block(monkeypatch):
    # one pair of power tables per node block serves every series of the
    # stack and its derivative
    calls = []
    power_rows = quadrature._PolarBlock.power_rows
    monkeypatch.setattr(quadrature._PolarBlock, "power_rows",
                        lambda self, n: calls.append(n) or power_rows(self, n))
    blocks = []
    polar_blocks = quadrature._polar_blocks

    def counted_blocks(*args):
        for block in polar_blocks(*args):
            blocks.append(block)
            yield block

    monkeypatch.setattr(quadrature, "_polar_blocks", counted_blocks)
    fs = [CPowerSeries([1.0, 2.0, 0.5j]), CPowerSeries([0.0, 1.0]), CPowerSeries([1.0])]
    dirichlet_norms_quad(fs, FFParams(alpha=0.6, sigma=0.5, k=3), NESTED_SPEC,
                         sigmas=(0.0, 0.5))
    assert blocks and calls == [3] * len(blocks)


def test_series_rows_are_read_only_on_the_blocks_own_nodes(monkeypatch):
    # a copied block, the path rule's nodes and a user's array still take
    # Horner's rule; the block's own z never does
    sizes = []
    call = CPowerSeries.__call__
    monkeypatch.setattr(CPowerSeries, "__call__",
                        lambda self, z: sizes.append(np.size(z)) or call(self, z))
    p = FFParams(alpha=0.7, sigma=0.5, k=3)
    fs = [CPowerSeries([1.0, 0.5, 0.25j]), CPowerSeries([0.3])]
    path_nodes = _path_rule(build_slit_path(0.3 + 0.4j), NESTED_SPEC, 0)[0]
    seen = {}

    def integrand(z):
        for name, nodes in (("own", z), ("copy", z.copy()), ("path", path_nodes)):
            sizes.clear()
            ff_eval_stack(fs, p, nodes)
            seen.setdefault(name, []).append(list(sizes))
        return np.zeros(z.shape)

    integrate_disk(integrand, replace(NESTED_SPEC, max_refine=1))
    assert seen["own"] and all(calls == [] for calls in seen["own"])
    # f and f' of each series, at every node of the array
    for name in ("copy", "path"):
        assert all(len(calls) == 2 * len(fs) and min(calls) > 1 for calls in seen[name])
    sizes.clear()
    ff_eval_stack(fs, p, path_nodes)
    assert sizes == [len(path_nodes)] * (2 * len(fs))


def test_quadrature_route_still_refines_as_the_witness():
    from ffq.verify import DIVERGENCE_SPEC, _divergence_profiles
    p = FFParams(alpha=1.0, sigma=0.5, k=2)
    with pytest.raises(NoConvergence) as info:
        dirichlet_norm_quad(CPowerSeries([0, 1]), p, DIVERGENCE_SPEC)
    assert not isinstance(info.value, DivergentIntegral)
    assert type(info.value.value) is float and info.value.error > 0.1
    assert info.value.changes == info.value.error
    assert _divergence_profiles([CPowerSeries([0, 1])], p) == [True]


def test_stacked_witness_gives_each_row_its_own_verdict():
    # f'(-1) = 0 for z^2 + 2z and (1 + z)^3: those rows converge inside the
    # stack while the others refine to the cap
    from ffq.ff_complex import _field_diverges
    from ffq.verify import DIVERGENCE_SPEC, _divergence_profiles
    p = FFParams(alpha=1.0, sigma=0.5, k=2)
    fs = [CPowerSeries([0, 1]), CPowerSeries([0, 2, 1]), CPowerSeries([0, 0, 0, 1]),
          CPowerSeries([1, 3, 3, 1])]
    verdicts = _divergence_profiles(fs, p)
    assert verdicts == [True, False, True, False]
    assert all(type(v) is bool for v in verdicts)
    assert verdicts == [_field_diverges(f, p) for f in fs]
    for f, verdict in zip(fs, verdicts):
        try:
            dirichlet_norm_quad(f, p, DIVERGENCE_SPEC)
            alone = False
        except NoConvergence as exc:
            alone = exc.changes > 10.0 * DIVERGENCE_SPEC.rel_tol * abs(exc.value)
        assert alone == verdict
    assert _divergence_profiles([], p) == []


def _reference_matrix_estimate(p, N, spec, level):
    # the table as first written: a complex power z**a per node and the cross
    # weight r**(2 - a) e^{i t (1 - a)} / e
    from ffq.holo_series import truncated_exp_c
    from ffq.quadrature import _polar_blocks
    a = p.alpha
    km1 = INF if p.k == INF else p.k - 1
    A = np.zeros((N + 1, N + 1), dtype=complex)
    B = np.zeros((N + 1, N + 1), dtype=complex)
    for rb, tn, z, w in _polar_blocks(spec, level):
        r = np.repeat(rb, len(tn))
        t = np.tile(tn, len(rb))
        e = truncated_exp_c(z ** a, km1)
        zp = np.empty((N + 1, len(z)), dtype=complex)
        zp[0] = 1.0
        for n in range(1, N + 1):
            zp[n] = zp[n - 1] * z
        zpc = zp.conj()
        A += (zpc * (w * r ** (3.0 - 2.0 * a) / np.abs(e) ** 2)) @ zp.T
        B += (zp * (w * r ** (2.0 - a) * np.exp(1j * t * (1.0 - a)) / e)) @ zpc.T
    return np.stack([A, B])


# every (alpha, k) but the divergent (1, 2), where no table is formed
@pytest.mark.parametrize("alpha, k", [(a, k) for a in (0.3, 0.5, 0.7, 1.0)
                                      for k in (1, 2, 3, INF) if (a, k) != (1.0, 2)])
def test_matrix_estimate_matches_the_complex_power_formula(alpha, k):
    from ffq.ff_complex import _matrix_estimate
    p = FFParams(alpha=alpha, sigma=0.5, k=k)
    for level in range(3):
        got = _matrix_estimate(p, 4, NESTED_SPEC, level)
        ref = _reference_matrix_estimate(p, 4, NESTED_SPEC, level)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
