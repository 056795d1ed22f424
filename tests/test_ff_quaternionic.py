import math

import numpy as np
import pytest

from ffq import (E1, E2, E3, CPowerSeries, DivergentIntegral, DomainError,
                 FFParams, INF, NoConvergence, QPowerSeries, Quaternion,
                 QuadratureSpec, SliceFrame, STANDARD_FRAME, coefficient_integrals,
                 dirichlet_norm_quad, dirichlet_norms_quad,
                 exact_coefficient_integrals, ff_eval_c, ff_eval_q, q_reproduce, qdirichlet_inner_product,
                 qdirichlet_norm, qdirichlet_norm_series, random_frame,
                 reproduce_identity_1, reproduce_identity_2, slice_norm_compare, split)

from ffq.verify import TOL_NORM_AGREEMENT

from conftest import qdist, random_quaternion


@pytest.fixture(scope="module")
def spec():
    return QuadratureSpec()


def test_closed_k1_qnorm_is_the_series_route_bit_for_bit(rng):
    for _ in range(300):
        p = FFParams(alpha=rng.uniform(0.02, 1.0), sigma=rng.uniform(0.0, 1.0), k=1)
        f = QPowerSeries([random_quaternion(rng) for _ in range(rng.integers(0, 9) + 1)])
        frame = random_frame(rng)
        closed = qdirichlet_norm(f, p, frame, method="closed-k1")
        series = qdirichlet_norm(f, p, frame, method="series")
        assert (closed.method, series.method) == ("closed-k1", "series")
        assert (closed.norm_sq, closed.split_parts) == (series.norm_sq, series.split_parts)


def test_ff_eval_q_constant():
    p = FFParams(alpha=0.7, sigma=0.3, k=2)
    c = Quaternion(0.4, -1.0, 0.2, 2.0)
    got = ff_eval_q(QPowerSeries([c]), p, STANDARD_FRAME, 0.2 + 0.1j)
    assert qdist(got, c * 0.7) < 1e-14


def test_ff_eval_q_real_coefficients_reduce_to_complex():
    p = FFParams(alpha=0.6, sigma=0.4, k=INF)
    coeffs = [0.5, -1.0, 0.25]
    fq = QPowerSeries(coeffs)
    fc = CPowerSeries(coeffs)
    z = 0.45
    got = ff_eval_q(fq, p, STANDARD_FRAME, z)
    expected = ff_eval_c(fc, p, z)
    assert abs(got.w - expected.real) < 1e-14
    assert abs(got.x - expected.imag) < 1e-14
    assert abs(got.y) < 1e-14 and abs(got.z) < 1e-14


def test_ff_eval_q_dual_paths_agree(rng):
    for _ in range(12):
        f = QPowerSeries([random_quaternion(rng) for _ in range(5)])
        frame = random_frame(rng)
        p = FFParams(alpha=(0.5, 1.0)[_ % 2], sigma=0.45, k=(1, 2, INF)[_ % 3])
        z = complex(rng.uniform(0.1, 0.6), rng.uniform(-0.5, 0.5))
        va = ff_eval_q(f, p, frame, z, method="split")
        vb = ff_eval_q(f, p, frame, z, method="direct")
        assert qdist(va, vb) <= 1e-11 * max(va.norm(), 1.0)


def test_qnorm_zero_and_scalar(spec):
    p = FFParams(alpha=1.0, sigma=0.5, k=1)
    assert qdirichlet_norm(QPowerSeries([0]), p, STANDARD_FRAME, spec).norm_sq == 0.0
    v = qdirichlet_norm(QPowerSeries([1]), p, STANDARD_FRAME, spec)
    c = dirichlet_norm_quad(CPowerSeries([1]), p, spec)
    assert abs(v.norm_sq - c.norm_sq) < 1e-12
    assert v.split_parts[1] == 0.0


def test_qnorm_pure_j_component(spec):
    # f = q e3 in the frame (e1, e2): f1 = 0 and f2(z) = i z, so the norm
    # must equal the complex norm of z
    p = FFParams(alpha=0.7, sigma=0.6, k=2)
    v = qdirichlet_norm(QPowerSeries([0, E3]), p, STANDARD_FRAME, spec)
    c = dirichlet_norm_quad(CPowerSeries([0, 1]), p, spec)
    assert v.split_parts[0] == 0.0
    assert abs(v.norm_sq - c.norm_sq) <= 1e-12 * c.norm_sq


def test_split_identity_is_algebraic(spec, rng):
    for _ in range(4):
        f = QPowerSeries([random_quaternion(rng) for _ in range(4)])
        frame = random_frame(rng)
        p = FFParams(alpha=0.8, sigma=0.35, k=INF)
        v = qdirichlet_norm(f, p, frame, spec)
        assert abs(v.norm_sq - sum(v.split_parts)) <= 1e-12 * max(v.norm_sq, 1.0)


def test_inner_product_against_norm(spec, rng):
    p = FFParams(alpha=0.6, sigma=0.5, k=1)
    f = QPowerSeries([random_quaternion(rng) for _ in range(4)])
    frame = random_frame(rng)
    ip = qdirichlet_inner_product(f, f, p, frame, spec)
    n = qdirichlet_norm(f, p, frame, spec).norm_sq
    assert abs(ip.w - n) <= 1e-10 * n
    assert ip.vector_norm() <= 1e-10 * n


def test_inner_product_right_linearity(spec, rng):
    p = FFParams(alpha=0.9, sigma=0.4, k=1)
    frame = STANDARD_FRAME
    f = QPowerSeries([random_quaternion(rng) for _ in range(3)])
    g = QPowerSeries([random_quaternion(rng) for _ in range(3)])
    a = Quaternion(0.3, -1.2, 0.5, 0.8)
    lhs = qdirichlet_inner_product(f, g * a, p, frame, spec)
    rhs = qdirichlet_inner_product(f, g, p, frame, spec) * a
    assert qdist(lhs, rhs) <= 1e-10 * max(rhs.norm(), 1.0)


def test_inner_product_conjugate_symmetry(spec, rng):
    p = FFParams(alpha=0.7, sigma=0.55, k=2)
    frame = random_frame(rng)
    for _ in range(3):
        f = QPowerSeries([random_quaternion(rng) for _ in range(3)])
        g = QPowerSeries([random_quaternion(rng) for _ in range(3)])
        fg = qdirichlet_inner_product(f, g, p, frame, spec)
        gf = qdirichlet_inner_product(g, f, p, frame, spec)
        assert qdist(fg, gf.conjugate()) <= 1e-10 * max(fg.norm(), 1.0)


def test_norm_right_homogeneity(spec, rng):
    p = FFParams(alpha=0.8, sigma=0.3, k=1)
    f = QPowerSeries([random_quaternion(rng) for _ in range(4)])
    a = Quaternion(1.2, 0.5, -0.7, 0.1)
    na = qdirichlet_norm(f * a, p, STANDARD_FRAME, spec).norm_sq
    n = qdirichlet_norm(f, p, STANDARD_FRAME, spec).norm_sq
    assert abs(math.sqrt(na) - math.sqrt(n) * a.norm()) <= 1e-10 * math.sqrt(na)


def test_right_module_operations(spec, rng):
    p = FFParams(alpha=0.8, sigma=0.3, k=2)
    f = QPowerSeries([random_quaternion(rng) for _ in range(4)])
    g = QPowerSeries([random_quaternion(rng) for _ in range(6)])
    back = (f + g) - g
    assert back.degree == g.degree and not np.any(back.parts[f.degree + 1:])
    assert np.max(np.abs(back.parts[: f.degree + 1] - f.parts)) <= 1e-14
    assert np.array_equal((-f).parts, -f.parts) and -(-f) == f
    a = Quaternion(1.2, 0.5, -0.7, 0.1)
    for method, tol in (("series", 1e-14), ("quad", TOL_NORM_AGREEMENT)):
        n = qdirichlet_norm(f, p, STANDARD_FRAME, spec, method).norm_sq
        na = qdirichlet_norm(f * a, p, STANDARD_FRAME, spec, method).norm_sq
        assert abs(na - a.norm() ** 2 * n) <= tol * na
        assert qdirichlet_norm(-f, p, STANDARD_FRAME, spec, method).norm_sq == n


def test_series_reduces_to_complex_for_real_coefficients(spec):
    p = FFParams(alpha=0.5, sigma=0.5, k=1)
    ci = coefficient_integrals(p, 3, spec)
    coeffs = [1.0, -0.5, 0.0, 2.0]
    v = qdirichlet_norm_series(QPowerSeries(coeffs), p, STANDARD_FRAME, ci)
    from ffq import dirichlet_norm_series
    c = dirichlet_norm_series(CPowerSeries(coeffs), p, ci)
    assert abs(v.norm_sq - c.norm_sq) <= 1e-12 * c.norm_sq
    assert abs(v.split_parts[1]) == 0.0


def test_series_pure_j_component(spec):
    p = FFParams(alpha=0.7, sigma=0.6, k=2)
    ci = coefficient_integrals(p, 1, spec)
    v = qdirichlet_norm_series(QPowerSeries([0, E3]), p, STANDARD_FRAME, ci)
    assert v.split_parts[0] == 0.0
    c = dirichlet_norm_quad(CPowerSeries([0, 1]), p, spec)
    assert abs(v.norm_sq - c.norm_sq) <= 1e-6 * c.norm_sq


def test_series_matches_quadrature_random(spec, rng):
    p = FFParams(alpha=0.6, sigma=0.45, k=INF)
    ci = coefficient_integrals(p, 4, spec)
    for _ in range(3):
        f = QPowerSeries([random_quaternion(rng) for _ in range(5)])
        frame = random_frame(rng)
        ns = qdirichlet_norm_series(f, p, frame, ci)
        nq = qdirichlet_norm(f, p, frame, spec)
        assert abs(ns.norm_sq - nq.norm_sq) <= 1e-6 * nq.norm_sq
        assert abs(ns.norm_sq - sum(ns.split_parts)) <= 1e-12 * ns.norm_sq


def test_qnorm_methods_share_the_complex_dispatch(spec, rng):
    # k = 2 at alpha < 1 is the one cell whose series table is integrated
    f = QPowerSeries([random_quaternion(rng) for _ in range(3)])
    p = FFParams(alpha=0.6, sigma=0.45, k=2)
    ci = coefficient_integrals(p, 2, spec)
    assert (qdirichlet_norm(f, p, STANDARD_FRAME, spec, "series")
            == qdirichlet_norm_series(f, p, STANDARD_FRAME, ci))
    p = FFParams(alpha=0.6, sigma=0.45, k=1)
    quad = qdirichlet_norm(f, p, STANDARD_FRAME, spec)
    closed = qdirichlet_norm(f, p, STANDARD_FRAME, method="closed-k1")
    assert (quad.method, closed.method) == ("quad", "closed-k1")
    assert abs(quad.norm_sq - closed.norm_sq) <= 1e-8 * quad.norm_sq
    with pytest.raises(ValueError):
        qdirichlet_norm(f, p, STANDARD_FRAME, spec, "bogus")


def test_closed_k1_qnorm_is_the_series_form_on_the_closed_tables(rng):
    p = FFParams(alpha=0.6, sigma=0.45, k=1)
    for degree in (0, 3):
        f = QPowerSeries([random_quaternion(rng) for _ in range(degree + 1)])
        frame = random_frame(rng)
        ci = exact_coefficient_integrals(p, degree)
        closed = qdirichlet_norm(f, p, frame, method="closed-k1")
        series = qdirichlet_norm_series(f, p, frame, ci)
        assert closed.method == "closed-k1"
        assert closed.norm_sq == series.norm_sq
        assert closed.split_parts == series.split_parts


def test_series_norm_of_a_constant_needs_no_table(no_quadrature):
    p = FFParams(alpha=1.0, sigma=0.5, k=2)
    want = 1.0 + math.pi / 4.0
    for c in (1.0, E2):
        v = qdirichlet_norm(QPowerSeries([c]), p, STANDARD_FRAME, method="series")
        assert abs(v.norm_sq - want) <= 1e-12 * want


def test_frame_covariance_for_intrinsic_functions(spec, rng):
    p = FFParams(alpha=0.75, sigma=0.4, k=1)
    f = QPowerSeries([0.3, -1.0, 0.0, 0.7])
    base = qdirichlet_norm(f, p, STANDARD_FRAME, spec).norm_sq
    for _ in range(10):
        frame = random_frame(rng)
        n = qdirichlet_norm(f, p, frame, spec).norm_sq
        assert abs(n - base) <= 1e-9 * base


def test_slice_comparison(spec, rng):
    p = FFParams(alpha=0.7, sigma=0.4, k=2)
    ci = coefficient_integrals(p, 4, spec)
    # intrinsic functions and constants sit at ratio 1 exactly
    f = QPowerSeries([1.0, 0.5, -0.25])
    r = slice_norm_compare(f, p, STANDARD_FRAME, SliceFrame(E2, E3), ci=ci)
    assert abs(r - 1.0) <= 1e-12
    c = QPowerSeries([Quaternion(0.3, 1.0, -2.0, 0.5)])
    r = slice_norm_compare(c, p, STANDARD_FRAME, SliceFrame(E3, E1), ci=ci)
    assert abs(r - 1.0) <= 1e-12
    for _ in range(5):
        f = QPowerSeries([random_quaternion(rng) for _ in range(4)])
        r = slice_norm_compare(f, p, random_frame(rng), random_frame(rng), ci=ci)
        assert r <= 8.0 + 1e-9
    with pytest.raises(ZeroDivisionError):
        slice_norm_compare(QPowerSeries([0]), p, STANDARD_FRAME,
                           SliceFrame(E2, E3), ci=ci)


def test_q_reproduce_matches_complex_for_real_data(spec):
    p = FFParams(alpha=1.0, sigma=0.5, k=1)
    coeffs = [0.5, 1.0, -0.75]
    res = q_reproduce(QPowerSeries(coeffs), p, STANDARD_FRAME,
                      Quaternion(0.4), spec)
    c1 = reproduce_identity_1(CPowerSeries(coeffs), p, 0.4, spec)
    c2 = reproduce_identity_2(CPowerSeries(coeffs), p, 0.4, spec)
    assert abs(res.identity1 - c1) <= 1e-9
    assert abs(res.identity2 - c2) <= 1e-9


def test_q_reproduce_at_base_point(spec, rng):
    p = FFParams(alpha=1.0, sigma=0.4, k=INF)
    f = QPowerSeries([random_quaternion(rng) for _ in range(3)])
    res = q_reproduce(f, p, STANDARD_FRAME, Quaternion(0.5), spec)
    assert res.identity2 <= 1e-10


def test_q_reproduce_off_slice(spec):
    # the slice of q here is C(e2), transverse to the data frame (e1, e2)
    p = FFParams(alpha=1.0, sigma=0.5, k=1)
    f = QPowerSeries([0, 0, 1])  # f(q) = q^2
    res = q_reproduce(f, p, STANDARD_FRAME, Quaternion(0.3, 0.0, 0.2), spec)
    assert res.identity1 < 1e-5
    assert res.identity2 < 1e-5


@pytest.mark.parametrize("method", ["split", "direct"])
def test_ff_eval_q_takes_beta_one_only(method):
    p = FFParams(alpha=0.5, sigma=0.5, k=1, beta=0.5)
    f = QPowerSeries([Quaternion(1.0), Quaternion(0.0, 1.0, 0.5)])
    with pytest.raises(DomainError):
        ff_eval_q(f, p, STANDARD_FRAME, 0.3 + 0.2j, method=method)
    with pytest.raises(TypeError):
        ff_eval_q(f, p, STANDARD_FRAME, 0.3 + 0.2j, method=method, f_beta=f)


def test_qnorm_rejects_fractional_beta(spec):
    p = FFParams(alpha=0.5, sigma=0.5, k=1, beta=0.5)
    with pytest.raises(DomainError):
        qdirichlet_norm(QPowerSeries([1]), p, STANDARD_FRAME, spec)
    with pytest.raises(DomainError):
        ff_eval_q(QPowerSeries([1, E1]), p, STANDARD_FRAME, 0.3)


def test_quad_norm_integrates_the_split_pair_as_one_stack(spec, rng, monkeypatch):
    import ffq.ff_complex
    calls = []
    integrate = ffq.ff_complex.integrate_disk

    def counted(integrand, spec):
        rows = set()
        calls.append(rows)

        def counted_rows(zeta):
            out = integrand(zeta)
            rows.add(len(out))
            return out
        return integrate(counted_rows, spec)

    monkeypatch.setattr(ffq.ff_complex, "integrate_disk", counted)
    p = FFParams(alpha=0.6, sigma=0.5, k=2)
    frame = random_frame(rng)
    f = QPowerSeries([random_quaternion(rng) for _ in range(3)])
    v = qdirichlet_norm(f, p, frame, spec)
    assert calls == [{2}]  # one integral of a 2-row stack
    pair = split(f, frame)
    for part, got in zip((pair.f1, pair.f2), v.split_parts):
        alone = dirichlet_norm_quad(part, p, spec).norm_sq
        assert abs(got - alone) <= 1e-13 * alone


def test_quad_norm_decides_divergence_before_any_quadrature(no_quadrature):
    # divergent: decided per split component, before any quadrature
    p = FFParams(alpha=1.0, sigma=0.5, k=2)
    for coeffs in ([0, E2], [0, 1]):
        with pytest.raises(DivergentIntegral):
            qdirichlet_norm(QPowerSeries(coeffs), p, STANDARD_FRAME)


def test_quad_norm_no_convergence_carries_the_field_sum():
    capped = QuadratureSpec(nr=4, ntheta=4, panels_r=1, panels_theta=1,
                            rel_tol=1e-300, abs_tol=0.0, max_refine=1)
    p = FFParams(alpha=0.5, sigma=0.5, k=1)
    f = QPowerSeries([Quaternion(1, 0, 0, 1), Quaternion(1, 0, 1, 0)])
    with pytest.raises(NoConvergence) as info:
        qdirichlet_norm(f, p, STANDARD_FRAME, capped)
    assert type(info.value.value) is float and info.value.error > 0
    pair = split(f, STANDARD_FRAME)
    fields = []
    for part in (pair.f1, pair.f2):
        with pytest.raises(NoConvergence) as alone:
            dirichlet_norm_quad(part, p, capped)
        fields.append(alone.value.value)
    assert abs(info.value.value - sum(fields)) <= 1e-13 * abs(sum(fields))
    # the sum of the two changes, which bounds the change of the sum
    with pytest.raises(NoConvergence) as stack:
        dirichlet_norms_quad((pair.f1, pair.f2), p, capped)
    assert info.value.changes == float(np.sum(stack.value.changes))
    assert info.value.changes >= info.value.error
