"""The Gram matrix G of the series norm, ||f||**2 = a^H G a: checked against
the term-by-term assemblies it replaced, for being real and exactly
symmetric, for positive definiteness, and through the reproducing kernel
K_z = G^{-1} conj(e(z)) of the degree-N polynomials against the quadrature
inner product."""

import math

import numpy as np
import pytest

from ffq import (INF, CoefficientIntegrals, CPowerSeries, DomainError, FFParams,
                 QPowerSeries, Quaternion, closed_k1_matrices,
                 coefficient_integrals, dirichlet_norm_closed_k1, dirichlet_norm_series,
                 inner_product_c, qdirichlet_norm_series, random_frame, split)
from ffq.ff_complex import _measure_vanishes, series_gram
from ffq.quaternion import frame_coords
from ffq.slice_regular import _qmul, eval_q, regular_conjugate
from ffq.verify import GRID_ALPHAS, GRID_KS, GRID_SIGMAS

from conftest import random_quaternion

DEGREE = 6
TABLE_CELLS = [(0.7, 0.35, 2), (0.3, 0.8, INF), (1.0, 0.5, 1)]
CLOSED_CELL = (0.55, 0.6, 1)


def series_norm_reference(f, p, A, B):
    """Oracle: the Bergman diagonal, the (s/alpha)**2 c^H A c form and the
    2 (1-s) s/alpha Re(c^T B conj a) cross term, summed term by term, plus
    the point term alpha |f(1/2)|**2."""
    a = np.asarray(f.coeffs, dtype=complex)
    deg = len(a) - 1
    s = p.sigma
    point = p.alpha * abs(f(0.5)) ** 2
    if deg < 0:
        return point
    n = np.arange(deg + 1)
    bergman = (1.0 - s) ** 2 * math.pi * float(np.sum(np.abs(a) ** 2 / (n + 1)))
    c = (n[:deg] + 1) * a[1:]
    quad_form = float(np.vdot(c, A[:deg, :deg] @ c).real) if deg > 0 else 0.0
    cross = 0.0
    if deg > 0:
        cross = (2.0 * (1.0 - s) * s / p.alpha
                 * float((c @ (B[:deg, : deg + 1] @ np.conj(a))).real))
    return point + bergman + (s / p.alpha) ** 2 * quad_form + cross


def qseries_norm_reference(f, p, frame, A, B):
    """Oracle: the same three terms weighted by the C(i) projection of the
    coefficient products a_n conj(a_m), plus alpha |f(1/2)|**2 evaluated at
    the quaternion 1/2."""
    s, d = p.sigma, max(f.degree, 0)
    gram_q = _qmul(f.parts, regular_conjugate(f).parts, np.multiply.outer)
    gram = frame_coords(gram_q.view(float), frame)[0]
    n = np.arange(1.0, f.degree + 2)
    bergman = (1.0 - s) ** 2 * np.pi * np.sum(gram.diagonal().real / n)
    quad_form = np.sum(n[:d, None] * gram[1:, 1:] * n[:d] * A[:d, :d].T).real
    cross = 2.0 * np.sum(n[:d, None] * gram[1:, :] * B[:d, : d + 1]).real
    point = p.alpha * eval_q(f, Quaternion(0.5)).norm_sq()
    return float(point + bergman + (s / p.alpha) ** 2 * quad_form
                 + (1.0 - s) * s / p.alpha * cross)


@pytest.fixture(scope="module")
def cells():
    """(params, A, B, route) for three table cells and the closed k = 1 one."""
    out = []
    for alpha, sigma, k in TABLE_CELLS:
        p = FFParams(alpha=alpha, sigma=sigma, k=k)
        ci = coefficient_integrals(p, DEGREE)
        out.append((p, ci.alpha_mn, ci.beta_mn,
                    lambda f, p=p, ci=ci: dirichlet_norm_series(f, p, ci)))
    alpha, sigma, k = CLOSED_CELL
    p = FFParams(alpha=alpha, sigma=sigma, k=k)
    A, B = closed_k1_matrices(alpha, DEGREE)
    out.append((p, A, B, lambda f, p=p: dirichlet_norm_closed_k1(f, p)))
    return out


def _close(got, want, rel=1e-13):
    return abs(got - want) <= rel * abs(want)


def test_complex_routes_match_the_term_by_term_assembly(cells, rng):
    for p, A, B, route in cells:
        series = [CPowerSeries([])] + [
            CPowerSeries(rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1))
            for d in list(range(DEGREE + 1)) * 4]
        for f in series:
            v = route(f)
            assert _close(v.norm_sq, series_norm_reference(f, p, A, B))
            assert v.point_term == p.alpha * abs(f(0.5)) ** 2


def nonsymmetric_cell(rng):
    """Random real non-symmetric tables: the grid's alpha_mn is symmetric,
    so these are what pin every transpose."""
    p = FFParams(alpha=0.45, sigma=0.3, k=2)
    A, B = rng.standard_normal((2, DEGREE + 1, DEGREE + 1))
    return p, A, B


def test_gram_matches_the_assembly_for_nonsymmetric_tables(rng):
    p, A, B = nonsymmetric_cell(rng)
    G = series_gram(p, A, B, DEGREE)
    for d in range(DEGREE + 1):
        f = CPowerSeries(rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1))
        got = np.vdot(f.coeffs, G[: d + 1, : d + 1] @ f.coeffs).real
        assert _close(got, series_norm_reference(f, p, A, B))


def test_gram_rejects_a_complex_table(rng):
    p, A, B = nonsymmetric_cell(rng)
    for tables in ((A + 0j, B), (A, B + 1e-17j)):
        with pytest.raises(DomainError):
            series_gram(p, *tables, DEGREE)


def test_quaternionic_series_matches_the_term_by_term_assembly(cells, rng):
    for p, A, B in [cell[:3] for cell in cells] + [nonsymmetric_cell(rng)]:
        ci = CoefficientIntegrals(A, B, p, 0.0)
        series = [QPowerSeries([])] + [
            QPowerSeries([random_quaternion(rng) for _ in range(d + 1)])
            for d in list(range(DEGREE + 1)) * 2]
        for f in series:
            frame = random_frame(rng)
            v = qdirichlet_norm_series(f, p, frame, ci)
            assert _close(v.norm_sq, qseries_norm_reference(f, p, frame, A, B))
            pair = split(f, frame)
            for part, comp in zip(v.split_parts, (pair.f1, pair.f2)):
                assert _close(part, series_norm_reference(comp, p, A, B))


def test_gram_is_hermitian(cells):
    for p, A, B, _ in cells:
        assert A.dtype == B.dtype == np.float64
        G = series_gram(p, A, B, DEGREE)
        assert G.shape == (DEGREE + 1, DEGREE + 1)
        assert G.dtype == np.float64 and np.array_equal(G, G.T)


def test_gram_is_positive_definite_on_the_finite_grid():
    finite = [(alpha, k) for alpha in GRID_ALPHAS for k in GRID_KS
              if not _measure_vanishes(alpha, k)]
    assert len(finite) == 8
    for alpha, k in finite:
        ci = coefficient_integrals(FFParams(alpha=alpha, sigma=0.5, k=k), DEGREE)
        for sigma in GRID_SIGMAS:
            G = series_gram(FFParams(alpha=alpha, sigma=sigma, k=k),
                            ci.alpha_mn, ci.beta_mn, DEGREE)
            assert np.linalg.eigvalsh(G)[0] > 0


def test_degree_zero_block_reads_no_table_entry():
    p = FFParams(alpha=0.8, sigma=0.35, k=2)
    G = series_gram(p, np.zeros((0, 0)), np.zeros((0, 1)), 0)
    assert G.shape == (1, 1)
    assert abs(G[0, 0] - (0.8 + (1 - 0.35) ** 2 * math.pi)) <= 1e-15 * G[0, 0].real


@pytest.mark.parametrize("alpha, sigma, k", TABLE_CELLS[:2])
def test_gram_inverse_is_the_reproducing_kernel(alpha, sigma, k, rng):
    # <f, K_z> = k^H G a = e(z)^T a = f(z) for K_z with coefficients
    # k = G^{-1} conj(e(z)); the left side is the quadrature inner product
    p = FFParams(alpha=alpha, sigma=sigma, k=k)
    ci = coefficient_integrals(p, DEGREE)
    G = series_gram(p, ci.alpha_mn, ci.beta_mn, DEGREE)
    n = np.arange(DEGREE + 1)
    for _ in range(2):
        f = CPowerSeries(rng.standard_normal(DEGREE + 1)
                         + 1j * rng.standard_normal(DEGREE + 1))
        for z in (0.3j, 0.6 * np.exp(2j), 0.85 * np.exp(-2.5j), 0.85):
            kernel = CPowerSeries(np.linalg.solve(G, np.conj(complex(z) ** n)))
            assert abs(inner_product_c(f, kernel, p) - f(z)) <= 1e-8 * abs(f(z))
