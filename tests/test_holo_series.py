import math

import numpy as np
import pytest

from ffq import (CPowerSeries, INF, BranchError, DomainError, FFParams,
                 coefficient_integrals, fractal_measure_c, in_slit_disk,
                 principal_power_c, truncated_exp_c)
from ffq.ff_real import measure_truncated_exp
from ffq.holo_series import fractal_measure_deriv_c
from ffq.quadrature import DEFAULT_SPEC, _polar_blocks


def test_evaluate_examples():
    assert CPowerSeries([1.0])(0.3 + 0.9j) == 1.0
    z = 0.3 + 0.4j
    assert CPowerSeries([0.0, 1.0])(z) == z
    assert CPowerSeries([1.0, 2.0, 1.0])(0.5) == 2.25  # (1+z)^2


def test_evaluate_vectorised():
    f = CPowerSeries([1.0, 0.0, 1.0])
    zs = np.array([0.0, 0.5j, -0.25])
    assert np.allclose(f(zs), 1.0 + zs ** 2)


def test_derivative_examples():
    assert CPowerSeries([3.0 + 1j]).derivative().degree == -1
    assert CPowerSeries([0, 0, 1]).derivative() == CPowerSeries([0, 2])
    # order-2 exponential sum drops to order 1
    assert CPowerSeries([1, 1, 0.5]).derivative() == CPowerSeries([1, 1])


def test_derivative_is_built_once():
    f = CPowerSeries([2.0, 1j, 0.5, -3.0])
    d = f.derivative()
    assert d is f.derivative()
    assert d.coeffs.tolist() == [1j, 1.0, -9.0]
    assert CPowerSeries([5.0]).derivative().degree == -1
    with pytest.raises(AttributeError):
        f.coeffs = np.zeros(2)
    with pytest.raises(AttributeError):
        f._derivative = CPowerSeries([1.0])
    assert f.derivative() is d


def test_principal_power_examples():
    assert principal_power_c(1.0, 0.37) == 1.0
    # oracle: exp(alpha (ln|z| + i Arg z))
    expected = np.exp(0.5 * (np.log(1.0) + 1j * np.pi / 2))
    assert abs(principal_power_c(1j, 0.5) - expected) < 1e-16
    assert abs(principal_power_c(0.49, 0.3) - 0.49 ** 0.3) < 1e-16


def test_principal_power_branch_conventions():
    with pytest.raises(BranchError):
        principal_power_c(0.0, 0.5)
    # Arg(-1) = +pi regardless of signed-zero imaginary part
    assert abs(principal_power_c(complex(-1.0, -0.0), 0.5) - 1j) < 1e-15


def test_principal_power_at_one_is_z_bit_for_bit():
    z = np.array([[0.3 + 0.4j, -0.5 + 0.0j, complex(-0.7, -0.0)],
                  [0.9, 1e-300 - 2e-300j, -0.2 - 0.6j]])
    for zz in (z, z[0], z[1, 2]):
        got = principal_power_c(zz, 1.0)
        assert np.asarray(got).tobytes() == np.asarray(zz).tobytes()
    scalar = principal_power_c(0.3 + 0.4j, 1.0)
    assert type(scalar) is complex and scalar == 0.3 + 0.4j
    assert principal_power_c(z, 1.0) is not z  # a copy, never the input
    for zero in (0.0, np.array([0.5, 0.0])):
        with pytest.raises(BranchError):
            principal_power_c(zero, 1.0)


@pytest.mark.parametrize("z", [math.nan, complex(math.nan, 0.0), complex(0.5, math.nan),
                               math.inf, -math.inf, complex(0.0, -math.inf),
                               np.float64(math.nan), np.complex128(complex(math.inf, 1.0))])
def test_principal_power_rejects_a_non_finite_point(z):
    # was inf+nanj or nan+nanj with a RuntimeWarning
    for alpha in (0.5, 1.0):
        with pytest.raises(DomainError, match="finite"):
            principal_power_c(z, alpha)
        with pytest.raises(DomainError, match="finite"):
            principal_power_c(np.array([0.5, z, 0.25j]), alpha)


@pytest.mark.parametrize("a,b", [(0.3, 0.5), (0.9, 0.1), (0.25, 0.75)])
def test_power_addition_law(rng, a, b):
    for _ in range(20):
        z = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
        if not in_slit_disk(z):
            continue
        lhs = principal_power_c(z, a) * principal_power_c(z, b)
        rhs = principal_power_c(z, a + b)
        assert abs(lhs - rhs) <= 1e-12


def test_slit_disk_membership():
    assert in_slit_disk(0.5)
    assert in_slit_disk(1e-9)  # positive reals accepted
    assert not in_slit_disk(0.0)
    assert not in_slit_disk(-0.5)  # on the removed segment
    assert not in_slit_disk(-0.999999)
    assert in_slit_disk(-0.5 + 1e-12j)  # off the segment
    assert not in_slit_disk(1.0)
    assert not in_slit_disk(2.0j)
    assert in_slit_disk(0.3 + 0.4j)
    assert not in_slit_disk(-0.25)


def test_fractal_measure_examples():
    z = 0.2 - 0.3j
    assert fractal_measure_c(z, 0.6, 0) == 1.0
    assert abs(fractal_measure_c(0.5, 1.0, 1) - 1.5) < 1e-16
    # oracle: z**(1/2) = 1/2 at z = 1/4, then a scalar exponential
    assert abs(fractal_measure_c(0.25, 0.5, INF) - math.exp(0.5)) < 1e-15


def test_fractal_measure_rejects_cut():
    with pytest.raises(BranchError):
        fractal_measure_c(-0.3, 0.5, 1)


def test_fractal_measure_matches_real_line():
    for t in (0.1, 0.4, 0.9):
        for alpha, k in ((0.5, 1), (0.8, 3), (1.0, INF)):
            m = measure_truncated_exp(alpha, k)
            assert abs(fractal_measure_c(t, alpha, k) - m(t)) <= 1e-14


@pytest.mark.parametrize("alpha", [0.5, 0.9, 1.0])
def test_measure_derivative_is_finite_below_the_smallest_normal(alpha):
    # alpha z**(alpha-1) e_{k-1}(z**alpha) at subnormal |z|, where z**alpha / z
    # overflows inside numpy's complex division
    mpmath = pytest.importorskip("mpmath")
    zs = [r * complex(math.cos(t), math.sin(t)) for r in (1e-310, 1e-320) for t in (0.0, 1.0)]
    for k in (1, 3, INF):
        got = fractal_measure_deriv_c(np.array(zs), alpha, k)
        for z, g in zip(zs, got):
            w = mpmath.power(mpmath.mpc(z), alpha)
            e = (mpmath.exp(w) if k == INF
                 else sum(w ** n / mpmath.factorial(n) for n in range(k)))
            want = complex(alpha * mpmath.power(mpmath.mpc(z), alpha - 1) * e)
            assert abs(g - want) <= 1e-12 * abs(want)
            assert fractal_measure_deriv_c(z, alpha, k) == g


@pytest.mark.parametrize("alpha, k", [(0.5, 1), (0.7, 2), (1.0, INF)])
def test_measure_derivative_keeps_its_bits_at_normal_nodes(alpha, k):
    z = np.concatenate([z for _, _, z, _ in _polar_blocks(DEFAULT_SPEC, 0)])
    w = principal_power_c(z, alpha)
    km1 = INF if k == INF else k - 1
    want = alpha * w / z * truncated_exp_c(w, km1)
    assert fractal_measure_deriv_c(z, alpha, k).tobytes() == want.tobytes()


def test_truncated_exp_c_preserves_real_dtype():
    out = truncated_exp_c(np.array([0.5, 1.0]), 3)
    assert out.dtype == np.float64


def _truncated_exp_loop(w, k):
    """truncated_exp_c as it summed before it started at 1 + w: from 1, one
    term w**n / n! at a time, with the same stop every _EXP_CHECK terms."""
    from ffq.errors import check_order
    from ffq.holo_series import _EXP_CHECK
    k = check_order(k)
    ww = np.asarray(w)
    if k == INF:
        out = np.exp(ww)
    else:
        out = np.ones_like(ww)
        term = np.ones_like(ww)
        for n in range(1, k + 1):
            term = term * ww / n
            out = out + term
            if n % _EXP_CHECK == 0 and np.all((term == 0) | ~np.isfinite(out)):
                break
    if np.isscalar(w) or getattr(w, "ndim", 1) == 0:
        return out[()]
    return out


def test_truncated_exp_c_keeps_the_bits_of_the_term_loop(rng):
    # on rule nodes z and z**alpha, random real and complex arrays, and
    # scalars of every kind: the same value, dtype and type
    args = []
    for level in range(2):
        for block in _polar_blocks(DEFAULT_SPEC, level):
            args += [block.z, block.power(0.3)]
    args += [rng.standard_normal(50), 3 * rng.standard_normal(50),
             rng.standard_normal(50) + 1j * rng.standard_normal(50),
             np.array([1, 2, 3]), np.array([1.5, -0.5], dtype=np.float32)]
    args += [0.3, -2.5, 0.2 + 0.1j, 2, True, np.float64(0.7), np.float32(0.5),
             np.complex128(-0.4j), np.int64(3), np.array(0.7)]
    for w in args:
        for k in list(range(7)) + [64, 200, INF]:
            got, want = truncated_exp_c(w, k), _truncated_exp_loop(w, k)
            assert type(got) is type(want)
            assert np.asarray(got).dtype == np.asarray(want).dtype
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_truncated_exp_c_stops_once_no_term_can_change_the_sum():
    w = np.array([0.3 + 0.4j, -0.99, 1j, 0.0])
    # every term underflows to zero by degree 200 on |w| <= 1: the same bits
    assert truncated_exp_c(w, 10 ** 200).tobytes() == truncated_exp_c(w, 200).tobytes()
    assert truncated_exp_c(0.5, 10 ** 200) == truncated_exp_c(0.5, 200)
    with np.errstate(over="ignore", invalid="ignore"):
        assert truncated_exp_c(1e200, 10 ** 200) == math.inf  # overflowed sums stop too
        assert not np.isfinite(truncated_exp_c(np.array([-1e5, 2.0]), 10 ** 200)[0])


def test_exponential_sums_have_no_zero_inside_the_unit_disk():
    # Enestrom-Kakeya: the coefficients 1/j! of e_m have ratios j + 1 >= 1,
    # so every zero has |w| >= 1; |z**alpha| < 1 on the slit disk, hence
    # e_{k-1}(z**alpha) never vanishes there.  Only e_1 (zero at -1) reaches 1.
    moduli = {m: np.min(np.abs(np.roots([1.0 / math.factorial(j)
                                         for j in range(m, -1, -1)])))
              for m in range(1, 61)}
    assert min(moduli.values()) >= 1.0 - 1e-12
    assert abs(moduli[1] - 1.0) <= 1e-12
    assert all(v > 1.0 + 1e-3 for m, v in moduli.items() if m > 1)


def test_coefficient_integrals_reject_order_zero():
    with pytest.raises(DomainError):
        coefficient_integrals(FFParams(alpha=0.5, sigma=0.5, k=0), 2)
