"""The scalar routes of the slit-disk functions against their array routes.

At a Python number, in_slit_disk, principal_power_c, the measure functions,
the integrating factor, the kernel weight and ff_eval_c compute in Python
math and cmath arithmetic; an array goes through numpy.  The two round log,
arctan2 and complex products differently, so their values are held to
rounding bounds propagated from the branch power's, not to each other's
bits.  Return types, exception classes and messages must match exactly.
"""

import math

import numpy as np
import pytest

from ffq import CPowerSeries, FFParams, INF, ff_complex
from ffq.holo_series import (fractal_measure_c, fractal_measure_deriv_c,
                             in_slit_disk, principal_power_c)

from conftest import outcome

U = 2.0 ** -53
ALPHAS = (0.02, 0.3, 0.5, 1.0)
KS = (1, 2, 3, INF)
SIGMAS = (0.0, 0.4, 1.0)
NAN, INFTY = math.nan, math.inf

# outside the slit disk: zero, the cut with either signed zero, |z| >= 1,
# NaN and infinities, as Python and numpy scalars
OUTSIDE = [0, False, 0.0, 0j, complex(0.0, -0.0), -0.5, complex(-0.5, 0.0),
           complex(-0.5, -0.0), np.float64(-0.25), np.complex128(complex(-0.7, -0.0)),
           1.0, True, 1j, complex(0.6, 0.8), -1.0, 2.0, complex(-3.0, -0.0),
           NAN, complex(NAN, 0.0), complex(0.5, NAN), np.float64(NAN), INFTY,
           complex(0.0, -INFTY), complex(INFTY, INFTY), -INFTY]


def array_route(fn, z, *args):
    """fn at z through the array route: a one-element array."""
    return fn(np.array([z], dtype=complex), *args)[0]


def slit_points(rng, n=60):
    """Random slit-disk points as Python and numpy scalars: radii uniform on
    (0, 1) and log-uniform down to 1e-300, angles over (-pi, pi), plus the
    positive axis, both sides of the cut and a subnormal radius."""
    r = np.concatenate([rng.uniform(0.0, 1.0, n // 2),
                        10.0 ** rng.uniform(-300.0, 0.0, n - n // 2)])
    t = rng.uniform(-np.pi, np.pi, n)
    pts = [complex(z) for z in r * np.exp(1j * t) if z != 0]
    pts += [0.5, np.float64(1e-9), complex(-0.5, 1e-12), complex(-0.5, -1e-300),
            np.complex128(0.3 - 0.4j), 1e-310 * complex(math.cos(2.0), math.sin(2.0))]
    return [z for z in pts if in_slit_disk(complex(z))]


def power_bound(z, alpha, w):
    """|z**alpha| times the relative error of exp(alpha (log|z| + i Arg z))
    when log and Arg are each off by an ulp."""
    return 4 * U * abs(w) * (1 + alpha * (abs(math.log(abs(z))) + math.pi))


def exp_sum_bound(w, k, dw):
    """e_k at two inputs dw apart, each sum rounded: |e_k'| <= e^|w|."""
    m = 1 if k == INF else k
    return math.exp(abs(w)) * (dw + 4 * (m + 1) * U)


def measure_bounds(z, alpha, k):
    """(bound, value) for e_k(z**alpha) and for its derivative."""
    w = principal_power_c(z, alpha)
    dw = power_bound(z, alpha, w)
    e, d = fractal_measure_c(z, alpha, k), fractal_measure_deriv_c(z, alpha, k)
    e_km1 = d * z / (alpha * w)
    km1 = INF if k == INF else k - 1
    rel_d = dw / abs(w) + exp_sum_bound(w, km1, dw) / abs(e_km1) + 8 * U
    return (exp_sum_bound(w, k, dw), e), (abs(d) * rel_d, d)


def horner_bound(a, z):
    return 4 * len(a) * U * sum(abs(c) * abs(z) ** n for n, c in enumerate(a))


def draw_series(rng, degree):
    a = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    return a * 10.0 ** rng.integers(-2, 3, size=degree + 1)


def test_slit_disk_membership_matches_the_array_route():
    rng = np.random.default_rng(60)
    pts = [complex(*rng.uniform(-1.2, 1.2, 2)) for _ in range(400)]
    pts += [complex(x, y) for x in (-1.0, -0.5, 0.0, 0.5, 1.0) for y in (0.0, -0.0)]
    for z in pts + OUTSIDE + slit_points(rng):
        got = in_slit_disk(z)
        assert type(got) is bool
        assert got == bool(array_route(in_slit_disk, z)), z


@pytest.mark.parametrize("alpha", ALPHAS)
def test_principal_power_matches_the_array_route(alpha):
    rng = np.random.default_rng(61)
    # the whole plane but zero: the cut takes Arg = +pi on both signed zeros
    pts = slit_points(rng) + [complex(-0.5, 0.0), complex(-0.5, -0.0), -0.25, -3.0,
                              complex(-2.0, -0.0), 2.0, 3j, complex(0.6, 0.8), True, -7]
    for z in pts:
        got, want = principal_power_c(z, alpha), array_route(principal_power_c, z, alpha)
        assert type(got) is complex
        if alpha == 1.0:
            assert got == complex(z) and repr(got) == repr(complex(z))
        assert abs(got - want) <= power_bound(complex(z), alpha, want), (z, alpha)
    for z in (complex(-0.5, -0.0), complex(-0.5, 0.0)):
        assert principal_power_c(z, 0.5).real < 1e-16 < principal_power_c(z, 0.5).imag



def test_principal_power_beyond_the_float_range_is_the_array_routes():
    # |z| or the power overflows: the scalar route hands over to numpy
    cases = [(1e300, 2.0), (complex(1.5e308, 1.5e308), 0.5), (complex(1e200, 1e200), 3.0),
             (complex(-1e300, 0.0), 1.5), (1e-300, 2.0)]
    with np.errstate(over="ignore", invalid="ignore"):
        for z, alpha in cases:
            got = principal_power_c(z, alpha)
            assert type(got) is complex
            assert repr(got) == repr(complex(array_route(principal_power_c, z, alpha))), (z, alpha)

@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("k", KS)
def test_measure_functions_match_the_array_route(alpha, k):
    rng = np.random.default_rng(62)
    for z in slit_points(rng):
        (be, e), (bd, d) = measure_bounds(complex(z), alpha, k)
        assert type(e) is complex and type(d) is complex
        assert abs(e - array_route(fractal_measure_c, z, alpha, k)) <= be, (z, alpha, k)
        assert abs(d - array_route(fractal_measure_deriv_c, z, alpha, k)) <= bd, (z, alpha, k)


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("k", KS)
def test_factor_and_weight_match_the_array_route(alpha, k):
    rng = np.random.default_rng(63)
    for sigma in (0.4, 1.0):
        p = FFParams(alpha=alpha, sigma=sigma, k=k)
        lam = (1.0 - sigma) / sigma
        for z in slit_points(rng):
            (be, e), (bd, d) = measure_bounds(complex(z), alpha, k)
            factor = ff_complex._integrating_factor(z, p)
            weight = ff_complex._kernel_weight(z, p)
            assert type(factor) is complex and type(weight) is complex
            bf = abs(factor) * (lam * be + 4 * U * (1 + abs(lam * e)))
            bw = abs(weight) * (bf / abs(factor) + bd / abs(d) + 8 * U)
            assert abs(factor - array_route(ff_complex._integrating_factor, z, p)) <= bf
            assert abs(weight - array_route(ff_complex._kernel_weight, z, p)) <= bw


@pytest.mark.parametrize("degree", range(9))
def test_ff_eval_c_matches_the_array_route(degree):
    rng = np.random.default_rng(64 + degree)
    for alpha in ALPHAS:
        for k in KS:
            for sigma in SIGMAS:
                p = FFParams(alpha=alpha, sigma=sigma, k=k)
                a = draw_series(rng, degree)
                f = CPowerSeries(a)
                ap = f.derivative().coeffs
                for z in slit_points(rng, 12):
                    got = ff_complex.ff_eval_c(f, p, z)
                    assert type(got) is complex
                    want = array_route(lambda zz: ff_complex.ff_eval_c(f, p, zz), z)
                    bound = (1 - sigma) * horner_bound(a, z)
                    if sigma:
                        _, (bden, den) = measure_bounds(complex(z), alpha, k)
                        fp = f.derivative()(z)
                        frac = fp / den
                        bound += sigma * (horner_bound(ap, z) / abs(den)
                                          + abs(frac) * (bden / abs(den) + 4 * U))
                        bound += 4 * U * (abs((1 - sigma) * f(z)) + abs(sigma * frac))
                    assert abs(got - want) <= bound, (z, alpha, k, sigma, a)


def test_scalar_routes_raise_as_the_array_routes_do():
    # the same class and message at zero, on the cut with either signed
    # zero, at |z| >= 1 and at NaN and infinities
    for z in OUTSIDE:
        for alpha in ALPHAS:
            got = outcome(principal_power_c, z, alpha)
            want = outcome(array_route, principal_power_c, z, alpha)
            if isinstance(got, tuple) or isinstance(want, tuple):
                assert got == want, z
            for k in KS:
                for fn in (fractal_measure_c, fractal_measure_deriv_c):
                    got = outcome(fn, z, alpha, k)
                    assert isinstance(got, tuple), (fn, z)
                    assert got == outcome(array_route, fn, z, alpha, k)
                for sigma in SIGMAS:
                    p = FFParams(alpha=alpha, sigma=sigma, k=k)
                    f = CPowerSeries([0.5, 1.0, 0.25j])
                    fns = [lambda zz: ff_complex.ff_eval_c(f, p, zz)]
                    if sigma:
                        fns += [lambda zz: ff_complex._integrating_factor(zz, p),
                                lambda zz: ff_complex._kernel_weight(zz, p)]
                    for fn in fns:
                        got = outcome(fn, z)
                        assert isinstance(got, tuple), z
                        assert got == outcome(array_route, fn, z)


# at alpha = 0.02 the value, 0.02 |z|**-0.98, is beyond the float range
@pytest.mark.parametrize("alpha", (0.3, 0.5, 0.9, 1.0))
def test_measure_derivative_at_a_subnormal_radius_meets_mpmath(alpha):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for t in (0.0, 1.0, -2.5, 3.0):
            z = 1e-322 * complex(math.cos(t), math.sin(t))
            w = mpmath.power(mpmath.mpc(z), alpha)
            for k in KS:
                e = (mpmath.exp(w) if k == INF
                     else sum(w ** n / mpmath.factorial(n) for n in range(k)))
                want = complex(alpha * mpmath.power(mpmath.mpc(z), alpha - 1) * e)
                got = fractal_measure_deriv_c(z, alpha, k)
                assert type(got) is complex
                assert abs(got - want) <= 9.2e-14 * abs(want), (t, alpha, k)
