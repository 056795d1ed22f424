import dataclasses
import inspect
import math

import numpy as np
import pytest

from ffq import ff_real
from ffq import (FFParams, INF, DegenerateMeasure, DomainError,
                 ProportionalWeights, beta_fractal_derivative, default_weights,
                 ff_derivative_real, ff_family_sigma_alpha2, measure_identity,
                 measure_power, measure_truncated_exp, proportional_derivative)


def test_fractal_derivative_reduces_to_ordinary():
    # nu(t) = t gives the plain derivative
    got = beta_fractal_derivative(lambda t: t * t, measure_identity(), 1.0, 1.0)
    assert abs(got - 2.0) < 1e-9


def test_fractal_derivative_power_measure():
    # oracle: f'/nu' = 1/(eta t^(eta-1)) = 2 at t = 1, eta = 1/2
    got = beta_fractal_derivative(lambda t: t, measure_power(0.5), 1.0, 1.0)
    assert abs(got - 2.0) < 1e-9


def test_fractal_derivative_of_a_constant_is_zero():
    assert beta_fractal_derivative(lambda t: 3.25, measure_power(0.7), 1.0, 0.8) == 0.0


def test_degenerate_measure_rejected():
    flat = lambda t: 1.0
    with pytest.raises(DegenerateMeasure):
        beta_fractal_derivative(lambda t: t, flat, 1.0, 1.0)


def test_beta_fractal_derivative():
    m = measure_identity()
    # oracle: chain rule beta f^(beta-1) f' at f(t) = t, t = 1
    got = beta_fractal_derivative(lambda t: t, m, 0.5, 1.0)
    assert abs(got - 0.5) < 1e-9
    assert beta_fractal_derivative(lambda t: 4.0, m, 0.5, 1.0) == 0.0
    with pytest.raises(DomainError):
        beta_fractal_derivative(lambda t: -1.0, m, 0.5, 1.0)


def test_proportional_derivative():
    f = lambda t: t * t
    w0 = default_weights(0.0)
    assert abs(proportional_derivative(f, w0, 1.0) - 1.0) < 1e-12
    w1 = default_weights(1.0)
    assert abs(proportional_derivative(f, w1, 1.0) - 2.0) < 1e-9
    wh = default_weights(0.5)
    assert abs(proportional_derivative(f, wh, 1.0) - 1.5) < 1e-9


def test_weight_limits_screen():
    assert default_weights().check_limits()
    skewed = ProportionalWeights(lambda s, t: s ** 2, lambda s, t: 1 - s, 0.5)
    assert skewed.check_limits()
    bad = ProportionalWeights(lambda s, t: 0.5, lambda s, t: 0.5, 0.5)
    assert not bad.check_limits()


def test_ff_derivative_real_paper_reductions():
    f = lambda t: math.sin(t) + 2.0
    fp = math.cos
    t = 0.9
    # sigma = 0: the operator is the identity
    p = FFParams(alpha=0.5, sigma=0.0, k=1)
    assert ff_derivative_real(f, p, t) == f(t)
    # sigma = 1, alpha = 1, k = 1: the plain derivative of f**beta
    p = FFParams(alpha=1.0, sigma=1.0, k=1, beta=1.0)
    assert abs(ff_derivative_real(f, p, t) - fp(t)) < 1e-9
    p = FFParams(alpha=1.0, sigma=1.0, k=1, beta=0.5)
    expected = 0.5 * f(t) ** (-0.5) * fp(t)
    assert abs(ff_derivative_real(f, p, t) - expected) < 1e-9
    # sigma = 1, alpha = 1, k = inf: exp(-t) (f**beta)'
    p = FFParams(alpha=1.0, sigma=1.0, k=INF, beta=0.5)
    assert abs(ff_derivative_real(f, p, t) - math.exp(-t) * expected) < 1e-9


def test_closed_and_limit_modes_agree():
    tests = [lambda t: math.sin(t) + 2.0, math.exp,
             lambda t: 0.25 * t ** 3 + t + 1.0]
    for fn in tests:
        for t in np.linspace(0.1, 2.0, 9):
            p = FFParams(alpha=0.7, sigma=0.35, k=2, beta=0.6)
            closed = ff_derivative_real(fn, p, float(t), method="closed")
            limit = ff_derivative_real(fn, p, float(t), method="limit")
            assert abs(closed - limit) <= 1e-6 * max(abs(closed), 1.0)


def test_reduction_lattice_matches_proportional():
    f = lambda t: math.exp(0.5 * t)
    for sigma in (0.0, 0.3, 0.8, 1.0):
        p = FFParams(alpha=1.0, sigma=sigma, k=1, beta=1.0)
        a = ff_derivative_real(f, p, 1.2)
        b = proportional_derivative(f, default_weights(sigma), 1.2)
        assert abs(a - b) <= 1e-10 * max(abs(b), 1.0)


def test_linearity_for_beta_one():
    f = lambda t: math.sin(t) + 2.0
    g = math.exp
    a, b = 1.7, -0.4
    p = FFParams(alpha=0.6, sigma=0.45, k=INF, beta=1.0)
    combo = ff_derivative_real(lambda t: a * f(t) + b * g(t), p, 0.8)
    parts = a * ff_derivative_real(f, p, 0.8) + b * ff_derivative_real(g, p, 0.8)
    assert abs(combo - parts) <= 1e-10 * max(abs(parts), 1.0)


def test_family_sigma_alpha2():
    f = lambda t: t
    # alpha = 0 collapses to the identity
    assert ff_family_sigma_alpha2(f, 0.0, 1, 1.0, 0.7) == 0.7
    # alpha = 1, k = 1: the plain derivative of f**beta
    assert abs(ff_family_sigma_alpha2(f, 1.0, 1, 1.0, 0.7) - 1.0) < 1e-9
    # oracle: hand substitution (1 - 1/4) * 4 + (1/2) * 4**(1/2) * 1 = 4
    assert abs(ff_family_sigma_alpha2(f, 0.5, 1, 1.0, 4.0) - 4.0) < 1e-9
    # k = inf carries the extra exp(-t^alpha) factor
    got = ff_family_sigma_alpha2(f, 0.5, INF, 1.0, 4.0)
    expected = 0.75 * 4.0 + 0.5 * 2.0 * math.exp(-2.0)
    assert abs(got - expected) < 1e-9
    with pytest.raises(DomainError):
        ff_family_sigma_alpha2(f, 0.5, 1, 1.0, -1.0)
    with pytest.raises(DomainError):
        ff_family_sigma_alpha2(f, 0.5, 2, 1.0, 1.0)


def test_ffparams_validation():
    with pytest.raises(DomainError):
        FFParams(alpha=0.0, sigma=0.5, k=1)
    with pytest.raises(DomainError):
        FFParams(alpha=1.2, sigma=0.5, k=1)
    with pytest.raises(DomainError):
        FFParams(alpha=0.5, sigma=-0.1, k=1)
    with pytest.raises(DomainError):
        FFParams(alpha=0.5, sigma=0.5, k=1, beta=2.0)
    with pytest.raises(DomainError):
        FFParams(alpha=0.5, sigma=0.5, k=2.5)
    with pytest.raises(DomainError, match="k >= 1"):
        FFParams(alpha=0.5, sigma=0.5, k=0)
    p = FFParams(alpha=0.5, sigma=0.5, k=INF)
    assert p.k == INF


def test_operator_requires_positive_t():
    p = FFParams(alpha=0.5, sigma=0.5, k=1)
    with pytest.raises(DomainError):
        ff_derivative_real(math.exp, p, 0.0)


def test_truncated_exp_measure_is_monotone():
    m = measure_truncated_exp(0.6, 2)
    ts = np.linspace(0.1, 2.0, 30)
    vals = [m(float(t)) for t in ts]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_equal_params_compare_and_hash_equal():
    a = FFParams(alpha=1.0, sigma=0.5, k=1)
    b = FFParams(alpha=1.0, sigma=0.5, k=1)
    assert a == b and hash(a) == hash(b)
    assert a != FFParams(alpha=1.0, sigma=0.5, k=2)


# keyword parameters of the public functions and the fields of FFParams; a
# step, a tolerance or a weight pair that no caller sets stays out
KEYWORDS = {
    "measure_identity": (),
    "measure_power": (),
    "measure_truncated_exp": (),
    "default_weights": ("sigma",),
    "beta_fractal_derivative": (),
    "proportional_derivative": (),
    "ff_derivative_real": ("method",),
    "ff_family_sigma_alpha2": (),
}


def test_real_line_keyword_parameters_are_pinned():
    public = {name: fn for name, fn in vars(ff_real).items()
              if inspect.isfunction(fn) and fn.__module__ == ff_real.__name__
              and not name.startswith("_")}
    found = {name: tuple(p.name for p in inspect.signature(fn).parameters.values()
                         if p.default is not inspect.Parameter.empty)
             for name, fn in public.items()}
    assert found == KEYWORDS
    assert [f.name for f in dataclasses.fields(FFParams)] == ["alpha", "sigma", "k", "beta"]
    assert list(inspect.signature(ProportionalWeights.check_limits).parameters) == ["self"]
