"""Real-line derivative hierarchy: fractal (Stieltjes) difference quotients,
their beta-power variant, the proportional derivative, and the combined
fractal-fractional operator taken against the truncated exponential measure
e_k(t**alpha), in both limit-quotient and closed form.

Difference quotients use central steps with one Richardson level, which meets
the 1e-6 agreement targets on smooth data without adaptive machinery.
"""

import math
from dataclasses import dataclass, field
from typing import Callable

from .errors import DegenerateMeasure, DomainError, INF, check_order
from .holo_series import truncated_exp_c

DEFAULT_STEP = 1e-5
_MEASURE_FLOOR = 1e-14


@dataclass(frozen=True)
class FractalMeasure:
    """Measure nu(eta, t) against which difference quotients are taken."""

    nu: Callable[[float, float], float]
    eta: float = 1.0


def measure_identity():
    return FractalMeasure(lambda eta, t: t, 1.0)


def measure_power(eta):
    return FractalMeasure(lambda e, t: t ** e, eta)


def measure_truncated_exp(alpha, k):
    """nu(t) = e_k(t**alpha), the measure behind the combined operator."""
    check_order(k)
    return FractalMeasure(lambda e, t: float(truncated_exp_c(t ** alpha, k)), alpha)


@dataclass(frozen=True)
class ProportionalWeights:
    """Weight pair (chi0, chi1) of (sigma, t) with chi1 -> 1, chi0 -> 0 as
    sigma -> 0+ and the reverse as sigma -> 1-."""

    chi0: Callable[[float, float], float]
    chi1: Callable[[float, float], float]
    sigma: float = 0.5

    def check_limits(self, t_samples=(0.5, 1.0, 2.0), tol=1e-4):
        """Numerically screen the endpoint limits at sigma = 1e-6, 1 - 1e-6."""
        lo, hi = 1e-6, 1.0 - 1e-6
        for t in t_samples:
            if abs(self.chi1(lo, t) - 1.0) > tol or abs(self.chi0(lo, t)) > tol:
                return False
            if abs(self.chi1(hi, t)) > tol or abs(self.chi0(hi, t) - 1.0) > tol:
                return False
        return True


def default_weights(sigma=0.5):
    """Convex pair chi0 = sigma, chi1 = 1 - sigma."""
    return ProportionalWeights(lambda s, t: s, lambda s, t: 1.0 - s, sigma)


@dataclass(frozen=True)
class FFParams:
    """Parameter bundle for every fractal-fractional operator.

    alpha in (0, 1] is the power inside the measure, beta in [0, 1] the power
    applied to f, sigma in [0, 1] the proportional weight, k the truncation
    order (inf allowed).  The weights default to the convex pair.
    """

    alpha: float
    sigma: float
    k: object = 1
    beta: float = 1.0
    weights: ProportionalWeights = field(default=None)

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise DomainError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not 0.0 <= self.beta <= 1.0:
            raise DomainError(f"beta must lie in [0, 1], got {self.beta}")
        if not 0.0 <= self.sigma <= 1.0:
            raise DomainError(f"sigma must lie in [0, 1], got {self.sigma}")
        object.__setattr__(self, "k", check_order(self.k))
        if self.weights is None:
            object.__setattr__(self, "weights", default_weights(self.sigma))


def _richardson(quotient, h):
    # quotient(h) has an O(h^2) error; one extrapolation level kills it
    d1 = quotient(h)
    d2 = quotient(h / 2.0)
    return (4.0 * d2 - d1) / 3.0, abs(d2 - d1) / 3.0


def _powered(f, beta):
    """s -> f(s)**beta: f itself at beta = 1, otherwise defined only where
    f > 0."""
    if beta == 1.0:
        return f

    def powered(s):
        v = f(s)
        if v <= 0.0:
            raise DomainError(f"f({s}) = {v} <= 0; fractional power undefined")
        return v ** beta
    return powered


def fractal_derivative(f, m, t, h=DEFAULT_STEP, with_error=False):
    """Stieltjes difference quotient of f against the measure m at t.

    Matches f'(t)/nu'(eta, t) when both exist.  Raises DegenerateMeasure if
    the measure increment collapses (non-monotone nu near t).
    """
    return beta_fractal_derivative(f, m, 1.0, t, h, with_error)


def beta_fractal_derivative(f, m, beta, t, h=DEFAULT_STEP, with_error=False):
    """Difference quotient of f**beta against the measure m at t; at
    beta = 1 the quotient of f itself, fractal_derivative."""
    g = _powered(f, beta)

    def quotient(hh):
        den = m.nu(m.eta, t + hh) - m.nu(m.eta, t - hh)
        if abs(den) <= _MEASURE_FLOOR:
            raise DegenerateMeasure(f"measure increment {den} at t = {t} below floor")
        return (g(t + hh) - g(t - hh)) / den

    val, err = _richardson(quotient, h)
    return (val, err) if with_error else val


def _derivative_estimate(f, t, h):
    return _richardson(lambda hh: (f(t + hh) - f(t - hh)) / (2.0 * hh), h)[0]


def proportional_derivative(f, w, t, h=DEFAULT_STEP):
    """chi1(sigma,t) f(t) + chi0(sigma,t) f'(t) with a central-difference f'."""
    s = w.sigma
    return w.chi1(s, t) * f(t) + w.chi0(s, t) * _derivative_estimate(f, t, h)


def ff_derivative_real(f, p, t, h=DEFAULT_STEP, method="closed"):
    """Combined operator chi1 f + chi0 * (f**beta)' / (e_k(t**alpha))' at t > 0.

    method="closed" uses the closed form
        chi1 f + chi0 * beta f^(beta-1) f' / (alpha t^(alpha-1) e_{k-1}(t^alpha));
    method="limit" takes the raw difference quotient against e_k(t**alpha).
    Both agree to ~1e-6 on smooth data.
    """
    if method not in ("closed", "limit"):
        raise ValueError(f"unknown method {method!r}")
    if t <= 0.0:
        raise DomainError(f"operator needs t > 0, got t = {t}")
    if p.k != INF and p.k < 1:
        raise DomainError("truncation order k must be >= 1 (or inf)")
    s = p.sigma
    chi1 = p.weights.chi1(s, t)
    chi0 = p.weights.chi0(s, t)
    if chi0 == 0.0:
        return chi1 * f(t)
    if method == "limit":
        frac = beta_fractal_derivative(f, measure_truncated_exp(p.alpha, p.k), p.beta, t, h)
    else:
        ft = f(t)
        if p.beta != 1.0 and ft <= 0.0:
            raise DomainError(f"f(t) = {ft} <= 0; fractional power undefined")
        fp = _derivative_estimate(f, t, h)
        km1 = INF if p.k == INF else p.k - 1
        den = p.alpha * t ** (p.alpha - 1.0) * float(truncated_exp_c(t ** p.alpha, km1))
        frac = p.beta * ft ** (p.beta - 1.0) * fp / den
    return chi1 * f(t) + chi0 * frac


def ff_family_sigma_alpha2(f, alpha, k, beta, t, h=DEFAULT_STEP):
    """The sigma = alpha**2 family: (1 - alpha^2) f + alpha t^(1-alpha) (f^beta)'
    for k = 1, with the extra factor exp(-t^alpha) for k = inf.

    Unlike the general operator this closed form stays valid down to
    alpha = 0, where it collapses to f itself.
    """
    if t < 0.0:
        raise DomainError(f"family operator needs t >= 0, got t = {t}")
    if not 0.0 <= alpha <= 1.0:
        raise DomainError(f"alpha must lie in [0, 1], got {alpha}")
    k = check_order(k)
    if k not in (1, INF):
        raise DomainError("sigma = alpha**2 closed forms exist for k = 1 and k = inf")
    base = (1.0 - alpha * alpha) * f(t)
    if alpha == 0.0:
        return base

    powered = _powered(f, beta)
    step = min(h, t / 2.0) if t > 0.0 else h
    if t == 0.0:
        if alpha < 1.0:
            return base  # t^(1-alpha) = 0 kills the derivative term
        gp = (powered(2.0 * step) - powered(0.0)) / (2.0 * step)
    else:
        gp = _derivative_estimate(powered, t, step)
    term = alpha * t ** (1.0 - alpha) * gp
    if k == INF:
        term *= math.exp(-(t ** alpha))
    return base + term
