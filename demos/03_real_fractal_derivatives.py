"""The real-line derivative hierarchy: Stieltjes difference quotients
against a measure, the beta-power variant, proportional derivatives, and
the combined operator against the truncated exponential measure, including
the sigma = alpha**2 family that stays defined down to alpha = 0.

Run:  python demos/03_real_fractal_derivatives.py
"""

import math

import numpy as np

from ffq import (FFParams, INF, beta_fractal_derivative, default_weights,
                 ff_derivative_real, ff_family_sigma_alpha2, measure_identity,
                 measure_power, measure_truncated_exp,
                 proportional_derivative)

f = lambda t: math.sin(t) + 2.0
fp = math.cos
t = 0.9

print("== fractal (Stieltjes) derivatives ==")
print("measure t      ->", beta_fractal_derivative(f, measure_identity(), 1.0, t),
      " (ordinary f' =", fp(t), ")")
print("measure t^0.5  ->", beta_fractal_derivative(f, measure_power(0.5), 1.0, t),
      " (= f'/(0.5 t^-0.5) =", fp(t) / (0.5 * t ** -0.5), ")")
m = measure_truncated_exp(0.6, 2)
print("measure e_2(t^0.6) ->", beta_fractal_derivative(f, m, 1.0, t))

print("\n== proportional derivative: a dial between f and f' ==")
for sigma in (0.0, 0.25, 0.5, 0.75, 1.0):
    v = proportional_derivative(f, default_weights(sigma), t)
    print(f"  sigma = {sigma:4.2f}: {v:.6f}")

print("\n== combined operator, closed form vs raw limit quotient ==")
for alpha, k in ((0.5, 1), (0.8, 2), (1.0, INF)):
    p = FFParams(alpha=alpha, sigma=0.4, k=k, beta=0.7)
    closed = ff_derivative_real(f, p, t, method="closed")
    limit = ff_derivative_real(f, p, t, method="limit")
    print(f"  alpha={alpha} k={k}: closed {closed:.10f}  limit {limit:.10f}"
          f"  gap {abs(closed - limit):.2e}")

print("\n== endpoint reductions ==")
p = FFParams(alpha=1.0, sigma=1.0, k=1, beta=0.5)
print("sigma=1, alpha=1, k=1:  ", ff_derivative_real(f, p, t),
      " vs (f^beta)' =", 0.5 * f(t) ** -0.5 * fp(t))
p = FFParams(alpha=1.0, sigma=1.0, k=INF, beta=0.5)
print("sigma=1, alpha=1, k=inf:", ff_derivative_real(f, p, t),
      " vs e^-t (f^beta)' =", math.exp(-t) * 0.5 * f(t) ** -0.5 * fp(t))

print("\n== sigma = alpha^2 family (alpha = 0 allowed) ==")
for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
    v1 = ff_family_sigma_alpha2(f, alpha, 1, 1.0, t)
    vi = ff_family_sigma_alpha2(f, alpha, INF, 1.0, t)
    print(f"  alpha = {alpha:4.2f}:  k=1 -> {v1:.6f}   k=inf -> {vi:.6f}")
print("at alpha = 0 both collapse to f(t) =", f(t))
