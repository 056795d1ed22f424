"""Dirichlet-type norms on the slit disk: quadrature against the coefficient
series formula, the k = 1 closed form, the divergent parameter cell, and the
2*pi discrepancy the oracle finds in an alternate closed-form variant.

Run:  python demos/04_dirichlet_norms.py
"""

import math
from dataclasses import replace

import numpy as np

from ffq import (CPowerSeries, DivergentIntegral, FFParams, NoConvergence,
                 coefficient_integrals, dirichlet_norm, dirichlet_norm_quad,
                 dirichlet_norm_series, inner_product_c)
from ffq.verify import DIVERGENCE_SPEC, _closed_k1_variant

print("== two anchors with pencil-and-paper values ==")
p = FFParams(alpha=1.0, sigma=0.5, k=1)
v = dirichlet_norm_quad(CPowerSeries([1.0]), p)
print(f"|| 1 ||^2 (alpha=1, k=1, sigma=1/2) = {v.norm_sq:.15f}")
print(f"          expected 1 + pi/4        = {1 + math.pi / 4:.15f}")
p = FFParams(alpha=1.0, sigma=1.0, k=1)
v = dirichlet_norm_quad(CPowerSeries([0.0, 1.0]), p)
print(f"|| z ||^2 (alpha=1, k=1, sigma=1)   = {v.norm_sq:.15f}")
print(f"          expected 1/4 + pi        = {0.25 + math.pi:.15f}")

print("\n== three routes to one number ==")
rng = np.random.default_rng(4)
f = CPowerSeries(rng.standard_normal(5) + 1j * rng.standard_normal(5))
p = FFParams(alpha=0.7, sigma=0.35, k=1)
ci = coefficient_integrals(p, f.degree)
for label, value in [
    ("quadrature ", dirichlet_norm_quad(f, p).norm_sq),
    ("series     ", dirichlet_norm_series(f, p, ci).norm_sq),
    ("closed k=1 ", dirichlet_norm(f, p, method="closed-k1").norm_sq),
]:
    print(f"  {label}: {value:.12f}")

print("\n== the point/field split and the inner product ==")
v = dirichlet_norm_quad(f, p)
print("point term:", v.point_term, " field term:", v.field_term)
g = CPowerSeries([0, 0, 1])
print("<f, g> =", inner_product_c(f, g, p))
print("<g, g> =", inner_product_c(g, g, p), " vs ||g||^2 =",
      dirichlet_norm_quad(g, p).norm_sq)

print("\n== a cell where the space holds almost nothing ==")
# at alpha = 1, k = 2 the measure's derivative involves 1 + z, which
# vanishes at the boundary point -1; any f with f'(-1) != 0 then has an
# infinite field integral, which dirichlet_norm proves before integrating
p = FFParams(alpha=1.0, sigma=0.5, k=2)
z = CPowerSeries([0.0, 1.0])
try:
    dirichlet_norm(z, p, method="quad")
except DivergentIntegral as exc:
    print("|| z ||^2 at (alpha=1, k=2): DivergentIntegral up front:", exc)
# the quadrature witness: each doubling of a coarse rule adds about the
# same amount, the signature of a logarithmic divergence
for cap in range(1, DIVERGENCE_SPEC.max_refine + 1):
    try:
        dirichlet_norm_quad(z, p, replace(DIVERGENCE_SPEC, max_refine=cap))
    except NoConvergence as exc:
        print(f"  estimate at refinement level {cap}: {exc.value:.3f}"
              f"  (up {exc.error:.3f} on the level before)")
print("constants are fine there:",
      dirichlet_norm_quad(CPowerSeries([1.0]), p).norm_sq)

print("\n== the oracle catches a wrong closed form ==")
# an alternate k = 1 closed form circulating for this norm omits the 2*pi
# angular factor on the diagonal quadratic term; quadrature rejects it
p = FFParams(alpha=0.7, sigma=0.5, k=1)
nq = dirichlet_norm_quad(f, p).norm_sq
nc = dirichlet_norm(f, p, method="closed-k1").norm_sq
nv = _closed_k1_variant(f, p)
print(f"quadrature            : {nq:.10f}")
print(f"implemented closed form: {nc:.10f}   (rel diff {abs(nc-nq)/nq:.1e})")
print(f"variant without 2*pi   : {nv:.10f}   (rel diff {abs(nv-nq)/nq:.1e})")
