"""Quaternionic slice derivative, the Dirichlet-type right-module norm via
slice splitting, its coefficient-series form, the 8x slice-comparison bound
and the quaternionic reproducing identities.

The primary computation path splits a slice-regular series into two complex
component series on the chosen slice and reuses the complex engine; the
squared norm is exactly the sum of the two complex squared norms.  The
direct slice formula (intrinsic star factors reducing to pointwise scalars
on the slice) is kept as an independent cross-check.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BranchError, DomainError, FFQError
from .ff_complex import (BASE_POINT, coefficient_integrals, dirichlet_norm,
                         ff_eval_stack, reproduction_rhs_1_stack,
                         reproduction_rhs_2_stack, _gram_form,
                         _require_sigma_interior, _table_gram)
from .holo_series import fractal_measure_deriv_c, in_slit_disk
from .quadrature import DEFAULT_SPEC, integrate_disk
from .quaternion import (Quaternion, as_quaternion, embed_complex,
                         frame_coords, frame_embed, slice_decompose)
from .slice_regular import _two_point, cullen_derivative, eval_q, split


def ff_eval_q(f, p, frame, z, method="split", f_beta=None):
    """Slice derivative of f at the point z of the slice plane C(frame.i).

    method="split" applies the complex operator to both split components;
    method="direct" evaluates (1-s) f + s * (d/dq e_k(q**a))^(-*) * f'
    at the quaternion point, where the intrinsic star factor reduces to a
    pointwise complex scalar on the slice.  The two agree to rounding.

    beta < 1 needs the slice-regular power supplied as f_beta (splitting
    does not commute with fractional powers) and forces the direct path.
    """
    if method not in ("split", "direct"):
        raise ValueError(f"unknown method {method!r}")
    z = complex(z)
    if not in_slit_disk(z):
        raise BranchError(f"{z} is not in the slit slice disk")
    if p.beta != 1.0:
        if f_beta is None:
            raise DomainError("beta < 1 requires the slice-regular power f_beta")
        method = "direct"
    if method == "split":
        pair = split(f, frame)
        d1, d2 = ff_eval_stack((pair.f1, pair.f2), p, z)[:, 0]
        return frame_embed(complex(d1), complex(d2), frame)
    qz = embed_complex(z, frame.i)
    value = eval_q(f, qz) * (1.0 - p.sigma)
    if p.sigma != 0.0:
        g = f if p.beta == 1.0 else f_beta
        fp = eval_q(cullen_derivative(g), qz)
        scale = p.sigma / fractal_measure_deriv_c(z, p.alpha, p.k)
        value = value + embed_complex(scale, frame.i) * fp
    return value


@dataclass(frozen=True)
class QDirichletValue:
    """Squared module norm with its two split-component contributions."""

    norm_sq: float
    split_parts: tuple
    frame: object
    method: str


def _require_linear(p):
    if p.beta != 1.0:
        raise DomainError("module norms are defined on the linear (beta = 1) space")


def qdirichlet_norm(f, p, frame, spec=None, method="quad"):
    """Squared norm as the sum of the split components' complex norms, each
    by dirichlet_norm's method; "series" assembles the quaternionic series
    form from one coefficient table instead."""
    _require_linear(p)
    if method == "series":
        ci = coefficient_integrals(p, max(f.degree, 0), spec)
        return qdirichlet_norm_series(f, p, frame, ci)
    pair = split(f, frame)
    n1 = dirichlet_norm(pair.f1, p, spec, method)
    n2 = dirichlet_norm(pair.f2, p, spec, method)
    return QDirichletValue(
        n1.norm_sq + n2.norm_sq, (n1.norm_sq, n2.norm_sq), frame, method
    )


def qdirichlet_inner_product(f, g, p, frame, spec=None):
    """Quaternion-valued product alpha conj(f(1/2)) g(1/2) + int conj(Df) Dg.

    The conjugate sits on the first factor, making the form right-linear in
    g.  With Df = D1 + D2 j and Dg = G1 + G2 j the integrand reduces to
    (conj(D1) G1 + D2 conj(G2)) + (conj(D1) G2 - D2 conj(G1)) j.
    """
    _require_linear(p)
    spec = spec or DEFAULT_SPEC
    pf = split(f, frame)
    pg = split(g, frame)

    def integrand(zeta):
        d1, d2, g1, g2 = ff_eval_stack((pf.f1, pf.f2, pg.f1, pg.f2), p, zeta)
        return np.stack([np.conj(d1) * g1 + d2 * np.conj(g2),
                         np.conj(d1) * g2 - d2 * np.conj(g1)])

    field = integrate_disk(integrand, spec, 4).value
    base = Quaternion(BASE_POINT)
    point = (eval_q(f, base).conjugate() * eval_q(g, base)) * p.alpha
    return point + frame_embed(field[0], field[1], frame)


def qdirichlet_norm_series(f, p, frame, ci):
    """Series form of the squared norm, assembled quaternionically.

    With G the real symmetric Gram matrix of the complex series norm
    (series_gram) and P = f.parts.view(float) the four real component
    columns, the squared norm is sum(P * (G P)), which equals Re tr(G gram),
    gram[n, m] the C(i) part of a_n conj(a_m), and does not depend on the
    frame.  split_parts records the complex norms a1^H G a1 and a2^H G a2
    of the frame's split components, whose sum must match to rounding.
    """
    G = _table_gram(p, ci, f.degree)
    P = f.parts.view(float)
    G = G[: len(P), : len(P)]
    parts = tuple(_gram_form(G, c) for c in frame_coords(P, frame))
    norm_sq = float(np.sum(P * (G @ P)))
    return QDirichletValue(norm_sq, parts, frame, "series")


SLICE_BOUND = 8.0
_BOUND_SLACK = 1e-9


def slice_norm_compare(f, p, frame_i, frame_j, spec=None, ci=None):
    """Ratio of the squared norms over the two slices; never exceeds 8.

    Passing a coefficient table switches both norms to the series form
    (the table is slice-independent).  Raises if the bound is violated,
    which would signal a genuine defect.
    """
    if ci is not None:
        ref = qdirichlet_norm_series(f, p, frame_i, ci).norm_sq
        other = qdirichlet_norm_series(f, p, frame_j, ci).norm_sq
    else:
        ref = qdirichlet_norm(f, p, frame_i, spec).norm_sq
        other = qdirichlet_norm(f, p, frame_j, spec).norm_sq
    if ref == 0.0:
        raise ZeroDivisionError("reference slice norm vanishes (f = 0)")
    ratio = other / ref
    if ratio > SLICE_BOUND + _BOUND_SLACK:
        raise FFQError(f"slice-comparison bound violated: ratio = {ratio}")
    return ratio


class QReproduceResult(NamedTuple):
    identity1: float
    identity2: float


def q_reproduce(f, p, frame, q, spec=None):
    """Residuals of both quaternionic reproducing identities at q.

    Verified by slice reduction: the complex right-hand sides are evaluated
    for the split components, as one stack, at the two slice points x +- y i
    and recombined to q with the representation formula, then compared with
    f(q).
    """
    _require_sigma_interior(p)
    spec = spec or DEFAULT_SPEC
    q = as_quaternion(q)
    sp = slice_decompose(q)
    z = complex(sp.x, sp.y)
    if not in_slit_disk(z):
        raise DomainError(f"{q!r} is not in the slit unit ball")
    pair = split(f, frame)
    target = eval_q(f, q)

    def recombine(rhs_stack):
        def value_at(w):
            r1, r2 = rhs_stack((pair.f1, pair.f2), p, w, spec)
            return frame_embed(complex(r1), complex(r2), frame)
        return _two_point(value_at, sp.x, sp.y, sp.axis, frame.i)

    rec1 = recombine(reproduction_rhs_1_stack)
    rec2 = recombine(reproduction_rhs_2_stack)
    return QReproduceResult((rec1 - target).norm(), (rec2 - target).norm())
