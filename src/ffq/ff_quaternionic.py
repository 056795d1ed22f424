"""Quaternionic slice derivative, the Dirichlet-type right-module norm via
slice splitting, its coefficient-series form, the 8x slice-comparison bound
and the quaternionic reproducing identities.

The primary computation path splits a slice-regular series into two complex
component series on the chosen slice and reuses the complex engine.  The
squared norm is the sum of the two complex squared norms: by construction
on the quadrature route, to rounding on the series route, whose norm is
frame-free (qdirichlet_norm_series).  The direct slice formula (intrinsic
star factors reducing to pointwise scalars on the slice) is kept as an
independent cross-check.
"""

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import BranchError, DomainError, FFQError, NoConvergence
from .ff_complex import (BASE_POINT, dirichlet_norms_quad, ff_eval_stack,
                         reproduction_rhs_1_stack, reproduction_rhs_2_stack, _gram_form,
                         _method_table, _require_finite_field, _require_linear,
                         _require_norm_method, _require_sigma_interior, _table_gram)
from .holo_series import fractal_measure_deriv_c, in_slit_disk
from .quadrature import DEFAULT_SPEC, integrate_disk
from .quaternion import (Quaternion, as_quaternion, embed_complex,
                         frame_coords, frame_embed, slice_decompose)
from .slice_regular import _two_point, cullen_derivative, eval_q, split


def ff_eval_q(f, p, frame, z, method="split"):
    """Slice derivative of f at the point z of the slice plane C(frame.i).

    method="split" applies the complex operator to both split components;
    method="direct" evaluates (1-s) f + s * (d/dq e_k(q**a))^(-*) * f'
    at the quaternion point, where the intrinsic star factor reduces to a
    pointwise complex scalar on the slice.  The two agree to rounding.

    Both methods take beta = 1 only (DomainError otherwise): splitting does
    not commute with the fractional power f**beta, and no slice-regular
    power of a quaternionic series is built here.
    """
    if method not in ("split", "direct"):
        raise ValueError(f"unknown method {method!r}")
    z = complex(z)
    if not in_slit_disk(z):
        raise BranchError(f"{z} is not in the slit slice disk")
    if p.beta != 1.0:
        raise DomainError("the quaternionic slice derivative takes beta = 1 only")
    if method == "split":
        pair = split(f, frame)
        d1, d2 = ff_eval_stack((pair.f1, pair.f2), p, z)[:, 0]
        return frame_embed(complex(d1), complex(d2), frame)
    qz = embed_complex(z, frame.i)
    value = eval_q(f, qz) * (1.0 - p.sigma)
    if p.sigma != 0.0:
        fp = eval_q(cullen_derivative(f), qz)
        scale = p.sigma / fractal_measure_deriv_c(z, p.alpha, p.k)
        value = value + embed_complex(scale, frame.i) * fp
    return value


@dataclass(frozen=True)
class QDirichletValue:
    """Squared module norm with its two split-component contributions."""

    norm_sq: float
    split_parts: tuple
    method: str


def qdirichlet_norm(f, p, frame, spec=None, method="quad"):
    """Squared norm by the named method of dirichlet_norm, which the value
    names; every method first checks each split component for divergence.

    "quad" is the sum of the split components' complex norms, integrated
    as one stack, so each node block builds one measure derivative for both.
    Its NoConvergence carries the sum of the two field estimates and the
    sum of their two changes as floats; that sum bounds the change of the
    summed value.  "series" and "closed-k1" pass the table that
    dirichlet_norm's method reads to qdirichlet_norm_series, whose norm is
    frame-free and whose split_parts are formed apart from it."""
    _require_norm_method(method)
    pair = split(f, frame)
    for part in (pair.f1, pair.f2):
        _require_finite_field(part, p)
    if method != "quad":
        ci = _method_table(p, f.degree, spec, method)
        return replace(qdirichlet_norm_series(f, p, frame, ci), method=method)
    try:
        n1, n2 = dirichlet_norms_quad((pair.f1, pair.f2), p, spec)
    except NoConvergence as exc:
        raise NoConvergence(str(exc), float(np.sum(exc.value)), exc.error,
                            float(np.sum(exc.changes))) from None
    return QDirichletValue(n1.norm_sq + n2.norm_sq, (n1.norm_sq, n2.norm_sq), method)


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

    field = integrate_disk(integrand, spec).value
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
    of the frame's split components, whose sum must match to rounding (the
    splitting-norm identity).  ci is as in dirichlet_norm_series.
    """
    P = f.parts.view(float)
    G = _table_gram(p, ci, f.degree)[: len(P), : len(P)]
    parts = tuple(_gram_form(G, c) for c in frame_coords(P, frame))
    return QDirichletValue(float(np.sum(P * (G @ P))), parts, "series")


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
    for the split components at the two slice points x +- y i, as one
    stack per identity of four rows (both components at both points, two
    at a real point, y = 0), and recombined to q with the representation
    formula, then compared with f(q).
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
    points = [z] if sp.y == 0.0 else [z, z.conjugate()]
    fs = (pair.f1, pair.f2) * len(points)
    zs = [w for w in points for _ in range(2)]

    def recombine(rhs_stack):
        r = rhs_stack(fs, p, zs, spec)
        values = {w: frame_embed(complex(r[2 * j]), complex(r[2 * j + 1]), frame)
                  for j, w in enumerate(points)}
        return _two_point(values.__getitem__, sp.x, sp.y, sp.axis, frame.i)

    rec1 = recombine(reproduction_rhs_1_stack)
    rec2 = recombine(reproduction_rhs_2_stack)
    return QReproduceResult((rec1 - target).norm(), (rec2 - target).norm())
