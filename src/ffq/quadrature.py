"""Gauss-Legendre quadrature over the slit unit disk (area measure
r dr dtheta) and along slit-avoiding paths.

This module is the ground-truth oracle for every norm and kernel identity:
tensor rules on polar panels, refined by doubling panel counts until
successive estimates agree to the requested relative tolerance.  The angular
range is the open interval (-pi, pi) in the sense that Gauss nodes never
touch the endpoints, which realises the slit-disk limits exactly on the
integrable data used here.

Integrands receive flat numpy arrays and may return a stack of values with
the node axis last; a stack is integrated entrywise in one pass.  Node blocks
are processed in fixed-size chunks with a fixed accumulation order, so
results are deterministic for a given spec; a block holds at most _CHUNK
elements, counting each row of a stack of the given height.
"""

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NoConvergence
from .holo_series import in_slit_disk

_CHUNK = 1 << 20
# largest finest-level disk rule a spec may ask for: four times the default
# spec's 4096 x 4096 nodes at max_refine = 5, one more doubling of it
MAX_FINEST_NODES = 1 << 26


@dataclass(frozen=True)
class QuadratureSpec:
    """Tensor-rule orders, panel counts, tolerances and the refinement cap.

    The finest disk level, (nr panels_r 2**max_refine) x (ntheta
    panels_theta 2**max_refine) nodes, may not exceed MAX_FINEST_NODES.
    """

    nr: int = 32
    ntheta: int = 32
    panels_r: int = 4
    panels_theta: int = 4
    rel_tol: float = 1e-9
    abs_tol: float = 1e-14
    max_refine: int = 5

    def __post_init__(self):
        if self.nr < 4 or self.ntheta < 4:
            raise DomainError("node counts must be at least 4")
        if self.panels_r < 1 or self.panels_theta < 1:
            raise DomainError("panel counts must be at least 1")
        if not (0.0 < self.rel_tol < math.inf and 0.0 <= self.abs_tol < math.inf):
            raise DomainError("tolerances must be finite, rel_tol > 0 and abs_tol >= 0")
        if self.max_refine < 1:
            raise DomainError("at least one refinement is needed to estimate error")
        # the shift is bounded first, so a huge max_refine builds no huge int
        base = self.nr * self.panels_r * self.ntheta * self.panels_theta
        shift = 2 * self.max_refine
        if shift >= MAX_FINEST_NODES.bit_length() or base << shift > MAX_FINEST_NODES:
            raise DomainError(f"the finest level's {base} * 4**{self.max_refine} disk "
                              f"nodes exceed the budget of {MAX_FINEST_NODES}")


DEFAULT_SPEC = QuadratureSpec()


class QuadResult(NamedTuple):
    value: object
    error: float
    refinements: int


@lru_cache(maxsize=None)
def _gauss(n):
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _composite(a, b, panels, n):
    """Composite Gauss-Legendre nodes and weights on [a, b]."""
    x, w = _gauss(n)
    edges = np.linspace(a, b, panels + 1)
    mid = (edges[:-1] + edges[1:]) / 2.0
    half = (edges[1:] - edges[:-1]) / 2.0
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def _polar_blocks(spec, level, height=1):
    rn, rw = _composite(0.0, 1.0, spec.panels_r << level, spec.nr)
    tn, tw = _composite(-np.pi, np.pi, spec.panels_theta << level, spec.ntheta)
    rows = max(1, _CHUNK // (height * len(tn)))
    for i in range(0, len(rn), rows):
        rb, wb = rn[i : i + rows], rw[i : i + rows]
        yield (
            np.repeat(rb, len(tn)),
            np.tile(tn, len(rb)),
            (wb[:, None] * tw[None, :]).ravel(),
        )


def _polar_estimate(g, spec, level, height=1):
    acc = None
    for r, t, w in _polar_blocks(spec, level, height):
        w = w * r
        part = np.asarray(g(r, t)) @ w
        acc = part if acc is None else acc + part
    return np.asarray(acc)


def _converge(estimate, spec, describe, entrywise=False):
    """Refine estimate(level) until successive levels agree to tolerance.

    By default every entry of a stacked estimate must agree at the same
    level.  With entrywise=True each entry is an integral of its own: it
    keeps the value and change of the first level at which it agreed, as if
    refined alone, while refinement goes on for the entries that have not.
    """
    prev = estimate(0)
    value, change = prev, np.inf
    held = np.zeros(np.shape(prev), dtype=bool)
    for level in range(1, spec.max_refine + 1):
        cur = estimate(level)
        diff = np.abs(cur - prev)
        met = diff <= np.maximum(spec.rel_tol * np.abs(cur), spec.abs_tol)
        if entrywise:
            value = np.where(held, value, cur)
            change = np.where(held, change, diff)
            held = held | met
        else:
            value, change, held = cur, diff, met
        if np.all(held):
            return QuadResult(_unwrap(value), float(np.max(change)), level)
        prev = cur
    err = float(np.max(change))
    raise NoConvergence(
        f"{describe}: refinement cap {spec.max_refine} reached with "
        f"inter-level change {err:.3e} above tolerance",
        value=_unwrap(value),
        error=err,
    )


def _unwrap(value):
    return value.item() if np.ndim(value) == 0 else value


def integrate_disk(integrand, spec=None, height=1):
    """Integral of integrand(z) over the slit unit disk, d(mu) = r dr dtheta.

    The integrand must be finite on the open slit disk; power-type behaviour
    r**p with p > -1 at the origin is fine.  Complex integrands integrate
    componentwise.  A stacked integrand (leading axes before the node axis)
    integrates entrywise: each entry keeps the value of the first level at
    which it meets the tolerance, the value it would get alone.  height,
    the number of rows the integrand evaluates per node, shrinks the node
    blocks to match.
    """
    spec = spec or DEFAULT_SPEC
    return _converge(
        lambda level: _polar_estimate(
            lambda r, t: integrand(r * np.exp(1j * t)), spec, level, height
        ),
        spec,
        "disk integral",
        entrywise=True,
    )


@dataclass(frozen=True)
class _Line:
    z0: complex
    z1: complex

    def point(self, s):
        return self.z0 + (self.z1 - self.z0) * s

    def velocity(self, s):
        return np.full_like(np.asarray(s, dtype=complex), self.z1 - self.z0)


@dataclass(frozen=True)
class _Arc:
    radius: float
    t0: float
    t1: float

    def point(self, s):
        return self.radius * np.exp(1j * ((1.0 - s) * self.t0 + s * self.t1))

    def velocity(self, s):
        return 1j * self.radius * (self.t1 - self.t0) * np.exp(
            1j * ((1.0 - s) * self.t0 + s * self.t1)
        )


@dataclass(frozen=True)
class SlitPath:
    """Piecewise-smooth path in the slit disk, here always starting at 1/2."""

    segments: tuple
    start: complex
    end: complex

    def sample(self, n=1000):
        """n points per segment, for domain checks."""
        s = (np.arange(n) + 0.5) / n
        if not self.segments:
            return np.asarray([self.start])
        return np.concatenate([seg.point(s) for seg in self.segments])


def build_slit_path(z, arc_first=False):
    """Two-segment path from 1/2 to z inside the slit disk.

    Default: a real segment from 1/2 to |z| followed by a circular arc at
    radius |z| sweeping from angle 0 to Arg z.  With arc_first=True the arc
    is taken at radius 1/2 first and the radial segment second, giving a
    genuinely different path to the same endpoint (useful for
    path-independence checks).  Degenerate pieces are dropped.
    """
    z = complex(z)
    if not in_slit_disk(z):
        raise DomainError(f"{z} is not in the slit unit disk")
    r, th = abs(z), cmath.phase(z)
    segments = []
    if not arc_first:
        if r != 0.5:
            segments.append(_Line(0.5 + 0j, complex(r)))
        if th != 0.0:
            segments.append(_Arc(r, 0.0, th))
    else:
        if th != 0.0:
            segments.append(_Arc(0.5, 0.0, th))
        if r != 0.5:
            segments.append(_Line(0.5 * cmath.exp(1j * th), z))
    return SlitPath(tuple(segments), 0.5 + 0j, z)


def _path_rule(path, spec, level):
    """Nodes and weights of the contour rule at a level: composite
    Gauss-Legendre on each segment, weights times the segment's velocity."""
    s, w = _composite(0.0, 1.0, spec.panels_r << level, spec.nr)
    nodes = np.concatenate([seg.point(s) for seg in path.segments])
    weights = np.concatenate([w * seg.velocity(s) for seg in path.segments])
    return nodes, weights


def path_integral(f, path, spec=None):
    """Contour integral of f along the path, composite Gauss-Legendre per
    segment, refined like the polar rule.  An empty path integrates to 0."""
    spec = spec or DEFAULT_SPEC
    if not path.segments:
        return QuadResult(0j, 0.0, 0)

    def estimate(level):
        nodes, weights = _path_rule(path, spec, level)
        return np.asarray(f(nodes)) @ weights
    return _converge(estimate, spec, "path integral")
