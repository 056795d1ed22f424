"""Gauss-Legendre quadrature over the slit unit disk (area measure
r dr dtheta) and along slit-avoiding paths.

This module is the ground-truth oracle for every norm and kernel identity:
tensor rules on polar panels, the first radial panel graded toward the
origin, refined by doubling panel counts until successive estimates agree
to the requested relative tolerance.  The angular range is the open
interval (-pi, pi) in the sense that Gauss nodes never touch the endpoints,
which realises the slit-disk limits exactly on the integrable data used
here.

Integrands receive flat numpy arrays and may return a stack of values with
the node axis last; a stack is integrated entrywise in one pass.  An entry
that meets the tolerance keeps that level's value and leaves the
refinement: while an integrand runs on a block, the flat indices of the
entries still open are published beside the block (_open_rows, None while
every entry is open).  An integrand that reads them returns those rows
only, (open rows, nodes); from any other integrand, which returns the
whole stack, the open rows are taken.  Either way each entry gets the
value it would get alone, and an empty stack integrates to an empty value
at level 0.  Node blocks
are processed in a fixed order with a fixed accumulation order, so results
are deterministic for a given spec.  A block takes whole radial rows, at
least one, of at most _BLOCK_NODES = 2**13 nodes, however many rows the
stack has; kernel_K_half chunks its zetas by the same size.

A block (_PolarBlock) holds its ring radii rb, the level's angle row tn,
its nodes z = rb e^{i tn}, ring-major, and their weights; rb, tn and z
are read-only.  On a tensor rule every per-node quantity is an outer
product of a ring row and an angle row (Davis and Rabinowitz 1984), so
no node takes a sine, a cosine or a complex power.  While an integrand
runs on a block, _polar_estimate publishes the block in the context
variable _RULE_BLOCK, with the open rows.  Code handed that block's own
z (an identity test, _rule_block) may read the rows: ff_complex forms the
measure derivative alpha z**(alpha-1) e_{k-1}(z**alpha) from them, and
the series values f(z) and f'(z), one real matrix product per series of
the block's ring-power and angle-power tables (power_rows), and
_matrix_estimate its powers r**a e^{i a t}.  Such code does not check the nodes against the
slit disk: rb lies in (0, 1) and tn in (-pi, pi) by construction, which
the tests confirm up to the MAX_FINEST_NODES budget.  Any other array, a
copy of z included, is checked as user input.

The block bounds everything that is one row long: the weights at 8 bytes
a node, z and the measure derivative and its reciprocal at 16, the power
tables of the series values (at most _BLOCK_NODES entries each, at any
degree), and the few row-sized temporaries of a stack filled row by row
(f and f', one product per series, f' times the reciprocal, and the row
being formed, as complex numbers or, for |Df|**2, as their float views),
each at most 128 KiB, so they stay in cache.  A stack of h rows takes h x 2**13
elements per block: 5.3 MB for the norms sweep's 81 float rows, the
largest stack.  A nested integrand also holds kernel_K_half's
16 + ceil((N+1)/16) rows of powers and partial sums in conj(zeta), and
for the life of the nested integral the path levels it has built: nodes
and weights, at most 2 nr panels_r 2**level complex numbers of each.

Every refinement runs through one loop, _converge.  The path kernel's
certificate, which can accept its level 1 without evaluating level 0, lives
in kernel_K_half, which calls the loop only when the certificate refuses;
each level's moments are formed once per kernel call.
"""

import cmath
import math
import numbers
from contextvars import ContextVar
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NoConvergence
from .holo_series import in_slit_disk

# most nodes a disk block, or a zeta chunk of the path kernel, holds: 2**14
# raised the norms sweep's peak memory and 2**12 slowed it
_BLOCK_NODES = 1 << 13
# largest finest-level disk rule a spec may ask for: four times the default
# spec's 4096 x 4096 nodes at max_refine = 5, one more doubling of it
MAX_FINEST_NODES = 1 << 26
# (block, open rows): the disk-rule block an integrand is running on and the
# flat indices of the stack entries still refining (None for all), set by
# _polar_estimate for the call and reset when it returns
_RULE_BLOCK = ContextVar("ffq_rule_block", default=None)


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
        for field in fields(self):  # a bool is neither a count nor a tolerance
            kind, what = ((numbers.Integral, "an integer") if field.type is int
                          else (numbers.Real, "a real number"))
            value = getattr(self, field.name)
            if isinstance(value, bool) or not isinstance(value, kind):
                raise DomainError(f"{field.name} must be {what}, got {value!r}")
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


def _powers(x, n):
    """Rows x**0, ..., x**(n-1) of a 1-D array x, by repeated products."""
    out = np.empty((n, len(x)), dtype=complex)
    out[0] = 1.0
    for i in range(1, n):
        np.multiply(out[i - 1], x, out=out[i])
    return out


class _PolarBlock(NamedTuple):
    """One block of the disk rule: ring radii rb, the level's angle row tn,
    the nodes z = rb e^{i tn} ring-major, and their weights; rb, tn and z
    are read-only, so the rows stay the rows of z."""

    rb: np.ndarray
    tn: np.ndarray
    z: np.ndarray
    w: np.ndarray

    def ring_weights(self, ring):
        """The weights, each times its ring's entry of the row ring (one
        value per radius): the bits of w * np.repeat(ring, len(tn))."""
        return (self.w.reshape(len(self.rb), -1) * ring[:, None]).ravel()

    def power_rows(self, n):
        """The tables of z**j, j < n, at the block's nodes: the ring powers
        rb**j (rings x n, real) and the angle powers e^{i j tn} (n x
        angles), the latter by repeated products of the row e^{i tn}.  With
        a the coefficients of a series of n terms, ((R * a) @ E).ravel() is
        its value at z, ring-major."""
        return self.rb[:, None] ** np.arange(n), _powers(np.exp(1j * self.tn), n)

    def power(self, a, scale=1.0):
        """scale * z**a at the nodes, principal branch, as the ring row
        scale rb**a times the angle row e^{i a tn}: Gauss nodes never reach
        tn = +-pi, so no node takes a complex power.  At a = 1 the bits of z."""
        return ((scale * self.rb ** a)[:, None] * np.exp(1j * a * self.tn)[None, :]).ravel()


def _polar_blocks(spec, level):
    """Node blocks (_PolarBlock: rb, tn, z, w) of the disk rule at a level.
    A block is whole radial rows, at least one, of at most _BLOCK_NODES
    nodes; the blocks in order are the tensor rule node for node.  z is
    rb[:, None] e^{i tn}[None, :] from one row of e^{i theta} per level:
    the same bits as r * np.exp(1j * theta) node by node.  Per-node r and
    theta arrays are not formed: _polar_estimate, _matrix_estimate and the
    measure derivative of ff_complex read the rows.

    The first radial panel [0, h] is graded: its Gauss nodes x map to
    r = x**2 / h with weight (2 x / h) w, the same node count.  The
    integrands carry non-integer powers r**gamma at the origin (the measure
    factor brings r**(alpha j)), on which Gauss-Legendre converges only
    algebraically; the substitution turns r**gamma dr into a multiple of
    x**(2 gamma + 1) dx, a weaker singularity on which the panel's rule
    converges much faster (the graded-mesh treatment of Schwab 1998 and
    Davis and Rabinowitz 1984).  On the default spec the k = 1 coefficient
    tables meet their closed form to 6e-16 of the largest entry, against
    1.4e-10 on a uniform first panel.  The other panels are unchanged.
    """
    rn, rw = _composite(0.0, 1.0, spec.panels_r << level, spec.nr)
    h, x = 1.0 / (spec.panels_r << level), rn[: spec.nr]
    rw[: spec.nr] *= 2.0 * x / h
    rn[: spec.nr] = x * x / h
    rn.setflags(write=False)
    tn, tw = _composite(-np.pi, np.pi, spec.panels_theta << level, spec.ntheta)
    tn.setflags(write=False)
    eit = np.exp(1j * tn)
    rows = max(1, _BLOCK_NODES // len(tn))
    for i in range(0, len(rn), rows):
        rb, wb = rn[i : i + rows], rw[i : i + rows]
        z = (rb[:, None] * eit[None, :]).ravel()
        z.setflags(write=False)
        yield _PolarBlock(rb, tn, z, (wb[:, None] * tw[None, :]).ravel())


def _published(z):
    """What _polar_estimate publishes, (block, rows), if z is the node array
    of the block an integrand is running on (an identity test, not equal
    values), else None."""
    published = _RULE_BLOCK.get()
    return published if published is not None and published[0].z is z else None


def _rule_block(z):
    """The disk-rule block an integrand is running on if z is that block's
    own node array, else None."""
    published = _published(z)
    return None if published is None else published[0]


def _open_rows(z):
    """The flat indices, ascending, of the stack entries still refining
    when z is the node array of the block an integrand is running on and
    some entries have converged; None when every entry is open or z is any
    other array.  An integrand that reads them returns those rows only."""
    published = _published(z)
    return None if published is None else published[1]


def _polar_estimate(g, spec, level, rows=None):
    """The rule's sum of g r over the level's blocks, each block published
    in _RULE_BLOCK with the open rows while g runs on its nodes.  With rows
    given, the sum has one entry per open row: from g's values if it
    returns those rows only, else from those rows of the full stack."""
    acc = None
    for block in _polar_blocks(spec, level):
        # formed before the integrand's values, as the order of these two
        # allocations sets the peak memory of large stacks
        w = block.ring_weights(block.rb)
        token = _RULE_BLOCK.set((block, rows))
        try:
            values = np.asarray(g(block.z))
        finally:
            _RULE_BLOCK.reset(token)
        if rows is not None and values.shape[:-1] != (len(rows),):
            values = values.reshape(-1, values.shape[-1])[rows]
        part = values @ w
        del values  # not held while the next block's weights and values form
        acc = part if acc is None else acc + part
    return np.asarray(acc)


def _converge(estimate, spec, describe, entrywise=False):
    """Refine estimate(level) until successive levels agree to tolerance.

    By default every entry of a stacked estimate must agree at the same
    level.  With entrywise=True each entry is an integral of its own: it
    keeps the value and change of the first level at which it agreed, as if
    refined alone, and leaves the refinement.  Such an estimate is called
    as estimate(level, rows), rows the flat indices of the entries still
    open (None while all are), and returns those entries only.  An empty
    stack returns at level 0.  At the cap, NoConvergence carries each
    entry's change as changes and their maximum as error.  Every caller's
    refinement runs through this loop; kernel_K_half may accept its level 1
    before calling it, by a certificate of its own.
    """
    first = np.asarray(estimate(0, None) if entrywise else estimate(0))
    shape, prev = first.shape, first.reshape(-1)
    if prev.size == 0:
        return QuadResult(first, 0.0, 0)
    size = prev.size
    rows, value, change = np.arange(size), None, None
    for level in range(1, spec.max_refine + 1):
        if entrywise:
            cur = estimate(level, None if rows.size == size else rows)
        else:
            cur = estimate(level)
        cur = np.asarray(cur).reshape(-1)
        diff = np.abs(cur - prev)
        met = diff <= np.maximum(spec.rel_tol * np.abs(cur), spec.abs_tol)
        if entrywise:
            if value is None:
                value, change = np.empty(size, cur.dtype), np.empty(size)
            value[rows], change[rows] = cur, diff
            rows, prev = rows[~met], cur[~met]
            done = rows.size == 0
        else:
            value, change, prev = cur, diff, cur
            done = np.all(met)
        if done:
            return QuadResult(_unwrap(value.reshape(shape)), float(np.max(change)), level)
    err = float(np.max(change))
    raise NoConvergence(
        f"{describe}: refinement cap {spec.max_refine} reached with "
        f"inter-level change {err:.3e} above tolerance",
        value=_unwrap(value.reshape(shape)),
        error=err,
        changes=_unwrap(change.reshape(shape)),
    )


def _unwrap(value):
    return value.item() if np.ndim(value) == 0 else value


def integrate_disk(integrand, spec=None):
    """Integral of integrand(z) over the slit unit disk, d(mu) = r dr dtheta.

    The integrand must be finite on the open slit disk; power-type behaviour
    r**p with p > -1 at the origin is fine.  Complex integrands integrate
    componentwise.  A stacked integrand (leading axes before the node axis)
    integrates entrywise: each entry keeps the value of the first level at
    which it meets the tolerance, the value it would get alone, and is not
    refined further.  An integrand may ask which entries are still open:
    quadrature._open_rows(z), on the nodes it is handed, gives their flat
    indices (None while all are), and it then returns those rows only, one
    per index, node axis last.  An integrand that does not ask returns the
    whole stack at every level, and the open entries are taken from it.  An
    empty stack returns an empty value at level 0.

    The integrand sees the rule in blocks of at most _BLOCK_NODES = 2**13
    nodes, whatever it returns: a stack of h rows takes h x 2**13 elements
    per block (the norms sweep's 81 float rows, 5.3 MB).
    """
    spec = spec or DEFAULT_SPEC
    return _converge(lambda level, rows: _polar_estimate(integrand, spec, level, rows),
                     spec, "disk integral", entrywise=True)


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
    return SlitPath(tuple(segments))


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
