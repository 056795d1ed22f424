"""Slice-regular power series on the unit ball: the star algebra, Cullen
derivative, splitting into complex component series and the representation
formula that rebuilds values on the whole ball from one slice.

Coefficients sit on the right: f(q) = sum q^n a_n. All operations are pure.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IntrinsicError
from .holo_series import CPowerSeries
from .quaternion import (ONE, Quaternion, SliceFrame, _quat, as_quaternion,
                         embed_complex, frame_coords, frame_embed,
                         slice_decompose)


def _qmul(a, b, op):
    """Quaternion product of split arrays a = a1 + a2 e2 and b = b1 + b2 e2
    (last axis (c1, c2)), each factor product taken by the bilinear op; as
    e2 z = conj(z) e2 for z in C(e1), it is
    (a1 b1 - a2 conj(b2)) + (a1 b2 + a2 conj(b1)) e2."""
    (a1, a2), (b1, b2) = a.T, b.T
    return np.stack([op(a1, b1) - op(a2, b2.conj()), op(a1, b2) + op(a2, b1.conj())],
                    axis=-1)


class QPowerSeries:
    """Polynomial sum q^n a_n with quaternion right coefficients a_0..a_N.

    Held as one read-only complex array `parts` of shape (N+1, 2): row n is
    the standard-frame split (c1, c2) of a_n = c1 + c2 e2 with c1, c2 in
    C(e1), and its float view is the (N+1, 4) array of components
    (w, x, y, z).  `coeffs` gives the coefficients as Quaternions.
    Non-finite coefficients raise DomainError.
    """

    __slots__ = ("parts",)

    def __init__(self, coeffs=()):
        comps = [x for c in coeffs for x in as_quaternion(c).components]
        if not all(map(math.isfinite, comps)):
            raise DomainError("series coefficients must be finite")
        parts = np.array(comps, dtype=float).view(complex).reshape(-1, 2)
        parts.setflags(write=False)
        object.__setattr__(self, "parts", parts)

    def __setattr__(self, name, value):
        raise AttributeError("QPowerSeries is immutable")

    def __reduce__(self):
        return (QPowerSeries, (self.coeffs,))

    @property
    def coeffs(self):
        return tuple(Quaternion(*c) for c in self.parts.view(float).tolist())

    @property
    def degree(self):
        return len(self.parts) - 1

    def __add__(self, other):
        if isinstance(other, QPowerSeries):
            n = max(self.degree, other.degree) + 1
            out = np.zeros((n, 2), dtype=complex)
            out[: self.degree + 1] += self.parts
            out[: other.degree + 1] += other.parts
            return _series(out)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, QPowerSeries):
            return self + (-other)
        return NotImplemented

    def __neg__(self):
        return _series(-self.parts)

    def __mul__(self, other):
        # right scalar multiple f*a: coefficients a_n * a
        if isinstance(other, (Quaternion, int, float)):
            a = np.array(as_quaternion(other).components).view(complex)
            return _series(_qmul(self.parts, a, np.multiply))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return _series(self.parts * other)
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, QPowerSeries):
            return np.array_equal(self.parts, other.parts)
        return NotImplemented

    def __repr__(self):
        return f"QPowerSeries({list(self.coeffs)!r})"

    def max_imag_coefficient(self):
        """Largest imaginary component over all coefficients (0 when empty)."""
        return float(np.max(np.abs(self.parts.view(float)[:, 1:]), initial=0.0))


def _series(parts):
    # wrap a split array as a QPowerSeries, read-only and without re-checking
    f = object.__new__(QPowerSeries)
    parts.setflags(write=False)
    object.__setattr__(f, "parts", parts)
    return f


def eval_q(f, q):
    """Evaluate the series at a quaternion of the open unit ball.

    With q = x + y I and z = x + y i, q^n = Re(z^n) + Im(z^n) I, so
    f(q) = A + I B with A = sum Re(z^n) a_n and B = sum Im(z^n) a_n.
    A non-finite q is outside the ball too.
    """
    q = as_quaternion(q)
    r = q.norm()
    if not r < 1.0:
        raise DomainError(f"|q| = {r} is outside the open unit ball")
    sp = slice_decompose(q)
    zn = complex(sp.x, sp.y) ** np.arange(f.degree + 1)
    a, b = (zn.view(float).reshape(-1, 2).T @ f.parts.view(float)).tolist()
    return _quat(*a) + sp.axis * _quat(*b)


def cullen_derivative(f):
    """Slice derivative: maps q^n a_n to n q^(n-1) a_n."""
    return _series(f.parts[1:] * np.arange(1.0, f.degree + 1)[:, None])


def star_product(f, g):
    """Cauchy convolution product; coefficient order a_k * b_{n-k} preserved."""
    if f.degree < 0 or g.degree < 0:
        return QPowerSeries([])
    return _series(_qmul(f.parts, g.parts, np.convolve))


def regular_conjugate(f):
    """Coefficientwise quaternion conjugate: (conj c1, -c2) in the split."""
    c1, c2 = f.parts.T
    return _series(np.stack([c1.conj(), -c2], axis=-1))


def symmetrization(f):
    """f star its regular conjugate; the result has real coefficients."""
    return star_product(f, regular_conjugate(f))


_STAR_INVERSE_FLOOR = 1e-12


def star_inverse(f, degree):
    """Star-algebra inverse as a formal series truncated at the given degree.

    Computed as the reciprocal of the real-coefficient symmetrization star
    the regular conjugate; star_product(f, result) is 1 up to O(q^(degree+1)).
    The reciprocal r solves the lower-triangular Toeplitz system s * r = 1.
    The degree is a non-negative integer; a bool is not one.
    """
    if isinstance(degree, bool) or not isinstance(degree, numbers.Integral) or degree < 0:
        raise DomainError(f"degree must be a non-negative integer, got {degree!r}")
    degree = int(degree)
    if f.degree < 0 or np.linalg.norm(f.parts[0]) < _STAR_INVERSE_FLOOR:
        raise DomainError("constant term too small for a star inverse")
    n = degree + 1
    c1 = symmetrization(f).parts[:n, 0].real
    # s = c1 padded with zeros to 2n - 1 entries: the index differences
    # k - j < 0 wrap into the zero tail, so s[k - j] is lower triangular
    s = np.zeros(2 * n - 1)
    s[: len(c1)] = c1
    k = np.arange(n)
    e0 = np.zeros(n)
    e0[0] = 1.0
    r = np.linalg.solve(s[k[:, None] - k], e0)
    recip = _series(np.stack([r, 0.0 * r], axis=-1) + 0j)
    out = star_product(recip, regular_conjugate(f))
    return _series(out.parts[:n])


@dataclass(frozen=True)
class SplitPair:
    """Component series of f on a slice: f = f1 + f2*j with f1, f2 in C(i).

    Both components live in the abstract complex plane {1, i} so they plug
    straight into the complex operators.
    """

    f1: CPowerSeries
    f2: CPowerSeries
    frame: SliceFrame


def split(f, frame):
    """Decompose every coefficient as a_n = a_n^1 + a_n^2 * j over the frame."""
    c1, c2 = frame_coords(f.parts.view(float), frame)
    if f.degree < 0:
        c1 = c2 = [0]
    return SplitPair(CPowerSeries(c1), CPowerSeries(c2), frame)


def _two_point(value_at, x, y, axis, i):
    """Representation formula: the value at x + y*axis of a slice function
    from its values value_at(x + y i) and value_at(x - y i) on the slice C(i),
    ((1 - axis*i) f(x + y i) + (1 + axis*i) f(x - y i)) / 2.  At real points
    (y = 0) both halves coincide and value_at is called once."""
    wp = value_at(complex(x, y))
    wm = wp if y == 0.0 else value_at(complex(x, -y))
    t = axis * i
    return ((ONE + t) * wm + (ONE - t) * wp) * 0.5


def extend_from_slice(pair, q):
    """Extension from slice data to the whole ball.

    For q = x + y*I the value is the usual two-point average of the slice
    function f = f1 + f2*j; on the slice itself this restricts to f exactly,
    and at real points both halves coincide.
    """
    sp = slice_decompose(q)
    return _two_point(lambda z: frame_embed(pair.f1(z), pair.f2(z), pair.frame),
                      sp.x, sp.y, sp.axis, pair.frame.i)


def representation_formula(f_on_slice, frame, x, y, target_axis):
    """Value of f at x + y*target_axis from its values on the slice C(frame.i).

    f_on_slice evaluates f at quaternion points of the frame's slice plane.
    """
    return _two_point(lambda z: f_on_slice(embed_complex(z, frame.i)),
                      x, y, as_quaternion(target_axis), frame.i)


_INTRINSIC_TOL = 1e-12


def is_intrinsic(f):
    """True when all coefficients are real to within _INTRINSIC_TOL."""
    return f.max_imag_coefficient() <= _INTRINSIC_TOL


def intrinsic_exp(f, q):
    """exp(f(q)) for an intrinsic (real-coefficient) series.

    f and exp map the slice plane of q = x + y I into itself, so the value
    is the complex exp of the real-part series at x + y i placed on I.
    Polynomials are entire, so q is not restricted to the ball here.
    """
    if not is_intrinsic(f):
        raise IntrinsicError("series coefficients are not real")
    sp = slice_decompose(q)
    w = CPowerSeries(f.parts[:, 0].real)(complex(sp.x, sp.y))
    return embed_complex(np.exp(w), sp.axis)
