"""Quaternion arithmetic and the slice (polar) structure of the quaternion algebra.

A quaternion is w + x*e1 + y*e2 + z*e3 with e1*e2 = e3, e2*e3 = e1, e3*e1 = e2.
Every value here is immutable and every operation pure, so everything is safe
to share across threads.
"""

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BranchError, DomainError, FrameError
from .holo_series import principal_power_c, truncated_exp_c


class Quaternion:
    __slots__ = ("w", "x", "y", "z")

    def __init__(self, w=0.0, x=0.0, y=0.0, z=0.0):
        _set_w(self, float(w))
        _set_x(self, float(x))
        _set_y(self, float(y))
        _set_z(self, float(z))

    def __setattr__(self, name, value):
        raise AttributeError("Quaternion is immutable")

    def __reduce__(self):
        return (Quaternion, self.components)

    @property
    def components(self):
        return (self.w, self.x, self.y, self.z)

    def vector_norm(self):
        return math.hypot(self.x, self.y, self.z)

    def conjugate(self):
        return _quat(self.w, -self.x, -self.y, -self.z)

    def norm_sq(self):
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def norm(self):
        return math.hypot(self.w, self.x, self.y, self.z)

    __abs__ = norm

    def inverse(self):
        n2 = self.norm_sq()
        if n2 == 0.0:
            raise DomainError("zero quaternion has no inverse")
        return _quat(self.w / n2, -self.x / n2, -self.y / n2, -self.z / n2)

    def __add__(self, other):
        if isinstance(other, Quaternion):
            return _quat(self.w + other.w, self.x + other.x,
                         self.y + other.y, self.z + other.z)
        if isinstance(other, (int, float)):
            return _quat(self.w + float(other), self.x, self.y, self.z)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Quaternion):
            return _quat(self.w - other.w, self.x - other.x,
                         self.y - other.y, self.z - other.z)
        if isinstance(other, (int, float)):
            return _quat(self.w - float(other), self.x, self.y, self.z)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, float)):
            return _quat(float(other) - self.w, -self.x, -self.y, -self.z)
        return NotImplemented

    def __neg__(self):
        return _quat(-self.w, -self.x, -self.y, -self.z)

    def __pos__(self):
        return self

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            a, b = self, other
            return _quat(
                a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z,
                a.w * b.x + a.x * b.w + a.y * b.z - a.z * b.y,
                a.w * b.y - a.x * b.z + a.y * b.w + a.z * b.x,
                a.w * b.z + a.x * b.y - a.y * b.x + a.z * b.w,
            )
        if isinstance(other, (int, float)):
            s = float(other)
            return _quat(self.w * s, self.x * s, self.y * s, self.z * s)
        return NotImplemented

    def __rmul__(self, other):
        # real scalars commute with every quaternion
        if isinstance(other, (int, float)):
            s = float(other)
            return _quat(self.w * s, self.x * s, self.y * s, self.z * s)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            s = float(other)
            return _quat(self.w / s, self.x / s, self.y / s, self.z / s)
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, Quaternion):
            return self.components == other.components
        if isinstance(other, (int, float)):
            return self.components == (float(other), 0.0, 0.0, 0.0)
        return NotImplemented

    def __hash__(self):
        # a real quaternion equals its real part, so it hashes as that number
        if self.x == self.y == self.z == 0.0:
            return hash(self.w)
        return hash(self.components)

    def __repr__(self):
        return f"Quaternion({self.w!r}, {self.x!r}, {self.y!r}, {self.z!r})"


# The slot descriptors' setters write a field past the blocking __setattr__
# without object.__setattr__'s lookup of the name.
_set_w, _set_x, _set_y, _set_z = (Quaternion.__dict__[c].__set__ for c in Quaternion.__slots__)
_new = object.__new__


def _quat(w, x, y, z):
    # a Quaternion from four Python floats, as Quaternion(w, x, y, z) without
    # the float() conversions: for arithmetic results, which are floats already
    q = _new(Quaternion)
    _set_w(q, w)
    _set_x(q, x)
    _set_y(q, y)
    _set_z(q, z)
    return q


ONE = Quaternion(1.0)
E1 = Quaternion(0.0, 1.0)
E2 = Quaternion(0.0, 0.0, 1.0)
E3 = Quaternion(0.0, 0.0, 0.0, 1.0)


def as_quaternion(value):
    """Coerce a real number or Quaternion to a Quaternion."""
    if isinstance(value, Quaternion):
        return value
    if isinstance(value, (int, float)):
        return Quaternion(value)
    raise TypeError(f"cannot interpret {value!r} as a quaternion")


def dot4(a, b):
    """Euclidean inner product of two quaternions viewed as 4-vectors."""
    return a.w * b.w + a.x * b.x + a.y * b.y + a.z * b.z


class SlicePolar(NamedTuple):
    """Polar slice data of a quaternion: q = x + y*axis = mod * exp(axis*arg)."""

    x: float
    y: float
    axis: Quaternion
    arg: float
    mod: float


def slice_decompose(q):
    """Split q into real part, imaginary magnitude (>= 0) and its slice axis.

    Real points carry the conventional axis e1 (any axis is consistent since
    y = 0 multiplies it).  The argument lands in (-pi, pi]; with y >= 0 it is
    in fact in [0, pi].
    """
    q = as_quaternion(q)
    y = q.vector_norm()
    # a subnormal y has lost digits: scale by the exact power 2**600 first
    s = 1.0 if y >= sys.float_info.min else 2.0 ** 600
    v = (q.x * s, q.y * s, q.z * s)
    n = math.hypot(*v)
    axis = E1 if y == 0.0 else _quat(0.0, v[0] / n, v[1] / n, v[2] / n)
    return SlicePolar(q.w, y, axis, math.atan2(y, q.w), math.hypot(q.w, y))


def embed_complex(c, axis):
    """Place the complex number c into the slice plane spanned by 1 and axis."""
    c = complex(c)
    return _quat(c.real, axis.x * c.imag, axis.y * c.imag, axis.z * c.imag)


def principal_power(q, beta):
    """Principal-branch power q**beta: an intrinsic function maps each slice
    into itself, so it is principal_power_c at x + y i placed on the axis
    of q.  Undefined (BranchError) at 0 and on the negative real axis, where
    the principal logarithm has no slice to live in.
    """
    sp = slice_decompose(q)
    if sp.y == 0.0 and sp.x < 0.0:
        raise BranchError("principal power undefined on the negative real axis")
    return embed_complex(principal_power_c(complex(sp.x, sp.y), beta), sp.axis)


def truncated_exp(q, k):
    """Exponential sum of order k: sum_{n<=k} q^n/n!; k=inf is the full exp.

    The sum is truncated_exp_c at x + y i placed on the axis of q, so a huge
    k stops as early there as in the complex sum.
    """
    sp = slice_decompose(q)
    return embed_complex(truncated_exp_c(complex(sp.x, sp.y), k), sp.axis)


_FRAME_TOL = 1e-9


@dataclass(frozen=True)
class SliceFrame:
    """Ordered orthonormal pair (i, j) of imaginary units.

    C(i) is the slice plane and {1, j} the splitting basis; i*j completes
    {1, i, j, i*j} to an orthonormal basis of the quaternions.  The frame
    keeps that basis as a read-only 4x4 matrix of components, one row per
    element, built once for frame_coords and frame_embed.
    """

    i: Quaternion
    j: Quaternion

    def __post_init__(self):
        for name, u in (("i", self.i), ("j", self.j)):
            if abs(u.w) > _FRAME_TOL or abs(u.norm() - 1.0) > _FRAME_TOL:
                raise FrameError(f"frame axis {name} is not a unit imaginary quaternion")
        if abs(dot4(self.i, self.j)) > _FRAME_TOL:
            raise FrameError("frame axes are not orthogonal")
        matrix = np.array([b.components for b in self.basis()])
        matrix.setflags(write=False)
        object.__setattr__(self, "_matrix", matrix)

    def __reduce__(self):
        return (SliceFrame, (self.i, self.j))

    def basis(self):
        return (ONE, self.i, self.j, self.i * self.j)


STANDARD_FRAME = SliceFrame(E1, E2)


def random_unit_imaginary(rng):
    """Uniform random point of the imaginary unit sphere."""
    while True:
        v = rng.standard_normal(3)
        n = math.sqrt(float(v @ v))
        if n > 1e-12:
            return Quaternion(0.0, v[0] / n, v[1] / n, v[2] / n)


def random_frame(rng):
    """Random orthonormal slice frame (i, j)."""
    i = random_unit_imaginary(rng)
    while True:
        v = random_unit_imaginary(rng)
        d = dot4(i, v)
        u = Quaternion(0.0, v.x - d * i.x, v.y - d * i.y, v.z - d * i.z)
        n = u.norm()
        if n > 1e-6:
            return SliceFrame(i, u / n)


def frame_coords(q, frame):
    """Coordinates (c1, c2) of q in the frame: q = c1 + c2*j with c1, c2 in C(i).

    q is a Quaternion, or an array with components (w, x, y, z) on its last
    axis; c1 and c2 are then complex arrays over the leading axes.
    """
    comps = q if isinstance(q, np.ndarray) else np.array(as_quaternion(q).components)
    c = (comps @ frame._matrix.T).view(complex)
    # a single point unpacks into two numpy complex scalars
    return tuple(c) if c.ndim == 1 else (c[..., 0], c[..., 1])


def frame_embed(c1, c2, frame):
    """Inverse of frame_coords: c1 + c2*j as a Quaternion, or as an array of
    components (..., 4) when c1 and c2 are complex arrays."""
    if isinstance(c1, np.ndarray):
        return np.stack([c1, c2], axis=-1).view(float) @ frame._matrix
    return embed_complex(c1, frame.i) + embed_complex(c2, frame.i) * frame.j
