"""Finite complex power series on the unit disk, and branch-cut-aware scalar
functions on the slit disk (the open unit disk minus the real segment (-1, 0]).

Series are plain polynomials: every formula computed downstream is evaluated
on polynomial data, so tails are out of scope and degrees stay explicit.
A series evaluates elementwise over a numpy array, and at a Python number by
Horner's rule in Python complex arithmetic, returning a complex.

A Python number is an int (bool included), a float or a complex, numpy
float64 and complex128 included as subclasses of float and complex.  At one
the slit-disk test, the branch power and the measure functions run in Python
math and cmath arithmetic too and return a bool or a complex: no array is
built but truncated_exp_c's.  Any other scalar, a 0-d array included, takes
the array route.  The two routes keep the same checks, conventions and
errors; their last bits can differ, within the bounds stated where each
route's function is defined.
"""

import cmath
import math
import sys

import numpy as np

from .errors import BranchError, DomainError, INF, check_order

# the Python numbers, which take the scalar routes
_NUMBER = (int, float, complex)
# the smallest normal float
_TINY = sys.float_info.min
_LOG2 = math.log(2.0)


class CPowerSeries:
    """Polynomial sum a_n z^n held as a complex coefficient vector a_0..a_N.

    Immutable; derivative() is built once and kept, so the integrands that
    evaluate f' in every node block share one series.  `_terms` holds the
    coefficients as Python complex numbers, highest degree first, for the
    scalar Horner loop.
    """

    __slots__ = ("coeffs", "_terms", "_derivative")

    def __init__(self, coeffs=()):
        arr = np.atleast_1d(np.asarray(coeffs, dtype=complex)).copy()
        if arr.ndim != 1:
            raise ValueError("coefficients must be one-dimensional")
        if not np.isfinite(arr).all():
            raise DomainError("series coefficients must be finite")
        object.__setattr__(self, "coeffs", arr)
        object.__setattr__(self, "_terms", tuple(arr[::-1].tolist()))
        arr.setflags(write=False)

    def __setattr__(self, name, value):
        raise AttributeError("CPowerSeries is immutable")

    def __reduce__(self):
        return (CPowerSeries, (self.coeffs,))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __call__(self, z):
        """Value of the series at z.

        At a Python number (numpy float64 and complex128 included, being
        subclasses of float and complex) Horner's rule runs in Python complex
        arithmetic and returns a complex.  Its last bits can differ from the
        array path's, which rounds complex products differently; both stay
        within the Horner bound of about 4 (d+1) u sum |a_n| |z|^n.  An array
        gives an array of the same shape by one numpy pass per coefficient;
        any other scalar, a 0-d array included, takes that pass and returns
        a complex.
        """
        if isinstance(z, _NUMBER):
            z = complex(z)
            terms = iter(self._terms)
            out = next(terms, 0j)
            for a in terms:
                out = out * z + a
            return out
        scalar = np.isscalar(z) or getattr(z, "ndim", 1) == 0
        zz = np.asarray(z, dtype=complex)
        if len(self.coeffs) == 0:
            out = np.zeros_like(zz)
        else:
            out = np.full_like(zz, self.coeffs[-1])
            for a in self.coeffs[-2::-1]:
                out = out * zz + a
        return complex(out) if scalar else out

    def derivative(self):
        try:
            return self._derivative
        except AttributeError:
            pass
        if len(self.coeffs) <= 1:
            d = CPowerSeries([])
        else:
            d = CPowerSeries(np.arange(1, len(self.coeffs)) * self.coeffs[1:])
        # two threads may both get here; each keeps an equal series
        object.__setattr__(self, "_derivative", d)
        return d

    def _binary(self, other, op):
        if isinstance(other, CPowerSeries):
            n = max(len(self.coeffs), len(other.coeffs), 1)
            a = np.zeros(n, dtype=complex)
            b = np.zeros(n, dtype=complex)
            a[: len(self.coeffs)] = self.coeffs
            b[: len(other.coeffs)] = other.coeffs
            return CPowerSeries(op(a, b))
        return NotImplemented

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __neg__(self):
        return CPowerSeries(-self.coeffs)

    def __mul__(self, other):
        if isinstance(other, CPowerSeries):
            if len(self.coeffs) == 0 or len(other.coeffs) == 0:
                return CPowerSeries([])
            return CPowerSeries(np.convolve(self.coeffs, other.coeffs))
        if isinstance(other, (int, float, complex)):
            return CPowerSeries(self.coeffs * other)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, CPowerSeries):
            return (len(self.coeffs) == len(other.coeffs)
                    and bool(np.all(self.coeffs == other.coeffs)))
        return NotImplemented

    def __repr__(self):
        return f"CPowerSeries({list(self.coeffs)!r})"


def in_slit_disk(z):
    """True where |z| < 1 and z is not on the removed segment (-1, 0].

    The segment check is exact: points with zero imaginary part and real part
    in (-1, 0] are rejected, positive reals accepted; NaN and infinities are
    outside.  At a Python number the test is Python arithmetic and returns a
    bool (|z| is taken only once both parts are below 1, so it cannot
    overflow); an array gives a boolean array, any other scalar a bool.
    """
    if isinstance(z, _NUMBER):
        z = complex(z)
        return (abs(z.real) < 1.0 and abs(z.imag) < 1.0 and abs(z) < 1.0
                and not (z.imag == 0.0 and -1.0 < z.real <= 0.0))
    zz = np.asarray(z, dtype=complex)
    on_cut = (zz.imag == 0.0) & (zz.real > -1.0) & (zz.real <= 0.0)
    ok = (np.abs(zz) < 1.0) & ~on_cut
    return bool(ok) if ok.ndim == 0 else ok


def _require_slit_disk(z):
    ok = in_slit_disk(z)
    if not (ok if isinstance(ok, bool) else ok.all()):
        raise BranchError("evaluation point outside the slit unit disk")


def principal_power_c(z, alpha):
    """Principal-branch power z**alpha with Arg z in (-pi, pi].

    Points on the negative real axis use Arg = +pi regardless of the sign of
    the (zero) imaginary part; z = 0 raises BranchError, a non-finite z
    DomainError.  z**1 is z bit for bit (a copy for an array).

    At a Python number the power is exp(alpha (log|z| + i Arg z)) in
    Python math and cmath arithmetic, returned as a complex.  Its last bits
    can differ from the array route's, whose log and arctan2 round
    differently by an ulp: both stay within about
    4 u |z**alpha| (1 + alpha (|log|z|| + pi)), u = 2**-53.  A |z| beyond
    the float range (a finite z of parts near 1.8e308) enters the logarithm
    scaled, as log(|z| / 2) + log 2, on either route.  A power beyond the
    float range takes the array route, which gives numpy's overflow.  An
    array gives an array; any other scalar takes the array route and
    returns a complex.
    """
    if isinstance(z, _NUMBER):
        z = complex(z)
        if not cmath.isfinite(z):
            raise DomainError("z**alpha needs a finite z")
        if z == 0:
            raise BranchError("0**alpha is undefined on the principal branch")
        if alpha == 1.0:  # z**1 = z on every branch
            return z
        ang = math.pi if z.imag == 0.0 and z.real < 0.0 else math.atan2(z.imag, z.real)
        try:
            log_r = math.log(abs(z))
        except OverflowError:  # |z| beyond the float range
            log_r = math.log(abs(complex(z.real * 0.5, z.imag * 0.5))) + _LOG2
        try:
            return cmath.exp(alpha * complex(log_r, ang))
        except OverflowError:
            pass
    scalar = np.isscalar(z) or getattr(z, "ndim", 1) == 0
    zz = np.asarray(z, dtype=complex)
    # |z| serves the checks too: it is finite for a finite z unless |z| is
    # beyond the float range, and 0 only at z = 0
    with np.errstate(over="ignore"):
        r = np.abs(zz)
    big = None
    if not np.isfinite(r).all():
        if not np.isfinite(zz).all():
            raise DomainError("z**alpha needs a finite z")
        big = np.isinf(r)
    if (r == 0).any():
        raise BranchError("0**alpha is undefined on the principal branch")
    if alpha == 1.0:  # z**1 = z on every branch
        return complex(zz) if scalar else zz.copy()
    ang = np.angle(zz)
    neg_axis = (zz.imag == 0.0) & (zz.real < 0.0)
    if neg_axis.any():
        ang = np.where(neg_axis, np.pi, ang)
    if big is None:
        log_r = np.log(r)
    else:
        half = np.hypot(zz.real * 0.5, zz.imag * 0.5)
        log_r = np.log(np.where(big, half, r)) + np.where(big, _LOG2, 0.0)
    out = np.exp(alpha * (log_r + 1j * ang))
    return complex(out) if scalar else out


# terms of truncated_exp_c between checks for a sum that can no longer change
_EXP_CHECK = 64


def truncated_exp_c(w, k):
    """Exponential sum of order k, sum_{n<=k} w^n/n!, elementwise over w.

    Preserves the input dtype (real in, real out), since the real-line
    operators feed it real arguments.  Every _EXP_CHECK terms the sum stops
    once each entry's term is zero, so that no later term changes it, or
    its sum is non-finite, which it stays (a later term might only turn an
    infinity into NaN).  So a huge k costs a few hundred terms on |w| <= 1
    (the slit disk), where the terms underflow to zero, not k.

    The sum starts at 1 + w, with w as the first term: the bits of starting
    from 1 and adding 1 * w / 1, one array pass instead of four.
    """
    k = check_order(k)
    ww = np.asarray(w)
    if k == INF:
        out = np.exp(ww)
    elif k == 0:
        out = np.ones_like(ww)
    else:
        # an integer w sums in float, as 1 * w / 1 would
        term = ww if ww.dtype.kind in "fc" else ww / 1
        out = 1 + term
        for n in range(2, k + 1):
            term = term * ww / n
            out = out + term
            if n % _EXP_CHECK == 0 and np.all((term == 0) | ~np.isfinite(out)):
                break
    if np.isscalar(w) or getattr(w, "ndim", 1) == 0:
        return out[()]
    return out


def fractal_measure_c(z, alpha, k):
    """The slit-disk fractal function e_k(z**alpha), principal branch; a
    complex at a Python number."""
    _require_slit_disk(z)
    out = truncated_exp_c(principal_power_c(z, alpha), k)
    return complex(out) if isinstance(z, _NUMBER) else out


def _deriv_order(k):
    """k - 1 (inf at k = inf), the order of e_{k-1} in d/dz e_k(z**alpha),
    after checking k; k = 0 has no usable derivative."""
    k = check_order(k)
    if k == 0:
        raise DomainError("order-0 fractal measure is constant; no usable derivative")
    return INF if k == INF else k - 1


def fractal_measure_deriv_c(z, alpha, k):
    """d/dz of e_k(z**alpha), i.e. alpha * z**(alpha-1) * e_{k-1}(z**alpha).

    This is the checked route for any z: it tests the points against the
    slit disk and takes a complex power node by node; at a Python number it
    returns a complex, its power taken by principal_power_c's scalar route.
    The nodes of a disk quadrature block do not come here: ff_complex forms
    the same field from the block's ring and angle rows
    (_rule_measure_deriv), unchecked, since the rule lies in the slit disk
    by construction.
    """
    km1 = _deriv_order(k)
    _require_slit_disk(z)
    scalar = isinstance(z, _NUMBER)
    zz = complex(z) if scalar else np.asarray(z, dtype=complex)
    w = principal_power_c(zz, alpha)
    tiny = abs(zz) < _TINY
    if not (tiny if scalar else tiny.any()):
        # z**(alpha-1) = z**alpha / z on the principal branch (same logarithm)
        out = alpha * w / zz * truncated_exp_c(w, km1)
    else:
        # below the smallest normal |z| numpy's division overflows, even
        # z / z, and |z| keeps few digits: there z**(alpha-1) is taken at the
        # exactly scaled 2**64 z and multiplied back by 2**(64 (1-alpha))
        s = np.where(tiny, 2.0**64, 1.0)
        zs = zz * s
        out = (alpha * principal_power_c(zs, alpha) / zs * s ** (1.0 - alpha)
               * truncated_exp_c(w, km1))
    return complex(out) if scalar else out
