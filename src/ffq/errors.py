"""Exception types and small validation helpers shared across the package."""

import math
import numbers

INF = math.inf


class FFQError(Exception):
    """Base class for every error raised by this library."""


class DomainError(FFQError):
    """An argument lies outside the operation's domain."""


class BranchError(DomainError):
    """A principal-branch power or logarithm was requested on its cut."""


class DegenerateMeasure(FFQError):
    """The measure increment vanished; the difference quotient is undefined."""


class IntrinsicError(FFQError):
    """An operation requiring real series coefficients received complex ones."""


class FrameError(FFQError):
    """A slice frame is not an orthonormal pair of imaginary units."""


class DegreeMismatch(FFQError):
    """A series exceeds the degree a precomputed table supports."""


class NoConvergence(FFQError):
    """Refinement hit its cap above tolerance.

    Carries the last estimate (value) and the largest last inter-level
    change (error).  As the quadrature core and the norm and kernel routes
    raise it, it also carries each entry's last change (changes, shaped
    like value), so callers can see which entries of a stack were still
    moving at the cap.
    """

    def __init__(self, message, value=None, error=None, changes=None):
        super().__init__(message)
        self.value = value
        self.error = error
        self.changes = changes


class DivergentIntegral(NoConvergence):
    """The integral is proven not to exist, so no quadrature was run.

    Carries no estimate (value, error and changes are None); the message
    names the reason.
    """


def check_order(k):
    """Validate a truncation order: a non-negative integer, or inf."""
    if k == INF:
        return INF
    if isinstance(k, numbers.Integral) and not isinstance(k, bool) and k >= 0:
        return int(k)
    raise DomainError(f"truncation order must be a non-negative integer or inf, got {k!r}")
