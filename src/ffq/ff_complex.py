"""The complex generalized fractal-fractional derivative on the slit disk,
the Dirichlet-type norm and inner product it induces, the coefficient-series
form of that norm, and the reproducing identities.

Weights are fixed to the convex pair chi0 = sigma, chi1 = 1 - sigma here,
as in every operator; general weights live only in the real-line
proportional_derivative.  The derivative of a series f is

    D f(z) = (1 - sigma) f(z) + sigma * (f**beta)'(z) / (d/dz e_k(z**alpha)),

and the squared norm is alpha * |f(1/2)|**2 plus the area integral of |Df|**2
over the slit disk.  Everything is validated against the quadrature oracle.
"""

import math
from contextvars import ContextVar
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (BranchError, DegreeMismatch, DivergentIntegral,
                     DomainError, INF, NoConvergence)
from .ff_real import DEFAULT_STEP
from .holo_series import (_NUMBER, _deriv_order, _require_slit_disk, fractal_measure_c,
                          fractal_measure_deriv_c, in_slit_disk, truncated_exp_c)
from .quadrature import (DEFAULT_SPEC, _BLOCK_NODES, _converge, _path_rule,
                         _polar_blocks, _powers, _rule_block, build_slit_path,
                         integrate_disk)

BASE_POINT = 0.5
# tail bound of the truncated Bergman series in kernel_K_half
_TAIL_EPS = 1e-16
# kernel_K_half goes dense only when the series needs more terms than this
# many per path node.  A dense kernel element (product, square, division)
# costs about 15-19 ns and a blocked series term 0.6 ns per zeta (numpy 2.4,
# OpenBLAS, 2 x86-64 cores); on slit paths to four points out to |z| = 0.97
# the two routes broke even at a median 22, 29 and 32 terms per path node
# for 1,600, 6,400 and 8,160 zetas, the nested disk rule's blocks at
# levels 0-2 (the 25,600 zetas of level 2 in one batch: 32)
_DENSE_COST = 24
# powers per block of the path series in _moment_path_sum
_SERIES_BLOCK = 16
# unit roundoff of float64, and the least subnormal, in the certificate of
# kernel_K_half (_certified_change)
_UNIT = 2.0 ** -53
_ETA = 2.0 ** -1074
# the path levels kernel_K_half builds, {(z, p, spec, level): (w, wt,
# max|w|)}, and the integrating factor F(z) under (z, p), shared by its
# calls inside one nested integral: reproduction_rhs_2_stack sets a fresh
# dict and resets it when it returns
_PATH_LEVELS = ContextVar("ffq_path_levels", default=None)


def _require_linear(p):
    if p.beta != 1.0:
        raise DomainError("norms and inner products are defined on the linear (beta = 1) space")


def _rule_measure_deriv(block, alpha, k):
    """d/dz e_k(z**alpha) = alpha z**(alpha-1) e_{k-1}(z**alpha) at the
    nodes of a disk-rule block, from its rows: the outer products
    alpha rb**(alpha-1) e^{i (alpha-1) tn} and rb**alpha e^{i alpha tn}
    (_PolarBlock.power).  No per-node complex power and no slit-disk check:
    the rule's nodes lie in the slit disk by construction.  At alpha = 1 it
    is e_{k-1}(z) exactly, and at k = 1 the first product alone (e_0 = 1):
    the bits the whole formula gives there, without forming the factor 1."""
    km1 = _deriv_order(k)
    if alpha == 1.0:
        return truncated_exp_c(block.z, km1)
    field = block.power(alpha - 1.0, alpha)
    if km1 != 0:
        field *= truncated_exp_c(block.power(alpha), km1)
    return field


def _rule_series(block, degree):
    """f -> f(z) at the nodes of a disk-rule block, for series f of degree
    at most degree, from the block's rows.  z**n = rb**n e^{i n tn}, so
    f(z) = sum_n a_n z**n is one matrix product per series: the ring-power
    table R (rings x w) scaled by the coefficients, times the angle-power
    table E (w x angles) (_PolarBlock.power_rows), both built once for every
    series served.  No node takes a power, only the product's output.

    The tables hold w = min(degree + 1, _BLOCK_NODES // max(rings, angles))
    powers, so neither exceeds _BLOCK_NODES entries (or one row) at any
    degree.  A series of more than w terms is summed in slices of w powers
    by Horner's rule in z**w (Paterson-Stockmeyer), one product per slice.
    """
    rings, angles = len(block.rb), len(block.tn)
    w = min(max(degree, 0) + 1, max(1, _BLOCK_NODES // max(rings, angles)))
    R, E = block.power_rows(w)
    zw = block.power(w).reshape(rings, angles) if degree >= w else None

    def values(f):
        a = f.coeffs
        if len(a) == 0:
            return np.zeros(len(block.z), dtype=complex)
        acc = None
        for s in range((len(a) - 1) // w * w, -1, -w):
            coeffs = a[s : s + w]
            part = (R[:, : len(coeffs)] * coeffs) @ E[: len(coeffs)]
            if acc is None:
                acc = part
            else:
                acc *= zw
                acc += part
        return acc.ravel()
    return values


def _stack_rows(fs, p, sigmas, zz):
    """Generate (i, row) with row = D f at zz for each (sigma, series) pair,
    sigma-major: i = j len(fs) + m for sigmas[j] and fs[m].

    When zz is the node array of the disk-rule block being integrated
    (quadrature._rule_block), the measure derivative and the series values
    f(zz) and f'(zz) are formed from the block's ring and angle rows
    (_rule_measure_deriv, and _rule_series: one matrix product per series
    of power tables built once per call), and zz is not checked: the rule
    lies in the slit disk by construction.  Any other zz is user input,
    evaluated by Horner's rule (CPowerSeries) and checked once to be in the
    slit disk: by fractal_measure_deriv_c if some sigma > 0, else here.

    The sigma-free parts are formed once per series: f(zz), f'(zz), the
    measure derivative (once for the stack, only if some sigma > 0) and
    frac = beta f**(beta-1) f' / den.  Each sigma's row is then
    (1 - s) f + s frac, or f itself at s = 0, so it holds the bits a
    one-sigma stack gives it.
    """
    n = len(fs)
    fractal = any(s != 0.0 for s in sigmas)
    block = _rule_block(zz)
    if fractal:
        den = (fractal_measure_deriv_c(zz, p.alpha, p.k) if block is None
               else _rule_measure_deriv(block, p.alpha, p.k))
    elif block is None:
        _require_slit_disk(zz)
    values = ((lambda f: f(zz)) if block is None
              else _rule_series(block, max((f.degree for f in fs), default=0)))
    for m, f in enumerate(fs):
        fv = values(f)
        if fractal:
            fp = values(f.derivative())
            if p.beta == 1.0:
                frac = fp / den
            else:
                if np.any(fv == 0):
                    raise DomainError("f vanishes at an evaluation point; f**beta undefined")
                if np.any((fv.imag == 0.0) & (fv.real < 0.0)):
                    raise BranchError("f(z) on the negative real axis; principal power undefined")
                frac = p.beta * fv ** (p.beta - 1.0) * fp / den
        for j, s in enumerate(sigmas):
            row = fv
            if s != 0.0:
                # (1 - s) f + s frac with the sum taken in the fresh product:
                # the same bits, one row-sized temporary fewer
                row = (1.0 - s) * fv
                row += s * frac
            yield j * n + m, row
            # held here, the row would stay alive through the next series'
            # f and f' and raise the peak memory by a row
            del row


def ff_eval_stack(fs, p, z):
    """Apply the derivative D to each series of fs at z (an array): one row
    per series, with the measure derivative computed once for the stack.

    The (len(fs),) + z.shape output is allocated once and each row is
    copied into it as it is formed, (1 - s) f + s (beta f**(beta-1) f') / den,
    so the temporaries stay a few rows deep however many series fs holds.
    On the nodes of the disk-rule block being integrated, f, f' and den are
    read from the block's ring and angle rows (_stack_rows); anywhere else
    f and f' are Horner's rule.

    For beta < 1 the factor f(z)**(beta-1) uses the principal power, so
    every f must be nonvanishing with values off the closed negative real
    axis at the evaluation points (spot-screened here; the global hypothesis
    is the caller's).
    """
    zz = np.atleast_1d(np.asarray(z, dtype=complex))
    out = np.empty((len(fs),) + zz.shape, dtype=complex)
    for i, row in _stack_rows(fs, p, (p.sigma,), zz):
        out[i] = row
        del row  # as in _stack_rows: dropped before the next row is formed
    return out


def ff_eval_c(f, p, z):
    """Apply the derivative D to the series f at z (scalar or array).

    At a Python number (int, float, complex, bool, numpy float64 and
    complex128) with beta = 1 it is the one formula
    (1 - sigma) f(z) + sigma f'(z) / fractal_measure_deriv_c(z) on the scalar
    series values, in Python complex arithmetic, returned as a complex; at
    sigma = 0 it is f(z), with z checked against the slit disk.  Its bits
    may differ from ff_eval_stack's within the bounds of Horner's rule and
    of the branch power (holo_series).  Any other z, or beta != 1, takes
    ff_eval_stack's one-series case; a scalar then returns a complex.
    """
    if isinstance(z, _NUMBER) and p.beta == 1.0:
        if p.sigma == 0.0:
            _require_slit_disk(z)
            return f(z)
        den = fractal_measure_deriv_c(z, p.alpha, p.k)
        return (1.0 - p.sigma) * f(z) + p.sigma * (f.derivative()(z) / den)
    scalar = np.isscalar(z) or getattr(z, "ndim", 1) == 0
    out = ff_eval_stack((f,), p, z)[0]
    return complex(out[0]) if scalar else out


@dataclass(frozen=True)
class DirichletValue:
    """Squared norm split into its point and field contributions."""

    norm_sq: float
    point_term: float
    field_term: float
    method: str


def _abs2_stack(fs, p, z, sigmas):
    """|D f|**2 at z for each (sigma, series) pair, sigma-major, written row
    by row into one float buffer: no complex stack is formed, and the row of
    (s, f) holds the bits of np.abs(ff_eval_stack([f], p with sigma s, z))**2."""
    zz = np.atleast_1d(np.asarray(z, dtype=complex))
    out = np.empty((len(sigmas) * len(fs),) + zz.shape)
    for i, row in _stack_rows(fs, p, sigmas, zz):
        np.abs(row, out=out[i])
        np.square(out[i], out=out[i])
    return out


def dirichlet_norms_quad(fs, p, spec=None, sigmas=None):
    """Squared Dirichlet-type norms of a stack of series by one quadrature of
    the stacked |Df|**2: one value per (sigma, series) pair, sigma-major,
    for sigma in sigmas (default (p.sigma,)).  Each entry converges on its
    own, to within rounding of the value dirichlet_norm_quad gives it
    alone.  Like every norm route it raises DomainError for beta != 1."""
    _require_linear(p)
    # each sigma is checked as FFParams checks it, before any quadrature
    sigmas = (p.sigma,) if sigmas is None else tuple(replace(p, sigma=s).sigma
                                                     for s in sigmas)
    if not fs or not sigmas:
        return []
    points = [p.alpha * abs(f(BASE_POINT)) ** 2 for f in fs]
    fields = integrate_disk(lambda zeta: _abs2_stack(fs, p, zeta, sigmas), spec).value
    return [DirichletValue(point + float(field), point, float(field), "quad")
            for point, field in zip(points * len(sigmas), fields)]


def dirichlet_norm_quad(f, p, spec=None):
    """Squared Dirichlet-type norm by direct quadrature of |Df|**2; the
    NoConvergence it raises carries the last field estimate and its change
    as floats."""
    try:
        return dirichlet_norms_quad((f,), p, spec)[0]
    except NoConvergence as exc:
        raise NoConvergence(str(exc), float(exc.value[0]), exc.error,
                            float(exc.changes[0])) from None


def inner_product_c(f, g, p, spec=None):
    """Hermitian product alpha f(1/2) conj g(1/2) + int (Df)(conj Dg) dmu."""
    _require_linear(p)
    spec = spec or DEFAULT_SPEC
    point = p.alpha * f(BASE_POINT) * np.conj(g(BASE_POINT))

    def integrand(zeta):
        df, dg = ff_eval_stack((f, g), p, zeta)
        return df * np.conj(dg)

    field = integrate_disk(integrand, spec).value
    return complex(point + field)


@dataclass(frozen=True, eq=False)
class CoefficientIntegrals:
    """Real matrices of the two coefficient integrals entering the series norm.

    alpha_mn[m, n] integrates r**(n+m+3-2a) e^(i th (n-m)) / |e_{k-1}|**2 and
    beta_mn[m, n] integrates r**(n+m+2-a) e^(i th (m+1-n-a)) / e_{k-1}, both
    with plain dr dtheta (the r-powers already carry the Jacobian).  The slit
    disk and e_{k-1}(z**a) are symmetric under th -> -th, so both integrals
    are real, and alpha_mn is symmetric.  Valid for series of degree up to
    N = alpha_mn.shape[0] - 1.  exact_coefficient_integrals sums them, and
    coefficient_integrals integrates them; error bounds what either left out.
    """

    alpha_mn: np.ndarray
    beta_mn: np.ndarray
    params: object
    error: float

    @property
    def N(self):
        return self.alpha_mn.shape[0] - 1


def _matrix_estimate(p, N, spec, level):
    a = p.alpha
    km1 = INF if p.k == INF else p.k - 1
    A = np.zeros((N + 1, N + 1), dtype=complex)
    B = np.zeros((N + 1, N + 1), dtype=complex)
    for block in _polar_blocks(spec, level):
        # z**a = r**a e^{i a t} from the block's rows (_PolarBlock.power)
        za = block.power(a)
        e = truncated_exp_c(za, km1)
        zp = _powers(block.z, N + 1)
        zpc = zp.conj()
        wa = block.ring_weights(block.rb ** (3.0 - 2.0 * a)) / np.abs(e) ** 2
        A += (zpc * wa) @ zp.T
        # r**(2-a) e^{i t (1-a)} = r z / z**a on the principal branch
        wb = block.ring_weights(block.rb) * block.z / (za * e)
        B += (zp * wb) @ zpc.T
    return np.stack([A, B])


def _measure_vanishes(alpha, k):
    """Whether e_{k-1}(z**alpha) has a zero on the closed slit disk; the
    proof is in coefficient_integrals."""
    return k == 2 and alpha >= 1.0


def coefficient_integrals(p, N, spec=None):
    """Compute both coefficient matrices up to index N in one refined pass.

    This is the quadrature oracle of the tables.  The series norms read
    exact_coefficient_integrals wherever it exists, and this only at k = 2,
    so elsewhere the two are independent checks of each other.  All entries
    share the quadrature nodes, so the whole table costs little more than a
    single integral.  Raises DivergentIntegral, before any
    quadrature, exactly when e_{k-1}(z**alpha) has a zero on the closed slit
    disk: 1/|e_{k-1}|**2 then has a non-integrable pole and the alpha_mn
    integrals diverge logarithmically.  For alpha in (0, 1] that happens
    only at alpha = 1, k = 2, with the zero at z = -1:

    - by Enestrom-Kakeya (positive coefficients 1/j! with ratios j + 1 >= 1)
      every zero of e_m has |w| >= 1, and only e_1 reaches |w| = 1, at
      w = -1 (e_0 = 1 and exp have no zeros);
    - |z**alpha| = |z|**alpha <= 1 on the closed slit disk;
    - so a zero needs k = 2 and z**alpha = -1, i.e. |z| = 1 and
      alpha |Arg z| = pi, which |Arg z| <= pi allows only at alpha = 1.

    Raises NoConvergence when refinement stops short of the tolerance.
    """
    if _measure_vanishes(p.alpha, p.k):
        raise DivergentIntegral(
            f"coefficient integrals diverge at alpha = {p.alpha}, k = {p.k}: "
            "e_1(z**alpha) = 1 + z vanishes at the boundary point z = -1"
        )
    spec = spec or DEFAULT_SPEC
    # real by the th -> -th symmetry: the imaginary parts are rounding
    result = _converge(lambda level: _matrix_estimate(p, N, spec, level).real,
                       spec, "coefficient integrals")
    return CoefficientIntegrals(result.value[0], result.value[1], p, result.error)


def series_gram(p, A, B, N):
    """Real symmetric (N+1)x(N+1) matrix G with ||f||**2 = a^H G a for every
    series f = sum a_n z**n of degree at most N, built from real coefficient
    matrices A, B valid to degree N or more.  With s = sigma, G is the sum
    of four terms:

    - the Bergman diagonal (1 - s)**2 pi / (n + 1);
    - (s/alpha)**2 D^T A D, where D maps a to c, c_n = (n + 1) a_{n+1};
    - the symmetric part of the cross term 2 (1 - s) s / alpha
      Re(c^T B conj(a)), i.e. of 2 (1 - s) s / alpha D^T B;
    - the point term alpha v v^T with v_n = 2**-n, so v^T a = f(1/2).

    The symmetric part is taken of the whole sum, so G is exactly symmetric
    for an A that is so only to quadrature tolerance.  A complex table
    raises DomainError: the form above holds only for real ones.
    """
    if np.iscomplexobj(A) or np.iscomplexobj(B):
        raise DomainError("coefficient tables must be real")
    s, al = p.sigma, p.alpha
    n1 = np.arange(1.0, N + 2)
    w = n1[:N, None]
    v = 0.5 ** np.arange(N + 1)
    G = np.diag((1.0 - s) ** 2 * math.pi / n1)
    G[1:, 1:] += (s / al) ** 2 * w * A[:N, :N] * w.T
    G[1:, :] += 2.0 * (1.0 - s) * s / al * w * B[:N, : N + 1]
    G += al * np.outer(v, v)
    return (G + G.T) / 2.0


def _gram_form(G, a):
    """a^H G a over the leading block of G that a's length selects."""
    return float(np.vdot(a, G[: len(a), : len(a)] @ a).real)


def _table_gram(p, ci, degree):
    """series_gram from the table ci for series of the given degree, once
    ci is known to serve them: beta = 1, the same (alpha, k), and the
    degree at most ci.N.  The G of a constant reads no table entry, so
    ci=None serves series of degree 0 or less."""
    _require_linear(p)
    if ci is None:
        A = B = np.zeros((0, 1))
        N = 0
    else:
        if ci.params.alpha != p.alpha or ci.params.k != p.k:
            raise DomainError("coefficient table was computed for different (alpha, k)")
        A, B, N = ci.alpha_mn, ci.beta_mn, ci.N
    if degree > N:
        raise DegreeMismatch(f"series degree {degree} exceeds table degree {N}")
    return series_gram(p, A, B, max(degree, 0))


def dirichlet_norm_series(f, p, ci):
    """Squared norm a^H G a from the coefficient matrices; must agree with
    dirichlet_norm_quad to the quadrature tolerance.  The field term is
    what the norm adds to the point term alpha |f(1/2)|**2."""
    norm_sq = _gram_form(_table_gram(p, ci, f.degree), f.coeffs)
    point = p.alpha * abs(f(BASE_POINT)) ** 2
    return DirichletValue(norm_sq, point, norm_sq - point, "series")


def _reciprocal_measure_coeffs(k):
    """Taylor coefficients c_0, ..., c_{J-1} of 1/e_{k-1}(w), k >= 3 or inf,
    and an a-priori bound on the dropped tail sum_{j>=J} |c_j|.

    c_0 = 1 and c_j = -sum_{i=1}^{min(k-1, j)} c_{j-i} / i!, which is
    (-1)**j / j! at k = inf.  The bound: with t(w) = e**w - e_{k-1}(w),
    1/e_{k-1} = e**-w sum_n (t e**-w)**n, so each |c_j| is at most the
    coefficient of x**j in e**x / (1 - q(x)), q(x) = e**x sum_{i>=k} x**i/i!,
    at any x with q(x) < 1; hence the tail is at most x**-J e**x / (1 - q)
    for x > 1.  The sum in q is at most its first term over 1 - x/(k+1), and
    it only grows as k falls, so k above 1024 is bounded as 1024, where the
    term underflows on the grid of x in (1, 64).  J is the least length
    whose bound, minimised over that grid, is at most _TAIL_EPS.
    """
    kq = min(k, 1024)
    best = None
    for x in 2.0 ** (np.arange(1, 97) / 16.0):
        if x >= kq + 1:
            break
        q = math.exp(x + kq * math.log(x) - math.lgamma(kq + 1)) / (1.0 - x / (kq + 1))
        if q >= 1.0:
            break
        log_scale = x - math.log1p(-q)
        J = math.ceil((log_scale - math.log(_TAIL_EPS)) / math.log(x))
        if best is None or J < best[0]:
            best = J, x, log_scale
    J, x, log_scale = best
    r = min(k - 1, J - 1)
    inv = np.ones(r + 1)  # 1/i!, i <= r
    for i in range(1, r + 1):
        inv[i] = inv[i - 1] / i
    c = np.empty(J)
    c[0] = 1.0
    for j in range(1, J):
        i = min(r, j)
        c[j] = -(c[j - i : j][::-1] @ inv[1 : i + 1])
    return c, math.exp(log_scale - J * math.log(x))


def exact_coefficient_integrals(p, N):
    """Both coefficient matrices up to index N as exact sums, for k = 1,
    k >= 3 and k = inf; None at k = 2.

    With c_j the Taylor coefficients of 1/e_{k-1}(w) (_reciprocal_measure_coeffs),
    expanding 1/|e_{k-1}|**2 and 1/e_{k-1} in w = z**alpha makes every term
    a monomial integral over the slit disk:

        A_mn = 2 pi sum_{j,l} c_j c_l sinc(n - m + a (j - l)) / (n + m + 4 - 2a + a (j + l)),
        B_mn = 2 pi sum_j c_j sinc(m + 1 - n - a + a j) / (n + m + 3 - a + a j),

    with numpy's normalized sinc: 2 pi sinc(x) is the full (-pi, pi) angular
    integral of e^(i th x).  The sums converge absolutely because every zero
    of e_{k-1} for k >= 3 lies outside the closed unit disk
    (Enestrom-Kakeya), and k = inf has none.  A is summed over
    d = j - l and s = j + l: for each parity of s one matrix product over
    the diagonals d of c c^T of that parity (no (2J - 1)**2 pair matrix is
    formed), then a sum over s from the largest s down.  The terms shrink geometrically in s and cancel
    (at k = 3, alpha = 0.3 their moduli sum to 24 times A_00), so adding the
    smallest first keeps the partial sums small: there A_00 lands within
    1.1e-15 of the exact sum of the same float terms.
    The error is the bound on what the dropped terms add to an entry:
    |sinc| <= 1 and each denominator is at least 2, so A moves by at most
    pi T (2 S + T) and B by pi T, with T the tail bound and S the sum of
    the kept |c_j|.

    At k = 1, e_0 = 1 and c = (1,): A is diagonal, 2 pi / (2n + 4 - 2 alpha),
    and B is 2 pi sinc(c) / (n + m + 3 - alpha) with c = m + 1 - n - alpha,
    both exact (error 0).  At k = 2, c_j = (-1)**j and the sums converge
    only conditionally on |w| = 1; coefficient_integrals integrates those
    tables (or proves them divergent at alpha = 1).
    """
    alpha, k = p.alpha, p.k
    if k == 2:
        return None
    m = np.arange(N + 1)[:, None]
    n = np.arange(N + 1)[None, :]
    if k == 1:
        A = np.where(m == n, 2.0 * math.pi / (n + m + 4.0 - 2.0 * alpha), 0.0)
        c = m + 1.0 - n - alpha
        B = 2.0 * math.pi * np.sinc(c) / (n + m + 3.0 - alpha)
        return CoefficientIntegrals(A, B, p, 0.0)
    c, tail = _reciprocal_measure_coeffs(k)
    J = len(c)
    # T[n - m + N, s] = sum over j + l = s of c_j c_l sinc(n - m + a (j - l)),
    # by the parity q of s: s = 2t + q and j - l = 2e + q, so j = t + e + q
    # and l = t - e with |e| <= H.  Each parity is one product over e with
    # C[t, e + H] = c_{t+e+q} c_{t-e}, two windows of the zero-padded c
    # (c_j at j + H): J x (2H + 1) entries, and only the 2N + 1 differences
    # n - m have a row
    H = J // 2
    e = np.arange(-H, H + 1)
    window = sliding_window_view(np.concatenate([np.zeros(H), c, np.zeros(2 * H + 1)]),
                                 2 * H + 1)
    diffs = np.arange(-N, N + 1)[:, None]
    T = np.empty((2 * N + 1, 2 * J - 1))
    for q in (0, 1):
        C = window[q : J] * window[: J - q, ::-1]
        T[:, q::2] = np.sinc(diffs + alpha * (2 * e + q)) @ C.T
    s = alpha * np.arange(2 * J - 1)
    terms = T[n - m + N] / ((n + m)[..., None] + 4.0 - 2.0 * alpha + s)
    # cumsum adds in index order: down the reversed s axis, smallest terms first
    A = 2.0 * math.pi * np.cumsum(terms[..., ::-1], axis=-1)[..., -1]
    x = alpha * np.arange(J)
    B = 2.0 * math.pi * (np.sinc((m + 1.0 - n - alpha)[..., None] + x)
                         / ((n + m + 3.0 - alpha)[..., None] + x)) @ c
    error = math.pi * tail * (2.0 * float(np.sum(np.abs(c))) + tail)
    return CoefficientIntegrals(A, B, p, error)


def _series_table(p, N, spec):
    """The table a series norm reads: the exact one, or at k = 2, where none
    exists, the one coefficient_integrals integrates (raising
    DivergentIntegral at alpha = 1)."""
    exact = exact_coefficient_integrals(p, N)
    return exact if exact is not None else coefficient_integrals(p, N, spec)


def _require_norm_method(method):
    """Raise ValueError for an unknown norm method, before any verdict."""
    if method not in ("quad", "series", "closed-k1"):
        raise ValueError(f"unknown norm method {method!r}; choose quad, series or closed-k1")


def _method_table(p, degree, spec, method):
    """The table "series" reads (sized to the degree, none for a constant);
    "closed-k1" is the same route behind a check that k = 1, where the
    table is exact.  beta = 1 is checked first.  It depends on (alpha, k),
    not on sigma.  It reads exact_coefficient_integrals, and integrates a
    table by coefficient_integrals only at k = 2, where no exact one exists.
    Where e_{k-1}(z**alpha) vanishes no table exists: DomainError for
    degree > 0, since the callers have proven the norm finite
    (_require_finite_field), which "quad" gives."""
    _require_linear(p)
    if method == "closed-k1" and p.k != 1:
        raise DomainError("closed form available only for k = 1: use method series or quad")
    if degree <= 0:
        return None
    if _measure_vanishes(p.alpha, p.k):
        raise DomainError(f"no coefficient table exists at alpha = {p.alpha}, k = {p.k}, "
                          "where this norm is finite: use method quad")
    return _series_table(p, degree, spec)


def dirichlet_norm_closed_k1(f, p):
    """dirichlet_norm(f, p, method="closed-k1"): the closed-form k = 1 norm,
    under the name perfbench imports."""
    return dirichlet_norm(f, p, method="closed-k1")


def _field_diverges(f, p):
    """Whether |Df|**2 is not integrable because of the zero of the measure
    factor at z = -1 (see coefficient_integrals): at beta = 1 and sigma > 0,
    D f = (1 - sigma) f + sigma f'(z) / (1 + z) there, whose square has a
    log-divergent integral unless f'(-1) = 0.  f'(-1) is summed exactly from
    the float coefficients."""
    if p.beta != 1.0 or p.sigma == 0.0 or not _measure_vanishes(p.alpha, p.k):
        return False
    signs = [(-1) ** (n + 1) * n for n in range(len(f.coeffs))]
    return any(sum(c * Fraction(part(a)) for c, a in zip(signs, f.coeffs)) != 0
               for part in (np.real, np.imag))


def _require_finite_field(f, p):
    """Raise DivergentIntegral where _field_diverges proves the norm of f
    infinite."""
    if _field_diverges(f, p):
        raise DivergentIntegral(
            f"the norm diverges at alpha = {p.alpha}, k = {p.k}: D f has a "
            "pole at z = -1, where 1 + z vanishes and f' does not"
        )


def dirichlet_norm(f, p, spec=None, method="quad"):
    """Squared norm by the named method, which the value's method names:
    "quad" (dirichlet_norm_quad), or dirichlet_norm_series on the table of
    "series" (sized to f, none for a constant) or "closed-k1" (k = 1 only).

    Every method raises DivergentIntegral, before any table or quadrature,
    where _field_diverges proves the norm infinite; dirichlet_norm_quad
    itself always integrates."""
    _require_norm_method(method)
    _require_finite_field(f, p)
    if method == "quad":
        return dirichlet_norm_quad(f, p, spec)
    val = dirichlet_norm_series(f, p, _method_table(p, f.degree, spec, method))
    return replace(val, method=method)


def bergman_kernel(z, zeta):
    """Reproducing kernel of the square-integrable holomorphic functions on
    the unit disk with area measure: 1 / (pi (1 - z conj(zeta))**2)."""
    return 1.0 / (math.pi * (1.0 - np.asarray(z) * np.conj(zeta)) ** 2)


def _require_sigma_interior(p):
    if not 0.0 < p.sigma < 1.0:
        raise DomainError("reproducing identities need sigma strictly inside (0, 1)")


def reproduction_rhs_1_stack(fs, p, z, spec=None):
    """Right-hand side of the first reproducing identity for each series of
    fs at its own point: z holds one point per series, or is one scalar
    point for all of them.  The row of f at the point z is

        -s/(1-s) * f'(z)/(d/dz e_k(z**a)) + 1/(1-s) * int B(z, .) Df dmu.

    One disk integral serves the stack.  Each node block fills Df for every
    row into one buffer (ff_eval_stack) and multiplies each row's Bergman
    factor B(z, .) into it in place, so a block of at most the quadrature's
    _BLOCK_NODES = 2**13 nodes holds one (len(fs), nodes) array plus a few
    rows of temporaries.  Each row converges entrywise, to the value it gets
    alone; rows that converge early ride along while the others refine.
    """
    _require_sigma_interior(p)
    spec = spec or DEFAULT_SPEC
    if not fs:
        return np.empty(0, dtype=complex)
    zs = np.broadcast_to(np.asarray(z, dtype=complex), (len(fs),))
    outside = ~np.asarray(in_slit_disk(zs))
    if np.any(outside):
        raise DomainError(f"{complex(zs[outside][0])} is not in the slit unit disk")
    s = p.sigma

    def integrand(zeta):
        field = ff_eval_stack(fs, p, zeta)
        for row, w in zip(field, zs):
            row *= bergman_kernel(w, zeta)
        return field

    projected = integrate_disk(integrand, spec).value
    fractal = np.array([f.derivative()(w) for f, w in zip(fs, zs)]) / fractal_measure_deriv_c(
        zs, p.alpha, p.k)
    return -s / (1.0 - s) * fractal + projected / (1.0 - s)


def reproduce_identity_1(f, p, z, spec=None):
    """Residual of the pointwise reproduction of f from Df via the disk kernel.

    Exact (up to quadrature error) whenever Df extends holomorphically and
    square-integrably to the whole disk, e.g. alpha = 1 with k in {1, inf}
    on polynomial data, or constant f for any parameters.  The right-hand
    side is reproduction_rhs_1_stack's row for the one series f.
    """
    return abs(f(complex(z)) - complex(reproduction_rhs_1_stack((f,), p, z, spec)[0]))


def _integrating_factor(w, p):
    """F(w) = exp(lam e_k(w**a)), lam = (1 - sigma)/sigma: (F f)' = _kernel_weight Df;
    a complex at a Python number."""
    lam = (1.0 - p.sigma) / p.sigma
    out = np.exp(lam * fractal_measure_c(w, p.alpha, p.k))
    return complex(out) if isinstance(w, _NUMBER) else out


def _kernel_weight(w, p):
    """(1/sigma) F(w) (d/dw e_k(w**a)), the path kernel's weight; a complex at
    a Python number."""
    return (1.0 / p.sigma) * _integrating_factor(w, p) * fractal_measure_deriv_c(w, p.alpha, p.k)


def _moment_order(rho):
    """Smallest N with (N+2) rho**(N+1) / (1-rho)**2 <= _TAIL_EPS; inf when
    rho >= 1, where the Bergman series does not converge."""
    if rho >= 1.0:
        return math.inf
    if rho == 0.0:
        return 0
    log_rho = math.log(rho)
    bound = math.log(_TAIL_EPS) + 2.0 * math.log1p(-rho)
    # N meets the rule iff N >= g(N) = ceil((bound - log(N+2)) / log(rho)) - 1,
    # and g grows with N: iterating g from 0 climbs to the least such N
    n = 0
    while True:
        nxt = max(n, math.ceil((bound - math.log(n + 2)) / log_rho) - 1)
        if nxt == n:
            return n
        n = nxt


def _dense_path_sum(wn, wt, zt):
    """sum_i wt_i B(w_i, zeta) at each zeta of zt, one matrix-vector product
    per chunk of zetas."""
    out = np.empty(zt.shape, dtype=complex)
    for i in range(0, len(zt), _BLOCK_NODES):
        chunk = zt[i : i + _BLOCK_NODES]
        out[i : i + _BLOCK_NODES] = bergman_kernel(wn[None, :], chunk[:, None]) @ wt
    return out


def _path_moments(wn, wt, N):
    """Path moments c_n = (n+1)/pi sum_i wt_i w_i**n for n <= N, zero above,
    as the (q, m) array c[j, i] = c_{j m + i} with m = min(_SERIES_BLOCK,
    N + 1) and q = ceil((N+1)/m): the matrix product (V wt) W^T over
    V_i = w**i, i < m, and W_j = (w**m)**j, j < q."""
    m = min(_SERIES_BLOCK, N + 1)
    q = -(-(N + 1) // m)
    V = _powers(wn, m)
    W = _powers(V[-1] * wn, q)
    c = ((V * wt) @ W.T).T.ravel()  # c[j m + i] = sum_k wt_k w_k**i (w_k**m)**j
    c[N + 1 :] = 0.0
    c *= np.arange(1.0, q * m + 1) / math.pi
    return c.reshape(q, m)


def _moment_path_sum(c, zt):
    """The same sum through the Bergman series truncated after degree N,
    from the path moments c (_path_moments): the series sum_n c_n x**n in
    x = conj(zeta), in blocks of m powers (Paterson-Stockmeyer),
    n = j m + i: Q = c @ x**i per chunk of zetas, then Horner in x**m over
    the q rows of Q."""
    q, m = c.shape
    x = np.conj(zt)
    out = np.empty(zt.shape, dtype=complex)
    for s in range(0, len(x), _BLOCK_NODES):
        xs = x[s : s + _BLOCK_NODES]
        X = _powers(xs, m)
        Q = c @ X
        y = X[-1] * xs
        acc = Q[-1]
        for j in range(q - 2, -1, -1):
            acc *= y
            acc += Q[j]
        out[s : s + _BLOCK_NODES] = acc
    return out


def _gamma(n):
    """Higham's gamma_n = n u / (1 - n u): a product of n factors 1 + d,
    |d| <= u, is within gamma_n of 1."""
    return n * _UNIT / (1.0 - n * _UNIT)


def _certified_change(new, old, rho, cur, spec):
    """Bound on the change between two levels of the path kernel that
    proves its test passes at every zeta, without evaluating the old level:
    the bound, or None where it proves nothing.

    new and old are the two levels' moments (_path_moments), cur the new
    level's values at the batch, rho = max|conj(zeta)| over it.  With S the
    series sum_n c_n x**n, |S_new(x) - S_old(x)| <= sum_n |c_new,n -
    c_old,n| rho**n for |x| <= rho.  To that it adds what rounding can add
    to either computed series.  In units of u, with a complex product
    counting 3 (sqrt(2) gamma_2), _moment_path_sum takes a term through at
    most 3 (m - 1) for x**i, 2 (m + 1) for the BLAS sum of m products
    (sqrt(2) gamma_{m+1} if it sums real and imaginary parts apart), and
    3 m + 4 per Horner step (the product, x**m's own error, the sum): under
    K = 4 (q (m + 2) + m) in all.  So the computed series is within
    gamma_K sum_n |c_n| rho**n, plus K (1 + sum|c_n|) times the least
    subnormal for underflow (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, 3.6 and 5.1).  A last factor 1 + gamma covers forming
    the bound itself and the test's own rounding of |cur - prev|.  The
    bound proves the test when it is within max(rel_tol |cur_j|, abs_tol)
    at every j.
    """
    a, b = new.ravel(), old.ravel()
    n = max(len(a), len(b))
    d = np.zeros(n, dtype=complex)
    d[: len(a)] = a
    d[: len(b)] -= b
    powers = rho ** np.arange(n)
    bound = np.abs(d) @ powers
    for c in (new, old):
        q, m = c.shape
        K = 4 * (q * (m + 2) + m)
        size = np.abs(c.ravel())
        bound += _gamma(K) * (size @ powers[: c.size]) + K * (1.0 + np.sum(size)) * _ETA
    bound *= 1.0 + _gamma(2 * n + 16)
    tol = np.maximum(spec.rel_tol * np.abs(cur), spec.abs_tol)
    if np.all(np.isfinite(cur)) and bound <= np.min(tol):
        return float(bound)
    return None


def kernel_K_half(z, zeta, p, spec=None):
    """Path kernel tying values at z back to the base point 1/2.

    1 / _integrating_factor(z) times the slit-path integral from 1/2 to z of
    _kernel_weight(w) B(w, zeta), whose weights wt_i are the path rule's
    times _kernel_weight at its nodes w_i.  The integrand is holomorphic in
    w on the slit disk, so the value is path-independent.  zeta may be a
    scalar or an array, empty included; convergence is taken over the whole
    batch at once, and a NoConvergence carries the scaled values' changes,
    shaped like them.

    At each refinement level the path rule's sum sum_i wt_i B(w_i, zeta)
    is taken through the Bergman series B(w, zeta) = (1/pi) sum_n (n+1)
    (w conj(zeta))**n: path moments c_n = (n+1)/pi sum_i wt_i w_i**n for
    n <= N over the P path nodes, then sum_n c_n conj(zeta)**n, both as
    matrix products over blocks of 16 powers with about N/16 Horner steps
    in conj(zeta)**16 (_moment_path_sum).  With rho = max|w_i| *
    max|zeta_j| over the batch, N is the smallest integer with
    (N+2) rho**(N+1) / (1-rho)**2 <= 1e-16, which bounds the dropped tail
    sum_{n>N} (n+1) rho**n by the same 1e-16 times sum|wt_i| / pi.  The path
    stays within radius max(1/2, |z|) and Gauss nodes never reach |zeta| = 1,
    so rho < 1 on the disk rule.  A level with N > 24 P (|z| and |zeta| near
    1 on a coarse path rule, or rho >= 1 for a zeta off the disk) forms
    B(w_i, zeta_j) densely instead, which is cheaper there.

    Level 1 is evaluated at the zetas first.  Where both it and level 0
    take the series, the two levels' moments bound the change between them
    (_certified_change): sum_n |c1_n - c0_n| max|zeta|**n plus what
    rounding can add to either series.  When that bound proves every zeta
    meets the tolerance, level 1 is accepted and level 0 is never evaluated
    at the zetas; otherwise the level loop runs as for every integral,
    handed the level-1 values already computed.  Either way the value, the
    level and any NoConvergence are those of comparing the evaluated
    levels.  Each level's moments are formed once per call, for its series
    and the certificate alike; its nodes and weights, and F(z), once per
    call, or once per reproduction_rhs_2_stack call inside one.
    """
    _require_sigma_interior(p)
    spec = spec or DEFAULT_SPEC
    z = complex(z)
    path = build_slit_path(z)
    scalar = np.isscalar(zeta) or getattr(zeta, "ndim", 1) == 0
    zt = np.atleast_1d(np.asarray(zeta, dtype=complex))
    if not np.all(np.isfinite(zt)):
        raise DomainError("zeta must be finite")
    levels = _PATH_LEVELS.get()
    if levels is None:
        levels = {}
    if (z, p) not in levels:
        levels[z, p] = _integrating_factor(z, p)
    outer = 1.0 / levels[z, p]

    def finish(vals):
        out = outer * vals
        return complex(out[0]) if scalar else out

    if not path.segments or zt.size == 0:
        return finish(np.zeros(zt.shape, dtype=complex))
    zeta_max = float(np.max(np.abs(zt)))

    @cache
    def rule(level):
        """Nodes w_i, weights wt_i and moments c at a level, c None where
        the dense product serves, formed once per call; the nodes, weights
        and max|w_i| are built once per levels dict, read-only."""
        key = (z, p, spec, level)
        if key not in levels:
            wn, cw = _path_rule(path, spec, level)
            wt = cw * _kernel_weight(wn, p)
            wn.setflags(write=False)
            wt.setflags(write=False)
            levels[key] = wn, wt, float(np.max(np.abs(wn)))
        wn, wt, w_max = levels[key]
        N = _moment_order(w_max * zeta_max)
        return wn, wt, (None if N > _DENSE_COST * len(wn) else _path_moments(wn, wt, N))

    def estimate(level):
        wn, wt, c = rule(level)
        return _dense_path_sum(wn, wt, zt) if c is None else _moment_path_sum(c, zt)

    first = estimate(1)
    c1, c0 = rule(1)[2], rule(0)[2]
    if (c1 is not None and c0 is not None
            and _certified_change(c1, c0, zeta_max, first, spec) is not None):
        return finish(first)
    try:
        return finish(_converge(lambda level: first if level == 1 else estimate(level),
                                spec, "kernel path integral").value)
    except NoConvergence as exc:
        changes = exc.changes * abs(outer)
        raise NoConvergence(str(exc), finish(exc.value), float(exc.error * abs(outer)),
                            float(changes[0]) if scalar else changes) from None


def reproduction_rhs_2_stack(fs, p, z, spec=None):
    """Right-hand side of the second reproducing identity at z for each
    series of fs, one kernel field for the stack:
    (F(1/2) / F(z)) f(1/2) + int K_1/2(z, .) Df dmu, with F the
    _integrating_factor exp(lam e_k(z**a)), lam = (1-s)/s.

    Nested quadrature: the outer disk integral runs at rel_tol 1e-7 and the
    inner path integral at 1e-9 (tighter caller specs are not loosened
    beyond those caps), matching the 1e-5 acceptance target with margin.
    Every node block of every outer level calls kernel_K_half with the same
    (z, p, inner spec), so the path levels it builds (nodes, weights and
    max|w|) are kept for the life of this call, in a dict this call sets in
    the context variable _PATH_LEVELS and resets on return: each level is
    built once per call, and nothing outlives it or crosses threads.  The
    dict also holds F(z), which the prefactor and every kernel call read.
    """
    _require_sigma_interior(p)
    spec = spec or DEFAULT_SPEC
    z = complex(z)
    outer_spec = replace(spec, rel_tol=max(spec.rel_tol, 1e-7))
    inner_spec = replace(spec, rel_tol=min(spec.rel_tol, 1e-9))
    factor = _integrating_factor(z, p)
    prefactor = _integrating_factor(BASE_POINT, p) / factor
    token = _PATH_LEVELS.set({(z, p): factor})
    try:
        integral = integrate_disk(
            lambda zeta: kernel_K_half(z, zeta, p, inner_spec) * ff_eval_stack(fs, p, zeta),
            outer_spec).value
    finally:
        _PATH_LEVELS.reset(token)
    return prefactor * np.array([f(BASE_POINT) for f in fs]) + integral


def reproduce_identity_2(f, p, z, spec=None):
    """Residual of the base-point reproduction of f via the path kernel; the
    right-hand side is reproduction_rhs_2_stack's row for the one series f."""
    return abs(f(complex(z)) - complex(reproduction_rhs_2_stack((f,), p, z, spec)[0]))


def integrating_factor_residual(f, p, z):
    """Residual of the exact-derivative identity behind the whole theory:

        d/dz [ exp(lam e_k(z**a)) f(z) ] =
            (1/sigma) exp(lam e_k(z**a)) (d/dz e_k(z**a)) Df(z),

    lam = (1 - sigma)/sigma, from _integrating_factor and _kernel_weight.  The
    left side is a central difference with step h = DEFAULT_STEP, so the
    residual is O(h**2) on polynomial data; a step off the disk raises
    BranchError, a DomainError, in the factor.
    """
    if not 0.0 < p.sigma <= 1.0:
        raise DomainError("identity needs sigma in (0, 1]")
    z, h = complex(z), DEFAULT_STEP
    lhs = (_integrating_factor(z + h, p) * f(z + h)
           - _integrating_factor(z - h, p) * f(z - h)) / (2.0 * h)
    return abs(lhs - _kernel_weight(z, p) * ff_eval_c(f, p, z))
