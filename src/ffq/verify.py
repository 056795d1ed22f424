"""Verification suites: every computable identity in the library checked
against an independent route, returning structured records that the CLI
renders and the acceptance tests assert on.

Each suite returns (rows, ok): rows are plain dicts with a trailing "status"
of "pass", "fail" or "divergent"; ok is True when no row failed.  Tolerances
are the pinned acceptance values (the TOL_* constants) and quadrature rules
are module constants; neither can be passed in, so no caller can loosen a
check.
"""

import math

import numpy as np

from .errors import INF, NoConvergence
from .ff_complex import (bergman_kernel, coefficient_integrals, dirichlet_norm,
                         dirichlet_norm_quad, dirichlet_norms_quad,
                         exact_coefficient_integrals, ff_eval_c,
                         integrating_factor_residual, reproduction_rhs_1_stack,
                         reproduction_rhs_2_stack, _gram_form, _kernel_weight,
                         _series_table, _table_gram)
from .ff_quaternionic import (q_reproduce, qdirichlet_norm,
                              qdirichlet_norm_series, slice_norm_compare)
from .ff_real import FFParams, ff_derivative_real
from .holo_series import CPowerSeries, in_slit_disk
from .quadrature import (DEFAULT_SPEC, QuadratureSpec, build_slit_path,
                         path_integral)
from .quaternion import STANDARD_FRAME, Quaternion, random_frame
from .slice_regular import (QPowerSeries, eval_q, extend_from_slice, split,
                            star_inverse, star_product)

TOL_NORM_AGREEMENT = 1e-6
TOL_ANCHOR = 1e-9
TOL_REPRODUCE_1 = 1e-6
TOL_REPRODUCE_2 = 1e-5
TOL_PATH_INDEPENDENCE = 1e-9
TOL_FACTOR_IDENTITY = 1e-6
TOL_STAR_INVERSE = 1e-10
TOL_TWIST = 1e-11
TOL_ROUND_TRIP = 1e-12
TOL_SPLIT_IDENTITY = 1e-12
TOL_QSERIES = 1e-6
TOL_LIMIT_RATIO = 0.1
TOL_REAL_CLOSED_FORMS = 1e-6
TOL_CLOSED_K1 = 1e-6
TOL_SLICE_RATIO = 1e-9

GRID_ALPHAS = (0.3, 0.7, 1.0)
GRID_SIGMAS = (0.2, 0.5, 0.8)
GRID_KS = (1, 2, INF)

DEFAULT_SEED = 20260810


# nested integrands (path kernel inside a disk integral) are smooth at
# alpha = 1, so a light base rule refined as needed beats a heavy fixed one
NESTED_SPEC = QuadratureSpec(nr=20, ntheta=20, panels_r=2, panels_theta=2,
                             max_refine=6)
# enough levels to show the logarithmic growth of a divergent norm integral
DIVERGENCE_SPEC = QuadratureSpec(nr=16, ntheta=16, panels_r=2, panels_theta=2,
                                 max_refine=3)


def _k_label(k):
    return "inf" if k == INF else str(k)


def _verdict(rows):
    """A suite's (rows, ok): ok is True when no row failed."""
    return rows, not any(row["status"] == "fail" for row in rows)


def _status(good):
    return "pass" if good else "fail"


def sweep_functions(max_degree=6, n_random=20, seed=DEFAULT_SEED):
    """Monomials z^n, n <= max_degree, plus seeded random polynomials."""
    rng = np.random.default_rng(seed)
    out = []
    for n in range(max_degree + 1):
        out.append((f"z^{n}", CPowerSeries([0.0] * n + [1.0])))
    for i in range(n_random):
        deg = int(rng.integers(1, max_degree + 1))
        coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        out.append((f"rand{i}(deg {deg})", CPowerSeries(coeffs)))
    return out


def random_qpolys(n, max_degree=4, seed=DEFAULT_SEED):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        deg = int(rng.integers(0, max_degree + 1))
        coeffs = [Quaternion(*rng.standard_normal(4)) for _ in range(deg + 1)]
        out.append((f"qrand{i}(deg {deg})", QPowerSeries(coeffs)))
    return out


_CUT_MARGIN = 0.05


def random_slit_points(n, seed=DEFAULT_SEED, r_range=(0.1, 0.85)):
    """Slit-disk points with a margin from the cut (finite differences need
    a neighbourhood)."""
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < n:
        r = rng.uniform(*r_range)
        th = rng.uniform(-np.pi + 3 * _CUT_MARGIN, np.pi - 3 * _CUT_MARGIN)
        z = r * np.exp(1j * th)
        if in_slit_disk(z) and (z.real > _CUT_MARGIN or abs(z.imag) > _CUT_MARGIN):
            pts.append(complex(z))
    return pts


def _divergence_profiles(fs, p):
    """The quadrature witness of divergent norms, one stacked integral for
    the series fs on DIVERGENCE_SPEC: row i is True when its last
    inter-level change at the refinement cap exceeds 10 rel_tol |estimate|.
    A row that converges, in the stack or alone, is False."""
    try:
        dirichlet_norms_quad(fs, p, DIVERGENCE_SPEC)
    except NoConvergence as exc:
        tol = 10.0 * DIVERGENCE_SPEC.rel_tol
        return [bool(c > tol * abs(v)) for c, v in zip(exc.changes, exc.value)]
    return [False] * len(fs)


def norm_agreement(functions=None, alphas=GRID_ALPHAS, sigmas=GRID_SIGMAS,
                   ks=GRID_KS):
    """Series-vs-quadrature sweep of the squared Dirichlet-type norm.

    The series norms read exact_coefficient_integrals, exact sums at
    k = 1, k >= 3 and k = inf, so there they are checked against a
    quadrature that shares no rule with them; only k = 2 reads a table
    integrated by coefficient_integrals.  Parameter pairs whose coefficient
    integrals do not exist (e_{k-1} vanishing on the closed disk makes them
    log-divergent) are reported with status "divergent" after confirming
    both routes diagnose the divergence: the series route decides it up
    front (DivergentIntegral) and the quadrature route, one stacked witness
    per cell (_divergence_profiles), must still be refining at its cap.
    Such functions are simply not members of the space there.  The
    quadrature norms of one (alpha, k) are one stacked integral over every
    sigma, which forms each function's f, and f' times the reciprocal of
    the measure derivative, once per node block.
    The series norms of one (alpha, sigma, k) read one Gram matrix, of the
    largest finite degree: its leading block is the Gram matrix of each
    lower degree entry for entry, so a row is dirichlet_norm_series' value.
    """
    functions = functions or sweep_functions()
    max_deg = max(f.degree for _, f in functions)
    rows = []
    for alpha in alphas:
        for k in ks:
            base = FFParams(alpha=alpha, sigma=0.5, k=k)
            try:
                ci = _series_table(base, max_deg, DEFAULT_SPEC)
            except NoConvergence:
                ci = None
            finite = [ci is not None or f.degree <= 0 for _, f in functions]
            # the divergent field term scales with sigma**2, so one witness
            # at sigma = 1/2 settles every sigma
            infinite = [(label, f) for (label, f), fin in zip(functions, finite) if not fin]
            profiles = dict(zip([label for label, _ in infinite],
                                _divergence_profiles([f for _, f in infinite], base)))
            finite_fs = [f for (_, f), fin in zip(functions, finite) if fin]
            quads = iter(dirichlet_norms_quad(finite_fs, base, DEFAULT_SPEC, sigmas=sigmas))
            degree = max((f.degree for f in finite_fs), default=0)
            for sigma in sigmas:
                p = FFParams(alpha=alpha, sigma=sigma, k=k)
                # a constant needs no table (ci may be None)
                G = _table_gram(p, ci, degree) if finite_fs else None
                for (label, f), fin in zip(functions, finite):
                    row = {"f": label, "alpha": alpha, "sigma": sigma,
                           "k": _k_label(k)}
                    if not fin:
                        row.update(series="", quadrature="", rel_diff="",
                                   status="divergent" if profiles[label] else "fail")
                    else:
                        ns = _gram_form(G, f.coeffs)
                        nq = next(quads).norm_sq
                        rel = abs(ns - nq) / max(abs(nq), 1e-300)
                        row.update(series=ns, quadrature=nq, rel_diff=rel,
                                   status=_status(rel <= TOL_NORM_AGREEMENT))
                    rows.append(row)
    return _verdict(rows)


def anchors():
    """The two closed-form norm anchors."""
    cases = [
        ("f=1", CPowerSeries([1.0]), FFParams(alpha=1.0, sigma=0.5, k=1),
         1.0 + math.pi / 4.0),
        ("f=z", CPowerSeries([0.0, 1.0]), FFParams(alpha=1.0, sigma=1.0, k=1),
         0.25 + math.pi),
    ]
    rows = []
    for label, f, p, expected in cases:
        got = dirichlet_norm_quad(f, p, DEFAULT_SPEC).norm_sq
        err = abs(got - expected)
        rows.append({"f": label, "expected": expected, "computed": got,
                     "abs_err": err, "status": _status(err <= TOL_ANCHOR)})
    return _verdict(rows)


def closed_k1_discrepancy():
    """Adjudicate the k = 1 closed form against a circulating variant of it.

    The variant omits the 2 pi angular factor on the diagonal quadratic
    term and phrases the cross term through a full-turn (0, 2 pi) angular
    phase.  The quadrature oracle must match the implemented closed form
    and reject the variant (diagonal ratio 2 pi); the implemented diagonal
    is exact_coefficient_integrals' at k = 1, the closed form
    dirichlet_norm ships."""
    n_max = 4
    rng = np.random.default_rng(DEFAULT_SEED)
    rows = []
    for alpha in (0.3, 0.7):
        p = FFParams(alpha=alpha, sigma=0.5, k=1)
        ci = coefficient_integrals(p, n_max, DEFAULT_SPEC)
        closed = exact_coefficient_integrals(p, n_max).alpha_mn
        for n in range(n_max + 1):
            measured = ci.alpha_mn[n, n]
            implemented = closed[n, n]
            variant = 1.0 / (2 * n + 4 - 2 * alpha)
            good = abs(measured - implemented) <= TOL_CLOSED_K1 * implemented
            rows.append({
                "record": "diagonal", "alpha": alpha, "n": n,
                "quadrature": measured, "implemented": implemented,
                "variant_no_2pi": variant,
                "ratio_vs_variant": measured / variant,
                "status": _status(good),
            })
        coeffs = rng.standard_normal(n_max + 1) + 1j * rng.standard_normal(n_max + 1)
        f = CPowerSeries(coeffs)
        nq = dirichlet_norm_quad(f, p, DEFAULT_SPEC).norm_sq
        nc = dirichlet_norm(f, p, method="closed-k1").norm_sq
        nv = _closed_k1_variant(f, p)
        rel_closed = abs(nc - nq) / nq
        rel_variant = abs(nv - nq) / nq
        good = rel_closed <= TOL_CLOSED_K1 and rel_variant > 1e-3
        rows.append({
            "record": "norm", "alpha": alpha, "n": "",
            "quadrature": nq, "implemented": nc, "variant_no_2pi": nv,
            "ratio_vs_variant": rel_variant,
            "status": _status(good),
        })
    return _verdict(rows)


def _closed_k1_variant(f, p):
    """k = 1 norm exactly as the variant states it: no 2 pi on the
    diagonal term, full-turn phase factor Im[(e^{2 pi i c} - 1) ...] in the
    cross term (the c -> 0 limit reads 2 pi Re)."""
    a = np.asarray(f.coeffs, dtype=complex)
    deg = len(a) - 1
    s, al = p.sigma, p.alpha
    total = al * abs(f(0.5)) ** 2
    total += (1 - s) ** 2 * math.pi * float(
        np.sum(np.abs(a) ** 2 / (np.arange(deg + 1) + 1.0)))
    for n in range(deg):
        total += (s / al) ** 2 * (n + 1) ** 2 / (2 * n + 4 - 2 * al) * abs(a[n + 1]) ** 2
    for m in range(deg):
        for n in range(deg + 1):
            c = m - n + 1 - al
            w = a[m + 1] * np.conj(a[n])
            if abs(c) < 1e-12:
                term = 2.0 * math.pi * w.real
            else:
                term = ((np.exp(2j * math.pi * c) - 1.0) * w).imag / c
            total += (1 - s) * s / al * 2.0 * (m + 1) / (n + m + 3 - al) * term
    return float(total)


def _reproducing_stacks(rng, points, spec, stack):
    """The series of the reproducing suites, drawn point by point (degree
    below 5, complex normal coefficients), and their right-hand sides by
    stack at alpha = 1.  The points cycle through the (sigma, k) cells and
    each k's points are one stack, each row at its own point and sigma: one
    disk integral per k.  Returns (z, sigma, k, f, value) in point order."""
    combos = [(s, k) for s in (0.3, 0.5, 0.7) for k in (1, INF)]
    cells = [combos[i % len(combos)] for i in range(len(points))]
    series = []
    for _ in points:
        deg = int(rng.integers(0, 5))
        series.append(CPowerSeries(rng.standard_normal(deg + 1)
                                   + 1j * rng.standard_normal(deg + 1)))
    values = {}
    for k in (1, INF):
        idxs = [i for i, cell in enumerate(cells) if cell[1] == k]
        # each row's sigma is its cell's; p gives alpha and k
        rhs = stack([series[i] for i in idxs], FFParams(alpha=1.0, sigma=0.5, k=k),
                    [points[i] for i in idxs], spec, sigmas=[cells[i][0] for i in idxs])
        values.update(zip(idxs, rhs))
    return [(z, *cells[i], series[i], values[i]) for i, z in enumerate(points)]


def reproducing(n_points=20, seed=DEFAULT_SEED):
    """First reproducing identity on random polynomials at random points.

    alpha is 1, where the operator output stays holomorphic on the whole
    disk and the identity is exact; smaller alpha leaves the disk Bergman
    space (branch cut) and the hypothesis fails.  The points cycle through
    the (sigma, k) cells, and each k's points and polynomials are one
    stack: one disk integral per k, each row at its own point and sigma.
    """
    rng = np.random.default_rng(seed)
    points = random_slit_points(n_points, seed=seed + 1)
    rows = []
    for z, s, k, f, value in _reproducing_stacks(rng, points, DEFAULT_SPEC,
                                                 reproduction_rhs_1_stack):
        res = float(abs(f(z) - value))
        rows.append({"z": str(z), "sigma": s, "k": _k_label(k), "deg": f.degree,
                     "residual": res, "status": _status(res < TOL_REPRODUCE_1)})
    return _verdict(rows)


def kernel_reproducing(n_points=10, seed=DEFAULT_SEED):
    """Second reproducing identity (path kernel) at alpha = 1, plus path
    independence, between the two slit-path constructions, of the integrand
    the kernel integrates: _kernel_weight times the Bergman kernel.  The
    identity's points cycle through the (sigma, k) cells, and each k's
    points are one stack: one nested integral per k."""
    rng = np.random.default_rng(seed)
    points = random_slit_points(n_points, seed=seed + 2)
    rows = []
    for z, s, k, f, value in _reproducing_stacks(rng, points, NESTED_SPEC,
                                                 reproduction_rhs_2_stack):
        res = abs(f(complex(z)) - complex(value))
        rows.append({"record": "identity2", "z": str(z), "sigma": s,
                     "k": _k_label(k), "deg": f.degree, "residual": res,
                     "status": _status(res < TOL_REPRODUCE_2)})
    p = FFParams(alpha=1.0, sigma=0.5, k=1)
    for z in points[:3]:
        zeta = complex(rng.uniform(0.1, 0.5), rng.uniform(-0.3, 0.3))

        def integrand(w, zeta=zeta):
            return _kernel_weight(w, p) * bergman_kernel(w, zeta)

        v1 = path_integral(integrand, build_slit_path(z), NESTED_SPEC).value
        v2 = path_integral(integrand, build_slit_path(z, arc_first=True),
                           NESTED_SPEC).value
        diff = abs(v1 - v2)
        rows.append({"record": "path_independence", "z": str(z), "sigma": 0.5,
                     "k": "1", "deg": "", "residual": diff,
                     "status": _status(diff < TOL_PATH_INDEPENDENCE)})
    return _verdict(rows)


def factor_identity(seed=DEFAULT_SEED):
    """Integrating-factor differential identity at 50 points, complex and
    quaternionic (via slice) variants, central differences with step h = 1e-5.

    Points keep |z| >= 0.25 and sigma >= 0.4: the identity itself is exact,
    but the central difference's h**2 truncation error carries the factors
    exp(lam e_k) lam**3 and z**(alpha-3), which swamp the 1e-6 target for
    tiny sigma or points hugging the origin.
    """
    rng = np.random.default_rng(seed)
    points = random_slit_points(50, seed=seed + 3, r_range=(0.25, 0.85))
    alphas = (0.3, 0.5, 0.8, 1.0)
    sigmas = (0.4, 0.5, 0.8, 1.0)
    ks = (1, 2, INF)
    rows = []
    for idx, z in enumerate(points):
        p = FFParams(alpha=alphas[idx % 4], sigma=sigmas[(idx // 4) % 4],
                     k=ks[idx % 3])
        deg = int(rng.integers(0, 5))
        f = CPowerSeries(0.5 * (rng.standard_normal(deg + 1)
                                + 1j * rng.standard_normal(deg + 1)))
        res = integrating_factor_residual(f, p, z)
        rows.append({"variant": "complex", "z": str(z), "alpha": p.alpha,
                     "sigma": p.sigma, "k": _k_label(p.k), "residual": res,
                     "status": _status(res < TOL_FACTOR_IDENTITY)})
    frame = STANDARD_FRAME
    for idx, z in enumerate(points):
        p = FFParams(alpha=alphas[(idx + 1) % 4], sigma=sigmas[(idx // 3) % 4],
                     k=ks[(idx + 1) % 3])
        fq = QPowerSeries(
            [Quaternion(*(0.5 * rng.standard_normal(4)))
             for _ in range(int(rng.integers(1, 6)))])
        pair = split(fq, frame)
        res = max(
            integrating_factor_residual(pair.f1, p, z),
            integrating_factor_residual(pair.f2, p, z),
        )
        rows.append({"variant": "quaternionic-slice", "z": str(z),
                     "alpha": p.alpha, "sigma": p.sigma, "k": _k_label(p.k),
                     "residual": res, "status": _status(res < TOL_FACTOR_IDENTITY)})
    return _verdict(rows)


def operator_limits(seed=DEFAULT_SEED):
    """sigma -> 0+ and sigma -> 1- operator limits (linear rate, ratio 2 per
    halving), plus the real-line closed forms against the limit quotient."""
    rng = np.random.default_rng(seed)
    grid = np.asarray(random_slit_points(100, seed=seed + 4))
    f = CPowerSeries(rng.standard_normal(5) + 1j * rng.standard_normal(5))
    rows = []
    for k in (1, INF):
        for alpha in (0.6, 1.0):
            def dev0(s):
                p = FFParams(alpha=alpha, sigma=s, k=k)
                return float(np.max(np.abs(ff_eval_c(f, p, grid) - f(grid))))

            def dev1(s):
                p = FFParams(alpha=alpha, sigma=s, k=k)
                pure = FFParams(alpha=alpha, sigma=1.0, k=k)
                return float(np.max(np.abs(ff_eval_c(f, p, grid)
                                           - ff_eval_c(f, pure, grid))))

            sig = 1e-2
            while sig > 1e-3:
                r0 = dev0(sig) / dev0(sig / 2.0)
                r1 = dev1(1.0 - sig) / dev1(1.0 - sig / 2.0)
                good = (abs(r0 - 2.0) <= TOL_LIMIT_RATIO
                        and abs(r1 - 2.0) <= TOL_LIMIT_RATIO)
                rows.append({"record": "limit_ratio", "alpha": alpha,
                             "k": _k_label(k), "sigma": sig,
                             "ratio_at_0": r0, "ratio_at_1": r1,
                             "status": _status(good)})
                sig /= 2.0
    tests = [
        ("sin+2", lambda t: math.sin(t) + 2.0),
        ("exp", math.exp),
        ("poly", lambda t: 0.3 * t ** 3 - t + 2.5),
    ]
    for name, fn in tests:
        for t in np.linspace(0.1, 2.0, 7):
            p = FFParams(alpha=0.6, sigma=0.4, k=2, beta=0.8)
            closed = ff_derivative_real(fn, p, float(t), method="closed")
            limit = ff_derivative_real(fn, p, float(t), method="limit")
            rel = abs(closed - limit) / max(abs(closed), 1e-12)
            rows.append({"record": "real_closed_form", "alpha": 0.6,
                         "k": "2", "sigma": 0.4, "f": name, "t": float(t),
                         "rel_diff": rel,
                         "status": _status(rel <= TOL_REAL_CLOSED_FORMS)})
    return _verdict(rows)


def star_suite(seed=DEFAULT_SEED):
    """Star-algebra acceptance: star inverse to degree 8, the evaluation
    twist formula on 50 draws, and split/extension plus representation round
    trips."""
    rng = np.random.default_rng(seed)
    rows = []

    def rand_q(scale=1.0):
        return Quaternion(*(scale * rng.standard_normal(4)))

    for trial in range(10):
        # constant term kept away from zero: the reciprocal-series rounding
        # grows with (|a_n|/|a_0|)^degree
        f = QPowerSeries([rand_q(0.5) + (1.0 if n == 0 else 0.0)
                          for n in range(int(rng.integers(1, 5)))])
        finv = star_inverse(f, 8)
        prod = star_product(f, finv)
        err = max(
            abs(c - (1.0 if n == 0 else 0.0))
            for n, c in enumerate(prod.coeffs[:9])
        )
        rows.append({"record": "star_inverse", "trial": trial, "residual": err,
                     "status": _status(err <= TOL_STAR_INVERSE)})
    worst = 0.0
    for _ in range(50):
        f = QPowerSeries([rand_q() for _ in range(4)])
        g = QPowerSeries([rand_q() for _ in range(4)])
        q = rand_q(0.2)
        fq = eval_q(f, q)
        if fq.norm() < 1e-6:
            continue
        lhs = eval_q(star_product(f, g), q)
        rhs = fq * eval_q(g, fq.inverse() * q * fq)
        worst = max(worst, (lhs - rhs).norm())
    rows.append({"record": "twist", "trial": 50, "residual": worst,
                 "status": _status(worst <= TOL_TWIST)})
    worst = 0.0
    for _ in range(20):
        f = QPowerSeries([rand_q() for _ in range(5)])
        frame = random_frame(rng)
        pair = split(f, frame)
        q = rand_q(0.2)
        worst = max(worst, (extend_from_slice(pair, q) - eval_q(f, q)).norm())
    rows.append({"record": "split_round_trip", "trial": 20, "residual": worst,
                 "status": _status(worst <= TOL_ROUND_TRIP)})
    return _verdict(rows)


def quaternionic_split():
    """Splitting-norm identity: the module norm equals the sum of the two
    complex component norms, algebraically.  Checked on the series route,
    which forms the frame-free norm sum(P * (G P)) apart from the split
    parts a_j^H G a_j; the quadrature norm is their sum by construction."""
    rng = np.random.default_rng(DEFAULT_SEED)
    rows = []
    for trial in range(6):
        f = QPowerSeries([Quaternion(*rng.standard_normal(4))
                          for _ in range(int(rng.integers(1, 5)))])
        frame = random_frame(rng)
        p = FFParams(alpha=(0.7, 1.0)[trial % 2], sigma=(0.3, 0.8)[trial % 2],
                     k=(1, INF)[trial % 2])
        val = qdirichlet_norm(f, p, frame, DEFAULT_SPEC, method="series")
        gap = abs(val.norm_sq - sum(val.split_parts))
        good = gap <= TOL_SPLIT_IDENTITY * max(val.norm_sq, 1.0)
        rows.append({"record": "split_identity", "trial": trial, "gap": gap,
                     "norm_sq": val.norm_sq, "status": _status(good)})
    return _verdict(rows)


def quaternionic_series():
    """Quaternionic series-norm formula against the splitting quadrature,
    on the tables the series routes read (exact at k = 1 and inf)."""
    rng = np.random.default_rng(DEFAULT_SEED)
    rows = []
    params = [FFParams(alpha=0.7, sigma=0.3, k=1),
              FFParams(alpha=1.0, sigma=0.8, k=INF),
              FFParams(alpha=0.5, sigma=0.5, k=2)]
    tables = [_series_table(p, 4, DEFAULT_SPEC) for p in params]
    for trial in range(9):
        p = params[trial % 3]
        f = QPowerSeries([Quaternion(*rng.standard_normal(4))
                          for _ in range(int(rng.integers(1, 6)))])
        frame = random_frame(rng)
        ns = qdirichlet_norm_series(f, p, frame, tables[trial % 3])
        nq = qdirichlet_norm(f, p, frame, DEFAULT_SPEC)
        rel = abs(ns.norm_sq - nq.norm_sq) / nq.norm_sq
        rows.append({"record": "series_vs_quad", "trial": trial,
                     "series": ns.norm_sq, "quadrature": nq.norm_sq,
                     "rel_diff": rel, "status": _status(rel <= TOL_QSERIES)})
    return _verdict(rows)


def quaternionic_bound():
    """The slice-comparison ratio on the quadrature route for five random
    polynomials and frame pairs.  The paper bounds it by 8, past which
    slice_norm_compare raises, and the summary row reports the maximum; as
    the squared norm does not depend on the slice (its series form is
    frame-free), each ratio is checked at |ratio - 1| <= TOL_SLICE_RATIO."""
    rng = np.random.default_rng(DEFAULT_SEED)
    p = FFParams(alpha=0.7, sigma=0.4, k=2)
    rows = []
    for label, f in random_qpolys(5, max_degree=3, seed=DEFAULT_SEED + 6):
        ratio = slice_norm_compare(f, p, random_frame(rng), random_frame(rng),
                                   spec=DEFAULT_SPEC)
        rows.append({"record": "bound_quadrature_check", "f": label, "ratio": ratio,
                     "status": _status(abs(ratio - 1.0) <= TOL_SLICE_RATIO)})
    _, ok = _verdict(rows)
    rows.insert(0, {"record": "bound_summary", "f": f"{len(rows)} polynomials",
                    "ratio": max(row["ratio"] for row in rows),
                    "status": _status(ok)})
    return rows, ok


def quaternionic_kernel(seed=DEFAULT_SEED, n_points=4):
    """Quaternionic reproducing identities by slice reduction at alpha = 1."""
    rng = np.random.default_rng(seed)
    rows = []
    frame = STANDARD_FRAME
    for idx in range(n_points):
        p = FFParams(alpha=1.0, sigma=(0.3, 0.5, 0.7)[idx % 3],
                     k=(1, INF)[idx % 2])
        f = QPowerSeries([Quaternion(*rng.standard_normal(4))
                          for _ in range(int(rng.integers(1, 4)))])
        v = rng.standard_normal(3) * 0.2
        q = Quaternion(rng.uniform(0.1, 0.5), *v)
        res = q_reproduce(f, p, frame, q, NESTED_SPEC)
        good = res.identity1 < TOL_REPRODUCE_1 * 10 and res.identity2 < TOL_REPRODUCE_2
        rows.append({"record": "q_reproduce", "q": str(q.components),
                     "sigma": p.sigma, "k": _k_label(p.k),
                     "identity1": res.identity1, "identity2": res.identity2,
                     "status": _status(good)})
    return _verdict(rows)


SUITES = {
    "norms": norm_agreement,
    "anchors": anchors,
    "discrepancy": closed_k1_discrepancy,
    "reproducing": reproducing,
    "kernel": kernel_reproducing,
    "factor": factor_identity,
    "limits": operator_limits,
    "star": star_suite,
}

QSUITES = {
    "split": quaternionic_split,
    "series": quaternionic_series,
    "bound": quaternionic_bound,
    "kernel": quaternionic_kernel,
}


def run_suite(name, quaternionic=False):
    table = QSUITES if quaternionic else SUITES
    if name == "all":
        rows = []
        for key, fn in table.items():
            for row in fn()[0]:
                row["suite"] = key
                rows.append(row)
        return _verdict(rows)
    if name not in table:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(table)} or 'all'")
    return table[name]()
