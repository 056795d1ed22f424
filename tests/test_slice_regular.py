import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ffq import (E1, E2, E3, INF, ONE, CPowerSeries, DomainError,
                 IntrinsicError, QPowerSeries, Quaternion, SliceFrame,
                 STANDARD_FRAME, cullen_derivative, eval_q, extend_from_slice,
                 frame_embed, intrinsic_exp, random_frame, regular_conjugate,
                 representation_formula, split, star_inverse, star_product,
                 symmetrization, truncated_exp)

from conftest import qdist, random_quaternion


def star_product_reference(f, g):
    """Oracle: the Cauchy product as a double loop over Quaternion objects."""
    if f.degree < 0 or g.degree < 0:
        return []
    out = [Quaternion() for _ in range(f.degree + g.degree + 1)]
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            out[i + j] = out[i + j] + a * b
    return out


def eval_reference(f, q):
    """Oracle: right-coefficient Horner a_0 + q*(a_1 + q*(a_2 + ...))."""
    acc = Quaternion()
    for a in reversed(f.coeffs):
        acc = q * acc + a
    return acc


component = st.floats(min_value=-10.0, max_value=10.0)
series_0_to_8 = st.lists(st.builds(Quaternion, component, component, component,
                                   component),
                         min_size=1, max_size=9).map(QPowerSeries)
ball_component = st.floats(min_value=-0.49, max_value=0.49)
ball_points = st.builds(Quaternion, ball_component, ball_component,
                        ball_component, ball_component)


@given(series_0_to_8, series_0_to_8)
def test_star_product_matches_object_loop(f, g):
    got = star_product(f, g).coeffs
    want = star_product_reference(f, g)
    scale = max(sum(a.norm() for a in f.coeffs) * sum(b.norm() for b in g.coeffs), 1.0)
    assert len(got) == len(want)
    assert max(qdist(a, b) for a, b in zip(got, want)) <= 1e-13 * scale


@given(series_0_to_8, ball_points)
def test_eval_matches_object_horner(f, q):
    scale = max(sum(a.norm() * q.norm() ** n for n, a in enumerate(f.coeffs)), 1.0)
    assert qdist(eval_q(f, q), eval_reference(f, q)) <= 1e-13 * scale


def test_series_hold_one_read_only_split_array():
    f = QPowerSeries([Quaternion(1.0, 2.0, 3.0, 4.0), 0.5])
    assert f.parts.tolist() == [[1 + 2j, 3 + 4j], [0.5 + 0j, 0j]]
    assert f.parts.view(float).tolist() == [[1.0, 2.0, 3.0, 4.0], [0.5, 0.0, 0.0, 0.0]]
    with pytest.raises(ValueError):
        f.parts[0, 0] = 0.0
    assert f.coeffs == (Quaternion(1.0, 2.0, 3.0, 4.0), Quaternion(0.5))
    assert QPowerSeries([]).degree == -1


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_series_reject_non_finite_coefficients(bad):
    with pytest.raises(DomainError):
        QPowerSeries([1.0, Quaternion(0.0, 0.0, bad)])
    with pytest.raises(DomainError):
        CPowerSeries([1.0, complex(0.0, bad)])


def test_eval_examples():
    a0 = Quaternion(0.2, 1.0, -0.3, 0.7)
    assert eval_q(QPowerSeries([a0]), Quaternion(0.9)) == a0
    assert qdist(eval_q(QPowerSeries([0, E3]), Quaternion(0.5)), E3 * 0.5) == 0.0
    # oracle: direct quaternion arithmetic, 1 + (e3/2) e1 + (e3/2)^2 e2
    q = E3 * 0.5
    expected = ONE + q * E1 + q * q * E2
    assert qdist(eval_q(QPowerSeries([1, E1, E2]), q), expected) == 0.0
    assert qdist(expected, ONE + E2 * 0.5 - E2 * 0.25) < 1e-16


def test_eval_rejects_points_outside_ball():
    with pytest.raises(DomainError):
        eval_q(QPowerSeries([1]), Quaternion(1.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("slot", range(4))
def test_eval_rejects_non_finite_points(bad, slot):
    comps = [0.1, 0.0, 0.0, 0.0]
    comps[slot] = bad
    with pytest.raises(DomainError):
        eval_q(QPowerSeries([1, E1]), Quaternion(*comps))


def test_cullen_derivative():
    assert cullen_derivative(QPowerSeries([E2])).degree == -1
    mono = QPowerSeries([0, 0, 0, E1])
    assert cullen_derivative(mono) == QPowerSeries([0, 0, E1 * 3])
    # exponential sums drop one order
    ek = QPowerSeries([1.0 / math.factorial(n) for n in range(5)])
    assert cullen_derivative(ek) == QPowerSeries(
        [1.0 / math.factorial(n) for n in range(4)])


def test_star_identity_and_real_coefficients(rng):
    f = QPowerSeries([random_quaternion(rng) for _ in range(4)])
    assert star_product(f, QPowerSeries([1])) == f
    freal = QPowerSeries([0.5, -1.2, 2.0])
    g = QPowerSeries([random_quaternion(rng) for _ in range(3)])
    prod = star_product(freal, g)
    for _ in range(10):
        q = random_quaternion(rng, 0.25)
        lhs = eval_q(prod, q)
        rhs = eval_q(freal, q) * eval_q(g, q)
        assert qdist(lhs, rhs) <= 1e-12 * max(rhs.norm(), 1.0)


def test_star_hand_convolution():
    f = QPowerSeries([1, E1])
    fc = regular_conjugate(f)
    assert fc == QPowerSeries([1, -E1])
    assert star_product(f, fc) == QPowerSeries([1, 0, 1])


def test_star_associativity(rng):
    for _ in range(10):
        f, g, h = (QPowerSeries([random_quaternion(rng) for _ in range(3)])
                   for _ in range(3))
        lhs = star_product(star_product(f, g), h)
        rhs = star_product(f, star_product(g, h))
        assert max(qdist(a, b) for a, b in zip(lhs.coeffs, rhs.coeffs)) <= 1e-11


def test_regular_conjugate_is_involution(rng):
    f = QPowerSeries([random_quaternion(rng) for _ in range(5)])
    assert regular_conjugate(regular_conjugate(f)) == f
    freal = QPowerSeries([1.5, -2.0])
    assert regular_conjugate(freal) == freal


def test_symmetrization(rng):
    assert symmetrization(QPowerSeries([1, E1])) == QPowerSeries([1, 0, 1])
    c = Quaternion(0.3, 1.0, -2.0, 0.25)
    fs = symmetrization(QPowerSeries([c]))
    assert qdist(fs.coeffs[0], Quaternion(c.norm_sq())) < 1e-15
    f = QPowerSeries([random_quaternion(rng) for _ in range(4)])
    a = star_product(f, regular_conjugate(f))
    b = star_product(regular_conjugate(f), f)
    assert max(qdist(u, v) for u, v in zip(a.coeffs, b.coeffs)) <= 1e-13
    assert a.max_imag_coefficient() < 1e-13


def test_star_inverse(rng):
    c = Quaternion(0.5, 1.0, 0.0, -0.5)
    inv = star_inverse(QPowerSeries([c]), 0)
    assert qdist(inv.coeffs[0], c.inverse()) < 1e-15

    f = QPowerSeries([1, E1])
    g = star_inverse(f, 4)
    # oracle: the formal reciprocal of the symmetrization 1 + q^2
    prod = star_product(f, g)
    for n, coeff in enumerate(prod.coeffs[:5]):
        assert qdist(coeff, ONE if n == 0 else Quaternion()) <= 1e-12

    freal = QPowerSeries([2.0, 1.0, -0.5])
    ginv = star_inverse(freal, 6)
    # ordinary reciprocal power series for commuting coefficients
    s = np.zeros(7)
    s[:3] = [2.0, 1.0, -0.5]
    r = np.zeros(7)
    r[0] = 1.0 / s[0]
    for n in range(1, 7):
        r[n] = -np.dot(s[1:n + 1], r[n - 1::-1]) / s[0]
    for n in range(7):
        assert qdist(ginv.coeffs[n], Quaternion(r[n])) <= 1e-13

    with pytest.raises(DomainError):
        star_inverse(QPowerSeries([Quaternion(1e-15), E1]), 3)


@pytest.mark.parametrize("degree", [-1, -3, 2.5, True, False, "2", None, np.float64(2.0)])
def test_star_inverse_rejects_a_degree_that_is_no_count(degree):
    with pytest.raises(DomainError):
        star_inverse(QPowerSeries([1, E1]), degree)


def test_star_inverse_takes_numpy_integer_degrees():
    f = QPowerSeries([1, E1])
    assert star_inverse(f, np.int64(4)) == star_inverse(f, 4)
    assert star_inverse(f, np.uint8(0)).degree == 0


def test_star_inverse_derivative_rule(rng):
    f = QPowerSeries([ONE + random_quaternion(rng, 0.3),
                      random_quaternion(rng, 0.5),
                      random_quaternion(rng, 0.5)])
    deg = 8
    finv = star_inverse(f, deg)
    lhs = cullen_derivative(finv)
    rhs = -1.0 * star_product(star_product(finv, cullen_derivative(f)), finv)
    for n in range(deg):
        assert qdist(lhs.coeffs[n], rhs.coeffs[n]) <= 1e-10


def test_split_examples():
    frame = SliceFrame(E1, E2)
    freal = QPowerSeries([1.0, -2.0, 0.5])
    pair = split(freal, frame)
    assert np.all(pair.f2.coeffs == 0)

    pair = split(QPowerSeries([E2]), frame)
    assert pair.f1.coeffs[0] == 0
    assert pair.f2.coeffs[0] == 1

    # oracle: e3 = e1 e2 decomposes as i * j over the basis {1, i, j, ij}
    pair = split(QPowerSeries([0, E3]), frame)
    assert np.all(pair.f1.coeffs == 0)
    assert pair.f2.coeffs[1] == 1j


def test_split_join_round_trip(rng):
    for _ in range(5):
        frame = random_frame(rng)
        f = QPowerSeries([random_quaternion(rng) for _ in range(5)])
        pair = split(f, frame)
        back = frame_embed(pair.f1.coeffs, pair.f2.coeffs, frame)
        assert back.shape == (5, 4)
        assert max(qdist(a, Quaternion(*b)) for a, b in zip(f.coeffs, back)) < 1e-14


def test_extension_restricts_to_slice_and_reals(rng):
    frame = SliceFrame(E1, E2)
    f = QPowerSeries([random_quaternion(rng) for _ in range(4)])
    pair = split(f, frame)
    # on the slice the extension is the slice function itself
    z = Quaternion(0.3, 0.4, 0.0, 0.0)
    assert qdist(extend_from_slice(pair, z), eval_q(f, z)) < 1e-14
    # at real points both halves coincide
    x = Quaternion(0.7)
    assert qdist(extend_from_slice(pair, x), eval_q(f, x)) < 1e-14


def test_extension_round_trip(rng):
    for _ in range(20):
        frame = random_frame(rng)
        f = QPowerSeries([random_quaternion(rng) for _ in range(5)])
        pair = split(f, frame)
        q = random_quaternion(rng, 0.25)
        assert qdist(extend_from_slice(pair, q), eval_q(f, q)) <= 1e-12


def test_representation_formula(rng):
    frame = SliceFrame(E1, E2)
    f = QPowerSeries([random_quaternion(rng) for _ in range(5)])
    evaluator = lambda q: eval_q(f, q)
    # target on the data slice collapses the formula
    v = representation_formula(evaluator, frame, 0.2, 0.3, E1)
    assert qdist(v, eval_q(f, Quaternion(0.2, 0.3))) < 1e-14
    # y = 0 gives the real-point value
    v = representation_formula(evaluator, frame, 0.4, 0.0, E3)
    assert qdist(v, eval_q(f, Quaternion(0.4))) < 1e-14
    for _ in range(10):
        q = random_quaternion(rng, 0.25)
        from ffq import slice_decompose
        sp = slice_decompose(q)
        v = representation_formula(evaluator, frame, sp.x, sp.y, sp.axis)
        assert qdist(v, eval_q(f, q)) <= 1e-12


def test_star_twist_formula(rng):
    for _ in range(25):
        f = QPowerSeries([random_quaternion(rng) for _ in range(4)])
        g = QPowerSeries([random_quaternion(rng) for _ in range(4)])
        q = random_quaternion(rng, 0.2)
        fq = eval_q(f, q)
        if fq.norm() < 1e-8:
            continue
        lhs = eval_q(star_product(f, g), q)
        rhs = fq * eval_q(g, fq.inverse() * q * fq)
        assert qdist(lhs, rhs) <= 1e-11 * max(rhs.norm(), 1.0)


def test_intrinsic_exp():
    assert qdist(intrinsic_exp(QPowerSeries([0.0]), Quaternion(0.5)), ONE) == 0.0
    c = -0.75
    assert qdist(intrinsic_exp(QPowerSeries([c]), Quaternion(0.1)),
                 Quaternion(math.exp(c))) < 1e-15
    # Euler: exp(q) at q = e1 pi, evaluated through the identity series
    ident = QPowerSeries([0.0, 1.0])
    assert qdist(intrinsic_exp(ident, E1 * math.pi), -ONE) < 1e-14
    with pytest.raises(IntrinsicError):
        intrinsic_exp(QPowerSeries([E1]), Quaternion(0.2))
