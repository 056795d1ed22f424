"""The per-value fast paths of the star algebra against the code they replace.

The star inverse builds its Toeplitz system from zeros and one index array
instead of np.pad, np.tril and np.eye; the system, the solve and so the
result keep their bits.  The scalar series value runs Horner's rule in
Python complex arithmetic, which rounds complex products differently from
numpy's loop, so it is held to the Horner error bound rather than to the
array path's bits.  Everything else (quaternion arithmetic, eval_q,
star_product, split, frame_coords and extend_from_slice) must reproduce, bit
for bit, the in-test copies below of the code that built each Quaternion
through float() and object.__setattr__ and rebuilt the frame basis on every
call.
"""

import math
import sys

import numpy as np
import pytest

from ffq import (ONE, CPowerSeries, QPowerSeries, Quaternion, as_quaternion,
                 eval_q, extend_from_slice, frame_coords, random_frame, split,
                 star_product)
from ffq.slice_regular import (_series, regular_conjugate, star_inverse,
                               symmetrization)

from conftest import outcome

U = np.finfo(float).eps / 2


# ------------------------------------------------ reference (previous) code

def ref_quaternion(w, x, y, z):
    q = object.__new__(Quaternion)
    for name, value in zip("wxyz", (w, x, y, z)):
        object.__setattr__(q, name, float(value))
    return q


def ref_add(a, b):
    return ref_quaternion(a.w + b.w, a.x + b.x, a.y + b.y, a.z + b.z)


def ref_sub(a, b):
    return ref_quaternion(a.w - b.w, a.x - b.x, a.y - b.y, a.z - b.z)


def ref_mul(a, b):
    return ref_quaternion(
        a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z,
        a.w * b.x + a.x * b.w + a.y * b.z - a.z * b.y,
        a.w * b.y - a.x * b.z + a.y * b.w + a.z * b.x,
        a.w * b.z + a.x * b.y - a.y * b.x + a.z * b.w,
    )


def ref_scale(a, s):
    return ref_quaternion(a.w * s, a.x * s, a.y * s, a.z * s)


def ref_slice_decompose(q):
    y = math.hypot(q.x, q.y, q.z)
    s = 1.0 if y >= sys.float_info.min else 2.0 ** 600
    v = (q.x * s, q.y * s, q.z * s)
    n = math.hypot(*v)
    axis = ref_quaternion(0.0, 1.0, 0.0, 0.0) if y == 0.0 else ref_quaternion(
        0.0, v[0] / n, v[1] / n, v[2] / n)
    return q.w, y, axis


def ref_embed(c, axis):
    c = complex(c)
    return ref_quaternion(c.real, axis.x * c.imag, axis.y * c.imag, axis.z * c.imag)


def ref_basis_matrix(frame):
    ij = ref_mul(frame.i, frame.j)
    return np.array([b.components for b in (ONE, frame.i, frame.j, ij)])


def ref_frame_coords(q, frame):
    comps = q if isinstance(q, np.ndarray) else as_quaternion(q).components
    c1, c2 = np.moveaxis((np.asarray(comps) @ ref_basis_matrix(frame).T).view(complex), -1, 0)
    return c1, c2


def ref_eval_q(f, q):
    x, y, axis = ref_slice_decompose(q)
    zn = complex(x, y) ** np.arange(f.degree + 1)
    a, b = (zn.view(float).reshape(-1, 2).T @ f.parts.view(float)).tolist()
    return ref_add(ref_quaternion(*a), ref_mul(axis, ref_quaternion(*b)))


def ref_star_product_parts(f, g):
    (a1, a2), (b1, b2) = f.parts.T, g.parts.T
    return np.stack([np.convolve(a1, b1) - np.convolve(a2, b2.conj()),
                     np.convolve(a1, b2) + np.convolve(a2, b1.conj())], axis=-1)


def ref_split(f, frame):
    c1, c2 = ref_frame_coords(f.parts.view(float), frame)
    if f.degree < 0:
        c1 = c2 = [0]
    return CPowerSeries(c1), CPowerSeries(c2)


def ref_extend_from_slice(pair, q):
    # the series values come from the series as they are: only the
    # quaternion arithmetic around them is the reference's
    x, y, axis = ref_slice_decompose(q)
    i, j = pair.frame.i, pair.frame.j

    def value_at(z):
        return ref_add(ref_embed(pair.f1(z), i), ref_mul(ref_embed(pair.f2(z), i), j))

    wp = value_at(complex(x, y))
    wm = wp if y == 0.0 else value_at(complex(x, -y))
    t = ref_mul(axis, i)
    return ref_scale(ref_add(ref_mul(ref_add(ONE, t), wm), ref_mul(ref_sub(ONE, t), wp)), 0.5)


def ref_star_inverse_parts(f, degree):
    c1 = symmetrization(f).parts[: degree + 1, 0].real
    s = np.pad(c1, (0, degree + 1 - len(c1)))
    k = np.arange(degree + 1)
    r = np.linalg.solve(np.tril(s[k[:, None] - k]), np.eye(degree + 1)[0])
    recip = _series(np.stack([r, 0.0 * r], axis=-1) + 0j)
    return star_product(recip, regular_conjugate(f)).parts[: degree + 1]


# ------------------------------------------------------------------ draws

def bits(value):
    if isinstance(value, Quaternion):
        value = value.components
    return np.asarray(value).tobytes()


def draw_quaternion(rng, scale=1.0):
    c = scale * rng.standard_normal(4) * 10.0 ** rng.integers(-3, 3, size=4)
    c[rng.random(4) < 0.15] = 0.0  # real points and zero components too
    c[rng.random(4) < 0.05] = -0.0
    return Quaternion(*c)


def draw_series(rng, max_degree=8):
    return QPowerSeries([draw_quaternion(rng) for _ in range(rng.integers(0, max_degree + 2))])


def draw_ball_point(rng):
    q = draw_quaternion(rng)
    return q * (rng.random() / max(q.norm(), 1e-300)) if q.norm() else q


# ---------------------------------------------------- bit-identical routes

def test_quaternion_arithmetic_keeps_its_bits():
    rng = np.random.default_rng(11)
    for _ in range(500):
        a, b = draw_quaternion(rng), draw_quaternion(rng)
        s = float(rng.standard_normal())
        assert bits(a + b) == bits(ref_add(a, b))
        assert bits(a - b) == bits(ref_sub(a, b))
        assert bits(a * b) == bits(ref_mul(a, b))
        assert bits(-a) == bits(ref_quaternion(-a.w, -a.x, -a.y, -a.z))
        assert bits(a.conjugate()) == bits(ref_quaternion(a.w, -a.x, -a.y, -a.z))
        assert bits(a * s) == bits(ref_scale(a, s)) == bits(s * a)
        assert bits(a * np.float64(s)) == bits(ref_scale(a, np.float64(s)))
        assert bits(a / s) == bits(ref_quaternion(a.w / s, a.x / s, a.y / s, a.z / s))
        assert bits(a + s) == bits(ref_quaternion(a.w + s, a.x, a.y, a.z)) == bits(s + a)
        assert bits(s - a) == bits(ref_quaternion(s - a.w, -a.x, -a.y, -a.z))
        if a.norm_sq():
            n2 = a.norm_sq()
            assert bits(a.inverse()) == bits(ref_quaternion(a.w / n2, -a.x / n2, -a.y / n2,
                                                            -a.z / n2))


def test_series_routes_keep_their_bits():
    rng = np.random.default_rng(12)
    for _ in range(300):
        f, g, q, frame = draw_series(rng), draw_series(rng), draw_ball_point(rng), random_frame(rng)
        assert bits(eval_q(f, q)) == bits(ref_eval_q(f, q))
        prod = star_product(f, g)
        if f.degree >= 0 and g.degree >= 0:
            assert bits(prod.parts) == bits(ref_star_product_parts(f, g))
        pair = split(f, frame)
        want = ref_split(f, frame)
        assert bits(pair.f1.coeffs) == bits(want[0].coeffs)
        assert bits(pair.f2.coeffs) == bits(want[1].coeffs)
        assert bits(extend_from_slice(pair, q)) == bits(ref_extend_from_slice(pair, q))


def test_frame_coords_keeps_its_bits_and_return_types():
    rng = np.random.default_rng(13)
    for _ in range(300):
        frame, q = random_frame(rng), draw_quaternion(rng)
        got, want = frame_coords(q, frame), ref_frame_coords(q, frame)
        assert [type(c) for c in got] == [type(c) for c in want] == [np.complex128] * 2
        assert bits(got) == bits(want)
        for shape in [(4,), (3, 4), (2, 3, 4)]:
            arr = rng.standard_normal(shape)
            got, want = frame_coords(arr, frame), ref_frame_coords(arr, frame)
            for u, v in zip(got, want):
                assert type(u) is type(v) and u.shape == v.shape == shape[:-1]
                assert bits(u) == bits(v)


def test_star_inverse_keeps_its_bits():
    # series of length 1-10 at degrees 0-12: the symmetrization (length
    # 2 len - 1) is both longer and shorter than degree + 1
    rng = np.random.default_rng(14)
    lengths = set()
    for _ in range(400):
        length, degree = int(rng.integers(1, 11)), int(rng.integers(0, 13))
        head = draw_quaternion(rng)
        while head.norm() < 1e-3:
            head = draw_quaternion(rng)
        f = QPowerSeries([head] + [draw_quaternion(rng) for _ in range(length - 1)])
        # a badly conditioned draw may overflow or make the solve fail: the
        # same bits, or the same error, on both
        with np.errstate(all="ignore"):
            assert (outcome(lambda: bits(star_inverse(f, degree).parts))
                    == outcome(lambda: bits(ref_star_inverse_parts(f, degree))))
        lengths.add((2 * length - 1 > degree + 1) - (2 * length - 1 < degree + 1))
    assert lengths == {-1, 0, 1}


# ------------------------------------------------------ scalar series values

def _scalar_inputs(rng):
    yield int(rng.integers(-3, 4))
    yield float(rng.uniform(-1.5, 1.5))
    yield complex(*rng.uniform(-1.5, 1.5, 2))
    yield np.float64(rng.uniform(-1.5, 1.5))
    yield np.complex128(complex(*rng.uniform(-1.5, 1.5, 2)))


@pytest.mark.parametrize("degree", range(-1, 9))
def test_scalar_value_matches_the_array_path_within_the_horner_bound(degree):
    rng = np.random.default_rng(40 + degree)
    for _ in range(100):
        a = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        a *= 10.0 ** rng.integers(-2, 3, size=degree + 1)
        f = CPowerSeries(a)
        for z in _scalar_inputs(rng):
            got = f(z)
            want = f(np.array([z], dtype=complex))[0]
            assert type(got) is complex
            bound = 4 * (degree + 1) * U * sum(abs(c) * abs(z) ** n for n, c in enumerate(a))
            assert abs(got - want) <= bound, (z, a)


def test_zero_dimensional_arrays_keep_the_array_path_bits():
    rng = np.random.default_rng(50)
    for degree in range(-1, 9):
        f = CPowerSeries(rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1))
        for z in _scalar_inputs(rng):
            got = f(np.asarray(z))
            assert type(got) is complex
            assert bits(got) == bits(f(np.array([z], dtype=complex))[0])
