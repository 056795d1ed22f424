import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ffq import (E1, E2, E3, INF, ONE, BranchError, DomainError, FrameError,
                 Quaternion, SliceFrame, dot4, embed_complex, frame_coords,
                 frame_embed, principal_power, random_frame,
                 slice_decompose, truncated_exp)
from ffq.holo_series import principal_power_c, truncated_exp_c

from conftest import qdist

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
quaternions = st.builds(Quaternion, finite, finite, finite, finite)
unit_scale = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
small_quaternions = st.builds(Quaternion, unit_scale, unit_scale, unit_scale,
                              unit_scale)


def test_basis_multiplication_table():
    assert E1 * E2 == E3
    assert E2 * E3 == E1
    assert E3 * E1 == E2
    assert E1 * E1 == -ONE
    assert E2 * E2 == -ONE
    assert E3 * E3 == -ONE


def test_mul_identity_and_distributed_product():
    q = Quaternion(0.3, -1.2, 0.7, 2.0)
    assert q * ONE == q
    assert (ONE + E1) * (ONE - E1) == Quaternion(2.0)


@given(quaternions)
def test_norm_squared_matches_components_and_conjugate_product(q):
    n2 = q.norm_sq()
    explicit = q.w ** 2 + q.x ** 2 + q.y ** 2 + q.z ** 2
    assert abs(n2 - explicit) <= 4 * math.ulp(max(explicit, 1e-300))
    prod = q * q.conjugate()
    assert abs(prod.w - n2) <= 4 * math.ulp(max(n2, 1e-300))
    assert prod.vector_norm() <= 4 * math.ulp(max(n2, 1e-300))


@given(small_quaternions, small_quaternions)
def test_norm_is_multiplicative(a, b):
    lhs = (a * b).norm()
    rhs = a.norm() * b.norm()
    assert abs(lhs - rhs) <= 1e-12 * max(rhs, 1.0)


@given(small_quaternions, small_quaternions)
def test_conjugate_antihomomorphism(a, b):
    lhs = (a * b).conjugate()
    rhs = b.conjugate() * a.conjugate()
    assert qdist(lhs, rhs) <= 1e-12 * max(lhs.norm(), 1.0)


@given(small_quaternions, small_quaternions, small_quaternions)
def test_associativity_and_distributivity(a, b, c):
    scale = max(a.norm() * b.norm() * c.norm(), 1.0)
    assert qdist((a * b) * c, a * (b * c)) <= 1e-12 * scale
    assert qdist(a * (b + c), a * b + a * c) <= 1e-12 * scale


def test_inverse_examples():
    assert ONE.inverse() == ONE
    assert E1.inverse() == -E1
    # oracle: conj(q)/|q|^2, then confirm the product really is 1
    q = ONE + E2
    expected = q.conjugate() / q.norm_sq()
    assert qdist(q.inverse(), expected) == 0.0
    assert qdist(q * q.inverse(), ONE) < 1e-13


def test_inverse_of_zero_rejected():
    with pytest.raises(DomainError):
        Quaternion().inverse()


def test_slice_decompose_examples():
    sp = slice_decompose(ONE + E1)
    assert (sp.x, sp.y) == (1.0, 1.0)
    assert sp.axis == E1

    sp = slice_decompose(Quaternion(2.0))
    assert (sp.x, sp.y, sp.arg, sp.mod) == (2.0, 0.0, 0.0, 2.0)
    assert sp.axis == E1  # conventional axis at real points

    # oracle: |vector part| by component norm
    sp = slice_decompose(E1 + E2)
    assert sp.x == 0.0
    assert abs(sp.y - math.sqrt(2.0)) < 1e-15
    assert qdist(sp.axis, (E1 + E2) / math.sqrt(2.0)) < 1e-15


@given(quaternions)
@example(Quaternion(0.0, 0.0, 0.0, 1.6515938958392981e-158))  # z*z is subnormal
@example(Quaternion(0.0, 0.0, 2.2250738585e-313, 2.2250738585e-313))  # |v| is subnormal
def test_slice_decompose_reconstructs(q):
    sp = slice_decompose(q)
    back = Quaternion(sp.x) + sp.axis * sp.y
    assert qdist(back, q) <= 1e-14 * max(q.norm(), 1.0)
    if sp.y > 0:
        assert abs(sp.axis.norm() - 1.0) <= 1e-14
    assert -math.pi < sp.arg <= math.pi


def test_principal_power_examples():
    assert qdist(principal_power(Quaternion(4.0), 0.5), Quaternion(2.0)) < 1e-15
    # oracle: complex principal power exp(alpha(ln|z| + i Arg z)) in C(e1)
    expected = embed_complex(np.exp(0.5 * (np.log(1.0) + 1j * np.pi / 2)), E1)
    assert qdist(principal_power(E1, 0.5), expected) < 1e-15
    assert qdist(expected, (ONE + E1) * (math.sqrt(2.0) / 2.0)) < 1e-15


@given(small_quaternions)
def test_principal_power_beta_one_is_identity(q):
    if q.vector_norm() == 0.0 and q.w <= 0.0:
        return
    assert qdist(principal_power(q, 1.0), q) <= 1e-13 * max(q.norm(), 1.0)


@pytest.mark.parametrize("m", [2, 3, 5])
def test_principal_power_integer_matches_repeated_mul(rng, m):
    for _ in range(20):
        q = Quaternion(*rng.standard_normal(4))
        if q.vector_norm() == 0.0 and q.w <= 0.0:
            continue
        power = principal_power(q, float(m))
        repeated = ONE
        for _ in range(m):
            repeated = repeated * q
        assert qdist(power, repeated) <= 1e-12 * max(repeated.norm(), 1.0)


def test_principal_power_branch_cut_rejected():
    with pytest.raises(BranchError):
        principal_power(Quaternion(-1.0), 0.5)
    with pytest.raises(BranchError):
        principal_power(Quaternion(), 0.5)


@pytest.mark.parametrize("q", [Quaternion(math.nan), Quaternion(math.inf),
                               Quaternion(0.5, math.nan, 0.0, 0.0),
                               Quaternion(0.0, 0.0, -math.inf, 0.0),
                               Quaternion(0.3, 0.1, 0.2, math.inf)])
def test_principal_power_rejects_a_non_finite_quaternion(q):
    with pytest.raises(DomainError):
        principal_power(q, 0.5)


def test_principal_power_of_a_modulus_beyond_the_float_range():
    # x + y i = 1.5e308 (1 + i) has |x + y i| beyond the float range: the
    # power was inf+nanj there; on the slice it is principal_power_c's value
    mpmath = pytest.importorskip("mpmath")
    for q, axis in ((Quaternion(1.5e308, 1.5e308, 0.0, 0.0), E1),
                    (Quaternion(-1.5e308, 0.0, 0.0, -1.5e308), -E3)):
        sp = slice_decompose(q)
        assert sp.axis == axis
        with mpmath.workdps(40):
            c = complex(mpmath.mpc(sp.x, sp.y) ** 0.5)
        # the stated bound 4 u |c| (1 + alpha (log|z| + pi)) of the power
        log_r = math.log(1.5e308) + 0.5 * math.log(2.0)
        bound = 4.0 * 2.0 ** -53 * abs(c) * (1.0 + 0.5 * (log_r + math.pi))
        assert qdist(principal_power(q, 0.5), embed_complex(c, axis)) <= bound
        assert math.isclose(abs(c), 1.4565e154, rel_tol=1e-4)


def test_truncated_exp_examples():
    q = Quaternion(0.3, 0.1, -0.2, 0.4)
    assert truncated_exp(q, 0) == ONE
    t_alpha = 0.7
    assert qdist(truncated_exp(Quaternion(t_alpha), 1),
                 Quaternion(1.0 + t_alpha)) == 0.0
    assert truncated_exp(Quaternion(), 7) == ONE
    assert truncated_exp(Quaternion(), INF) == ONE


def test_truncated_exp_infinite_order_matches_series():
    q = Quaternion(0.2, 0.3, -0.1, 0.15)
    closed = truncated_exp(q, INF)
    assert qdist(closed, truncated_exp(q, 40)) < 1e-15


def test_truncated_exp_euler_identity():
    assert qdist(truncated_exp(E1 * math.pi, INF), -ONE) < 1e-14


def test_truncated_exp_order_validation():
    with pytest.raises(DomainError):
        truncated_exp(ONE, -1)
    with pytest.raises(DomainError):
        truncated_exp(ONE, 1.5)


def test_truncated_exp_huge_order_stops_early():
    # the complex sum's early stop: 10**200 terms cost what 200 do
    q = Quaternion(0.3, 0.1, -0.2, 0.4)
    assert truncated_exp(q, 10 ** 200) == truncated_exp(q, 200)


def test_intrinsic_functions_are_slice_reductions_bit_for_bit(rng):
    # e_k and q**beta at q = x + y I are the complex functions at x + y i
    # placed on I; one draw has a subnormal imaginary part
    qs = [Quaternion(*rng.standard_normal(4)) for _ in range(30)]
    qs += [Quaternion(0.4, 3e-320, -1e-321, 0.0), Quaternion(0.3), Quaternion(-0.6, 0.0, 0.2)]

    def bits(value):
        return np.array(value.components).tobytes()

    for q in qs:
        sp = slice_decompose(q)
        z = complex(sp.x, sp.y)
        for k in (0, 1, 3, 40, INF):
            assert bits(truncated_exp(q, k)) == bits(embed_complex(truncated_exp_c(z, k),
                                                                   sp.axis))
        for beta in (0.5, 1.0, 2.0, 0.3):
            assert bits(principal_power(q, beta)) == bits(
                embed_complex(principal_power_c(z, beta), sp.axis))


@pytest.mark.parametrize("k", [1, 2, 5, 9])
def test_series_derivative_drops_order_exactly(k):
    # coefficients 1/n! in exact rational arithmetic: the derivative of the
    # order-k sum is the order-(k-1) sum, term by term
    coeffs = [Fraction(1, math.factorial(n)) for n in range(k + 1)]
    derived = [n * c for n, c in enumerate(coeffs)][1:]
    expected = [Fraction(1, math.factorial(n)) for n in range(k)]
    assert derived == expected


def test_slice_frame_invariants():
    rng = np.random.default_rng(7)
    for _ in range(10):
        fr = random_frame(rng)
        assert qdist(fr.i * fr.i, -ONE) <= 1e-14
        assert qdist(fr.j * fr.j, -ONE) <= 1e-14
        assert abs((fr.i * fr.j.conjugate()).w) <= 1e-14


def test_slice_frame_rejects_bad_axes():
    with pytest.raises(FrameError):
        SliceFrame(Quaternion(1.0), E2)  # not imaginary
    with pytest.raises(FrameError):
        SliceFrame(E1, E1)  # not orthogonal
    with pytest.raises(FrameError):
        SliceFrame(E1 * 2.0, E2)  # not unit


def test_frame_coordinates_round_trip(rng):
    for _ in range(10):
        fr = random_frame(rng)
        q = Quaternion(*rng.standard_normal(4))
        c1, c2 = frame_coords(q, fr)
        assert qdist(frame_embed(c1, c2, fr), q) < 1e-14 * max(q.norm(), 1.0)


def test_frame_coordinates_of_component_arrays(rng):
    fr = random_frame(rng)
    qs = [Quaternion(*rng.standard_normal(4)) for _ in range(6)]
    c1, c2 = frame_coords(np.array([q.components for q in qs]), fr)
    for q, u, v in zip(qs, c1, c2):
        # oracle: the inner products with the basis 1, i, j, i*j
        assert abs(u - complex(dot4(q, ONE), dot4(q, fr.i))) <= 1e-15 * q.norm()
        assert abs(v - complex(dot4(q, fr.j), dot4(q, fr.i * fr.j))) <= 1e-15 * q.norm()
    back = frame_embed(c1, c2, fr)
    assert back.shape == (6, 4)
    assert np.max(np.abs(back - [q.components for q in qs])) <= 1e-14
