"""The value types as values: hashing consistent with equality, copies and
pickles that rebuild through the constructor, and immutable Quaternions with
float components whichever route builds them."""

import copy
import itertools
import pickle

import numpy as np
import pytest

from ffq import (E1, E2, ONE, CPowerSeries, QPowerSeries, Quaternion,
                 STANDARD_FRAME, SliceFrame, as_quaternion, embed_complex,
                 eval_q, extend_from_slice, frame_embed, principal_power,
                 random_frame, random_unit_imaginary, slice_decompose, split,
                 truncated_exp)


@pytest.mark.parametrize("value", [2.0, 2, -3, 0.0, -0.0, True, 1e300, np.float64(-1.5)])
def test_real_quaternion_hashes_as_its_real_part(value):
    q = Quaternion(value)
    assert q == value
    assert hash(q) == hash(value)
    assert q in {value} and value in {q}


def test_signed_zero_components_hash_alike():
    for base in ((1.5, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 2.0), (0.0, 0.0, 0.0, 0.0)):
        # every sign pattern of the zero components
        variants = [Quaternion(*(-c if flip and c == 0.0 else c for c, flip in zip(base, flips)))
                    for flips in itertools.product((False, True), repeat=4)]
        for a, b in itertools.combinations(variants, 2):
            assert a == b and hash(a) == hash(b)
    assert len({Quaternion(0.0), Quaternion(-0.0, -0.0), 0, 0.0, -0.0}) == 1


def _values():
    frame = random_frame(np.random.default_rng(3))
    f = QPowerSeries([Quaternion(0.5, -1.0, 2.0, 0.25), E1, 3])
    return [Quaternion(0.1, -0.2, 0.3, -0.4), CPowerSeries([1.0, 2 - 1j, -0.5j]),
            CPowerSeries([]), f, QPowerSeries([]), STANDARD_FRAME, frame, split(f, frame)]


def _assert_immutable(v):
    name = "i" if isinstance(v, SliceFrame) else "w" if isinstance(v, Quaternion) else "coeffs"
    with pytest.raises(AttributeError):
        setattr(v, name, 0.0)
    for arr in (getattr(v, "coeffs", None), getattr(v, "parts", None),
                getattr(v, "_matrix", None)):
        if isinstance(arr, np.ndarray):
            with pytest.raises(ValueError):
                arr.flat[0] = 9.0


@pytest.mark.parametrize("route", ["copy", "deepcopy", "pickle"])
@pytest.mark.parametrize("index", range(8))
def test_copies_and_pickles_equal_the_original_and_stay_immutable(route, index):
    v = _values()[index]
    w = {"copy": copy.copy, "deepcopy": copy.deepcopy,
         "pickle": lambda x: pickle.loads(pickle.dumps(x))}[route](v)
    assert type(w) is type(v)
    assert w == v
    for part in ([w] if not hasattr(w, "f1") else [w, w.f1, w.f2, w.frame]):
        _assert_immutable(part)
    if isinstance(v, CPowerSeries):
        assert w(0.3 - 0.2j) == v(0.3 - 0.2j)
    if isinstance(v, SliceFrame):
        assert np.array_equal(w._matrix, v._matrix)


_Q = Quaternion(0.1, -0.2, 0.3, -0.4)
_P = Quaternion(-0.7, 0.5, 0.25, 0.125)
_S = np.float64(1.5)
_FRAME = SliceFrame(E1, E2)
_F = QPowerSeries([_Q, _P, E2])

# every way the library builds a Quaternion, each built when its test runs
ROUTES = {
    "ints": lambda: Quaternion(1, 2, 3, 4), "string": lambda: Quaternion("1.5"),
    "numpy float": lambda: Quaternion(_S, np.float64(2.0)), "bool": lambda: Quaternion(True),
    "numpy int": lambda: Quaternion(np.int64(3)), "as_quaternion": lambda: as_quaternion(3),
    "q + p": lambda: _Q + _P, "q - p": lambda: _Q - _P, "q * p": lambda: _Q * _P,
    "-q": lambda: -_Q, "+q": lambda: +_Q, "conjugate": lambda: _Q.conjugate(),
    "inverse": lambda: _Q.inverse(), "q + s": lambda: _Q + _S, "s + q": lambda: _S + _Q,
    "q - s": lambda: _Q - _S, "s - q": lambda: _S - _Q, "q * s": lambda: _Q * _S,
    "s * q": lambda: _S * _Q, "q / s": lambda: _Q / _S, "q + 1": lambda: _Q + 1,
    "1 - q": lambda: 1 - _Q, "q * 2": lambda: _Q * 2, "2 * q": lambda: 2 * _Q,
    "q / 2": lambda: _Q / 2, "q * True": lambda: _Q * True,
    "axis": lambda: slice_decompose(_Q).axis,
    "embed_complex": lambda: embed_complex(np.complex128(0.5 - 2j), E1),
    "principal_power": lambda: principal_power(_Q, 0.5),
    "truncated_exp": lambda: truncated_exp(_Q, 3), "eval_q": lambda: eval_q(_F, _Q),
    "coeffs": lambda: _F.coeffs[0],
    "frame_embed": lambda: frame_embed(np.complex128(1 + 2j), 3 - 1j, _FRAME),
    "extend_from_slice": lambda: extend_from_slice(split(_F, _FRAME), _Q),
    "random_unit_imaginary": lambda: random_unit_imaginary(np.random.default_rng(5)),
    "frame axis": lambda: random_frame(np.random.default_rng(5)).j,
    "copy": lambda: copy.copy(_Q), "pickle": lambda: pickle.loads(pickle.dumps(_Q)),
}


@pytest.mark.parametrize("route", ROUTES)
def test_every_construction_route_gives_an_immutable_quaternion_of_floats(route):
    q = ROUTES[route]()
    assert type(q) is Quaternion
    assert all(type(c) is float for c in q.components)
    with pytest.raises(AttributeError):
        q.w = 0.0
    with pytest.raises(AttributeError):
        q.extra = 0.0


def test_quaternion_coercion_errors_are_unchanged():
    with pytest.raises(ValueError):
        Quaternion("one")
    with pytest.raises(TypeError):
        Quaternion(1j)
    with pytest.raises(TypeError):
        as_quaternion("1.5")
    assert Quaternion("1.5") == 1.5 and ONE == 1
