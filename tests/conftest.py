import numpy as np
import pytest

from ffq import Quaternion


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def random_quaternion(rng, scale=1.0):
    return Quaternion(*(scale * rng.standard_normal(4)))


def qdist(a, b):
    return (a - b).norm()


def outcome(fn, *args):
    """fn(*args), or the class and message of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the class is what is compared
        return type(exc), str(exc)


@pytest.fixture
def no_quadrature(monkeypatch):
    """Make the coefficient-table and disk quadratures of ff_complex raise."""
    import ffq.ff_complex

    def refuse(*args, **kwargs):
        raise AssertionError("quadrature ran")

    monkeypatch.setattr(ffq.ff_complex, "_matrix_estimate", refuse)
    monkeypatch.setattr(ffq.ff_complex, "integrate_disk", refuse)
