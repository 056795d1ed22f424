import math
from dataclasses import replace

import numpy as np
import pytest

from ffq import (DomainError, NoConvergence, QuadratureSpec, build_slit_path,
                 in_slit_disk, integrate_disk, path_integral)
from ffq import quadrature
from ffq.quadrature import DEFAULT_SPEC, _path_rule, _polar_blocks
from ffq.verify import DIVERGENCE_SPEC, NESTED_SPEC


def test_disk_area():
    res = integrate_disk(lambda z: np.ones_like(z, dtype=float))
    assert abs(res.value - math.pi) < 1e-12


def test_disk_radial_moment():
    # oracle: int r^3 dr * 2 pi = pi / 2
    res = integrate_disk(lambda z: np.abs(z) ** 2)
    assert abs(res.value - math.pi / 2.0) < 1e-12


@pytest.mark.parametrize("spec", [DEFAULT_SPEC, NESTED_SPEC])
@pytest.mark.parametrize("height", [1, 4])
def test_polar_block_nodes_are_the_nodewise_product(spec, height):
    # the nodes an integrand of `height` rows is handed are rb e^{i tn}, ring
    # by ring, bit for bit, and the integrand may not write to them
    for level in range(3):
        seen = []

        def stack(z):
            seen.append(z)
            return np.ones((height, len(z)))
        quadrature._polar_estimate(stack, spec, level)
        blocks = list(_polar_blocks(spec, level))
        assert len(seen) == len(blocks)
        for z, (rb, tn, _, _) in zip(seen, blocks):
            assert z.tobytes() == (rb[:, None] * np.exp(1j * tn)).ravel().tobytes()
            assert not z.flags.writeable


@pytest.mark.parametrize("spec", [DEFAULT_SPEC, NESTED_SPEC])
@pytest.mark.parametrize("height", [1, 4, 81])
def test_polar_blocks_are_capped_slices_of_the_tensor_rule(spec, height, monkeypatch):
    # an integrand sees the same blocks however many rows its stack has
    for level in range(3):
        seen = []

        def stack(z):
            seen.append(z)
            return np.ones((height, len(z)))
        quadrature._polar_estimate(stack, spec, level)
        blocks = list(_polar_blocks(spec, level))
        assert [z.tobytes() for z in seen] == [b.z.tobytes() for b in blocks]
        row = (spec.ntheta * spec.panels_theta) << level
        for rb, tn, z, w in blocks:
            assert len(z) == len(w) == len(rb) * row <= quadrature._BLOCK_NODES
            assert tn.tobytes() == blocks[0].tn.tobytes() and len(tn) == row
        with monkeypatch.context() as m:
            m.setattr(quadrature, "_BLOCK_NODES", 1 << 40)
            (whole,) = _polar_blocks(spec, level)
        assert whole.tn.tobytes() == blocks[0].tn.tobytes()
        for field in ("rb", "z", "w"):
            got = np.concatenate([getattr(b, field) for b in blocks])
            assert got.tobytes() == getattr(whole, field).tobytes()


def test_a_radial_row_above_the_cap_is_a_block_of_its_own():
    spec = QuadratureSpec(nr=4, ntheta=64, panels_r=1, panels_theta=512, max_refine=1)
    for level in range(2):
        row = (64 * 512) << level
        assert row > quadrature._BLOCK_NODES
        blocks = list(_polar_blocks(spec, level))
        assert len(blocks) == 4 << level
        for rb, tn, z, _ in blocks:
            assert len(rb) == 1 and len(tn) == len(z) == row


def test_block_weights_and_powers_are_the_per_node_formulas():
    # ring_weights and power read the rows; per node they are w r**b and
    # r**a e^{i a t} bit for bit, and power(1) is z itself
    for level in range(2):
        for block in _polar_blocks(NESTED_SPEC, level):
            r = np.repeat(block.rb, len(block.tn))
            t = np.tile(block.tn, len(block.rb))
            for b in (1.0, 2.4):
                assert (block.ring_weights(block.rb ** b).tobytes()
                        == (block.w * r ** b).tobytes())
            for a in (0.3, 0.7):
                assert block.power(a).tobytes() == (r ** a * np.exp(1j * a * t)).tobytes()
            assert block.power(1.0).tobytes() == block.z.tobytes()


def _in_open_rule_range(block):
    return (np.all((block.rb > 0.0) & (block.rb < 1.0))
            and np.all((block.tn > -math.pi) & (block.tn < math.pi)))


@pytest.mark.parametrize("spec", [DEFAULT_SPEC, NESTED_SPEC, DIVERGENCE_SPEC],
                         ids=["default", "nested", "divergence"])
def test_every_rule_node_of_the_first_levels_is_in_the_slit_disk(spec):
    # what lets the rule's nodes skip the slit-disk check of user input
    for level in range(4):
        for block in _polar_blocks(spec, level):
            assert _in_open_rule_range(block)
            assert np.all(in_slit_disk(block.z))


# specs at the node budget: square, ring-heavy and angle-heavy finest levels
_BUDGET_SPECS = [replace(DEFAULT_SPEC, max_refine=6),
                 QuadratureSpec(nr=64, ntheta=4, panels_r=1024, panels_theta=1, max_refine=4),
                 QuadratureSpec(nr=4, ntheta=64, panels_r=1, panels_theta=1024, max_refine=4)]


@pytest.mark.parametrize("spec", _BUDGET_SPECS, ids=["square", "rings", "angles"])
def test_extreme_rule_rows_at_the_node_budget_are_in_the_slit_disk(spec):
    # the finest level a spec may ask for: every ring's angles nearest +-pi,
    # and every node of the ring of largest radius
    level = spec.max_refine
    rings = (spec.nr * spec.panels_r) << level
    angles = (spec.ntheta * spec.panels_theta) << level
    assert rings * angles == quadrature.MAX_FINEST_NODES
    with pytest.raises(DomainError):
        replace(spec, max_refine=level + 1)
    seen = 0
    for block in _polar_blocks(spec, level):
        assert _in_open_rule_range(block)
        grid = block.z.reshape(len(block.rb), -1)
        assert np.all(in_slit_disk(grid[:, [0, -1]]))
        seen += len(block.rb)
    assert seen == rings
    assert np.all(in_slit_disk(grid[-1]))


def test_disk_odd_symmetry():
    res = integrate_disk(lambda z: z)
    assert abs(res.value) < 1e-13


@pytest.mark.parametrize("n", range(4))
@pytest.mark.parametrize("m", range(4))
def test_monomial_family(n, m):
    res = integrate_disk(lambda z: z ** n * np.conj(z) ** m)
    expected = 2.0 * math.pi / (n + m + 2.0) if n == m else 0.0
    assert abs(res.value - expected) <= 1e-9 * max(abs(expected), 1.0)
    # the reported error bounds the true error on this family
    assert abs(res.value - expected) <= max(res.error, 1e-13)


def test_refinement_is_monotone_for_divergent_integrand():
    spec = QuadratureSpec(max_refine=4)
    estimates = []
    for cap in range(1, 5):
        try:
            integrate_disk(lambda z: 1.0 / np.abs(1 + z) ** 2,
                           QuadratureSpec(max_refine=cap))
        except NoConvergence as exc:
            estimates.append(exc.value)
    assert all(b > a for a, b in zip(estimates, estimates[1:]))
    # logarithmic signature: near-constant increment per panel doubling
    increments = [b - a for a, b in zip(estimates, estimates[1:])]
    assert all(inc > 1.0 for inc in increments)
    with pytest.raises(NoConvergence):
        integrate_disk(lambda z: 1.0 / np.abs(1 + z) ** 2, spec)


def test_no_convergence_carries_each_entrys_change():
    from ffq.verify import DIVERGENCE_SPEC
    tol = DIVERGENCE_SPEC.rel_tol
    with pytest.raises(NoConvergence) as info:
        integrate_disk(lambda z: np.stack([np.ones(z.shape), 1.0 / np.abs(1 + z) ** 2]),
                       DIVERGENCE_SPEC)
    exc = info.value
    assert exc.changes.shape == exc.value.shape == (2,)
    assert exc.changes[0] <= tol * abs(exc.value[0])
    assert exc.changes[1] > 10.0 * tol * abs(exc.value[1])
    assert type(exc.error) is float and exc.error == max(exc.changes)


def test_batched_integrands_integrate_entrywise():
    res = integrate_disk(lambda z: np.stack([np.ones_like(z, dtype=float),
                                             np.abs(z) ** 2]))
    assert np.allclose(res.value, [math.pi, math.pi / 2.0], atol=1e-11)


def test_build_slit_path_examples():
    p = build_slit_path(0.75)
    assert len(p.segments) == 1
    assert p.segments[0].point(0.0) == 0.5 and p.segments[0].point(1.0) == 0.75

    p = build_slit_path(0.5j)
    assert len(p.segments) == 1  # radial piece degenerate, quarter arc only

    p = build_slit_path(0.6 * np.exp(3j))
    assert len(p.segments) == 2
    nodes, _ = _path_rule(p, DEFAULT_SPEC, 0)
    assert np.all(in_slit_disk(nodes))
    assert np.max(np.abs(np.angle(nodes))) < math.pi


def test_build_slit_path_rejects_bad_points():
    for z in (0.0, -0.25, 1.5, -1.0 + 0j):
        with pytest.raises(DomainError):
            build_slit_path(z)


def test_path_integral_examples():
    res = path_integral(lambda w: np.ones_like(w), build_slit_path(0.75))
    assert abs(res.value - 0.25) < 1e-14

    # exact one-forms are path independent: both constructions integrate
    # 2w to z^2 - 1/4
    for z in (0.3 + 0.4j, 0.7 * np.exp(-2.5j), 0.12):
        expected = z * z - 0.25
        for arc_first in (False, True):
            res = path_integral(lambda w: 2.0 * w,
                                build_slit_path(z, arc_first=arc_first))
            assert abs(res.value - expected) < 1e-12


def test_path_independence_for_polynomial_derivatives(rng):
    coeffs = rng.standard_normal(5) + 1j * rng.standard_normal(5)

    def deriv(w):
        return sum((n + 1) * coeffs[n + 1] * w ** n for n in range(4))

    z = 0.62 * np.exp(2.2j)
    a = path_integral(deriv, build_slit_path(z)).value
    b = path_integral(deriv, build_slit_path(z, arc_first=True)).value
    assert abs(a - b) < 1e-10


def test_spec_validation():
    with pytest.raises(DomainError):
        QuadratureSpec(nr=2)
    with pytest.raises(DomainError):
        QuadratureSpec(max_refine=0)
    for bad in ({"rel_tol": math.nan}, {"rel_tol": 0.0}, {"rel_tol": math.inf},
                {"abs_tol": -1e-14}, {"abs_tol": math.nan},
                {"panels_r": 0}, {"panels_theta": -3}):
        with pytest.raises(DomainError):
            QuadratureSpec(**bad)
    QuadratureSpec(abs_tol=0.0)


@pytest.mark.parametrize("field, value", [
    ("nr", 32.5), ("ntheta", 32.0), ("panels_r", "4"), ("panels_theta", None),
    ("max_refine", True), ("rel_tol", "1e-9"), ("abs_tol", 1e-14j), ("abs_tol", True),
])
def test_spec_fields_of_the_wrong_type_raise_a_domain_error_naming_them(field, value):
    with pytest.raises(DomainError, match=field):
        QuadratureSpec(**{field: value})


def test_spec_accepts_numpy_numbers():
    spec = QuadratureSpec(nr=np.int64(16), rel_tol=np.float64(1e-8), abs_tol=0)
    assert (spec.nr, spec.rel_tol, spec.abs_tol) == (16, 1e-8, 0)


def test_spec_node_budget():
    from ffq.quadrature import DEFAULT_SPEC, MAX_FINEST_NODES
    from ffq.verify import DIVERGENCE_SPEC, NESTED_SPEC

    def finest(spec):
        return (spec.nr * spec.panels_r * spec.ntheta * spec.panels_theta
                * 4 ** spec.max_refine)

    for spec in (DEFAULT_SPEC, NESTED_SPEC, DIVERGENCE_SPEC,
                 QuadratureSpec(max_refine=6)):
        assert finest(spec) <= MAX_FINEST_NODES
    for bad in ({"max_refine": 7}, {"max_refine": 40}, {"max_refine": 10 ** 18},
                {"nr": 64, "max_refine": 6}, {"panels_theta": 10 ** 9}):
        with pytest.raises(DomainError, match="budget"):
            QuadratureSpec(**bad)


# r**0.3 meets the tolerance at level 1, the kink at level 4
_EARLY_AND_LATE = (lambda z: np.abs(z) ** 0.3, lambda z: np.abs(z.real - 0.3))
_ROWS_SPEC = QuadratureSpec(nr=8, ntheta=8, panels_r=2, panels_theta=2, rel_tol=1e-4)


def _honouring(rows, evaluated=None):
    """A stacked integrand of the functions rows that forms only the rows
    still open, recording (level nodes, open rows) per block."""
    def integrand(z):
        open_rows = quadrature._open_rows(z)
        idx = range(len(rows)) if open_rows is None else open_rows
        if evaluated is not None:
            evaluated.append((z.size, list(idx)))
        return np.stack([rows[i](z) for i in idx])
    return integrand


def test_stacked_entries_keep_the_value_they_get_alone():
    # in one stack each row keeps its own level's value, whether the
    # integrand forms the open rows only or the whole stack
    spec, rows = _ROWS_SPEC, _EARLY_AND_LATE
    alone = [integrate_disk(g, spec) for g in rows]
    assert [a.refinements for a in alone] == [1, 4]
    for stacked in (integrate_disk(lambda z: np.stack([g(z) for g in rows]), spec),
                    integrate_disk(_honouring(rows), spec)):
        assert stacked.refinements == 4
        assert stacked.error == pytest.approx(max(a.error for a in alone), rel=1e-6)
        for a, v in zip(alone, stacked.value):
            assert abs(v - a.value) <= 1e-15 * abs(a.value)


def test_open_rows_leave_the_refinement_once_converged():
    # a row that converged at level L forms no values at level L + 1:
    # rows x nodes formed are each row's nodes up to its own level
    spec, rows, evaluated = _ROWS_SPEC, _EARLY_AND_LATE, []
    res = integrate_disk(_honouring(rows, evaluated), spec)
    formed = sum(size * len(idx) for size, idx in evaluated)
    level_nodes = [(spec.nr * spec.panels_r * spec.ntheta * spec.panels_theta) << (2 * level)
                   for level in range(5)]
    assert formed == sum(level_nodes[:2]) * 2 + sum(level_nodes[2:])
    assert {tuple(idx) for _, idx in evaluated} == {(0, 1), (1,)}
    assert res.refinements == 4
    # outside an integral, and on any array but the block's own nodes, no
    # rows are published
    assert quadrature._open_rows(np.zeros(3, dtype=complex)) is None


def _old_entrywise(integrand, spec):
    """The entrywise loop as it was: the whole stack at every level, each
    entry holding the value of the first level at which it agreed."""
    prev = quadrature._polar_estimate(integrand, spec, 0)
    held = None
    for level in range(1, spec.max_refine + 1):
        cur = quadrature._polar_estimate(integrand, spec, level)
        diff = np.abs(cur - prev)
        met = diff <= np.maximum(spec.rel_tol * np.abs(cur), spec.abs_tol)
        if held is None:
            value, change, held = cur, diff, met
        else:
            value, change = np.where(held, value, cur), np.where(held, change, diff)
            held = held | met
        if np.all(held):
            return value, float(np.max(change)), level
        prev = cur
    raise AssertionError("the reference did not converge")


def test_integrand_ignoring_open_rows_gets_its_former_values():
    # a user integrand returns the whole stack, a (2, 2) one here; the open
    # entries are taken from it, and every entry keeps the value, change and
    # level the former whole-stack loop gave it
    spec = _ROWS_SPEC
    early, late = _EARLY_AND_LATE

    def integrand(z):
        return np.stack([np.stack([early(z), late(z)]), np.stack([late(z) ** 2, early(z)])])

    value, error, level = _old_entrywise(integrand, spec)
    res = integrate_disk(integrand, spec)
    assert res.value.shape == value.shape == (2, 2)
    assert (res.refinements, res.error) == (level, pytest.approx(error, rel=1e-12))
    assert np.all(np.abs(res.value - value) <= 1e-15 * np.abs(value))


def test_open_rows_keep_each_entry_change_at_the_cap():
    # rows that converged left the refinement, yet NoConvergence carries
    # every entry's own last change, shaped like the stack
    tol = DIVERGENCE_SPEC.rel_tol
    rows = (lambda z: np.ones(z.shape), lambda z: 1.0 / np.abs(1 + z) ** 2,
            lambda z: np.abs(z) ** 2)
    for integrand in (_honouring(rows), lambda z: np.stack([g(z) for g in rows])):
        with pytest.raises(NoConvergence) as info:
            integrate_disk(integrand, DIVERGENCE_SPEC)
        exc = info.value
        assert exc.changes.shape == exc.value.shape == (3,)
        assert exc.changes[0] <= tol * abs(exc.value[0])
        assert exc.changes[2] <= tol * abs(exc.value[2])
        assert exc.changes[1] > 10.0 * tol * abs(exc.value[1])
        assert exc.error == max(exc.changes)


def test_empty_stacks_integrate_to_empty_values():
    for shape in ((0,), (2, 0)):
        res = integrate_disk(lambda z: np.empty(shape + z.shape))
        assert res.value.shape == shape and res.error == 0.0 and res.refinements == 0
