"""The tracer's work counts: exact node counts for a known integral, and
identical counts from two traced runs of the same inputs."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from ffq import verify  # noqa: E402
from ffq.errors import NoConvergence  # noqa: E402
from ffq.ff_complex import dirichlet_norm_quad  # noqa: E402
from ffq.ff_real import FFParams  # noqa: E402
from ffq.holo_series import CPowerSeries  # noqa: E402
from ffq.quadrature import QuadratureSpec  # noqa: E402

import workloads  # noqa: E402
from benchenv import child_env  # noqa: E402
from tracing import COUNT_KEYS, Tracer, layer_metrics  # noqa: E402

DEFAULT_LEVEL_NODES = 16384  # (32 * 4) radial x (32 * 4) angular nodes at level 0


def _disk_counts(tracer):
    return tracer.summary()["quadrature.integrate_disk"]


def test_default_spec_disk_integral_counts_every_node():
    f = CPowerSeries([0.0, 1.0])
    with Tracer() as tracer:
        value = dirichlet_norm_quad(f, FFParams(alpha=1.0, sigma=1.0, k=1))
    row = _disk_counts(tracer)
    level = row["levels"]
    assert abs(value.norm_sq - (0.25 + 3.141592653589793)) < 1e-9
    assert row["calls"] == 1 and "nonconverged" not in row
    assert row["nodes"] == DEFAULT_LEVEL_NODES * sum(4 ** n for n in range(level + 1))
    assert (level, row["nodes"]) == (1, 81920)


def test_nonconverged_integral_counts_cap_and_wasted_nodes():
    spec = QuadratureSpec(nr=4, ntheta=4, panels_r=1, panels_theta=1, max_refine=1)
    f = CPowerSeries([1.0, 1.0])
    with Tracer() as tracer:
        with pytest.raises(NoConvergence):
            dirichlet_norm_quad(f, FFParams(alpha=1.0, sigma=0.5, k=2), spec)
    metrics = layer_metrics(tracer.summary())
    assert metrics["quadrature.integrate_disk.nonconverged"] == 1
    assert metrics["quadrature.integrate_disk.levels"] == spec.max_refine
    assert metrics["quadrature.integrate_disk.nodes"] == 16 + 64
    assert metrics["quadrature.integrate_disk.useful_node_share"] == 0.0


def test_install_reaches_every_namespace_and_uninstall_restores():
    import ffq
    import ffq.ff_complex
    originals = (ffq.integrate_disk, ffq.ff_complex.integrate_disk, verify.SUITES["norms"])
    with Tracer():
        assert ffq.integrate_disk is not originals[0]
        assert ffq.ff_complex.integrate_disk is ffq.integrate_disk
        assert verify.SUITES["norms"].__wrapped__ is originals[2]
    assert (ffq.integrate_disk, ffq.ff_complex.integrate_disk, verify.SUITES["norms"]) == originals


def _small_traced_counts():
    """Layer counts of a traced pass over small versions of the workloads."""
    functions = verify.sweep_functions(max_degree=3, n_random=2, seed=5)
    jobs = [
        lambda: verify.norm_agreement(functions=functions, alphas=(0.7,), ks=(2,),
                                      sigmas=(0.5,)),
        lambda: verify.reproducing(n_points=2, seed=5),
        lambda: verify.kernel_reproducing(n_points=1, seed=5),
        lambda: verify.quaternionic_kernel(n_points=1, seed=5),
    ]
    algebra = workloads.make_pass("algebra", 5)
    with Tracer() as tracer:
        for job in jobs:
            job()
        for _, chunks, _ in algebra.jobs:
            for chunk in chunks:
                chunk()
    metrics = layer_metrics(tracer.summary())
    return {name: value for name, value in metrics.items()
            if name.rsplit(".", 1)[-1] in COUNT_KEYS}


def test_two_traced_runs_give_identical_counts():
    first = _small_traced_counts()
    second = _small_traced_counts()
    assert first == second
    for name in ("quadrature.integrate_disk.nodes", "quadrature.path_integral.nodes",
                 "ff_complex.coefficient_integrals.nodes", "ff_complex.kernel_K_half.zetas",
                 "slice_regular.star_product.coeff_products", "quaternion.frame_coords.calls"):
        assert first[name] > 0, name


def test_traced_cli_child_reports_its_spans(tmp_path):
    out = tmp_path / "summary.json"
    name, argv, code = workloads.CLI_LINES[0]
    proc = subprocess.run([sys.executable, str(BENCH / "cli_child.py"), str(out), *argv],
                          cwd=tmp_path, env=child_env(), capture_output=True, text=True,
                          timeout=120)
    assert (name, proc.returncode) == ("norm_anchor", code)
    doc = json.loads(out.read_text())
    summary = doc["summary"]
    assert doc["import_s"] > 0
    assert summary["cli.main"]["calls"] == 1
    assert summary["quadrature.integrate_disk"]["nodes"] == 81920
