import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "compare_trees.py"
_spec = importlib.util.spec_from_file_location("compare_trees", _PATH)
compare_trees = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_trees)


def _row(suite, **fields):
    return {"suite": suite, "status": "pass", **fields}


def test_rows_report_status_changes_and_moves_values_apart_from_residuals():
    old = [_row("norms", alpha=0.3, f="z", quadrature=2.0, rel_diff=1e-15),
           _row("norms", alpha=0.7, f="z", quadrature=4.0, rel_diff=0.0),
           _row("kernel", residual=1e-15)]
    new = [_row("norms", alpha=0.3, f="z", quadrature=2.0, rel_diff=1e-15),
           _row("norms", alpha=0.7, f="z", quadrature=4.0 + 4e-15, rel_diff=3e-16),
           dict(_row("kernel", residual=3e-15), status="fail")]
    report = compare_trees.compare_rows(old, new)
    norms, kernel = report["norms"], report["kernel"]
    assert norms["rows"] == [2, 2] and norms["identical"] == 1
    assert norms["status_changes"] == []
    move = norms["values"]["quadrature"]
    assert move["rel"] == pytest.approx(1e-15) and move["row"] == 1
    assert "alpha=0.7" in move["label"]
    # a residual that was zero moves by any factor, and is kept apart
    assert norms["residuals"]["rel_diff"]["rel"] == float("inf")
    assert norms["values"]["alpha"]["rel"] == 0.0
    assert kernel["status_changes"] == [{"row": 0, "label": "", "parent": "pass",
                                         "change": "fail"}]
    assert kernel["residuals"]["residual"]["rel"] == pytest.approx(2.0)


def test_demo_lines_sort_values_from_residuals():
    old = "norm 1.0000000000000002\nsigma=0.6: residual 1.67e-16\nimag (2.0+9.1e-35j)\nsame 3\n"
    new = "norm 1.0000000000000004\nsigma=0.6: residual 2.00e-16\nimag (2.0-9.7e-35j)\nsame 3\n"
    e = compare_trees.compare_demo(old, new)
    assert e["lines"] == [4, 4] and e["changed"] == 3
    assert e["values"]["parent"] == "1.0000000000000002"
    # the residual line and the number below 1e-12 are both residuals; the
    # larger relative move of the two is the tiny imaginary part
    assert e["residuals"]["parent"] == "+9.1e-35"
