import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys

import pytest

import ffq
from ffq.cli import (EXIT_DOMAIN, EXIT_OK, EXIT_PARSE, EXIT_TOLERANCE,
                     JobSpec, canonical_dumps, fmt_float, main)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_jobspec_round_trips_byte_identically():
    job = JobSpec(command="norm", f=[[1.0, 0.0], [0.5, -2.0]], alpha=0.3,
                  sigma=0.8, k=math.inf, method="series", out="x.json")
    text = job.to_json()
    again = JobSpec.from_json(text)
    assert again == job
    assert again.to_json() == text


def test_float_formatting_is_lossless():
    for x in (0.1, math.pi, 1.0 / 3.0, 2.0 ** -52, 1e300):
        assert float(fmt_float(x)) == x


def test_canonical_dumps_sorts_keys():
    assert canonical_dumps({"b": 1, "a": [True, None]}) == '{"a":[true,null],"b":1}'


def test_norm_command(capsys):
    code, out, err = run_cli(
        ["norm", "--f", "[[1,0]]", "--alpha", "1", "--sigma", "0.5", "--k", "1"],
        capsys)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert abs(doc["norm_sq"] - (1.0 + math.pi / 4.0)) < 1e-9
    assert doc["params"]["k"] == 1


def test_norm_series_and_closed_methods_agree(capsys):
    results = {}
    for method in ("quad", "series", "closed-k1"):
        code, out, _ = run_cli(
            ["norm", "--f", "[[0,0],[1,0],[0.5,0.5]]", "--alpha", "0.6",
             "--sigma", "0.3", "--k", "1", "--method", method], capsys)
        assert code == EXIT_OK
        results[method] = json.loads(out)["norm_sq"]
    assert abs(results["quad"] - results["series"]) <= 1e-6 * results["quad"]
    assert abs(results["quad"] - results["closed-k1"]) <= 1e-6 * results["quad"]


def test_deriv_command_matches_hand_value(capsys):
    code, out, _ = run_cli(
        ["deriv", "--f", "[[0,0],[0,0],[1,0]]", "--alpha", "0.5", "--sigma",
         "0.6", "--k", "1", "--z", "[0.25,0]"], capsys)
    assert code == EXIT_OK
    value = json.loads(out)["value"]
    assert abs(value[0] - ((1 - 0.6) / 16 + 0.6 / 2)) < 1e-14


def test_malformed_json_exits_2_with_position(capsys):
    code, out, err = run_cli(["norm", "--f", "[[1,0], oops]"], capsys)
    assert code == EXIT_PARSE
    record = json.loads(err)
    assert record["error"]["type"] == "parse"
    assert isinstance(record["error"]["position"], int)


def test_domain_error_exits_3(capsys):
    code, out, err = run_cli(
        ["norm", "--f", "[[1,0]]", "--alpha", "0"], capsys)
    assert code == EXIT_DOMAIN
    assert json.loads(err)["error"]["type"] == "domain"


def test_divergent_norm_exits_4(capsys):
    code, out, err = run_cli(
        ["norm", "--f", "[[0,0],[1,0]]", "--alpha", "1", "--sigma", "0.5",
         "--k", "2", "--max-refine", "3"], capsys)
    assert code == EXIT_TOLERANCE
    assert json.loads(err)["error"]["type"] == "no_convergence"


def test_table_grid_and_determinism(tmp_path, capsys):
    args = ["table", "--f", "[[0,0],[1,0]]",
            "--alphas", "[0.5,0.8,1.0]", "--sigmas", "[0.2,0.5,0.9]",
            "--ks", '[1,"inf"]', "--format", "csv"]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    code, _, _ = run_cli(args + ["--out", str(out1)], capsys)
    assert code == EXIT_OK
    code, _, _ = run_cli(args + ["--out", str(out2)], capsys)
    assert code == EXIT_OK
    b1 = out1.read_bytes()
    assert b1 == out2.read_bytes()
    lines = b1.decode().strip().split("\n")
    assert len(lines) == 1 + 18  # header + 3*3*2 cells
    assert lines[0].startswith("alpha,sigma,k,")
    assert sum(1 for line in lines[1:] if ",inf," in line) == 9


def test_verify_suite_csv(capsys):
    code, out, _ = run_cli(
        ["verify", "--suite", "anchors", "--format", "csv"], capsys)
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "f,expected,computed,abs_err,status"
    assert all(line.endswith("pass") for line in lines[1:])


def test_qverify_split_suite(capsys):
    code, out, _ = run_cli(["qverify", "--suite", "split"], capsys)
    assert code == EXIT_OK


def test_qnorm_command(capsys):
    code, out, _ = run_cli(
        ["qnorm", "--f", "[[0,0,0,0],[0,0,0,1]]", "--alpha", "0.7",
         "--sigma", "0.3", "--k", "2"], capsys)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["split_parts"][0] == 0.0
    code, out2, _ = run_cli(
        ["norm", "--f", "[[0,0],[1,0]]", "--alpha", "0.7", "--sigma", "0.3",
         "--k", "2"], capsys)
    assert abs(doc["norm_sq"] - json.loads(out2)["norm_sq"]) < 1e-10


def test_inner_product_via_g_flag(capsys):
    # <z^2, z^3> at sigma = 1, alpha = 1, k = 1: the field term vanishes by
    # angular orthogonality, leaving (1/2)^2 (1/2)^3
    code, out, _ = run_cli(
        ["norm", "--f", "[[0,0],[0,0],[1,0]]", "--g",
         "[[0,0],[0,0],[0,0],[1,0]]", "--alpha", "1", "--sigma", "1",
         "--k", "1"], capsys)
    assert code == EXIT_OK
    value = json.loads(out)["inner_product"]
    assert abs(value[0] - 0.5 ** 5) < 1e-10 and abs(value[1]) < 1e-12


def test_real_line_deriv(capsys):
    code, out, _ = run_cli(
        ["deriv", "--real-f", "poly", "--f", "[0, 1]", "--t", "4", "--alpha",
         "1", "--sigma", "1", "--k", "1"], capsys)
    assert code == EXIT_OK
    assert abs(json.loads(out)["value"] - 1.0) < 1e-8


def test_config_defaults(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "defaults.json"
    cfg.write_text(json.dumps({"alpha": 1.0, "sigma": 0.5, "k": 1}))
    monkeypatch.setenv("FFQ_CONFIG", str(cfg))
    code, out, _ = run_cli(["norm", "--f", "[[1,0]]"], capsys)
    assert code == EXIT_OK
    assert abs(json.loads(out)["norm_sq"] - (1.0 + math.pi / 4.0)) < 1e-9


def test_kernel_command(capsys):
    code, out, _ = run_cli(
        ["kernel", "--z", "[0.5,0]", "--zeta", "[0.3,0.1]", "--alpha", "1",
         "--sigma", "0.5", "--k", "1"], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["value"] == [0.0, 0.0]  # empty path at z = 1/2


@pytest.mark.parametrize("argv", [
    ["norm", "--f", "[[1,0]]"],
    ["qnorm", "--f", "[[1,0,0,0]]"],
    ["table", "--f", "[[1,0]]"],
    # the method is checked before the verdict on a norm proven infinite
    ["norm", "--f", "[[1,0],[1,0]]", "--alpha", "1", "--k", "2"],
    ["qnorm", "--f", "[[1,0,0,0],[1,0,0,0]]", "--alpha", "1", "--k", "2"],
    ["table", "--f", "[[1,0],[1,0]]", "--alphas", "[1]", "--ks", "[2]"],
    ["deriv", "--real-f", "exp", "--t", "0.5"],
    ["deriv", "--real-f", "exp", "--t", "0.5", "--sigma", "0"],
    ["qderiv", "--f", "[[1,0,0,0],[0,1,0,0]]", "--z", "[0.3,0.1]"],
    ["qderiv", "--f", "[[1,0,0,0]]", "--z", "[0.3,0.1]", "--beta", "0.5"],
])
def test_unknown_method_exits_2(argv, capsys):
    code, out, err = run_cli(argv + ["--method", "bogus"], capsys)
    assert code == EXIT_PARSE
    assert out == ""
    assert "bogus" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize("argv", [
    ["norm", "--f", "[[1,0]]", "--k", "1.5"],                # ValueError
    ["norm", "--job", '{"command": "norm", "colour": 1}'],   # TypeError
])
def test_errors_while_building_the_job_exit_2(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == EXIT_PARSE
    assert json.loads(err)["error"]["type"] == "parse"


@pytest.mark.parametrize("flag, value", [
    ("--alpha", "abc"),
    ("--quad-nr", "1.5"),
    ("--f", "[[1,0], oops]"),
])
def test_parse_record_names_the_flag(flag, value, capsys):
    code, out, err = run_cli(["norm", "--f", "[[1,0]]", flag, value], capsys)
    assert code == EXIT_PARSE
    assert out == ""
    record = json.loads(err)["error"]
    assert record["type"] == "parse"
    assert record["message"].startswith(flag + ": ")
    if flag == "--f":
        assert (record["position"], record["line"], record["column"]) == (8, 1, 9)


@pytest.mark.parametrize("argv, flag", [
    (["norm", "--f", "[[1,0]]", "--k", "1.5"], "--k"),
    (["table", "--f", "[[1,0]]", "--ks", "[1, 1.5]"], "--ks"),
    (["table", "--f", "[[1,0]]", "--ks", "[true]"], "--ks"),
    (["table", "--f", "[[1,0]]", "--ks", "5"], "--ks"),
])
def test_bad_truncation_order_names_its_flag(argv, flag, capsys):
    # a fractional k in --ks used to be truncated to an integer silently
    code, out, err = run_cli(argv, capsys)
    assert code == EXIT_PARSE
    assert out == ""
    record = json.loads(err)["error"]
    assert record["type"] == "parse"
    assert record["message"].startswith(flag + ": ")


def test_non_finite_poly_coefficient_exits_3(capsys):
    code, out, err = run_cli(["deriv", "--real-f", "poly", "--f", "[[NaN,0]]",
                              "--t", "0.5"], capsys)
    assert code == EXIT_DOMAIN
    assert out == ""
    assert json.loads(err, parse_constant=_reject_constant)["error"]["type"] == "domain"


def test_non_finite_result_exits_3(capsys):
    # the result overflows to a non-finite float; it used to exit 2 from the
    # JSON encoder with a parse record
    code, out, err = run_cli(["deriv", "--real-f", "poly",
                              "--f", "[[1e300,0],[1e300,0]]", "--t", "1e300",
                              "--alpha", "1", "--sigma", "0.5", "--k", "1"],
                             capsys)
    assert code == EXIT_DOMAIN
    assert out == ""
    assert json.loads(err, parse_constant=_reject_constant)["error"]["type"] == "domain"


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_intermediate_overflow_keeps_stderr_empty():
    # e_5(t**0.5) overflows inside numpy on the way to a finite value; its
    # RuntimeWarning must not reach stderr, which only error records use
    # (pytest captures warnings in-process, hence the child process)
    src = os.path.dirname(os.path.dirname(ffq.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "ffq.cli", "deriv", "--real-f", "poly",
         "--f", "[[1,0],[0.5,0]]", "--t", "1e200", "--k", "5",
         "--alpha", "0.5", "--sigma", "0.5"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == EXIT_OK
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["value"] == 2.5e199


@pytest.mark.parametrize("method", ["direct", "split"])
def test_qderiv_order_zero_exits_3_on_both_routes(method, capsys):
    code, out, err = run_cli(["qderiv", "--f", "[[1,0,0,0]]", "--z", "[0.3,0]",
                              "--sigma", "0", "--k", "0", "--method", method],
                             capsys)
    assert code == EXIT_DOMAIN
    assert out == ""
    assert "k >= 1" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize("series", [
    "[[NaN,0]]",        # non-finite coefficient
    "[[Infinity,0]]",   # non-finite coefficient
    "{}",               # not a list
    "[[1e200,0]]",      # overflows while running
])
def test_hostile_series_exit_2_or_3_with_strict_json(series, capsys):
    code, out, err = run_cli(["norm", "--f", series], capsys)
    assert code in (EXIT_PARSE, EXIT_DOMAIN)
    assert out == ""
    assert "error" in json.loads(err, parse_constant=_reject_constant)


@pytest.mark.parametrize("flag, value", [
    ("--rel-tol", "nan"),
    ("--rel-tol", "-1"),
    ("--quad-panels-r", "0"),
    ("--quad-panels-r", "-3"),
    ("--abs-tol", "-1"),
])
def test_bad_quadrature_spec_exits_3_with_strict_json(flag, value, capsys):
    code, out, err = run_cli(["norm", "--f", "[[1,0]]", flag, value], capsys)
    assert code == EXIT_DOMAIN
    assert out == ""
    assert json.loads(err, parse_constant=_reject_constant)["error"]["type"] == "domain"


@pytest.mark.parametrize("quad, field", [({"nr": 32.5}, "nr"),
                                         ({"rel_tol": "1e-9"}, "rel_tol"),
                                         ({"max_refine": True}, "max_refine")])
def test_quadrature_field_of_the_wrong_type_exits_3_naming_it(quad, field, capsys):
    job = json.dumps({"command": "norm", "f": [[1, 0]], "quad": quad})
    code, out, err = run_cli(["norm", "--job", job], capsys)
    assert code == EXIT_DOMAIN
    assert out == ""
    record = json.loads(err, parse_constant=_reject_constant)["error"]
    assert record["type"] == "domain" and field in record["message"]


def test_subnormal_deriv_point_gives_a_finite_value(capsys):
    code, out, err = run_cli(["deriv", "--f", "[[1,0],[1,0]]", "--z", "[1e-310,1e-310]",
                              "--alpha", "0.5"], capsys)
    assert code == EXIT_OK and err == ""
    value = json.loads(out, parse_constant=_reject_constant)["value"]
    assert all(map(math.isfinite, value))


def test_error_record_writes_non_finite_floats_as_strings(capsys):
    from ffq.cli import _error_record
    _error_record("no_convergence", ValueError("x"), change=math.nan, value=math.inf)
    record = json.loads(capsys.readouterr().err, parse_constant=_reject_constant)
    assert record["error"]["change"] == "nan"
    assert record["error"]["value"] == "inf"


@pytest.mark.parametrize("method", ["quad", "series"])
def test_divergent_cell_is_decided_without_quadrature(method, no_quadrature, capsys):
    code, out, err = run_cli(["norm", "--f", "[[1,0],[1,0]]", "--alpha", "1",
                              "--k", "2", "--method", method], capsys)
    assert code == EXIT_TOLERANCE
    assert out == ""
    record = json.loads(err, parse_constant=_reject_constant)
    assert record["error"]["type"] == "no_convergence"
    # one rule, with one message, decides an infinite norm on every method
    assert record["error"]["message"].startswith("the norm diverges")
    assert "z = -1" in record["error"]["message"]


def test_series_norm_of_a_constant_at_the_divergent_member(no_quadrature, capsys):
    want = 1.0 + math.pi / 4.0
    for command, f in (("norm", "[[1,0]]"), ("qnorm", "[[1,0,0,0]]")):
        code, out, err = run_cli([command, "--f", f, "--alpha", "1", "--k", "2",
                                  "--method", "series"], capsys)
        assert code == EXIT_OK, err
        assert abs(json.loads(out)["norm_sq"] - want) <= 1e-12 * want


def test_norm_with_vanishing_derivative_at_minus_one_is_integrated(capsys):
    # f = 2z + z**2 has f'(-1) = 0, so D f is a polynomial at (alpha=1, k=2)
    code, out, err = run_cli(["norm", "--f", "[[0,0],[2,0],[1,0]]", "--alpha", "1",
                              "--k", "2"], capsys)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["method"] == "quad"
    # D f = 1 + z + z**2 / 2: |f(1/2)|**2 + pi (1 + 1/2 + 1/12)
    assert abs(doc["norm_sq"] - (1.5625 + 19.0 * math.pi / 12.0)) < 1e-9


def test_series_method_exits_3_on_a_finite_norm_at_the_vanishing_cell(
        no_quadrature, capsys):
    # f = 2z + z**2 has f'(-1) = 0: its norm is finite at (alpha=1, k=2),
    # which quad computes, but no coefficient table exists there for the
    # series method
    for argv in (["norm", "--f", "[[0,0],[2,0],[1,0]]"],
                 ["qnorm", "--f", "[[0,0,0,0],[2,0,0,0],[1,0,0,0]]"]):
        code, out, err = run_cli(argv + ["--alpha", "1", "--k", "2",
                                         "--method", "series"], capsys)
        assert code == EXIT_DOMAIN
        assert out == ""
        record = json.loads(err, parse_constant=_reject_constant)["error"]
        assert record["type"] == "domain"
        assert "quad" in record["message"]


def test_divergent_cell_record_has_null_value_and_change(no_quadrature, capsys):
    code, out, err = run_cli(["norm", "--f", "[[1,0],[1,0]]", "--alpha", "1",
                              "--k", "2"], capsys)
    assert code == EXIT_TOLERANCE
    record = json.loads(err, parse_constant=_reject_constant)["error"]
    assert record["type"] == "no_convergence"
    assert record["value"] is None and record["change"] is None


# a coarse rule that cannot meet rel_tol 1e-300 in one refinement
_CAPPED = ["--rel-tol", "1e-300", "--abs-tol", "0", "--max-refine", "1",
           "--quad-nr", "4", "--quad-ntheta", "4", "--quad-panels-r", "1",
           "--quad-panels-theta", "1"]


def test_table_tells_a_capped_cell_from_a_divergent_one(capsys):
    code, out, _ = run_cli(["table", "--f", "[[0,0],[1,0]]", "--alphas", "[0.5,1.0]",
                            "--ks", "[1,2]"] + _CAPPED, capsys)
    assert code == EXIT_TOLERANCE
    statuses = {(row["alpha"], row["k"]): row["status"] for row in json.loads(out)}
    assert statuses == {(0.5, 1): "no_convergence", (0.5, 2): "no_convergence",
                        (1.0, 1): "no_convergence", (1.0, 2): "divergent"}
    # a norm proven infinite is a finding, not a failure
    code, out, _ = run_cli(["table", "--f", "[[0,0],[1,0]]", "--alphas", "[1.0]",
                            "--ks", "[2]"] + _CAPPED, capsys)
    assert code == EXIT_OK
    assert [row["status"] for row in json.loads(out)] == ["divergent"]


_SWEEP = ["table", "--f", "[[0,0],[1,0]]", "--alphas", "[0.5,1]", "--ks", "[1,2]",
          "--sigmas", "[0,0.5]"]


@pytest.mark.parametrize("method, extra, statuses", [
    # f = z at sigma = 0 has D f = f, a finite norm at (alpha=1, k=2) where
    # no coefficient table exists; at sigma = 0.5 that norm diverges
    ("series", [], ["ok"] * 5 + ["domain", "ok", "divergent"]),
    ("closed-k1", [], ["ok", "domain"] * 3 + ["ok", "divergent"]),
    # a domain row outranks a no_convergence row in the exit code: the
    # capped rule integrates the k = 2 tables at alpha < 1, while the k = 1
    # tables are exact sums that no quadrature setting reaches
    ("series", _CAPPED, ["ok", "no_convergence"] * 2
     + ["ok", "domain", "ok", "divergent"]),
])
def test_table_keeps_every_row_when_its_method_cannot_compute_a_cell(
        method, extra, statuses, capsys):
    code, out, err = run_cli(_SWEEP + ["--method", method] + extra, capsys)
    assert code == EXIT_DOMAIN
    assert err == ""
    rows = json.loads(out)
    assert [(row["alpha"], row["sigma"], row["k"]) for row in rows] == [
        (a, s, k) for a in (0.5, 1) for s in (0, 0.5) for k in (1, 2)]
    assert [row["status"] for row in rows] == statuses
    f = ffq.CPowerSeries([0, 1])
    for row in rows:
        if row["status"] == "ok":
            p = ffq.FFParams(alpha=row["alpha"], sigma=row["sigma"], k=row["k"])
            assert row["norm_sq"] == ffq.dirichlet_norm(f, p, None, method).norm_sq
        else:
            assert row["norm_sq"] == row["point_term"] == row["field_term"] == ""
        # a domain row says which method computes its cell; no other row has a reason
        if row["status"] == "domain":
            assert "use method" in row["reason"] and "quad" in row["reason"]
        else:
            assert row["reason"] == ""


def test_table_csv_keeps_the_domain_reason(capsys):
    code, out, _ = run_cli(_SWEEP + ["--method", "series", "--format", "csv"], capsys)
    assert code == EXIT_DOMAIN
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [row["status"] for row in rows].count("domain") == 1
    for row in rows:
        assert (row["reason"] != "") == (row["status"] == "domain")
        assert row["status"] != "domain" or "use method quad" in row["reason"]


@pytest.mark.parametrize("argv", [
    ["norm", "--f", "[[1,2,3]]"],    # a coefficient of three components
    # norms live on the linear (beta = 1) space, on every route
    ["norm", "--f", "[[1,0],[0.5,0]]", "--alpha", "0.5", "--beta", "0.5"],
    ["norm", "--f", "[[1,0],[0.5,0]]", "--beta", "0.5", "--method", "series"],
    ["qnorm", "--f", "[[1,0,0,0],[0.5,0,0,0]]", "--beta", "0.5"],
    ["table", "--f", "[[1,0],[0.5,0]]", "--alphas", "[0.5,1]", "--beta", "0.5"],
])
def test_domain_input_exits_3_before_any_quadrature(argv, no_quadrature, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == EXIT_DOMAIN
    assert out == ""
    record = json.loads(err, parse_constant=_reject_constant)["error"]
    assert record["type"] == "domain"


def test_series_flag_reads_a_file(tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text("[[0,0],[1,0],[0.5,0.5]]")
    tail = ["--alpha", "0.6", "--sigma", "0.3", "--k", "1", "--method", "closed-k1"]
    code, out, _ = run_cli(["norm", "--f", "@" + str(path)] + tail, capsys)
    assert code == EXIT_OK
    assert out == run_cli(["norm", "--f", "[[0,0],[1,0],[0.5,0.5]]"] + tail, capsys)[1]


def test_qnorm_inner_product_via_g_flag(capsys):
    f, g = [[0.5, 0, 1, 0], [0, 0.3, 0, -1]], [[1, 0, 0, 0.2], [0, 1, 0.5, 0]]
    code, out, _ = run_cli(["qnorm", "--f", json.dumps(f), "--g", json.dumps(g),
                            "--alpha", "0.7", "--sigma", "0.3", "--k", "2"], capsys)
    assert code == EXIT_OK
    q = ffq.qdirichlet_inner_product(
        ffq.QPowerSeries([ffq.Quaternion(*c) for c in f]),
        ffq.QPowerSeries([ffq.Quaternion(*c) for c in g]),
        ffq.FFParams(alpha=0.7, sigma=0.3, k=2), ffq.STANDARD_FRAME)
    assert json.loads(out)["inner_product"] == list(q.components)


@pytest.mark.parametrize("extra, status, exit_code",
                         [([], "ok", EXIT_OK),
                          (_CAPPED, "no_convergence", EXIT_TOLERANCE)])
def test_series_table_builds_one_table_per_alpha_k(extra, status, exit_code,
                                                   capsys, monkeypatch):
    # the table depends on (alpha, k) only, so three sigmas read one; a
    # table whose refinement is capped is built once as well.  k = 2 at
    # alpha < 1 is the one cell whose table is integrated
    calls = []
    build = ffq.ff_complex.coefficient_integrals

    def counted(p, N, spec=None):
        calls.append((p.alpha, p.k))
        return build(p, N, spec)

    monkeypatch.setattr(ffq.ff_complex, "coefficient_integrals", counted)
    code, out, _ = run_cli(["table", "--f", "[[0,0],[1,0]]", "--alphas", "[0.5]",
                            "--sigmas", "[0.2,0.5,0.8]", "--ks", "[2]",
                            "--method", "series"] + extra, capsys)
    assert code == exit_code
    assert calls == [(0.5, 2)]
    rows = json.loads(out)
    assert [(row["sigma"], row["status"]) for row in rows] == [
        (0.2, status), (0.5, status), (0.8, status)]
    if status == "ok":
        f = ffq.CPowerSeries([0, 1])
        for row in rows:
            p = ffq.FFParams(alpha=0.5, sigma=row["sigma"], k=2)
            assert row["norm_sq"] == ffq.dirichlet_norm(f, p, None, "series").norm_sq


def test_qverify_bound_fails_on_a_frame_dependent_norm(capsys, monkeypatch):
    # a norm that moves with the slice by 1e-6 is far inside the bound of 8
    # but not a frame-free norm
    norm = ffq.ff_quaternionic.qdirichlet_norm

    def planted(f, p, frame, *args):
        val = norm(f, p, frame, *args)
        return dataclasses.replace(val, norm_sq=val.norm_sq * (1.0 + 1e-6 * frame.i.x))

    monkeypatch.setattr(ffq.ff_quaternionic, "qdirichlet_norm", planted)
    code, out, _ = run_cli(["qverify", "--suite", "bound"], capsys)
    assert code == EXIT_TOLERANCE
    assert "fail" in [row["status"] for row in json.loads(out)]


def test_qverify_split_fails_on_a_scaled_split_part(capsys, monkeypatch):
    # one split part off by 1e-9 relative is a thousand times the identity's
    # tolerance
    norm = ffq.verify.qdirichlet_norm

    def planted(*args, **kwargs):
        val = norm(*args, **kwargs)
        n1, n2 = val.split_parts
        return dataclasses.replace(val, split_parts=(n1 * (1.0 + 1e-9), n2))

    monkeypatch.setattr(ffq.verify, "qdirichlet_norm", planted)
    code, out, _ = run_cli(["qverify", "--suite", "split"], capsys)
    assert code == EXIT_TOLERANCE
    assert "fail" in [row["status"] for row in json.loads(out)]


@pytest.mark.parametrize("method, ks", [("quad", "[1,2]"), ("series", "[1,2]"),
                                        ("closed-k1", "[1]")])
def test_every_norm_record_names_the_method_given(method, ks, capsys):
    k = json.loads(ks)[0]
    for argv in (["norm", "--f", "[[0,0],[1,0]]"],
                 ["qnorm", "--f", "[[0,0,0,0],[0,0,0,1]]"]):
        code, out, err = run_cli(argv + ["--alpha", "0.5", "--k", str(k),
                                         "--method", method], capsys)
        assert code == EXIT_OK, err
        assert json.loads(out)["method"] == method
    # f = z is divergent at (alpha, k) = (1, 2): that row names the method too
    code, out, err = run_cli(["table", "--f", "[[0,0],[1,0]]", "--alphas", "[0.5,1]",
                              "--sigmas", "[0.5]", "--ks", ks, "--method", method,
                              "--format", "csv"], capsys)
    assert code == EXIT_OK, err
    reader = csv.DictReader(io.StringIO(out))
    assert reader.fieldnames == ["alpha", "sigma", "k", "norm_sq", "point_term",
                                 "field_term", "method", "status", "reason"]
    rows = list(reader)
    assert [row["method"] for row in rows] == [method] * len(rows)
    want = ["ok", "ok", "ok", "divergent"] if ks == "[1,2]" else ["ok", "ok"]
    assert [row["status"] for row in rows] == want


def test_capped_norm_record_has_numeric_value(capsys):
    code, out, err = run_cli(["norm", "--f", "[[0,0],[1,0]]", "--alpha", "0.5"]
                             + _CAPPED, capsys)
    assert code == EXIT_TOLERANCE
    record = json.loads(err, parse_constant=_reject_constant)["error"]
    assert record["type"] == "no_convergence"
    assert isinstance(record["value"], float) and isinstance(record["change"], float)


def test_capped_stack_record_has_complex_pairs(capsys):
    # the inner product's two quaternionic field rows, each as [re, im]
    code, out, err = run_cli(["qnorm", "--f", "[[1,0,0,1],[1,0,1,0]]",
                              "--g", "[[1,0,0,0]]", "--alpha", "0.5"] + _CAPPED,
                             capsys)
    assert code == EXIT_TOLERANCE
    value = json.loads(err, parse_constant=_reject_constant)["error"]["value"]
    assert len(value) == 2
    assert all(len(pair) == 2 and all(isinstance(v, float) for v in pair)
               for pair in value)


def test_node_budget_exits_3_without_building_a_grid(no_quadrature, monkeypatch,
                                                     capsys):
    import ffq.quadrature

    def refuse(*args, **kwargs):
        raise AssertionError("grid built")

    monkeypatch.setattr(ffq.quadrature, "_polar_blocks", refuse)
    code, out, err = run_cli(["norm", "--f", "[[1,0]]", "--max-refine", "40"], capsys)
    assert code == EXIT_DOMAIN
    assert out == ""
    record = json.loads(err, parse_constant=_reject_constant)["error"]
    assert record["type"] == "domain" and "budget" in record["message"]


@pytest.mark.parametrize("argv", [
    ["qnorm", "--f", "[[0,0,0,0],[0,0,0,1]]", "--alpha", "0.7", "--sigma", "0.3",
     "--k", "2"],
    ["kernel", "--z", "[0.5,0.2]", "--zeta", "[0.3,0.1]", "--sigma", "0.5"],
    ["qverify", "--suite", "kernel"],
])
def test_csv_rows_have_the_header_field_count(argv, capsys):
    code, out, _ = run_cli(argv + ["--format", "csv"], capsys)
    assert code == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows
    for row in rows:
        # DictReader files surplus cells under None and fills short rows with None
        assert None not in row and None not in row.values()
        if "params" in row:
            assert json.loads(row["params"])["sigma"] == float(argv[argv.index("--sigma") + 1])


@pytest.mark.parametrize("argv", [
    ["norm", "--f", "[[1,0]]", "--bogus", "1"],                    # unknown flag
    [],                                                            # no command
    ["norm", "--f", "[[1,0]]", "--format", "xml"],                 # bad choice
    ["deriv", "--f", "[[1,0]]", "--z", "[0.3,0]", "--frame",
     "[[0,1,0,0],[0,0,1,0]]"],                                     # not read by deriv
    ["kernel", "--z", "[0.5,0]", "--zeta", "[0.3,0]", "--method", "bogus"],
    ["verify", "--suite", "anchors", "--rel-tol", "1e-3"],
])
def test_usage_errors_exit_2_with_a_parse_record(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == EXIT_PARSE
    assert out == ""
    assert json.loads(err, parse_constant=_reject_constant)["error"]["type"] == "parse"


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["deriv", "--help"])
    assert exit_info.value.code == 0
    assert "--frame" not in capsys.readouterr().out


def test_capped_kernel_record_is_the_scaled_kernel_at_the_cap(capsys):
    from ffq.ff_complex import kernel_K_half
    from ffq.ff_real import FFParams
    from ffq.quadrature import QuadratureSpec

    code, out, err = run_cli(["kernel", "--z", "[0.9,0.3]", "--zeta", "[0.3,0.1]"]
                             + _CAPPED, capsys)
    assert code == EXIT_TOLERANCE
    record = json.loads(err, parse_constant=_reject_constant)["error"]
    assert record["type"] == "no_convergence"
    re, im = record["value"]  # one [re, im] pair for one zeta
    # the same rule with a tolerance that level 1 meets returns level 1 too
    loose = QuadratureSpec(nr=4, ntheta=4, panels_r=1, panels_theta=1,
                           rel_tol=1.0, abs_tol=0.0, max_refine=1)
    expected = kernel_K_half(0.9 + 0.3j, 0.3 + 0.1j, FFParams(alpha=1.0, sigma=0.5, k=1),
                             loose)
    assert abs(complex(re, im) - expected) <= 1e-12 * abs(expected)


def test_config_ks_decode_like_the_flag(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "defaults.json"
    cfg.write_text(json.dumps({"f": [[1, 0]], "ks": [1, "inf"]}))
    monkeypatch.setenv("FFQ_CONFIG", str(cfg))
    code, out, _ = run_cli(["table"], capsys)
    assert code == EXIT_OK
    assert [row["k"] for row in json.loads(out)] == [1, "inf"]


def test_config_that_is_not_an_object_exits_2(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "defaults.json"
    cfg.write_text("[1]")
    monkeypatch.setenv("FFQ_CONFIG", str(cfg))
    code, out, err = run_cli(["norm", "--f", "[[1,0]]"], capsys)
    assert code == EXIT_PARSE
    assert json.loads(err)["error"]["type"] == "parse"


def _k_route(route, value, tmp_path, monkeypatch):
    """argv that hands k = value to the CLI by one route, and the label its
    parse record must start with."""
    deriv = {"f": [[1, 0], [0.5, 0]], "z": [0.3, 0.1]}
    if route == "--k":
        return ["deriv", "--f", json.dumps(deriv["f"]), "--z", json.dumps(deriv["z"]),
                "--k", json.dumps(value)], "--k: "
    if route == "--ks":
        return ["table", "--f", "[[1,0]]", "--ks", json.dumps([value])], "--ks: "
    if route == "FFQ_CONFIG":
        cfg = tmp_path / "defaults.json"
        cfg.write_text(json.dumps({**deriv, "k": value}))
        monkeypatch.setenv("FFQ_CONFIG", str(cfg))
        return ["deriv"], "k: "
    return ["deriv", "--job", json.dumps({"command": "deriv", **deriv, "k": value})], "k: "


@pytest.mark.parametrize("route", ["--k", "--ks", "FFQ_CONFIG", "--job"])
@pytest.mark.parametrize("value, accepted", [
    (2, True), (2.0, True), (2.5, False), (True, False), ("x", False),
])
def test_every_route_decodes_k_alike(route, value, accepted, tmp_path, capsys,
                                     monkeypatch):
    argv, label = _k_route(route, value, tmp_path, monkeypatch)
    code, out, err = run_cli(argv, capsys)
    if accepted:
        assert code == EXIT_OK and err == ""
        doc = json.loads(out)
        ks = [row["k"] for row in doc] if route == "--ks" else [doc["params"]["k"]]
        assert ks == [2]
    else:
        assert code == EXIT_PARSE and out == ""
        record = json.loads(err, parse_constant=_reject_constant)["error"]
        assert record["type"] == "parse"
        assert record["message"].startswith(label)



def _one_parse_record(code, out, err):
    """Exit 2, nothing on stdout and one strict-JSON parse record on stderr;
    returns the record."""
    assert code == EXIT_PARSE and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0], parse_constant=_reject_constant)["error"]
    assert record["type"] == "parse"
    return record


@pytest.mark.parametrize("argv", [
    ["norm", "--f", "[[1,0]]", "--alpha", "1", "--sigma", "0.5", "--k", "1"],
    ["table", "--f", "[[0,0],[1,0]]", "--format", "csv"],
    ["verify", "--suite", "limits"],
])
def test_unwritable_out_exits_2_with_a_parse_record(argv, tmp_path, capsys):
    out = str(tmp_path / "no-such-dir" / "out.json")
    record = _one_parse_record(*run_cli(argv + ["--out", out], capsys))
    assert "no-such-dir" in record["message"]


@pytest.mark.parametrize("argv", [
    ["norm", "--f", "[[1,0]]", "--alpha", "1", "--sigma", "0.5", "--k", "1"],
    ["table", "--f", "[[0,0],[1,0]]", "--format", "csv"],
    ["norm", "--job", '{"command": "norm", "f": [[1, 0]], "out": "OUT"}'],
])
def test_out_into_a_missing_directory_exits_2_before_anything_runs(argv, tmp_path, capsys,
                                                                   monkeypatch):
    import ffq.cli as cli

    def reached(job):
        raise AssertionError("the job ran")

    monkeypatch.setattr(cli, "run", reached)
    out = str(tmp_path / "no-such-dir" / "out.json")
    argv = ([a.replace("OUT", out) for a in argv] if "--job" in argv
            else argv + ["--out", out])
    record = _one_parse_record(*run_cli(argv, capsys))
    assert out in record["message"]
    assert list(tmp_path.iterdir()) == []


_DEEP_JSON = "[" * 3000 + "]" * 3000


@pytest.mark.parametrize("route", ["--f", "--f @file", "--job @file", "FFQ_CONFIG"])
def test_over_deep_json_exits_2_with_a_parse_record(route, tmp_path, capsys,
                                                    monkeypatch):
    path = tmp_path / "deep.json"
    path.write_text(_DEEP_JSON)
    argv = {"--f": ["norm", "--f", _DEEP_JSON],
            "--f @file": ["norm", "--f", f"@{path}"],
            "--job @file": ["norm", "--job", f"@{path}"],
            "FFQ_CONFIG": ["norm", "--f", "[[1,0]]"]}[route]
    if route == "FFQ_CONFIG":
        monkeypatch.setenv("FFQ_CONFIG", str(path))
    record = _one_parse_record(*run_cli(argv, capsys))
    assert "recursion" in record["message"]


@pytest.mark.parametrize("command", ["verify", "qverify"])
def test_unknown_suite_exits_2_with_its_message_unquoted(command, capsys):
    record = _one_parse_record(*run_cli([command, "--suite", "bogus"], capsys))
    assert record["message"].startswith("unknown suite 'bogus'; choose from ")


@pytest.mark.parametrize("payload, code, kind", [
    ({"command": "nope"}, EXIT_DOMAIN, "domain"),
    ({"command": 3}, EXIT_DOMAIN, "domain"),
    ({"command": [1], "method": "quad"}, EXIT_DOMAIN, "domain"),
    # with or without a method: an unhashable command names no command either
    ({"command": [1]}, EXIT_DOMAIN, "domain"),
    ({"command": {"norm": 1}}, EXIT_DOMAIN, "domain"),
])
def test_job_command_that_names_no_command(payload, code, kind, capsys):
    got, out, err = run_cli(["norm", "--job", json.dumps(payload)], capsys)
    assert got == code and out == ""
    assert json.loads(err, parse_constant=_reject_constant)["error"]["type"] == kind


@pytest.mark.parametrize("field, value", [("out", 1), ("out", 2), ("out", True),
                                          ("out", 40), ("out", ["x.json"]),
                                          ("format", 1), ("format", ["csv"]),
                                          ("format", {"csv": True})])
def test_job_output_fields_must_be_strings(field, value, no_quadrature, monkeypatch,
                                           capsys):
    # an integer out would name a file descriptor and close it: every
    # non-string out or format is refused before anything runs
    import ffq.cli

    def refuse(job):
        raise AssertionError("job ran")

    monkeypatch.setattr(ffq.cli, "run", refuse)
    payload = {"command": "norm", "f": [[1, 0]], field: value}
    record = _one_parse_record(*run_cli(["norm", "--job", json.dumps(payload)], capsys))
    assert record["message"].startswith(f"{field} must be a string or null")


def test_job_output_fields_may_be_null(capsys):
    payload = {"command": "norm", "f": [[1, 0]], "alpha": 1, "k": 1, "out": None,
               "format": None}
    code, out, err = run_cli(["norm", "--job", json.dumps(payload)], capsys)
    assert code == EXIT_OK and err == ""
    assert abs(json.loads(out)["norm_sq"] - (1.0 + math.pi / 4.0)) <= 1e-9
