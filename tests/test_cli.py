import csv
import io
import json
import math

import pytest

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


def test_non_finite_poly_coefficient_exits_3(capsys):
    code, out, err = run_cli(["deriv", "--real-f", "poly", "--f", "[[NaN,0]]",
                              "--t", "0.5"], capsys)
    assert code == EXIT_DOMAIN
    assert out == ""
    assert json.loads(err, parse_constant=_reject_constant)["error"]["type"] == "domain"


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


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
    assert "z = -1" in record["error"]["message"]


def test_norm_with_vanishing_derivative_at_minus_one_is_integrated(capsys):
    # f = 2z + z**2 has f'(-1) = 0, so D f is a polynomial at (alpha=1, k=2)
    code, out, err = run_cli(["norm", "--f", "[[0,0],[2,0],[1,0]]", "--alpha", "1",
                              "--k", "2"], capsys)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["method"] == "quadrature"
    # D f = 1 + z + z**2 / 2: |f(1/2)|**2 + pi (1 + 1/2 + 1/12)
    assert abs(doc["norm_sq"] - (1.5625 + 19.0 * math.pi / 12.0)) < 1e-9


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
