"""Command-line front end: series and parameter ingestion, norm and
derivative evaluation, batch tables, verification suites, machine-readable
JSON/CSV output.

One table, FLAGS, maps each flag to the JobSpec field it sets, and
COMMANDS lists the flags each command reads (plus --out, --format and
--job); the parsers, the FFQ_CONFIG lookup and the JobSpec are built from
the two.  The environment variable FFQ_CONFIG may point at a JSON file of
flag defaults, keyed like the flags' argparse dests.

Exit codes: 0 all assertions passed, 2 parse error (argparse errors and
flags a command does not take included), 3 domain error, 4 tolerance or
convergence failure; failures write one strict-JSON error record to stderr.
Every float is printed with 17 significant digits so re-ingestion is
lossless, and repeated invocations produce byte-identical files.
"""

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys

import numpy as np

from . import verify as verify_mod
from .errors import DomainError, FFQError, INF, NoConvergence
from .ff_complex import (dirichlet_norm, ff_eval_c, inner_product_c,
                         kernel_K_half)
from .ff_quaternionic import (ff_eval_q, qdirichlet_inner_product,
                              qdirichlet_norm)
from .ff_real import FFParams, ff_derivative_real
from .holo_series import CPowerSeries
from .quadrature import QuadratureSpec
from .quaternion import Quaternion, SliceFrame, E1, E2
from .slice_regular import QPowerSeries

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_TOLERANCE = 4


def fmt_float(x):
    """17 significant digits: enough for exact float64 round trips."""
    return format(float(x), ".17g")


def canonical_dumps(obj, indent=0):
    """Deterministic JSON text: sorted keys, 17-digit floats, no whitespace
    variation, so equal payloads serialize to equal bytes."""
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if math.isinf(obj) or math.isnan(obj):
            raise ValueError("non-finite floats must be encoded upstream")
        return fmt_float(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical_dumps(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = sorted(obj.items())
        return "{" + ",".join(json.dumps(k) + ":" + canonical_dumps(v)
                              for k, v in items) + "}"
    if isinstance(obj, (np.floating,)):
        return canonical_dumps(float(obj))
    if isinstance(obj, (np.integer,)):
        return str(int(obj))
    raise TypeError(f"cannot canonically encode {type(obj)!r}")


def encode_k(k):
    return "inf" if k == INF else int(k)


def decode_k(value):
    if value in ("inf", INF):
        return INF
    return int(value)


@dataclasses.dataclass
class JobSpec:
    """One CLI invocation's full input, round-trippable byte-identically."""

    command: str
    f: list = None
    g: list = None
    alpha: float = 1.0
    beta: float = 1.0
    sigma: float = 0.5
    k: object = 1
    frame: list = None
    z: list = None
    zeta: list = None
    t: float = None
    real_f: str = None
    method: str = None
    suite: str = "all"
    alphas: list = None
    sigmas: list = None
    ks: list = None
    quad: dict = None
    out: str = None
    format: str = "json"

    def to_payload(self):
        d = dataclasses.asdict(self)
        d["k"] = encode_k(self.k)
        if self.ks is not None:
            d["ks"] = [encode_k(k) for k in self.ks]
        return d

    @classmethod
    def from_payload(cls, payload):
        data = dict(payload)
        if "k" in data:
            data["k"] = decode_k(data["k"])
        if data.get("ks") is not None:
            data["ks"] = [decode_k(k) for k in data["ks"]]
        return cls(**data)

    def to_json(self):
        return canonical_dumps(self.to_payload())

    @classmethod
    def from_json(cls, text):
        return cls.from_payload(json.loads(text))


def _read_json_arg(text):
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            text = fh.read()
    return json.loads(text)


def _series_payload(raw):
    """Normalise a coefficient payload: a list of numbers, [re, im] pairs or
    [w, x, y, z] quadruples."""
    if not isinstance(raw, list):
        raise ValueError(f"series must be a JSON list of coefficients, got {raw!r}")
    out = []
    for item in raw:
        if isinstance(item, (int, float)):
            out.append([float(item)])
        elif isinstance(item, list) and len(item) in (1, 2, 4) and all(
            isinstance(v, (int, float)) for v in item
        ):
            out.append([float(v) for v in item])
        else:
            raise DomainError(f"bad coefficient {item!r}: need a number, "
                              "[re, im] or [w, x, y, z]")
    return out


def quaternion_series(payload):
    return QPowerSeries([Quaternion(*item) for item in payload])


def complex_series(payload):
    # [re, im] is the quaternion re + im e1, whose split is (re + im i, 0)
    parts = quaternion_series(payload).parts
    if np.any(parts[:, 1]):
        raise DomainError("quaternionic coefficients in a complex job")
    return CPowerSeries(parts[:, 0])


def parse_point(value):
    if isinstance(value, (int, float)):
        return complex(value)
    return complex(value[0], value[1] if len(value) > 1 else 0.0)


def build_frame(payload):
    if payload is None:
        return SliceFrame(E1, E2)
    return SliceFrame(Quaternion(*payload[0]), Quaternion(*payload[1]))


def build_params(job):
    return FFParams(alpha=job.alpha, sigma=job.sigma, k=job.k, beta=job.beta)


_REAL_FUNCTIONS = {
    "exp": math.exp,
    "sin-offset": lambda t: math.sin(t) + 2.0,
}


def _real_function(job):
    if job.real_f == "poly":
        coeffs = [float(c[0]) if isinstance(c, list) else float(c)
                  for c in (job.f or [])]
        if not all(map(math.isfinite, coeffs)):
            raise DomainError(f"non-finite poly coefficient in {coeffs!r}")
        return lambda t: sum(c * t ** n for n, c in enumerate(coeffs))
    if job.real_f in _REAL_FUNCTIONS:
        return _REAL_FUNCTIONS[job.real_f]
    raise DomainError(f"unknown built-in function {job.real_f!r}; "
                      f"choose poly, exp or sin-offset")


def _complex_pair(value):
    return [float(value.real), float(value.imag)]


# --method when none is given; an unknown method raises ValueError (exit 2)
_DEFAULT_METHODS = {"deriv": "closed", "qderiv": "split"}


def run(job):
    """Execute a job; returns (exit_code, document) where the document is a
    dict for JSON output or a list of row dicts for tabular output."""
    spec = QuadratureSpec(**(job.quad or {}))
    method = job.method or _DEFAULT_METHODS.get(job.command, "quad")
    if job.command == "deriv":
        if job.real_f is not None:
            fn = _real_function(job)
            value = ff_derivative_real(fn, build_params(job), job.t, method=method)
            return EXIT_OK, {"command": "deriv", "space": "real",
                             "t": job.t, "value": value,
                             "params": _params_doc(job)}
        f = complex_series(_series_payload(job.f))
        value = ff_eval_c(f, build_params(job), parse_point(job.z))
        return EXIT_OK, {"command": "deriv", "space": "complex",
                         "z": _complex_pair(parse_point(job.z)),
                         "value": _complex_pair(value),
                         "params": _params_doc(job)}
    if job.command == "qderiv":
        f = quaternion_series(_series_payload(job.f))
        frame = build_frame(job.frame)
        value = ff_eval_q(f, build_params(job), frame, parse_point(job.z),
                          method=method)
        return EXIT_OK, {"command": "qderiv",
                         "z": _complex_pair(parse_point(job.z)),
                         "value": list(value.components),
                         "params": _params_doc(job)}
    if job.command == "norm":
        f = complex_series(_series_payload(job.f))
        p = build_params(job)
        if job.g is not None:
            g = complex_series(_series_payload(job.g))
            value = inner_product_c(f, g, p, spec)
            return EXIT_OK, {"command": "norm",
                             "inner_product": _complex_pair(value),
                             "params": _params_doc(job)}
        val = dirichlet_norm(f, p, spec, method)
        return EXIT_OK, {"command": "norm", "method": val.method,
                         "norm_sq": val.norm_sq, "point_term": val.point_term,
                         "field_term": val.field_term,
                         "params": _params_doc(job)}
    if job.command == "qnorm":
        f = quaternion_series(_series_payload(job.f))
        p = build_params(job)
        frame = build_frame(job.frame)
        if job.g is not None:
            g = quaternion_series(_series_payload(job.g))
            value = qdirichlet_inner_product(f, g, p, frame, spec)
            return EXIT_OK, {"command": "qnorm",
                             "inner_product": list(value.components),
                             "params": _params_doc(job)}
        val = qdirichlet_norm(f, p, frame, spec, method)
        return EXIT_OK, {"command": "qnorm", "method": val.method,
                         "norm_sq": val.norm_sq,
                         "split_parts": list(val.split_parts),
                         "params": _params_doc(job)}
    if job.command == "kernel":
        p = build_params(job)
        value = kernel_K_half(parse_point(job.z), parse_point(job.zeta), p, spec)
        return EXIT_OK, {"command": "kernel",
                         "z": _complex_pair(parse_point(job.z)),
                         "zeta": _complex_pair(parse_point(job.zeta)),
                         "value": _complex_pair(value),
                         "params": _params_doc(job)}
    if job.command == "verify":
        rows, ok = verify_mod.run_suite(job.suite, quaternionic=False)
        return (EXIT_OK if ok else EXIT_TOLERANCE), rows
    if job.command == "qverify":
        rows, ok = verify_mod.run_suite(job.suite, quaternionic=True)
        return (EXIT_OK if ok else EXIT_TOLERANCE), rows
    if job.command == "table":
        return EXIT_OK, _table(job, spec, method)
    raise DomainError(f"unknown command {job.command!r}")


def _params_doc(job):
    return {"alpha": job.alpha, "beta": job.beta, "sigma": job.sigma,
            "k": encode_k(job.k)}


def _k_sort_key(k):
    return (1, 0.0) if k == INF else (0, float(k))


def _table(job, spec, method):
    """Cartesian sweep over (alpha, sigma, k); one row per cell, rows in
    lexicographic parameter order."""
    f = complex_series(_series_payload(job.f))
    alphas = sorted(job.alphas or [job.alpha])
    sigmas = sorted(job.sigmas or [job.sigma])
    ks = sorted(job.ks or [job.k], key=_k_sort_key)
    rows = []
    for alpha in alphas:
        for sigma in sigmas:
            for k in ks:
                p = FFParams(alpha=alpha, sigma=sigma, k=k, beta=job.beta)
                row = {"alpha": alpha, "sigma": sigma, "k": encode_k(k)}
                try:
                    val = dirichlet_norm(f, p, spec, method)
                    row.update(norm_sq=val.norm_sq, point_term=val.point_term,
                               field_term=val.field_term, method=val.method,
                               status="ok")
                except NoConvergence:
                    row.update(norm_sq="", point_term="", field_term="",
                               method=method, status="divergent")
                rows.append(row)
    return rows


def _cell(value):
    """One CSV cell: a string as it is, a float with 17 digits, anything
    else (a nested row value, a boolean, an integer) as canonical JSON."""
    if isinstance(value, str):
        return value
    if isinstance(value, (float, np.floating)):
        return fmt_float(value)
    return canonical_dumps(value)


def _emit(doc, job):
    if job.format == "csv":
        rows = doc if isinstance(doc, list) else [doc]
        header = list(dict.fromkeys(key for row in rows for key in row))
        buf = io.StringIO()
        writer = csv.DictWriter(buf, header, restval="", lineterminator="\n")
        writer.writeheader()
        writer.writerows({k: _cell(v) for k, v in row.items()} for row in rows)
        text = buf.getvalue()
    else:
        text = canonical_dumps(doc) + "\n"
    if job.out:
        with open(job.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _strict_json(value):
    """value as strict JSON data: arrays as lists, a complex number as
    [re, im] and a non-finite float as its repr string."""
    if isinstance(value, (np.ndarray, list, tuple)):
        return [_strict_json(v) for v in value]
    if isinstance(value, complex):
        return [_strict_json(value.real), _strict_json(value.imag)]
    if isinstance(value, float):
        return float(value) if math.isfinite(value) else repr(float(value))
    return value


def _error_record(kind, exc, **extra):
    extra = {k: _strict_json(v) for k, v in extra.items()}
    record = {"error": {"type": kind, "message": str(exc), **extra}}
    sys.stderr.write(json.dumps(record, sort_keys=True, allow_nan=False) + "\n")


# Every flag by its argparse dest, which is also its FFQ_CONFIG key:
# (the JobSpec field it sets, or quad.<QuadratureSpec field>; the parser of
# the flag's text; help).  A flag's value, or else the config's, goes into
# a JobSpec payload, so k and ks decode once, in JobSpec.from_payload, and a
# field that neither sets keeps JobSpec's default.
FLAGS = {
    "f": ("f", _read_json_arg, "series coefficients, JSON or @file"),
    "g": ("g", _read_json_arg, "second series, JSON or @file"),
    "alpha": ("alpha", float, None),
    "beta": ("beta", float, None),
    "sigma": ("sigma", float, None),
    "k": ("k", str, "non-negative integer or 'inf'"),
    "frame": ("frame", _read_json_arg, "two quaternions as JSON [[..4],[..4]]"),
    "z": ("z", _read_json_arg, "complex point as JSON [re, im]"),
    "zeta": ("zeta", _read_json_arg, "complex point as JSON [re, im]"),
    "t": ("t", float, "real-line point"),
    "real_f": ("real_f", str, "built-in real function: poly, exp, sin-offset"),
    "method": ("method", str, None),
    "suite": ("suite", str, None),
    "alphas": ("alphas", _read_json_arg, "JSON list for table sweeps"),
    "sigmas": ("sigmas", _read_json_arg, "JSON list for table sweeps"),
    "ks": ("ks", _read_json_arg, "JSON list for table sweeps"),
    "quad_nr": ("quad.nr", int, None),
    "quad_ntheta": ("quad.ntheta", int, None),
    "quad_panels_r": ("quad.panels_r", int, None),
    "quad_panels_theta": ("quad.panels_theta", int, None),
    "rel_tol": ("quad.rel_tol", float, None),
    "abs_tol": ("quad.abs_tol", float, None),
    "max_refine": ("quad.max_refine", int, None),
    "out": ("out", str, None),
    "format": ("format", str, None),
}

_PARAMS = ("alpha", "beta", "sigma", "k")
_QUAD = tuple(name for name, (field, _, _) in FLAGS.items()
              if field.startswith("quad."))
_OUTPUT = ("out", "format")

# the flags each command reads: the JobSpec fields its branch of run uses;
# every command also takes _OUTPUT and --job
COMMANDS = {
    "deriv": ("f", "z", "t", "real_f", "method") + _PARAMS,
    "norm": ("f", "g", "method") + _PARAMS + _QUAD,
    "qnorm": ("f", "g", "frame", "method") + _PARAMS + _QUAD,
    "qderiv": ("f", "frame", "z", "method") + _PARAMS,
    "kernel": ("z", "zeta") + _PARAMS + _QUAD,
    "verify": ("suite",),
    "qverify": ("suite",),
    "table": ("f", "alphas", "sigmas", "ks", "method") + _PARAMS + _QUAD,
}


class _Parser(argparse.ArgumentParser):
    """Hands a usage error to main, which writes it as a parse record."""

    def error(self, message):
        raise ValueError(message)


def _parser():
    parser = _Parser(
        prog="ffq",
        description="Fractal-fractional derivatives and Dirichlet-type norms "
                    "for holomorphic and slice-regular series.")
    subs = parser.add_subparsers(dest="command", required=True)
    for command, names in COMMANDS.items():
        sub = subs.add_parser(command)
        for name in names + _OUTPUT:
            sub.add_argument("--" + name.replace("_", "-"), help=FLAGS[name][2],
                             choices=("json", "csv") if name == "format" else None)
        sub.add_argument("--job", help="full JobSpec as JSON or @file (overrides flags)")
    return parser


def _config_defaults():
    path = os.environ.get("FFQ_CONFIG")
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("FFQ_CONFIG must name a JSON object of flag defaults")
    return cfg


def _parse_flag(name, parse, text):
    """parse(text); a ValueError's message names the flag."""
    flag = "--" + name.replace("_", "-")
    try:
        return parse(text)
    except json.JSONDecodeError as exc:
        raise json.JSONDecodeError(f"{flag}: {exc.msg}", exc.doc, exc.pos) from None
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def build_job(args):
    """The JobSpec of --job, or else of the command's flags over the
    FFQ_CONFIG defaults over JobSpec's own."""
    if args.job is not None:
        return JobSpec.from_payload(_read_json_arg(args.job))
    cfg = _config_defaults()
    payload = {"command": args.command}
    for name in COMMANDS[args.command] + _OUTPUT:
        field, parse, _ = FLAGS[name]
        text = getattr(args, name)
        value = cfg.get(name) if text is None else _parse_flag(name, parse, text)
        if value is None:
            continue
        head, _, key = field.partition(".")
        if key:
            payload.setdefault(head, {})[key] = value
        else:
            payload[field] = value
    return JobSpec.from_payload(payload)


def main(argv=None):
    try:
        job = build_job(_parser().parse_args(argv))
    except json.JSONDecodeError as exc:
        _error_record("parse", exc, position=exc.pos, line=exc.lineno,
                      column=exc.colno)
        return EXIT_PARSE
    except (OSError, ValueError, TypeError, LookupError) as exc:
        _error_record("parse", exc)
        return EXIT_PARSE
    try:
        code, doc = run(job)
        _emit(doc, job)
        return code
    except NoConvergence as exc:
        _error_record("no_convergence", exc, value=exc.value, change=exc.error)
        return EXIT_TOLERANCE
    except (DomainError, FFQError, ZeroDivisionError, OverflowError) as exc:
        _error_record("domain", exc)
        return EXIT_DOMAIN
    except (TypeError, LookupError, ValueError) as exc:
        _error_record("parse", exc)
        return EXIT_PARSE


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
