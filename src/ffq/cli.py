"""Command-line front end: series and parameter ingestion, norm and
derivative evaluation, batch tables, verification suites, machine-readable
JSON/CSV output.

One table, FLAGS, maps each flag to the JobSpec field it sets, and
COMMANDS gives each command the flags it reads (plus --out, --format and
--job), its default --method and its handler; the parsers, the FFQ_CONFIG
lookup, the JobSpec and run are built from the two.  The environment
variable FFQ_CONFIG may point at a JSON file of flag defaults, keyed like
the flags' argparse dests.

Exit codes: 0 all assertions passed, 2 parse error (argparse errors, flags
a command does not take, an --out that cannot be written and JSON nested
too deep to parse included; an --out into a missing directory exits before
anything is computed), 3 domain error, 4 tolerance or convergence
failure; every failure writes one strict-JSON error record to stderr.
Every float is printed with 17 significant digits so re-ingestion is
lossless, and repeated invocations produce byte-identical files.
"""

import argparse
import csv
import dataclasses
import errno
import io
import json
import math
import os
import sys
import typing

import numpy as np

from . import verify as verify_mod
from .errors import DivergentIntegral, DomainError, FFQError, INF, NoConvergence
from .ff_complex import (dirichlet_norm, dirichlet_norm_series, ff_eval_c,
                         inner_product_c, kernel_K_half, _method_table,
                         _require_finite_field, _require_linear,
                         _require_norm_method)
from .ff_quaternionic import (ff_eval_q, qdirichlet_inner_product,
                              qdirichlet_norm)
from .ff_real import FFParams, ff_derivative_real
from .holo_series import CPowerSeries
from .quadrature import QuadratureSpec
from .quaternion import Quaternion, SliceFrame, STANDARD_FRAME
from .slice_regular import QPowerSeries

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_TOLERANCE = 4


def fmt_float(x):
    """17 significant digits: enough for exact float64 round trips."""
    return format(float(x), ".17g")


def canonical_dumps(obj):
    """Deterministic JSON text: sorted keys, 17-digit floats, no whitespace
    variation, so equal payloads serialize to equal bytes.  A non-finite
    float raises OverflowError: a result that overflowed is a domain error."""
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
            raise OverflowError(f"non-finite result {obj!r}")
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
    """k from its JSON form: an integer, an integral float, the decimal text
    of an integer or "inf"; anything else is a ValueError."""
    if value in ("inf", INF):
        return INF
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    elif isinstance(value, int) and not isinstance(value, bool):
        return value
    elif isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"k must be an integer or 'inf', got {value!r}")


def _decode_ks(ks):
    if not isinstance(ks, list):
        raise ValueError(f"need a JSON list of k values, got {ks!r}")
    return [decode_k(k) for k in ks]


def _read_k(text):
    """k from the text of --k, decoded as the JSON value it spells; text
    that is not JSON, such as inf, is taken as a string."""
    try:
        value = json.loads(text)
    except json.JSONDecodeError:
        value = text
    return decode_k(value)


def _read_ks(text):
    return _decode_ks(_read_json_arg(text))


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
        """The job of a payload; out and format must be strings or null
        (an integer out would name a file descriptor)."""
        data = dict(payload)
        for name in _OUTPUT:
            if not isinstance(data.get(name), (str, type(None))):
                raise ValueError(f"{name} must be a string or null, got {data[name]!r}")
        if "k" in data:
            data["k"] = _named("k", decode_k, data["k"])
        if data.get("ks") is not None:
            data["ks"] = _named("ks", _decode_ks, data["ks"])
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
        return STANDARD_FRAME
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


def run(job):
    """Execute a job; returns (exit_code, document) where the document is a
    dict for JSON output or a list of row dicts for tabular output."""
    spec = QuadratureSpec(**(job.quad or {}))
    command = COMMANDS.get(job.command) if isinstance(job.command, str) else None
    if command is None:
        raise DomainError(f"unknown command {job.command!r}")
    return command.run(job, spec, job.method or command.method)


def _record(job, **fields):
    """Exit 0 and the record of fields, led by the command and closed by
    its parameters."""
    params = {"alpha": job.alpha, "beta": job.beta, "sigma": job.sigma, "k": encode_k(job.k)}
    return EXIT_OK, {"command": job.command, **fields, "params": params}


def _deriv(job, spec, method):
    if job.real_f is not None:
        fn = _real_function(job)
        value = ff_derivative_real(fn, build_params(job), job.t, method=method)
        return _record(job, space="real", t=job.t, value=value)
    f = complex_series(_series_payload(job.f))
    value = ff_eval_c(f, build_params(job), parse_point(job.z))
    return _record(job, space="complex", z=_complex_pair(parse_point(job.z)),
                   value=_complex_pair(value))


def _qderiv(job, spec, method):
    f = quaternion_series(_series_payload(job.f))
    frame = build_frame(job.frame)
    value = ff_eval_q(f, build_params(job), frame, parse_point(job.z), method=method)
    return _record(job, z=_complex_pair(parse_point(job.z)), value=list(value.components))


def _norm(job, spec, method):
    f = complex_series(_series_payload(job.f))
    p = build_params(job)
    if job.g is not None:
        g = complex_series(_series_payload(job.g))
        return _record(job, inner_product=_complex_pair(inner_product_c(f, g, p, spec)))
    val = dirichlet_norm(f, p, spec, method)
    return _record(job, method=val.method, norm_sq=val.norm_sq,
                   point_term=val.point_term, field_term=val.field_term)


def _qnorm(job, spec, method):
    f = quaternion_series(_series_payload(job.f))
    p = build_params(job)
    frame = build_frame(job.frame)
    if job.g is not None:
        g = quaternion_series(_series_payload(job.g))
        value = qdirichlet_inner_product(f, g, p, frame, spec)
        return _record(job, inner_product=list(value.components))
    val = qdirichlet_norm(f, p, frame, spec, method)
    return _record(job, method=val.method, norm_sq=val.norm_sq,
                   split_parts=list(val.split_parts))


def _kernel(job, spec, method):
    p = build_params(job)
    z, zeta = parse_point(job.z), parse_point(job.zeta)
    return _record(job, z=_complex_pair(z), zeta=_complex_pair(zeta),
                   value=_complex_pair(kernel_K_half(z, zeta, p, spec)))


def _verify(job, spec, method):
    rows, ok = verify_mod.run_suite(job.suite, quaternionic=job.command == "qverify")
    return (EXIT_OK if ok else EXIT_TOLERANCE), rows


def _k_sort_key(k):
    return (1, 0.0) if k == INF else (0, float(k))


def _table(job, spec, method):
    """Cartesian sweep over (alpha, sigma, k); one row per cell, rows in
    lexicographic parameter order, each naming the method given.  A cell
    whose norm is proven infinite has status "divergent", one its method
    cannot compute (a DomainError, such as a finite norm where no table
    exists) "domain", and one whose refinement stopped short of the
    tolerance "no_convergence"; these rows leave the norm fields empty.
    A "domain" row's reason is its DomainError's message, which names the
    methods that compute the cell; every other row's reason is empty.
    Every cell's parameters and beta = 1 are checked before the first norm,
    so bad input fails the whole command.  A series method builds one table
    per (alpha, k), which every sigma reads through dirichlet_norm_series
    once the cell's norm is known to be finite.  It exits 3 if some row is
    "domain", else 4 if some row is "no_convergence", else 0."""
    _require_norm_method(method)
    f = complex_series(_series_payload(job.f))
    alphas = sorted(job.alphas or [job.alpha])
    sigmas = sorted(job.sigmas or [job.sigma])
    ks = sorted(job.ks or [job.k], key=_k_sort_key)
    cells = [FFParams(alpha=alpha, sigma=sigma, k=k, beta=job.beta)
             for alpha in alphas for sigma in sigmas for k in ks]
    if cells:
        _require_linear(cells[0])  # every cell shares beta
    tables = {}  # (alpha, k) -> the table, or the NoConvergence building it raised

    def norm(p):
        if method == "quad":
            return dirichlet_norm(f, p, spec, method)
        _require_finite_field(f, p)
        key = (p.alpha, p.k)
        if key not in tables:
            try:
                tables[key] = _method_table(p, f.degree, spec, method)
            except NoConvergence as exc:
                tables[key] = exc
        if isinstance(tables[key], NoConvergence):
            raise tables[key]
        return dirichlet_norm_series(f, p, tables[key])

    rows = []
    for p in cells:
        reason = ""
        try:
            val = norm(p)
            norm_sq, point, field = val.norm_sq, val.point_term, val.field_term
            status = "ok"
        except (NoConvergence, DomainError) as exc:
            norm_sq = point = field = ""
            if isinstance(exc, DomainError):
                status, reason = "domain", str(exc)
            else:
                status = ("divergent" if isinstance(exc, DivergentIntegral)
                          else "no_convergence")
        rows.append({"alpha": p.alpha, "sigma": p.sigma, "k": encode_k(p.k),
                     "norm_sq": norm_sq, "point_term": point,
                     "field_term": field, "method": method, "status": status,
                     "reason": reason})
    statuses = {row["status"] for row in rows}
    if "domain" in statuses:
        return EXIT_DOMAIN, rows
    return (EXIT_TOLERANCE if "no_convergence" in statuses else EXIT_OK), rows


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
# a JobSpec payload, and a field that neither sets keeps JobSpec's default.
# --k and --ks decode as they are read, so a bad value's error names the
# flag; JobSpec.from_payload decodes them again (a no-op on decoded values)
# for config and --job payloads, where the error names the key.  All routes
# share decode_k, so each accepts or rejects the same k.
FLAGS = {
    "f": ("f", _read_json_arg, "series coefficients, JSON or @file"),
    "g": ("g", _read_json_arg, "second series, JSON or @file"),
    "alpha": ("alpha", float, None),
    "beta": ("beta", float, None),
    "sigma": ("sigma", float, None),
    "k": ("k", _read_k, "integer >= 1 or 'inf'"),
    "frame": ("frame", _read_json_arg, "two quaternions as JSON [[..4],[..4]]"),
    "z": ("z", _read_json_arg, "complex point as JSON [re, im]"),
    "zeta": ("zeta", _read_json_arg, "complex point as JSON [re, im]"),
    "t": ("t", float, "real-line point"),
    "real_f": ("real_f", str, "built-in real function: poly, exp, sin-offset"),
    "method": ("method", str, None),
    "suite": ("suite", str, None),
    "alphas": ("alphas", _read_json_arg, "JSON list for table sweeps"),
    "sigmas": ("sigmas", _read_json_arg, "JSON list for table sweeps"),
    "ks": ("ks", _read_ks, "JSON list for table sweeps"),
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


class Command(typing.NamedTuple):
    """A command's row of COMMANDS."""

    flags: tuple  # the JobSpec fields its handler reads; every command takes _OUTPUT and --job
    method: str  # --method when none is given
    run: typing.Callable  # run(job, spec, method) -> (exit code, document)


COMMANDS = {
    "deriv": Command(("f", "z", "t", "real_f", "method") + _PARAMS, "closed", _deriv),
    "norm": Command(("f", "g", "method") + _PARAMS + _QUAD, "quad", _norm),
    "qnorm": Command(("f", "g", "frame", "method") + _PARAMS + _QUAD, "quad", _qnorm),
    "qderiv": Command(("f", "frame", "z", "method") + _PARAMS, "split", _qderiv),
    "kernel": Command(("z", "zeta") + _PARAMS + _QUAD, None, _kernel),
    "verify": Command(("suite",), None, _verify),
    "qverify": Command(("suite",), None, _verify),
    "table": Command(("f", "alphas", "sigmas", "ks", "method") + _PARAMS + _QUAD,
                     "quad", _table),
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
    for command, entry in COMMANDS.items():
        sub = subs.add_parser(command)
        for name in entry.flags + _OUTPUT:
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


def _named(label, parse, value):
    """parse(value); a ValueError's message names label, the flag or the
    payload key that gave the value."""
    try:
        return parse(value)
    except json.JSONDecodeError as exc:
        raise json.JSONDecodeError(f"{label}: {exc.msg}", exc.doc, exc.pos) from None
    except ValueError as exc:
        raise ValueError(f"{label}: {exc}") from None


def build_job(args):
    """The JobSpec of --job, or else of the command's flags over the
    FFQ_CONFIG defaults over JobSpec's own."""
    if args.job is not None:
        return JobSpec.from_payload(_read_json_arg(args.job))
    cfg = _config_defaults()
    payload = {"command": args.command}
    for name in COMMANDS[args.command].flags + _OUTPUT:
        field, parse, _ = FLAGS[name]
        text = getattr(args, name)
        value = (cfg.get(name) if text is None
                 else _named("--" + name.replace("_", "-"), parse, text))
        if value is None:
            continue
        head, _, key = field.partition(".")
        if key:
            payload.setdefault(head, {})[key] = value
        else:
            payload[field] = value
    return JobSpec.from_payload(payload)


def _require_out_dir(out):
    """Raise FileNotFoundError, the error open would raise, when out names
    a file in a directory that does not exist: checked before anything is
    computed, and nothing is created or truncated."""
    if out and not os.path.isdir(os.path.dirname(out) or "."):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), out)


def main(argv=None):
    try:
        job = build_job(_parser().parse_args(argv))
        _require_out_dir(job.out)
        # numpy's warnings would break the strict-JSON stderr; a result that
        # overflowed still reaches canonical_dumps as a non-finite float
        with np.errstate(all="ignore"):
            code, doc = run(job)
        _emit(doc, job)
        return code
    except NoConvergence as exc:
        _error_record("no_convergence", exc, value=exc.value, change=exc.error)
        return EXIT_TOLERANCE
    except json.JSONDecodeError as exc:
        _error_record("parse", exc, position=exc.pos, line=exc.lineno,
                      column=exc.colno)
        return EXIT_PARSE
    except (DomainError, FFQError, ZeroDivisionError, OverflowError) as exc:
        _error_record("domain", exc)
        return EXIT_DOMAIN
    except (OSError, RecursionError, TypeError, LookupError, ValueError) as exc:
        _error_record("parse", exc)
        return EXIT_PARSE


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
