"""Span tracing of the ffq layers from outside the library.

`Tracer.install()` wraps every public function of each layer module (and
`CPowerSeries.__call__`, `cli.main`) and puts the wrapper into every `ffq`
module namespace and module-level dict that binds the original, because the
package imports with `from .x import y`.  Each call records a span: id,
parent id, name, start, end, the time covered by its direct children, and
work counts.  `uninstall()` puts the originals back.

Self time is a span's duration minus the time its direct children cover.
Spans stay in memory until `dump()`; `summary()` folds them per name and
`layer_metrics()` turns a summary into the benchmark's per-layer metrics.
"""

import importlib
import json
import sys
import types
from time import perf_counter

import numpy as np

LAYERS = ("quadrature", "holo_series", "ff_complex", "slice_regular",
          "quaternion", "ff_quaternionic", "ff_real", "verify")

# scalar helpers called per quaternion in the object loops; wrapping them
# would multiply the traced run's time, so their cost stays in the caller's
# self time
UNWRAPPED = {"quaternion.as_quaternion", "quaternion.dot4", "quaternion.embed_complex",
             "quaternion.frame_embed", "quaternion.mul", "quaternion.inverse"}

# (parent span, direct-child span, child count, count added to the parent)
CHILD_COUNTS = {
    ("ff_complex.coefficient_integrals", "holo_series.truncated_exp_c"):
        ("elements", "nodes"),
}


class Span:
    __slots__ = ("id", "parent", "name", "t0", "t1", "child_s", "counts")

    def __init__(self, sid, parent, name):
        self.id = sid
        self.parent = parent
        self.name = name
        self.child_s = 0.0
        self.counts = {}
        self.t0 = perf_counter()
        self.t1 = None

    def add(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + int(n)


def _spec_arg(args, kwargs, index):
    from ffq.quadrature import DEFAULT_SPEC
    spec = args[index] if len(args) > index else kwargs.get("spec")
    return spec or DEFAULT_SPEC


def _counting_integrand(span, fn):
    def counted(z):
        span.add("nodes", np.size(z))
        return fn(z)
    return counted


def _wrap_integrand(span, args, kwargs):
    if args:
        return (_counting_integrand(span, args[0]),) + args[1:], kwargs
    key = "integrand" if "integrand" in kwargs else "f"
    return args, dict(kwargs, **{key: _counting_integrand(span, kwargs[key])})


def _quad_after(span, args, kwargs, result):
    span.add("levels", result.refinements)
    span.add("converged_nodes", span.counts.get("nodes", 0))


def _quad_error(spec_index):
    def on_error(span, args, kwargs, exc):
        from ffq.errors import NoConvergence
        if isinstance(exc, NoConvergence):
            span.add("nonconverged", 1)
            span.add("levels", _spec_arg(args, kwargs, spec_index).max_refine)
    return on_error


def _size_of_arg(index, kwarg, key="elements"):
    def before(span, args, kwargs):
        value = args[index] if len(args) > index else kwargs[kwarg]
        span.add(key, np.size(value))
        return args, kwargs
    return before


def _result_size(span, args, kwargs, result):
    span.add("elements", np.size(result))


def _coeff_products(span, args, kwargs):
    span.add("coeff_products", len(args[0].coeffs) * len(args[1].coeffs))
    return args, kwargs


def _error_count(span, args, kwargs, exc):
    from ffq.errors import NoConvergence
    if isinstance(exc, NoConvergence):
        span.add("nonconverged", 1)


# span name -> (before, after, on_error); before may replace the arguments
HOOKS = {
    "quadrature.integrate_disk": (_wrap_integrand, _quad_after, _quad_error(1)),
    "quadrature.path_integral": (_wrap_integrand, _quad_after, _quad_error(2)),
    "holo_series.principal_power_c": (_size_of_arg(0, "z"), None, None),
    "holo_series.fractal_measure_deriv_c": (_size_of_arg(0, "z"), None, None),
    "holo_series.in_slit_disk": (_size_of_arg(0, "z"), None, None),
    "holo_series.truncated_exp_c": (_size_of_arg(0, "w"), None, None),
    "holo_series.CPowerSeries.eval": (_size_of_arg(1, "z"), None, None),
    "ff_complex.ff_eval_c": (_size_of_arg(2, "z"), None, None),
    "ff_complex.coefficient_integrals": (None, None, _error_count),
    "ff_complex.kernel_K_half": (_size_of_arg(1, "zeta", "zetas"), None, None),
    "ff_complex.bergman_kernel": (None, _result_size, None),
    "slice_regular.star_product": (_coeff_products, None, None),
}


class Tracer:
    """Records spans for the calls made while installed.  Single-threaded:
    the open spans form one stack."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), -1 if parent is None else parent.id, name)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span):
        span.t1 = perf_counter()
        self._stack.pop()
        if self._stack:
            parent = self._stack[-1]
            parent.child_s += span.t1 - span.t0
            rule = CHILD_COUNTS.get((parent.name, span.name))
            if rule:
                parent.add(rule[1], span.counts.get(rule[0], 0))

    def wrap(self, name, fn):
        before, after, on_error = HOOKS.get(name, (None, None, None))
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                if before:
                    args, kwargs = before(span, args, kwargs)
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error:
                    on_error(span, args, kwargs, exc)
                raise
            else:
                if after:
                    after(span, args, kwargs, result)
                return result
            finally:
                tracer.close(span)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        """Wrap the layers' public functions wherever ffq binds them."""
        import ffq.cli
        from ffq.holo_series import CPowerSeries

        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"ffq.{layer}")
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__ and name not in UNWRAPPED):
                    wrappers[obj] = self.wrap(name, obj)
        wrappers[ffq.cli.main] = self.wrap("cli.main", ffq.cli.main)
        mods = [m for n, m in sys.modules.items() if n == "ffq" or n.startswith("ffq.")]
        for mod in mods:
            space = vars(mod)
            for attr, obj in list(space.items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._patch(space, attr, wrappers[obj])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if isinstance(val, types.FunctionType) and val in wrappers:
                            self._patch(obj, key, wrappers[val])
        call = CPowerSeries.__call__
        self._patches.append((CPowerSeries, "__call__", call))
        CPowerSeries.__call__ = self.wrap("holo_series.CPowerSeries.eval", call)
        return self

    def _patch(self, space, key, wrapper):
        self._patches.append((space, key, space[key]))
        space[key] = wrapper

    def uninstall(self):
        for space, key, orig in reversed(self._patches):
            if isinstance(space, dict):
                space[key] = orig
            else:
                setattr(space, key, orig)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def summary(self):
        """Per span name: calls, inclusive and self seconds, summed counts."""
        out = {}
        for s in self.spans:
            if s.t1 is None:
                continue
            row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += s.t1 - s.t0
            row["self_s"] += s.t1 - s.t0 - s.child_s
            for key, n in s.counts.items():
                row[key] = row.get(key, 0) + n
        return out

    def dump(self, path):
        """Write the spans as rows [id, parent id, name index, start, duration,
        self time, counts], times in seconds from the first span's start."""
        done = [s for s in self.spans if s.t1 is not None]
        names = sorted({s.name for s in done})
        index = {name: i for i, name in enumerate(names)}
        base = done[0].t0 if done else 0.0
        rows = [[s.id, s.parent, index[s.name], round(s.t0 - base, 7), round(s.t1 - s.t0, 7),
                 round(s.t1 - s.t0 - s.child_s, 7), s.counts or 0] for s in done]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names, "spans": rows}, fh, separators=(",", ":"))


def merge(summaries):
    """Sum per-name summaries (e.g. one per CLI child process)."""
    out = {}
    for summary in summaries:
        for name, row in summary.items():
            acc = out.setdefault(name, {})
            for key, value in row.items():
                acc[key] = acc.get(key, 0) + value
    return out


def _get(summary, name, key):
    return summary.get(name, {}).get(key, 0)


def _ratio(num, den):
    return num / den if den else 0.0


LAYER_METRICS = (
    ("quadrature.integrate_disk", ("calls", "nodes", "levels", "nonconverged",
                                   "useful_node_share", "self_s", "nodes_per_s")),
    ("quadrature.path_integral", ("calls", "nodes", "self_s")),
    ("holo_series.principal_power_c", ("elements", "self_s")),
    ("holo_series.fractal_measure_deriv_c", ("elements", "self_s")),
    ("holo_series.in_slit_disk", ("elements", "self_s")),
    ("holo_series.truncated_exp_c", ("self_s",)),
    ("holo_series.nonvanishing_check", ("calls", "self_s")),
    ("holo_series.CPowerSeries.eval", ("self_s",)),
    ("ff_complex.ff_eval_c", ("calls", "elements", "self_s")),
    ("ff_complex.coefficient_integrals", ("calls", "nodes", "nonconverged", "self_s")),
    ("ff_complex.kernel_K_half", ("calls", "zetas", "self_s")),
    ("ff_complex.bergman_kernel", ("elements", "self_s")),
    ("slice_regular.star_product", ("calls", "coeff_products", "self_s")),
    ("slice_regular.star_inverse", ("self_s",)),
    ("slice_regular.eval_q", ("calls", "self_s")),
    ("slice_regular.split", ("self_s",)),
    ("quaternion.frame_coords", ("calls", "self_s")),
    ("ff_quaternionic.qdirichlet_norm_series", ("calls", "self_s")),
    ("ff_quaternionic.q_reproduce", ("self_s",)),
    ("ff_real.ff_derivative_real", ("calls", "self_s")),
)

COUNT_KEYS = ("calls", "nodes", "elements", "levels", "nonconverged",
              "coeff_products", "zetas")


def layer_metrics(summary):
    """The per-layer metrics of one traced pass, by metric name."""
    out = {}
    for name, keys in LAYER_METRICS:
        for key in keys:
            if key == "useful_node_share":
                value = _ratio(_get(summary, name, "converged_nodes"),
                               _get(summary, name, "nodes"))
            elif key == "nodes_per_s":
                value = _ratio(_get(summary, name, "nodes"),
                               _get(summary, name, "total_s"))
            else:
                value = _get(summary, name, key)
            out[f"{name}.{key}"] = value
    out["verify.self_s"] = sum(row["self_s"] for name, row in summary.items()
                               if name.startswith("verify."))
    return out


def metric_unit(name):
    """Unit of a per-layer metric, from its last name component."""
    key = name.rsplit(".", 1)[-1]
    if key == "nodes_per_s":
        return "1/s"
    if key.endswith("_s"):
        return "s"
    if key in ("useful_node_share", "overhead_share"):
        return "ratio"
    return "count"
