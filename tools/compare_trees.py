"""Compare the outputs of two ffq source trees.

    python3 tools/compare_trees.py PARENT CHANGE [--json OUT]

PARENT and CHANGE are checkouts (each with its own src/ffq and demos/).  In
each tree the script runs `ffq verify --suite all`, `ffq qverify --suite all`
and demos 01-06 (under -W error), with that tree's src first on PYTHONPATH,
and reports:

- per verify suite: the row counts, how many rows are byte-identical, every
  status change, and for each numeric field the largest relative move
  |new - old| / |old| (with its absolute size and the row it is on);
- per demo: its exit codes, how many output lines changed, and the largest
  relative move of a number on a changed line.

Residual fields (a rel_diff, a residual, an error or gap that is zero up to
rounding) are listed apart from value fields: a residual of 1e-15 that
becomes 3e-15 "moves" by 200% while meaning nothing.  The same holds for
demo lines that print a residual or a difference, and printed numbers
below 1e-12.  Exit code 0 when no
status changed and every command exited as in PARENT, else 1.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

SUITES = (("verify", ["verify", "--suite", "all"]), ("qverify", ["qverify", "--suite", "all"]))
DEMOS = ("01_quaternions_and_slices", "02_star_algebra", "03_real_fractal_derivatives",
         "04_dirichlet_norms", "05_reproducing_kernels", "06_quaternionic_norms")
# row fields that measure a discrepancy rather than a value
RESIDUAL_FIELDS = {"rel_diff", "residual", "abs_err", "gap", "identity1", "identity2"}
# row fields that name the row's parameters
PARAM_FIELDS = {"alpha", "sigma", "k", "n", "deg", "trial", "t"}
# demo lines that print a discrepancy, and the size below which a printed
# number is one (an imaginary part or a difference that is zero but for
# rounding)
RESIDUAL_LINE = re.compile(r"residual|diff|error|err\b|gap", re.IGNORECASE)
RESIDUAL_SIZE = 1e-12
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _run(tree, args):
    """(exit code, stdout) of python ARGS in TREE, with its src first on the path."""
    env = dict(os.environ)
    src = str(Path(tree, "src").resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, *args], cwd=tree, env=env, capture_output=True,
                          text=True, timeout=1800)
    return proc.returncode, proc.stdout


def _rel(old, new):
    if old == new:
        return 0.0
    return abs(new - old) / abs(old) if old != 0 else math.inf


def _label(row):
    """The row's parameters and string fields but its status and suite."""
    return ", ".join(f"{k}={v}" for k, v in sorted(row.items())
                     if v != "" and (k in PARAM_FIELDS or isinstance(v, str))
                     and k not in ("status", "suite"))


def _numeric(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def compare_rows(old_rows, new_rows):
    """Per suite: row counts, identical rows, status changes and field moves."""
    report = {}
    by_suite = {}
    for side, rows in (("parent", old_rows), ("change", new_rows)):
        for row in rows:
            by_suite.setdefault(row["suite"], {"parent": [], "change": []})[side].append(row)
    for suite, sides in by_suite.items():
        old, new = sides["parent"], sides["change"]
        entry = {"rows": [len(old), len(new)], "identical": 0, "status_changes": [],
                 "values": {}, "residuals": {}}
        for i, (a, b) in enumerate(zip(old, new)):
            if json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True):
                entry["identical"] += 1
                continue
            if a.get("status") != b.get("status"):
                entry["status_changes"].append(
                    {"row": i, "label": _label(a), "parent": a.get("status"),
                     "change": b.get("status")})
            for field in sorted(set(a) & set(b)):
                x, y = a[field], b[field]
                if not (_numeric(x) and _numeric(y)):
                    continue
                kind = "residuals" if field in RESIDUAL_FIELDS else "values"
                best = entry[kind].get(field)
                rel = _rel(x, y)
                if best is None or rel > best["rel"]:
                    entry[kind][field] = {"rel": rel, "abs": abs(y - x), "parent": x,
                                          "change": y, "row": i, "label": _label(a)}
        report[suite] = entry
    return report


def compare_demo(old_out, new_out):
    """Changed lines and the largest relative move of a number on them,
    values and residual lines apart."""
    old_lines, new_lines = old_out.splitlines(), new_out.splitlines()
    entry = {"lines": [len(old_lines), len(new_lines)], "changed": 0,
             "values": None, "residuals": None}
    for a, b in zip(old_lines, new_lines):
        if a == b:
            continue
        entry["changed"] += 1
        xs, ys = NUMBER.findall(a), NUMBER.findall(b)
        if len(xs) != len(ys):
            continue
        line_kind = "residuals" if RESIDUAL_LINE.search(a) else "values"
        for x, y in zip(xs, ys):
            rel = _rel(float(x), float(y))
            small = max(abs(float(x)), abs(float(y))) < RESIDUAL_SIZE
            kind = "residuals" if small else line_kind
            best = entry[kind]
            if rel > 0 and (best is None or rel > best["rel"]):
                entry[kind] = {"rel": rel, "parent": x, "change": y, "line": a.strip()}
    return entry


def compare(parent, change):
    result = {"parent": str(parent), "change": str(change), "suites": {}, "demos": {}}
    ok = True
    for name, args in SUITES:
        (rc_a, out_a), (rc_b, out_b) = (_run(tree, ["-m", "ffq.cli", *args])
                                        for tree in (parent, change))
        rows = compare_rows(*(json.loads(out) if out.strip() else [] for out in (out_a, out_b)))
        result["suites"][name] = {"exit": [rc_a, rc_b], "by_suite": rows}
        ok &= rc_a == rc_b and all(not e["status_changes"] and e["rows"][0] == e["rows"][1]
                                   for e in rows.values())
    for demo in DEMOS:
        (rc_a, out_a), (rc_b, out_b) = (_run(tree, ["-W", "error", f"demos/{demo}.py"])
                                        for tree in (parent, change))
        result["demos"][demo] = {"exit": [rc_a, rc_b], **compare_demo(out_a, out_b)}
        ok &= rc_a == rc_b
    result["ok"] = bool(ok)
    return result


def _move(m):
    where = m.get("label") or m.get("line", "")
    return f"rel {m['rel']:.3g} ({m['parent']} -> {m['change']}; {where})"


def render(result):
    lines = [f"parent {result['parent']}  change {result['change']}"]
    for name, suite in result["suites"].items():
        lines.append(f"== {name}: exit {suite['exit'][0]} -> {suite['exit'][1]}")
        for sub, e in suite["by_suite"].items():
            lines.append(f"  {sub}: rows {e['rows'][0]} -> {e['rows'][1]}, "
                         f"{e['identical']} identical, "
                         f"{len(e['status_changes'])} status changes")
            for c in e["status_changes"]:
                lines.append(f"    STATUS row {c['row']} ({c['label']}): "
                             f"{c['parent']} -> {c['change']}")
            for kind in ("values", "residuals"):
                for field, m in e[kind].items():
                    if m["rel"] > 0:
                        lines.append(f"    {kind[:-1]} {field}: {_move(m)}, "
                                     f"abs {m['abs']:.3g}")
    for demo, e in result["demos"].items():
        lines.append(f"== demo {demo}: exit {e['exit'][0]} -> {e['exit'][1]}, "
                     f"{e['changed']} of {e['lines'][1]} lines changed")
        for kind in ("values", "residuals"):
            if e[kind]:
                lines.append(f"    {kind[:-1]}: {_move(e[kind])}")
    lines.append("no status change" if result["ok"] else "STATUS OR EXIT CHANGED")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--json", type=Path, help="also write the full comparison here")
    args = parser.parse_args(argv)
    for tree in (args.parent, args.change):
        if not (tree / "src" / "ffq").is_dir():
            parser.error(f"{tree} has no src/ffq")
    result = compare(args.parent, args.change)
    if args.json:
        args.json.write_text(json.dumps(result, indent=1, default=str) + "\n")
    print(render(result))
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
