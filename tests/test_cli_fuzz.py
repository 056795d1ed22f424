"""Hostile command lines drawn from the CLI's flag table: every run exits
0, 2, 3 or 4, and writes strict JSON (or, for --format csv, rectangular CSV)."""

import contextlib
import csv
import io
import json

from hypothesis import given, settings, strategies as st

from ffq.cli import COMMANDS, FLAGS, main

# a rule so coarse that an integrating command costs milliseconds
_COARSE = ["--quad-nr", "4", "--quad-ntheta", "4", "--quad-panels-r", "1",
           "--quad-panels-theta", "1", "--max-refine", "1"]

_JSON = ["[[1,0],[0.5,-0.25]]", "[[0,0],[1,0,0,1]]", "[0.3,0.1]", "[0.9,-0.2]",
         "[-0.5,0]", "[[0,1,0,0],[0,0,1,0]]", "[0.5,0.8]", '[1,"inf"]', "[]",
         "[[NaN,0]]", "[[Infinity,0]]", "[[1e200,0]]", "[NaN]", "{}", "0.4",
         '"x"', "[[1,0], oops]", "["]
_NUMBERS = ["0.5", "0.3", "1", "0", "-1", "NaN", "Infinity", "1e200", "x"]
_STRINGS = {
    "k": ["0", "1", "2", "inf", "1.5", "-1", "NaN"],
    "method": ["quad", "series", "closed-k1", "closed", "limit", "split",
               "direct", "bogus"],
    "real_f": ["poly", "exp", "sin-offset", "bogus"],
    "format": ["json", "csv", "xml"],
}
_QUAD_INTS = ["4", "0", "-3", "40", "1.5"]


def _values(name):
    parse = FLAGS[name][1]
    if parse is str:
        return _STRINGS[name]
    if parse is int:
        return _QUAD_INTS
    if parse is float:
        return _NUMBERS
    return _JSON


# a valid job for each command, so that the drawn flags, which come later
# and win, reach the computation and not only the first missing input
_VALID = {
    "deriv": ["--f", "[[1,0],[0.5,0]]", "--z", "[0.3,0.1]"],
    "qderiv": ["--f", "[[1,0,0,0],[0,0.5,0,0.5]]", "--z", "[0.3,0.1]"],
    "norm": ["--f", "[[1,0],[0.5,0]]"],
    "qnorm": ["--f", "[[1,0,0,0],[0,0.5,0,0.5]]"],
    "kernel": ["--z", "[0.6,0.2]", "--zeta", "[0.3,0.1]"],
    "table": ["--f", "[[1,0],[0.5,0]]"],
}


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(_VALID)))
    names = draw(st.lists(st.sampled_from(COMMANDS[command] + ("format",)),
                          unique=True, max_size=4))
    argv = [command] + _VALID[command]
    if "max_refine" in COMMANDS[command]:
        argv += _COARSE
    for name in names:
        argv += ["--" + name.replace("_", "-"), draw(st.sampled_from(_values(name)))]
    return argv


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@settings(max_examples=300, deadline=None)
@given(command_lines())
def test_hostile_command_lines_keep_the_exit_code_and_output_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4)
    if err.getvalue():
        assert "error" in json.loads(err.getvalue(), parse_constant=_reject_constant)
    if not out.getvalue():
        return
    if "csv" in argv:  # --format csv, the only flag that draws "csv"
        rows = list(csv.reader(io.StringIO(out.getvalue())))
        assert len({len(row) for row in rows}) == 1
    else:
        json.loads(out.getvalue(), parse_constant=_reject_constant)
