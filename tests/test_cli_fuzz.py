"""Hostile command lines and --job payloads drawn from the CLI's flag table:
every run exits 0, 2, 3 or 4, and writes strict JSON (or, for --format csv,
rectangular CSV)."""

import contextlib
import csv
import io
import json
import os

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
    # an --out that cannot be opened: its directory does not exist
    "out": [os.path.join(os.path.dirname(__file__), "no-such-dir", "out.json")],
}
_QUAD_INTS = ["4", "0", "-3", "40", "1.5"]
# JSON nested deeper than the decoder's recursion limit
_DEEP = "[" * 3000 + "]" * 3000


def _values(name):
    parse = FLAGS[name][1]
    if parse is str:
        return _STRINGS[name]
    if parse is int:
        return _QUAD_INTS
    if parse is float:
        return _NUMBERS
    return _JSON + [_DEEP]


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
    names = draw(st.lists(st.sampled_from(COMMANDS[command].flags + ("format", "out")),
                          unique=True, max_size=4))
    argv = [command] + _VALID[command]
    if "max_refine" in COMMANDS[command].flags:
        argv += _COARSE
    for name in names:
        argv += ["--" + name.replace("_", "-"), draw(st.sampled_from(_values(name)))]
    return argv


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _decoded(text):
    """A flag's text as the JSON value a payload would carry; text that is
    not JSON arrives as a string."""
    try:
        return json.loads(text)
    except ValueError:
        return text


# every flag value above, decoded, for any field: the payload route has no
# per-flag parser, so a field may get a value of any type
_ANY = [_decoded(text) for text in _JSON + _NUMBERS + _QUAD_INTS]
_ANY += [text for texts in _STRINGS.values() for text in texts]
_ANY += [None, True, -1, 2.5, {"nr": 4}]
_NON_STRING_OUT = [value for value in _ANY if not isinstance(value, str)]
# _COARSE as the quad object of a payload
_COARSE_QUAD = {FLAGS[flag[2:].replace("-", "_")][0].partition(".")[2]: int(text)
                for flag, text in zip(_COARSE[::2], _COARSE[1::2])}


@st.composite
def job_payloads(draw):
    command = draw(st.sampled_from(sorted(_VALID)))
    valid = _VALID[command]
    payload = {"command": command}
    payload.update((flag[2:], json.loads(text)) for flag, text in zip(valid[::2], valid[1::2]))
    if "max_refine" in COMMANDS[command].flags:
        payload["quad"] = dict(_COARSE_QUAD)
    names = draw(st.lists(st.sampled_from(COMMANDS[command].flags
                                          + ("format", "out", "command", "colour")),
                          unique=True, max_size=4))
    for name in names:
        field = FLAGS[name][0] if name in FLAGS else name
        head, _, key = field.partition(".")
        # a string out stays a missing path, so no draw writes a file; any
        # other type is refused before anything runs
        value = draw(st.sampled_from(_NON_STRING_OUT + _STRINGS["out"] if name == "out"
                                     else _ANY))
        if key:
            payload.setdefault(head, {})[key] = value
        else:
            payload[field] = value
    payload = draw(st.sampled_from([payload] * 6 + [[payload], "x", 3, None, _DEEP]))
    return command, payload, _DEEP if payload is _DEEP else json.dumps(payload)


def _check_contract(argv, csv_output):
    """Run argv; the exit code is documented and every output parses."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4)
    if err.getvalue():
        assert "error" in json.loads(err.getvalue(), parse_constant=_reject_constant)
    if not out.getvalue():
        return
    if csv_output:
        rows = list(csv.reader(io.StringIO(out.getvalue())))
        assert len({len(row) for row in rows}) == 1
    else:
        json.loads(out.getvalue(), parse_constant=_reject_constant)


@settings(max_examples=300, deadline=None)
@given(command_lines())
def test_hostile_command_lines_keep_the_exit_code_and_output_contract(argv):
    _check_contract(argv, "csv" in argv)  # --format csv, the only flag that draws "csv"


@settings(max_examples=300, deadline=None)
@given(job_payloads())
def test_hostile_job_payloads_keep_the_exit_code_and_output_contract(drawn):
    command, payload, text = drawn
    csv_output = isinstance(payload, dict) and payload.get("format") == "csv"
    _check_contract([command, "--job", text], csv_output)
