"""Every command line of every command (cell, sweep, converge, general,
oracle-check) ends one of three ways (README, "Exit codes"):

- exit 0, with every row and summary value finite except the documented
  0/0 of ``offdiag_ratio`` and ``offdiag_ratio_at_n_max``, the ODE-tier
  columns of ``oracle-check``, which read NaN where that tier does not run,
  and its summary values that are text;
- exit 3, a study that did not converge, its table held to the same rule;
- exit 1 or 2, with no output and exactly one stderr line that names the
  quantity that failed.

The options and their kinds are read from ``cli._COMMANDS``, so a new option
is drawn without editing this file.  ``oracle-check`` has one option,
``--ode-n-max``, whose few outcomes are listed as known command lines in
place of draws.  ``sweep`` and ``oracle-check`` fork one worker per CPU
inside ``main``; each run here sees one CPU, so they compute in this process.
"""

import io
import json
import math
import os
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptstack import cli

# Command -> the exit codes its draws must reach.
COMMANDS = {"cell": {0, 2}, "sweep": {0, 1, 2}, "converge": {0, 1, 2}, "general": {0, 1, 2}}
# The options that take a value of either sign; every other float is drawn > 0.
SIGNED = {"v1", "v2", "eps"}
# A 0/0 by design where offdiag_predicted is 0: NaN, never infinite.
# And the ODE-tier columns of oracle-check, NaN where that tier does not run.
MAY_BE_NAN = {"offdiag_ratio", "offdiag_ratio_at_n_max", "ode_vs_closed", "ode_vs_slab", "t_lr_diff"}
# Summary values that are text, not numbers.
TEXT = {"max_deviation_column", "verdict"}
# Python's own messages, which name no quantity.
BARE_MESSAGES = (
    "division by zero", "math domain error", "math range error", "Numerical result out of range",
    "cannot convert float", "int too large to convert",
)
# "<name> = <value>", "<name>=<value>" or "<name> must ...".
NAMES_A_QUANTITY = re.compile(r"\w ?= ?[-\w\[(]|\w must ")
PREFIXES = {1: "ptstack: error: ", 2: "ptstack: numerical failure: "}

# 5e-324 to 1e308: half the draws from 1e-3 to 1e3, where studies converge.
MAGNITUDES = st.one_of(
    st.sampled_from((5e-324, 1e308, 1.0)),
    st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e),
    st.floats(math.log10(5e-324), 308.0).map(lambda e: 10.0 ** e),
)
# A grid's cost is in proportion to its count, so counts stay small; an N
# runs to beyond the double range.
COUNTS = st.integers(-1, 40)
INTEGERS = st.one_of(
    st.integers(-1, 10),
    st.floats(0.0, 18.0).map(lambda e: int(10.0 ** e)),
    st.integers(0, 400).map(lambda e: 10 ** e),
)


def _value(name, opt):
    if isinstance(opt.kind, tuple):
        return st.sampled_from(opt.kind)
    if opt.kind is int:
        return COUNTS if name.endswith("_count") else INTEGERS
    assert opt.kind is float, (name, opt)
    if name in SIGNED:
        return st.tuples(st.sampled_from((1.0, -1.0)), MAGNITUDES).map(lambda pair: pair[0] * pair[1])
    return MAGNITUDES


@st.composite
def command_lines(draw, command):
    """``command`` with a format and a value for every required option and
    some of the others, each as ``--name=value``."""
    _, options, _ = cli._COMMANDS[command]
    argv = [command, f"--format={draw(st.sampled_from(cli._IO_OPTIONS['format'].kind))}"]
    for name, opt in options.items():
        if opt.default is not cli._REQUIRED and draw(st.booleans()):
            continue
        value = draw(_value(name, opt))
        argv.append(f"--{name.replace('_', '-')}={value if isinstance(value, str) else repr(value)}")
    return argv


def _table_values(fmt, text):
    """(name, value) of every row and summary value of a table, each part of
    a complex value on its own and a JSON null (a NaN) as NaN."""
    if fmt == "json":
        doc = json.loads(text)
        pairs = [pair for row in doc["rows"] for pair in row.items()] + list(doc.get("summary", {}).items())
        pairs = [(name, math.nan if value is None else value) for name, value in pairs]
        return [(name, part) for name, value in pairs for part in (value if isinstance(value, list) else [value])]
    lines = text.splitlines()
    first = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    header = lines[first].split(",")
    pairs = []
    for line in lines[first + 1:]:
        if line.startswith("# "):
            name, _, value = line[2:].partition(" = ")
            pairs.append((name, value))
        else:
            pairs += zip(header, line.split(","), strict=True)
    return [(name.removesuffix("_re").removesuffix("_im"), value) for name, value in pairs]


def check_outcome(monkeypatch, argv):
    """Run ``argv`` through ``cli.main`` on one CPU and hold its outcome to
    the three ways a run may end; return the exit code."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    out, err = out.getvalue(), err.getvalue()
    if code in (0, 3):
        assert err == "", (argv, err)
        values = _table_values(argv[1].removeprefix("--format="), out)
        assert any(name == "N" or name == "k" for name, _ in values), argv
        for name, value in values:
            if value in (True, False, "True", "False") or name in TEXT:
                continue
            value = float(value)
            assert math.isfinite(value) or (math.isnan(value) and name in MAY_BE_NAN), (argv, name, value)
    else:
        assert code in (1, 2), (argv, code, err)
        assert out == "" and err.count("\n") == 1 and err.endswith("\n"), (argv, err)
        assert err.startswith(PREFIXES[code]), (argv, err)
        message = err.removeprefix(PREFIXES[code])
        assert not any(bare in message for bare in BARE_MESSAGES), (argv, err)
        assert NAMES_A_QUANTITY.search(message), (argv, err)
    return code


@pytest.mark.parametrize("command", COMMANDS)
def test_every_command_line_ends_in_a_finite_table_or_one_named_line(monkeypatch, command):
    codes = []

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(command_lines(command))
    def ends_well(argv):
        codes.append(check_outcome(monkeypatch, argv))

    ends_well()
    # The draws must reach a table and each kind of failure the command has.
    assert len(codes) == 300
    assert COMMANDS[command] <= set(codes), (command, sorted(set(codes)))


# Derandomized examples are drawn from a hash of the test's body, so they
# change whenever it does; these command lines, each a failure some earlier
# version had, stay checked.  With the exit code they give.
KNOWN_COMMAND_LINES = [
    # kL/N underflows to 0 at N = 1000, then the slab width at N = 3162.
    (("converge", "--k", "0.001", "--v", "40", "--total-length", "1e-320"), 2),
    (("converge", "--k", "0.001", "--v", "40", "--total-length", "1e-319"), 2),
    (("converge", "--k", "1", "--v", "40", "--total-length", "1e-320"), 2),
    # kL underflows to 0: offdiag_predicted is 0.0 and offdiag_ratio NaN.
    (("converge", "--k", "1.070074002156527e-153", "--v", "1.0077630974831437",
      "--total-length", "7.299087398570541e-202"), 0),
    (("converge", "--k", "5.532455354892393e-135", "--v", "9.572420893579766e+128",
      "--total-length", "1.1920234855760173e-306", "--n-min", "10", "--n-max", "13851938",
      "--n-count", "37", "--n-spacing", "linear"), 0),
    # The last deviation rounds to 0, the fit is of rounding noise.
    (("converge", "--k", "1", "--v", "1e-320", "--n-count", "3"), 0),
    (("converge", "--k", "1e-160", "--v", "40"), 2),
    (("cell", "--k", "1", "--v", "1e300", "--b", "1"), 2),
    (("cell", "--k", "0.5", "--v", "40", "--b", "50"), 2),
    (("general", "--v1", "0", "--v2", "1e308", "--eps", "2", "--k", "1"), 2),
    (("general", "--v1", "0", "--v2", "40", "--eps", "1", "--k", "1e-160"), 2),
    (("general", "--v1", "0", "--v2", "40", "--eps", "1", "--k", "1", "--total-length", "1e-320"), 2),
    (("general", "--v1", "-7.42e-09", "--v2", "291496883.5", "--eps", "1e-160", "--k", "1e-160",
      "--n-min", "19", "--n-max", "115", "--n-count", "3", "--n-spacing", "linear",
      "--total-length", "4.2e-09"), 2),
    (("general", "--v1", "0", "--v2", "1e5", "--eps", "1", "--k", "1", "--total-length", "50"), 2),
    (("general", "--v1", "7", "--v2", "40", "--eps", "1", "--k", "1e10", "--total-length", "1e308",
      "--n-min", "1", "--n-max", "2", "--n-count", "2"), 2),
    (("general", "--v1", "0", "--v2", "40", "--eps", "1", "--k", "1", "--n-max", str(10**400)), 2),
    # float(n_min) overflowed, a bare "int too large to convert to float".
    (("converge", "--k", "1", "--v", "40", "--n-min", str(10**320), "--n-max", str(10**320)), 2),
    # The slab width L/(2N) underflows to 0 within the N grid.
    (("sweep", "--v", "40", "--total-length", "1e-320", "--n-min", "1", "--n-max", "100000",
      "--n-count", "3", "--k-count", "2"), 2),
    # An infinite k bound and a negative --ode-n-max are usage errors.
    (("sweep", "--v", "40", "--n-min", "1", "--n-max", "4", "--k-max", "inf"), 1),
    (("oracle-check", "--ode-n-max", "-1"), 1),
    # A count far beyond the distinct N of the range: the grid is every N in it.
    (("converge", "--k", "1", "--v", "40", "--n-min", "100", "--n-max", "200", "--n-count", "1000000000000"), 0),
    (("sweep", "--v", "40", "--n-min", "1", "--n-max", "10", "--n-count", "1000000000000", "--k-count", "2"), 0),
    # No ODE tier, the ODE tier up to each N of the oracle grid, and beyond it.
    *((("oracle-check", "--ode-n-max", str(n)), 0) for n in (0, 1, 4, 16, 64, 10**18)),
]


@pytest.mark.parametrize("argv, code", KNOWN_COMMAND_LINES)
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_known_command_lines_end_in_a_finite_table_or_one_named_line(monkeypatch, argv, code, fmt):
    assert check_outcome(monkeypatch, (argv[0], f"--format={fmt}", *argv[1:])) == code
