"""The command-line parser in ``ptstack.cli`` against argparse.

The reference is an argparse parser built here from the same option table,
as the package read command lines before it had its own parser.  Both read
every command line alike: to the same values, to help or version, or to a
usage error."""

import argparse
import importlib.util
import io
import re
import sys
from contextlib import redirect_stdout
from pathlib import Path

import hypothesis
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptstack import cli
from ptstack.commands.common import CliUsageError
from test_cli import GOLDEN, run_cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


class _Reference(argparse.ArgumentParser):
    def error(self, message):
        raise CliUsageError(message)


def _flag(name):
    return f"--{name.replace('_', '-')}"


def _reference_parser():
    parser = _Reference(prog="ptstack")
    parser.add_argument("--version", action="version", version="ptstack 0")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, options, preset) in cli._COMMANDS.items():
        command = sub.add_parser(name)
        for opt_name, opt in [*options.items(), *([(preset.flag, None)] if preset else []), *cli._IO_OPTIONS.items()]:
            if opt is None:
                command.add_argument(_flag(opt_name), action="store_true")
            else:
                kind = {"choices": opt.kind} if isinstance(opt.kind, tuple) else {"type": opt.kind}
                command.add_argument(_flag(opt_name), **kind)
        command.add_argument("--config")
    # Newer versions of argparse also read "-1e1" as a negative number, a
    # value; the reference keeps the one pattern on every version.
    for each in (parser, *sub.choices.values()):
        each._negative_number_matcher = re.compile(r"^-\d+$|^-\d*\.\d+$")
    return parser


REFERENCE = _reference_parser()

# Each command's options by flag, with the kind its value is cast to (None
# for a preset flag, which takes no value).
FLAGS = {
    command: {
        **{_flag(name): opt.kind for name, opt in {**options, **cli._IO_OPTIONS}.items()},
        "--config": str,
        **({_flag(preset.flag): None} if preset else {}),
    }
    for command, (_, options, preset) in cli._COMMANDS.items()
}
ALL_FLAGS = sorted({flag for flags in FLAGS.values() for flag in flags})
# The flags the reference joins "-1e1" to: those of options with a typed value.
TYPED_FLAGS = {flag for flags in FLAGS.values() for flag, kind in flags.items()
               if kind in (float, int, str)} - {"--config"}


def _reads_as_float(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


def _join_negative_values(argv):
    """``argv`` with each typed option's flag joined to a following token that
    starts with ``-`` and reads as a float (``--v1 -1e1`` becomes
    ``--v1=-1e1``), which argparse would otherwise take for an option."""
    joined = []
    for token in argv:
        if joined and joined[-1] in TYPED_FLAGS and token.startswith("-") and _reads_as_float(token):
            joined[-1] += f"={token}"
        else:
            joined.append(token)
    return joined


def _reference(argv):
    out = io.StringIO()
    try:
        with redirect_stdout(out):
            return vars(REFERENCE.parse_args(_join_negative_values(argv)))
    except CliUsageError:
        return "error"
    except SystemExit:
        return "version" if out.getvalue().startswith("ptstack ") else "help"


def _ours(argv):
    try:
        parsed = cli._parse(argv)
    except CliUsageError:
        return "error"
    if isinstance(parsed, str):
        return "version" if parsed.startswith("ptstack ") else "help"
    return parsed


VALUES = {
    float: ["1", "40", "0.05", "-1", "-10", "-1.5", "-1e1", "-1.5e0", "-1E-1", "1e400", "inf", "-inf", "nan", "-nan",
            " 3", "1_0"],
    int: ["1", "5", "64", "-1", "-1e1", "1.5", "+4", "1_000", "0"],
    str: ["out.csv", "-", "a=b", "-1", "x y"],
}
ODD_VALUES = ["-", "-x", "", "x", "--", "-h", "--help", "--v", "csv", "json", "linear", "log", "cubic", "-1e1"]
ODD_FLAGS = ["--nope", "--n_min", "-h", "--help", "--version", "--", "-x", "x", "--fig3", "--quick", "---v"]


@st.composite
def argvs(draw):
    command = draw(st.sampled_from([*cli._COMMANDS] * 3 + ["bogus", "-h", "--help", "--version", "--"]))
    own = sorted(FLAGS.get(command, {}))
    argv = [command] if draw(st.integers(0, 9)) else []
    for _ in range(draw(st.integers(0, 8))):
        if own and draw(st.integers(0, 9)):
            flag = draw(st.sampled_from(own))
        else:
            flag = draw(st.one_of(
                st.sampled_from(ALL_FLAGS),
                st.sampled_from(ALL_FLAGS).flatmap(lambda f: st.integers(3, len(f)).map(lambda i: f[:i])),
                st.sampled_from(ODD_FLAGS),
            ))
        kind = FLAGS.get(command, {}).get(flag, str)
        if kind is None:
            if draw(st.integers(0, 3)):
                argv.append(flag)
                continue
            kind = str
        if draw(st.integers(0, 9)):
            value = draw(st.sampled_from(list(kind) if isinstance(kind, tuple) else VALUES[kind]))
        else:
            value = draw(st.one_of(st.sampled_from(ODD_VALUES), st.text(max_size=3)))
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    return argv


def _same(a, b):
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[name], b[name]) for name in a)
    return type(a) is type(b) and (a == b or a != a and b != b)


def test_table_parser_agrees_with_argparse():
    # Fixed seeds, not derandomize: derandomized examples are drawn from a
    # hash of the test's body, so they would change whenever the body does.
    for seed in (1, 2, 3):
        outcomes = []

        @hypothesis.seed(seed)
        @settings(max_examples=500, deadline=None, database=None)
        @given(argvs())
        def agree(argv):
            ours, reference = _ours(argv), _reference(argv)
            outcomes.append(ours if isinstance(ours, str) else "values")
            # argparse before Python 3.13 reads "--" after "=" as no value at all.
            if sys.version_info < (3, 13) and any(token.partition("=")[2] == "--" for token in argv):
                return
            assert _same(ours, reference), (ours, reference)

        agree()
        # The strategy must make many command lines that parse, and many
        # near misses that are usage errors.
        assert len(outcomes) == 500
        assert 0.2 < outcomes.count("values") / len(outcomes) < 0.8, seed
        assert 0.2 < outcomes.count("error") / len(outcomes) < 0.8, seed


@pytest.mark.parametrize("argv", [
    ["cell", "-hh"], ["cell", "-h=h"], ["cell", "-hx"], ["-h="], ["--help=x"], ["--vers=1"],
    ["cell", "--output", "-x y"], ["cell", "--config", "-1.5"], ["cell", "--config", "-1e1"], ["cell", "--b", "- a"],
    ["--"], ["--nope", "--"], ["--", "--"], ["--", "cell"], ["cell", "--k", "1", "--v", "1", "--b", "1", "--"],
    ["--v", "-1"], ["--output", "-1", "--v"], ["--nope", "-h"], ["sweep", "-h", "--n"], ["sweep", "--fig"],
])
def test_edge_cases_agree_with_argparse(argv):
    # Rare in the strategy above: the letters after -h, values with a space,
    # "--" with nothing after it, and a float after a typed option's name
    # before the command.
    assert _same(_ours(argv), _reference(argv))


@pytest.mark.parametrize("argv, values", [
    (["cell", "--k", "1", "--v=40", "--b", "0.05", "--b", "0.5"], {"k": 1.0, "v": 40.0, "b": 0.5}),
    (["general", "--v1", "-1e1", "--eps", "-inf", "--n-min=-2"], {"v1": -10.0, "n_min": -2}),
    (["sweep", "--fig3", "--n-spacing", "log", "--output", "-", "--config", "c.cfg"],
     {"fig3": True, "n_spacing": "log", "output": "-", "config": "c.cfg", "v": None}),
    (["oracle-check", "--quick", "--ode-n-max", "0", "--format", "json"], {"quick": True, "ode_n_max": 0}),
])
def test_table_parser_values(argv, values):
    table = cli._parse(argv)
    assert {name: table[name] for name in values} == values
    assert table == _reference(argv)


# The command lines the table parser once left to argparse, with the exit
# code and the message argparse gave them.  "=--" is the exception: the text
# after "=" is the value, as argparse reads it from Python 3.13 on.
LEFT_TO_ARGPARSE = {
    (): (1, "the following arguments are required: command"),
    ("bogus",): (1, "argument command: invalid choice: 'bogus' "
                    "(choose from 'cell', 'sweep', 'converge', 'general', 'oracle-check')"),
    ("-h",): (0, None),
    ("--help",): (0, None),
    ("--version",): (0, None),
    ("cell", "-h"): (0, None),
    ("cell", "--help"): (0, None),
    ("cell", "--version"): (1, "unrecognized arguments: --version"),
    ("cell", "--k", "1", "--", "--v", "1"): (1, "unrecognized arguments: -- --v 1"),
    ("cell", "--k", "1", "x"): (1, "unrecognized arguments: x"),
    ("cell", "--k", "1", "--b"): (1, "argument --b: expected one argument"),
    ("cell", "--out", "x.csv"): (1, "missing required option --k"),
    ("cell", "--k", "1", "--nope", "1"): (1, "unrecognized arguments: --nope 1"),
    ("cell", "--k", "x"): (1, "argument --k: invalid float value: 'x'"),
    ("cell", "--format", "xml"): (1, "argument --format: invalid choice: 'xml' (choose from 'csv', 'json')"),
    ("cell", "--b", "-x"): (1, "argument --b: expected one argument"),
    ("cell", "--fig3"): (1, "unrecognized arguments: --fig3"),
    ("sweep", "--fig3=1"): (1, "argument --fig3: ignored explicit argument '1'"),
    ("sweep", "--n-spacing", "cubic"): (1, "argument --n-spacing: invalid choice: 'cubic' "
                                           "(choose from 'linear', 'log')"),
    ("sweep", "--n-spacing", "-1e1"): (1, "argument --n-spacing: expected one argument"),
    ("sweep", "--n-min", "1.5"): (1, "argument --n-min: invalid int value: '1.5'"),
    ("sweep", "--config", "-1"): (1, "cannot read config file -1: [Errno 2] No such file or directory: '-1'"),
    ("sweep", "--k", "1"): (1, "ambiguous option: --k could match --k-min, --k-max, --k-count"),
    ("cell", "--output=--"): (1, "missing required option --k"),
    ("cell", "--config=--"): (1, "cannot read config file --: [Errno 2] No such file or directory: '--'"),
}


@pytest.mark.parametrize("argv", [list(argv) for argv in LEFT_TO_ARGPARSE])
def test_table_parser_leaves_the_rest_to_argparse(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)  # no file named -1 or --
    code, message = LEFT_TO_ARGPARSE[tuple(argv)]
    assert run_cli(capsys, *argv)[::2] == (code, f"ptstack: error: {message}\n" if message else "")


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["cell", "-h"], ["sweep", "--help"]])
def test_help_lists_the_option_table(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    usage, rest = out.split("\n\n", 1)
    description, rows = rest.rsplit("\n\n", 1)
    if len(argv) == 1:
        assert usage == "usage: ptstack [-h] [--version] {cell,sweep,converge,general,oracle-check} ..."
        assert description == cli.__doc__[:cli.__doc__.rindex("\n\n")]  # the last paragraph is about the code
        assert rows.startswith("commands:\n")
        assert all(f"  {name}  " in rows and help_text in rows for name, (help_text, _, _) in cli._COMMANDS.items())
    else:
        help_text, options, preset = cli._COMMANDS[argv[0]]
        assert (usage, description) == (f"usage: ptstack {argv[0]} [options]", help_text)
        assert rows.startswith("options:\n  -h, --help  ")
        flags = [*map(_flag, {**options, **cli._IO_OPTIONS}), "--config", *([_flag(preset.flag)] if preset else [])]
        assert all(f"  {flag} " in rows for flag in flags)
        assert "--n-spacing {linear,log}" in rows if argv[0] == "sweep" else "--format {csv,json}" in rows
        assert all(opt.help in rows for opt in {**options, **cli._IO_OPTIONS}.values() if opt.help)
        assert preset is None or preset.help in rows


@pytest.mark.parametrize("option, value", [("output", "--"), ("config", "--"), ("format", "--")])
def test_double_dash_after_equals_is_the_value(capsys, monkeypatch, tmp_path, option, value):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "cell", "--k", "1", "--v", "40", "--b", "0.05", f"--{option}={value}")
    if option == "output":
        assert (code, out, err) == (0, "", "")
        assert (tmp_path / "--").read_text(encoding="utf-8").startswith("# tool = ptstack\n")
    elif option == "config":
        assert (code, err) == (1, "ptstack: error: cannot read config file --: "
                                  "[Errno 2] No such file or directory: '--'\n")
    else:
        assert (code, err) == (1, "ptstack: error: argument --format: invalid choice: '--' "
                                  "(choose from 'csv', 'json')\n")


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_golden_and_benchmark_command_lines_parse():
    # usage-bad-choice is the golden usage error the parser reports.
    for name, args in GOLDEN.items():
        for fmt in ("csv", "json"):
            if name == "usage-bad-choice":
                with pytest.raises(CliUsageError, match="invalid choice: 'cubic'"):
                    cli._parse([*args, "--format", fmt])
            else:
                assert isinstance(cli._parse([*args, "--format", fmt]), dict), name
    workloads = _workloads()
    invocations = [inv for make in workloads.WORKLOADS.values() for seed in (1, 71, 190) for inv in make(seed).mix]
    assert len(invocations) == 18
    for inv in invocations:
        assert isinstance(cli._parse([*inv.args, "--output", "out.csv"]), dict), inv.args
