"""The table parser in ``ptstack.cli`` against argparse in
``ptstack.commands.usage``: whenever the table parser reads a command line,
argparse reads it too, to the same values."""

import importlib.util
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptstack import cli
from ptstack.commands import usage
from test_cli import GOLDEN

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _argparse(argv):
    return usage.parse_args(argv, cli._COMMANDS, cli._IO_OPTIONS, "description", "ptstack 0")


def _flag(name):
    return f"--{name.replace('_', '-')}"


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
    return type(a) is type(b) and (a == b or a != a and b != b)


def test_table_parser_agrees_with_argparse():
    read = []

    @settings(max_examples=1500, deadline=None, derandomize=True, database=None)
    @given(argvs())
    def agree(argv):
        table = cli._parse(argv)
        read.append(table is not None)
        if table is not None:
            parsed = _argparse(argv)
            assert parsed.keys() == table.keys()
            assert all(_same(table[name], parsed[name]) for name in table), (table, parsed)

    agree()
    # The property tests only the command lines the table reads: the strategy
    # must make many of those, and many near misses it leaves to argparse.
    assert 0.2 < sum(read) / len(read) < 0.8


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
    assert table == _argparse(argv)


@pytest.mark.parametrize("argv", [
    [], ["bogus"], ["-h"], ["--help"], ["--version"], ["cell", "-h"], ["cell", "--help"], ["cell", "--version"],
    ["cell", "--k", "1", "--", "--v", "1"], ["cell", "--k", "1", "x"], ["cell", "--k", "1", "--b"],
    ["cell", "--out", "x.csv"], ["cell", "--k", "1", "--nope", "1"], ["cell", "--k", "x"],
    ["cell", "--format", "xml"], ["cell", "--b", "-x"], ["cell", "--fig3"], ["sweep", "--fig3=1"],
    ["sweep", "--n-spacing", "cubic"], ["sweep", "--n-spacing", "-1e1"], ["sweep", "--n-min", "1.5"],
    ["sweep", "--config", "-1"], ["sweep", "--k", "1"],
    # argparse before Python 3.13 reads "--" after "=" as no value
    ["cell", "--output=--"], ["cell", "--config=--"],
])
def test_table_parser_leaves_the_rest_to_argparse(argv):
    assert cli._parse(argv) is None


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_golden_and_benchmark_command_lines_skip_argparse():
    # So the benchmark measures the path that valid command lines take.
    # usage-bad-choice is the golden usage error that only argparse reports.
    for name, args in GOLDEN.items():
        for fmt in ("csv", "json"):
            assert (cli._parse([*args, "--format", fmt]) is None) == (name == "usage-bad-choice"), name
    workloads = _workloads()
    invocations = [inv for make in workloads.WORKLOADS.values() for seed in (1, 71, 190) for inv in make(seed).mix]
    assert len(invocations) == 18
    for inv in invocations:
        assert cli._parse([*inv.args, "--output", "out.csv"]) is not None, inv.args
