"""Every ptstack name the benchmark under ``perfbench/`` imports or traces
must resolve, so a refactor cannot silently break its traced run."""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _traced():
    # Loaded under another name: perfbench/trace.py shadows the stdlib ``trace``.
    spec = importlib.util.spec_from_file_location("perfbench_trace", PERFBENCH / "trace.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(entry[0], entry[1]) for entry in module.TRACED]


def _imported():
    names = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ptstack":
                names.update((node.module, alias.name) for alias in node.names)
    return names


def test_benchmark_imports_found():
    assert ("ptstack.cli", "ORACLE_THRESHOLD") in _imported()


@pytest.mark.parametrize("module, name", sorted(set(_traced()) | _imported()))
def test_benchmark_name_resolves(module, name):
    assert hasattr(importlib.import_module(module), name)


def test_traced_names_are_functions():
    for module, name in _traced():
        assert callable(getattr(importlib.import_module(module), name)), f"{module}.{name}"


def _on_one_cpu():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def test_traced_run_wraps_every_layer(tmp_path):
    # The tracer replaces functions in the ptstack modules loaded when it
    # installs, right after importing ptstack.cli; modules a command runs
    # later must already be there.  oracle-check deals its rows to forked
    # workers, whose calls the tracer does not see, so the run gets one CPU
    # (a platform without affinity masks runs on one anyway).
    trace = tmp_path / "trace.json"
    subprocess.run(
        [sys.executable, str(PERFBENCH / "trace.py"), str(trace), "--",
         "oracle-check", "--quick", "--output", str(tmp_path / "out.csv")],
        check=True, env={**os.environ, "PYTHONPATH": str(PERFBENCH.parent / "src")},
        preexec_fn=_on_one_cpu if hasattr(os, "sched_setaffinity") else None,
    )
    record = json.loads(trace.read_text(encoding="utf-8"))
    calls = Counter()
    for name, _parent, count, *_ in record["totals"]:
        calls[name] += count
    assert calls["oracle.solve_ivp"] == 300
    assert record["counters"]["oracle.solve_ivp"] == {"nfev": 27372}
    assert calls["stack.periodic_matrix"] == 40
    assert calls["oracle.integrate_transfer_matrix"] == calls["oracle.incidence_scattering"] / 2 == 20


def test_traced_sweep_counts_its_points(tmp_path):
    # The tracer counts a sweep's points with len() of the TransmissionTable
    # that transmission_surface returns.  One N is one range, so the sweep
    # forks no worker and every call is traced in this process.
    trace = tmp_path / "trace.json"
    subprocess.run(
        [sys.executable, str(PERFBENCH / "trace.py"), str(trace), "--",
         "sweep", "--v", "40", "--n-min", "4", "--n-max", "4", "--n-count", "1", "--k-count", "3",
         "--output", str(tmp_path / "out.csv")],
        check=True, env={**os.environ, "PYTHONPATH": str(PERFBENCH.parent / "src")},
    )
    record = json.loads(trace.read_text(encoding="utf-8"))
    assert record["counters"]["scattering.transmission_surface"] == {"points": 3}
