"""Every ptstack name the benchmark under ``perfbench/`` imports or traces
must resolve, so a refactor cannot silently break its traced run."""

import ast
import importlib
import importlib.util
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
