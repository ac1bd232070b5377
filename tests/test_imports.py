"""Guards on what the package imports."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import ptstack

PACKAGE_DIR = Path(ptstack.__file__).parent


SCIPY_MODULES = "sorted(m for m in sys.modules if m.startswith('scipy'))"


def _run(code: str) -> str:
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)},
    )
    return result.stdout.strip()


def test_import_does_not_load_scipy():
    # scipy is a test dependency only: the package never imports it.
    assert _run(f"import sys, ptstack; print({SCIPY_MODULES})") == "[]"


def test_oracle_check_runs_without_scipy(tmp_path):
    # A None entry in sys.modules makes any import of scipy fail.
    output = tmp_path / "oracle.csv"
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "from ptstack.cli import main\n"
        f"code = main(['oracle-check', '--quick', '--output', {str(output)!r}])\n"
        f"print(code, [m for m in {SCIPY_MODULES} if sys.modules[m] is not None])"
    )
    assert _run(code) == "0 []"
    assert "# verdict = ok" in output.read_text(encoding="utf-8")


def _package_imports(path: Path) -> set:
    """ptstack modules a source file imports from; "" is the package itself,
    which loads every module."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:
                if parts[0] != "ptstack":
                    continue
                parts = parts[1:]
            if parts in ([], [""]):  # from . import cell
                found.update({"", *(alias.name for alias in node.names)})
            else:
                found.add(parts[0])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "ptstack":
                    found.add(parts[1] if len(parts) > 1 else "")
    return found


def test_oracle_is_independent_of_the_closed_forms():
    # The oracle tier checks the closed forms, so it must not reuse them.
    imported = _package_imports(PACKAGE_DIR / "oracle.py")
    assert "core" in imported
    assert not imported & {"", "cell", "chebyshev", "stack", "scattering", "limits"}
    assert not _package_imports(PACKAGE_DIR / "dop853.py")
