"""Guards on what the package imports."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_import_loads_no_submodule_and_no_numpy():
    loaded = "sorted(m for m in sys.modules if m.startswith(('ptstack.', 'numpy')))"
    assert _run(f"import sys, ptstack; print({loaded})") == "[]"


def test_public_names_resolve_on_first_access():
    assert set(ptstack.__all__) <= set(dir(ptstack))
    for name in ptstack.__all__:
        assert getattr(ptstack, name) is not None, name
    with pytest.raises(AttributeError, match="no_such_name"):
        ptstack.no_such_name


# The ptstack modules each subcommand runs besides the package and the CLI.
# ptstack.cli puts the others in sys.modules unexecuted (LazyLoader's module
# type); a module that has run is a plain module.
COMMAND_MODULES = {
    ("cell", "--k", "1", "--v", "40", "--b", "0.5"): {"core", "cell"},
    ("sweep", "--v", "40", "--n-min", "1", "--n-max", "4", "--n-count", "2", "--k-count", "3"):
        {"core", "cell", "chebyshev", "stack", "scattering"},
    ("converge", "--k", "1", "--v", "40", "--n-max", "1000", "--n-count", "3"):
        {"core", "cell", "chebyshev", "stack", "limits"},
    ("general", "--v1", "7", "--v2", "40", "--eps", "1", "--k", "3", "--n-max", "256", "--n-count", "2"):
        {"core", "cell", "chebyshev", "stack", "limits"},
    ("oracle-check", "--quick"): {"core", "cell", "chebyshev", "stack", "oracle", "dop853"},
}


@pytest.mark.parametrize("argv", list(COMMAND_MODULES), ids=lambda argv: argv[0])
def test_subcommand_runs_only_its_modules(argv, tmp_path):
    code = (
        "import sys, types\n"
        "from ptstack.cli import main\n"
        f"code = main([*{argv!r}, '--output', {str(tmp_path / 'out.csv')!r}])\n"
        "print(code, ' '.join(sorted(name for name, m in sys.modules.items()\n"
        "                            if name.startswith('ptstack') and type(m) is types.ModuleType)))"
    )
    expected = " ".join(sorted({"ptstack", "ptstack.cli", *(f"ptstack.{m}" for m in COMMAND_MODULES[argv])}))
    assert _run(code) == f"0 {expected}"


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


def _package_imports(path: Path, package: str = "ptstack") -> set:
    """Modules of ``package`` a source file imports from; "" is the package
    itself, whose names load the modules that define them.  Relative imports
    count as ptstack's."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:
                if parts[0] != package:
                    continue
                parts = parts[1:]
            elif package != "ptstack":
                continue
            if parts in ([], [""]):  # from . import cell
                found.update({"", *(alias.name for alias in node.names)})
            else:
                found.add(parts[0])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == package:
                    found.add(parts[1] if len(parts) > 1 else "")
    return found


def test_oracle_is_independent_of_the_closed_forms():
    # The oracle tier checks the closed forms, so it must not reuse them.
    imported = _package_imports(PACKAGE_DIR / "oracle.py")
    assert "core" in imported
    assert not imported & {"", "cell", "chebyshev", "stack", "scattering", "limits"}
    assert not _package_imports(PACKAGE_DIR / "dop853.py")
    # Nor numpy: the ODE tier runs on Python complex numbers, with no BLAS or
    # SIMD kernel that could change its bytes from host to host.
    for module in ("oracle.py", "dop853.py"):
        assert not _package_imports(PACKAGE_DIR / module, "numpy"), module
