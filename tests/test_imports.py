"""Guards on what the package imports."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ptstack

PACKAGE_DIR = Path(ptstack.__file__).parent
README = Path(__file__).resolve().parent.parent / "README.md"


SCIPY_MODULES = "sorted(m for m in sys.modules if m.startswith('scipy'))"


def _run(code: str, *flags: str) -> str:
    result = subprocess.run(
        [sys.executable, *flags, "-c", code], capture_output=True, text=True, check=True,
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


# The plane-wave product and its helpers: the oracle tier is the one
# brute-force reference on the public API, and these stay in their modules
# only for the names the benchmark's tracer wraps.
NOT_EXPORTED = {"compose_stack": "stack", "mat_multiply": "core", "WaveNumberMismatchError": "core"}


@pytest.mark.parametrize("name", list(NOT_EXPORTED))
def test_plane_wave_product_is_not_public(name):
    assert name not in ptstack.__all__
    assert name not in dir(ptstack)
    with pytest.raises(AttributeError, match=name):
        getattr(ptstack, name)
    assert getattr(importlib.import_module(f"ptstack.{NOT_EXPORTED[name]}"), name) is not None


def test_readme_library_table_names_resolve():
    # Every backticked name in the Contents cell of a row of README's
    # "Library sketch" table whose Module cell is one module is an attribute
    # of that module, so the table names no deleted function.
    table = README.read_text(encoding="utf-8").split("## Library sketch\n\n", 1)[1]
    checked = 0
    for line in table.splitlines():
        if not line.startswith("|"):
            break
        first, contents = (cell.strip() for cell in line.strip("|").split("|"))
        module = re.fullmatch(r"`(ptstack(?:\.\w+)*)`", first)
        if module is None:
            continue
        imported = importlib.import_module(module[1])
        for name in re.findall(r"`([^`]+)`", contents):
            if name.isidentifier():
                assert hasattr(imported, name), (module[1], name)
                checked += 1
    assert checked >= 30


# The ptstack modules each subcommand runs besides the package, the CLI and
# ptstack.commands.common: its own command module, and no other command's,
# the fork helper ptstack.commands.forked for sweep and oracle-check, and the
# library modules it uses.  ptstack.cli puts the library modules in
# sys.modules unexecuted (LazyLoader's module type); a module that has run is
# a plain module.  oracle-check with no ODE row loads no integrator: the oracle
# tier imports it on its first integration.
NO_ODE = ("oracle-check", "--ode-n-max", "0")
COMMAND_MODULES = {
    ("cell", "--k", "1", "--v", "40", "--b", "0.5"): {"commands.cell", "core", "cell"},
    ("sweep", "--v", "40", "--n-min", "1", "--n-max", "4", "--n-count", "2", "--k-count", "3"):
        {"commands.sweep", "commands.forked", "core", "cell", "chebyshev", "stack", "scattering"},
    ("converge", "--k", "1", "--v", "40", "--n-max", "1000", "--n-count", "3"):
        {"commands.converge", "core", "cell", "chebyshev", "stack", "limits"},
    ("general", "--v1", "7", "--v2", "40", "--eps", "1", "--k", "3", "--n-max", "256", "--n-count", "2"):
        {"commands.general", "core", "cell", "chebyshev", "stack", "limits"},
    ("oracle-check", "--quick"):
        {"commands.oracle_check", "commands.forked", "core", "cell", "chebyshev", "stack", "oracle", "dop853"},
    NO_ODE: {"commands.oracle_check", "commands.forked", "core", "cell", "chebyshev", "stack", "oracle"},
}


def _command_id(argv) -> str:
    return "oracle-check-no-ode" if argv == NO_ODE else argv[0]


# Standard modules no command loads for CSV output without --config:
# dataclasses and inspect alone cost about 10 ms of start-up, signal serves
# only a failing sweep, json only --format json, and the config file is read
# with open().  ptstack.cli reads every command line itself, so no process
# loads argparse or gettext.  tempfile and shutil serve only sweep's range
# files.
STARTUP_FREE = ("dataclasses", "inspect", "signal", "json", "pathlib", "argparse", "gettext")
SWEEP_ONLY = ("tempfile", "shutil")


@pytest.mark.parametrize("argv", list(COMMAND_MODULES), ids=_command_id)
def test_subcommand_runs_only_its_modules(argv, tmp_path):
    # Only the modules loaded after ptstack.cli's import count.  The process
    # runs without the site module (-S), whose hooks may load some of them.
    code = (
        "import sys, types\n"
        "before = set(sys.modules)\n"
        "from ptstack.cli import main\n"
        f"code = main([*{argv!r}, '--output', {str(tmp_path / 'out.csv')!r}])\n"
        "print(code, ' '.join(sorted(name for name, m in sys.modules.items()\n"
        "                            if name.startswith('ptstack') and type(m) is types.ModuleType)))\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'numpy'))\n"
        "print(sorted(name for name in set(sys.modules) - before\n"
        f"             if name.split('.')[0] in {STARTUP_FREE + SWEEP_ONLY!r}))"
    )
    modules = {"", "cli", "commands", "commands.common", *COMMAND_MODULES[argv]}
    expected = " ".join(sorted(f"ptstack.{m}".rstrip(".") for m in modules))
    loaded_standard = sorted(SWEEP_ONLY) if argv[0] == "sweep" else []
    assert _run(code, "-S") == f"0 {expected}\n[]\n{loaded_standard}"


# --form abbreviates --format.
ABBREVIATED = ("cell", "--k", "1", "--v", "40", "--b", "0.5", "--form", "csv")


@pytest.mark.parametrize("argv, exit_code", [
    pytest.param(ABBREVIATED, 0, id="abbreviated"),
    pytest.param(("--help",), 0, id="help"),
    pytest.param(("--version",), 0, id="version"),
    pytest.param(("sweep", "--n", "5"), 1, id="usage-error"),
])
def test_no_command_line_loads_argparse(argv, exit_code, tmp_path):
    # Those of COMMAND_MODULES load neither (the test above); nor do these,
    # and the abbreviated option writes the bytes of the full name.
    output = [] if argv[0].startswith("-") else ["--output", str(tmp_path / "out.csv")]
    code = (
        "import io, sys\n"
        "from contextlib import redirect_stderr, redirect_stdout\n"
        "from ptstack.cli import main\n"
        "with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):\n"
        f"    code = main([*{argv!r}, *{output!r}])\n"
        "print(code, sorted(name for name in ('argparse', 'gettext') if name in sys.modules))\n"
    )
    assert _run(code, "-S") == f"{exit_code} []"
    if argv == ABBREVIATED:
        _run(f"from ptstack.cli import main; main([*{argv[:-2]!r}, '--output', {str(tmp_path / 'full.csv')!r}])")
        assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "full.csv").read_bytes()


@pytest.mark.parametrize("argv", [*(pytest.param(argv, id=_command_id(argv)) for argv in COMMAND_MODULES),
                                  pytest.param(ABBREVIATED, id="cell-abbreviated")])
def test_module_run_never_imports_the_cli_again(argv, tmp_path):
    # Under python -m ptstack.cli the front end runs as __main__; a command
    # that imported ptstack.cli would compile and run it again as a second
    # module.  run() ends the process through os._exit, which reports here;
    # sweep's and oracle-check's forked workers leave through it too, silently.
    code = (
        "import os, runpy, sys\n"
        "exit, pid = os._exit, os.getpid()\n"
        "def report(code):\n"
        "    if os.getpid() == pid:\n"
        "        print(code, 'ptstack.cli' in sys.modules, flush=True)\n"
        "    exit(code)\n"
        "os._exit = report\n"
        f"sys.argv = ['ptstack', *{argv!r}, '--output', {str(tmp_path / 'out.csv')!r}]\n"
        "runpy.run_module('ptstack.cli', run_name='__main__', alter_sys=True)\n"
    )
    assert _run(code, "-S") == "0 False"


def test_commands_do_not_import_the_cli():
    # The same trap on every code path, failing ones included.
    sources = sorted((PACKAGE_DIR / "commands").glob("*.py"))
    assert len(sources) >= 7
    for path in sources:
        assert "cli" not in _package_imports(path), path.name


def test_json_loads_only_for_json_output(tmp_path):
    # The other side of the guard above.  json is dropped first in case a
    # site hook loaded it.
    code = (
        "import sys\n"
        "from ptstack.cli import main\n"
        "sys.modules.pop('json', None)\n"
        "for fmt in ('csv', 'json'):\n"
        f"    main(['cell', '--k', '1', '--v', '40', '--b', '1', '--format', fmt, '--output', {str(tmp_path / 'out')!r}])\n"
        "    print('json' in sys.modules)"
    )
    assert _run(code) == "False\nTrue"


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


def test_package_does_not_import_dataclasses():
    # Records are NamedTuples or __slots__ classes: importing dataclasses
    # would load inspect, ast and dis into every process.
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        assert not _package_imports(path, "dataclasses"), path.name


def test_package_does_not_import_numpy():
    # The kernels run on Python floats and complex numbers, so numpy's SIMD
    # and BLAS kernels, picked by CPU, stay out of every output.  The C
    # library's math functions are picked by CPU too; test_dispatch.py checks
    # that the output holds when glibc's FMA variants are switched off.
    sources = sorted(PACKAGE_DIR.rglob("*.py"))
    assert len(sources) >= 10
    for path in sources:
        assert not _package_imports(path, "numpy"), path.name
