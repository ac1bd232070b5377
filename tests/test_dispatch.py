"""Output bytes must not depend on the SIMD code numpy dispatches to.

numpy picks its transcendental and complex kernels by CPU feature at import,
and ``NPY_DISABLE_CPU_FEATURES`` switches the wider ones off.  A sweep,
``oracle-check --quick`` and a million-cell ``general`` study run both ways
must print the same bytes.  The variable is set only here (and in CI);
ptstack itself reads no environment variable.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
DISABLED = "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"
# 12 N x 40 k: 422 oscillatory, 20 hyperbolic and 38 reflected points.
SWEEP = (
    "sweep", "--v", "40", "--total-length", "1", "--n-min", "1", "--n-max", "1000000", "--n-count", "12",
    "--n-spacing", "log", "--k-min", "0.05", "--k-max", "20", "--k-count", "40",
)
GENERAL = ("general", "--v1", "7", "--v2", "40", "--eps", "1", "--k", "3", "--n-max", "1000000")


def _run(args, disable: bool) -> subprocess.CompletedProcess:
    env = {key: value for key, value in os.environ.items() if key != "NPY_DISABLE_CPU_FEATURES"}
    env["PYTHONPATH"] = str(SRC)
    if disable:
        env["NPY_DISABLE_CPU_FEATURES"] = DISABLED
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, check=False)


def _same_bytes_both_ways(args) -> None:
    probe = _run(["-c", "import numpy"], disable=True)
    if probe.returncode != 0:
        pytest.skip(f"numpy rejects NPY_DISABLE_CPU_FEATURES={DISABLED!r}: {probe.stderr.decode()[-200:]}")
    plain = _run(["-m", "ptstack.cli", *args], disable=False)
    narrow = _run(["-m", "ptstack.cli", *args], disable=True)
    assert (plain.returncode, plain.stderr) == (0, b"")
    assert (narrow.returncode, narrow.stderr) == (0, b"")
    assert plain.stdout == narrow.stdout


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_bytes_do_not_depend_on_numpy_dispatch(fmt):
    _same_bytes_both_ways([*SWEEP, "--format", fmt])


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_oracle_check_bytes_do_not_depend_on_numpy_dispatch(fmt):
    _same_bytes_both_ways(["oracle-check", "--quick", "--format", fmt])


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_general_bytes_do_not_depend_on_numpy_dispatch(fmt):
    _same_bytes_both_ways([*GENERAL, "--format", fmt])
