"""Output bytes must not depend on the SIMD code numpy dispatches to.

numpy picks its transcendental and complex kernels by CPU feature at import,
and ``NPY_DISABLE_CPU_FEATURES`` switches the wider ones off.  A sweep,
``oracle-check --quick`` and a million-cell ``general`` study run both ways
must print the same bytes.

OpenBLAS likewise picks its BLAS and LAPACK kernels by CPU, and
``OPENBLAS_CORETYPE`` forces one.  ``cell``, a sweep, ``converge``,
``general`` and ``oracle-check --quick`` must print the same bytes under each
kernel listed in ``CORETYPES``.

The variables are set only here (and in CI); ptstack itself reads no
environment variable.
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


# None leaves the choice to OpenBLAS.
CORETYPES = (None, "Haswell", "Zen", "Prescott")


def _run(args, disable: bool = False, coretype: str | None = None) -> subprocess.CompletedProcess:
    unset = ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE")
    env = {key: value for key, value in os.environ.items() if key not in unset}
    env["PYTHONPATH"] = str(SRC)
    if disable:
        env["NPY_DISABLE_CPU_FEATURES"] = DISABLED
    if coretype:
        env["OPENBLAS_CORETYPE"] = coretype
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


@pytest.mark.parametrize(
    "args",
    [
        ("cell", "--k", "1", "--v", "40", "--b", "0.05"),
        SWEEP,
        ("converge", "--k", "5", "--v", "40"),
        ("converge", "--k", "5", "--v", "40", "--n-min", "100", "--n-max", "10000", "--n-count", "5"),
        GENERAL,
        ("oracle-check", "--quick", "--format", "csv"),
        ("oracle-check", "--quick", "--format", "json"),
    ],
    ids=["cell", "sweep", "converge", "converge-golden", "general", "oracle-check-csv", "oracle-check-json"],
)
def test_bytes_do_not_depend_on_blas_kernel(args):
    runs = [_run(["-m", "ptstack.cli", *args], coretype=coretype) for coretype in CORETYPES]
    assert (runs[0].returncode, runs[0].stderr) == (0, b"")
    for coretype, run in zip(CORETYPES[1:], runs[1:]):
        assert (coretype, run.returncode, run.stdout) == (coretype, 0, runs[0].stdout)
