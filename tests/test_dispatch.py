"""Output must hold, to rounding, when glibc's libm picks other kernels.

ptstack imports no numpy, so the one CPU dispatch that reaches its output
is the C library's: on x86-64, glibc picks FMA/AVX2 variants of ``sin``,
``cos``, ``exp``, ``log``, ``atan``, ``asin``, ``sinh``, ``cosh`` and
``asinh`` where the CPU has them, and those can differ from the plain
variants by 1-2 ulp.  ``GLIBC_TUNABLES`` switches the features off for one
process.  A sweep and ``oracle-check --quick`` run both ways must print the
same lines, with every number within ``BOUND`` scale-relative
(``|a - b| / max(1, |a|, |b|)``).  The recorded outputs in ``tests/data``
hold only where the FMA variants are picked; README "Numerical notes" lists
the tests that fail without them.

The variable is set only here; ptstack itself reads no environment variable.
"""

import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
# glibc 2.33 and later read -AVX2 and -FMA (2.36 ignores the *_Usable
# names); earlier glibc knows only -AVX2_Usable and -FMA_Usable.
NO_FMA = "glibc.cpu.hwcaps=-AVX2_Usable,-FMA_Usable,-AVX2,-FMA"
BOUND = 1e-13
# 12 N x 40 k: 422 oscillatory, 20 hyperbolic and 38 reflected points.
SWEEP = (
    "sweep", "--v", "40", "--total-length", "1", "--n-min", "1", "--n-max", "1000000", "--n-count", "12",
    "--n-spacing", "log", "--k-min", "0.05", "--k-max", "20", "--k-count", "40",
)
NUMBER = re.compile(r"[-+]?\d+(?:\.\d*)?(?:e[-+]?\d+)?")


def _run(args, tunables: str | None) -> str:
    env = {key: value for key, value in os.environ.items() if key != "GLIBC_TUNABLES"}
    env["PYTHONPATH"] = str(SRC)
    if tunables:
        env["GLIBC_TUNABLES"] = tunables
    run = subprocess.run([sys.executable, "-m", "ptstack.cli", *args], env=env, capture_output=True, text=True, check=False)
    assert (run.returncode, run.stderr) == (0, "")
    return run.stdout


def _worst_difference(plain: str, narrow: str) -> float:
    """Largest scale-relative difference between the numbers of two outputs
    whose lines are the same apart from their numbers."""
    plain_lines, narrow_lines = plain.splitlines(), narrow.splitlines()
    assert len(plain_lines) == len(narrow_lines)
    worst = 0.0
    for a_line, b_line in zip(plain_lines, narrow_lines):
        assert NUMBER.sub("#", a_line) == NUMBER.sub("#", b_line)
        for a, b in zip(map(float, NUMBER.findall(a_line)), map(float, NUMBER.findall(b_line))):
            worst = max(worst, abs(a - b) / max(1.0, abs(a), abs(b)))
    return worst


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="GLIBC_TUNABLES is read by glibc only")
def test_output_holds_without_libm_fma_variants():
    for args in (SWEEP, ("oracle-check", "--quick")):
        assert _worst_difference(_run(args, None), _run(args, NO_FMA)) <= BOUND, args
