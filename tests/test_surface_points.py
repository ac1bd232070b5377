"""Bit-level pins of the balanced-stack sweep.

``tests/data/surface_points.json`` holds seeded (V, L, N grid, k grid) cases
over V in [1e-12, 1e3], k in [0.05, 50] and N in [1, 1e7], with the ``repr``
of T, R_left, R_right and absdet_err at every point, plus one case where the
Chebyshev angle is exactly 0 (U_{N-1} = N).  Every printed digit of a sweep
must survive a change of evaluation strategy, so the comparison is exact.
Rewrite the file only after a deliberate numerical change, with
``PYTHONPATH=src python tests/test_surface_points.py --record``.
"""

import itertools
import json
import math
import random
import sys
from pathlib import Path

from ptstack import PeriodicSpec, periodic_matrix, scattering_from_matrix, transmission_surface, unit_cell_elements
from conftest import surface_points

DATA = Path(__file__).parent / "data" / "surface_points.json"


def _regime(v, total_length, n, k):
    """The Chebyshev branch of one point, classified from its gap 1 - xi."""
    gap = unit_cell_elements(k, v, total_length / (2.0 * n)).one_minus_xi
    if gap == 0.0:
        return "zero-angle"
    if gap > 1.0:
        return "reflected"
    return "hyperbolic" if gap < 0.0 else "oscillatory"


def _cases():
    return json.loads(DATA.read_text(encoding="utf-8"))["cases"]


def test_surface_points_reproduce_exactly():
    points = 0
    for case in _cases():
        table = transmission_surface(case["v"], case["total_length"], case["n"], case["k"])
        got = [[repr(x) for x in point[2:]] for point in surface_points(table)]
        assert got == case["rows"], case
        points += len(got)
    assert points >= 300


def test_surface_points_match_the_scalar_chain():
    # The sweep's per-point kernel and the public wrappers must not drift apart.
    for case in _cases():
        for (n, k), row in zip(itertools.product(case["n"], case["k"]), case["rows"], strict=True):
            m = periodic_matrix(PeriodicSpec(v=case["v"], n_cells=n, total_length=case["total_length"]), k)
            s = scattering_from_matrix(m)
            assert [repr(x) for x in (s.big_t, s.big_r_left, s.big_r_right, m.absdet_err)] == row, (case["v"], n, k)


def test_surface_points_cover_every_regime():
    regimes = {
        _regime(c["v"], c["total_length"], n, k) for c in _cases() for n in c["n"] for k in c["k"]
    }
    assert regimes == {"oscillatory", "hyperbolic", "reflected", "zero-angle"}
    assert max(n for c in _cases() for n in c["n"]) >= 10**7 - 10**6


def _draw_case(rng):
    log_uniform = lambda lo, hi: 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))
    n = sorted({int(round(log_uniform(1, 1e7))) for _ in range(2)})
    k = sorted({float(f"{log_uniform(0.05, 50):.6g}") for _ in range(3)})
    return {
        "v": float(f"{log_uniform(1e-12, 1e3):.6g}"),
        "total_length": float(f"{log_uniform(0.05, 10):.4g}"),
        "n": n,
        "k": k,
    }


def _record():
    rng = random.Random(20261018)
    cases = [
        # gap underflows to exactly 0 at this width: the sin(theta) = 0 branch
        {"v": 1.0, "total_length": 1e-170, "n": [1, 3], "k": [1.0, 2.5]},
        {"v": 40.0, "total_length": 1.0, "n": [10**7], "k": [0.05, 1.0, 50.0]},
    ]
    targets = {"oscillatory": 80, "hyperbolic": 40, "reflected": 40}
    counts = dict.fromkeys(targets, 0)
    while any(counts[r] < targets[r] for r in targets):
        case = _draw_case(rng)
        try:
            table = transmission_surface(case["v"], case["total_length"], case["n"], case["k"])
        except ArithmeticError:
            continue
        if not all(math.isfinite(x) for point in surface_points(table) for x in point[2:]):
            continue
        regimes = [_regime(case["v"], case["total_length"], n, k) for n in case["n"] for k in case["k"]]
        if not any(counts[r] < targets[r] for r in regimes):
            continue
        for r in regimes:
            counts[r] += 1
        cases.append(case)
    for case in cases:
        table = transmission_surface(case["v"], case["total_length"], case["n"], case["k"])
        case["rows"] = [[repr(x) for x in point[2:]] for point in surface_points(table)]
    text = json.dumps({"cases": cases}, indent=1) + "\n"
    DATA.write_text(text, encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_surface_points.py --record")
    _record()
