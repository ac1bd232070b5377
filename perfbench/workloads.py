"""The benchmark's workloads: seeded CLI invocations and their output checks.

A workload is a fixed mix of ``python -m ptstack.cli`` invocations (one
pass).  The seed moves the physical inputs inside a narrow band (the start
of the k range, V around 40, the k of ``converge``/``general``); it never
changes the grid sizes, so the work per pass is the same for every seed.

Every check returns a list of problems (empty when the output is correct).
Numbers are compared against the independent slab-propagation tier of
``ptstack.oracle``, never against the closed forms under test.
"""

from __future__ import annotations

import json
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

SURFACE_N = (1, 1_000_000, 100)  # n-min, n-max, n-count, log spacing
SURFACE_K_COUNT = 500
SURFACE_K_SPAN = 9.0  # k-max - k-min, as in the CLI's default 1..10 range
SURFACE_ORACLE_ROWS = 16
SURFACE_ORACLE_N_MAX = 4096
UNBALANCED_N = (128, 65536, 10)
GENERAL_DEFAULT_N = (128, 2048, 5)
CONVERGE_DEFAULT_N = (100, 100_000, 13)
ORACLE_CHECK_ROWS = 2 * 4 * 5  # |V grid| * |N grid| * |k grid| of oracle-check
ORACLE_CHECK_QUICK_N = 4  # --quick runs the ODE tier only for N <= 4
ROUNDING_MARGIN = 16  # deviation_inf vs oracle, in units of 2N * eps * entry scale

Check = Callable[[Path], list]


@dataclass(frozen=True)
class Invocation:
    """One CLI run: arguments after ``python -m ptstack.cli`` and its check."""

    name: str
    args: tuple
    check: Check


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    mix: tuple  # Invocations making one pass
    work_per_pass: float
    work_unit: str
    inputs: dict


def log_grid(lo: int, hi: int, count: int) -> list:
    """The distinct integer N of a log-spaced schedule, ascending."""
    return sorted({int(round(x)) for x in np.geomspace(lo, hi, count)})


def _band(rng: random.Random, lo: float, hi: float) -> float:
    # Six decimals keep the command lines short and the inputs reproducible.
    return round(lo + (hi - lo) * rng.random(), 6)


# --- CSV output ------------------------------------------------------------


@dataclass
class Table:
    header: list
    rows: list  # list of lists of floats
    summary: dict  # the ``# key = value`` lines after the rows

    def column(self, name: str) -> list:
        j = self.header.index(name)
        return [row[j] for row in self.rows]


def read_table(path: Path) -> Table:
    """Parse the CLI's CSV: ``# key = value`` lines around one numeric table."""
    summary, header, rows = {}, None, []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("# "):
            key, sep, value = line[2:].partition(" = ")
            if not sep:
                raise ValueError(f"bad metadata line {line!r}")
            if header is not None:
                summary[key] = value
        elif header is None:
            header = line.split(",")
        else:
            fields = line.split(",")
            if len(fields) != len(header):
                raise ValueError(f"row with {len(fields)} fields, header has {len(header)}")
            rows.append([float(f) for f in fields])
    if header is None:
        raise ValueError("no header line")
    return Table(header, rows, summary)


def _table_problems(path: Path, columns: list, n_rows: int, may_be_nan=()):
    """Parse and check shape and finiteness; returns (table or None, problems)."""
    try:
        table = read_table(path)
    except (OSError, ValueError) as exc:
        return None, [f"unparseable output: {exc}"]
    problems = []
    if table.header != columns:
        problems.append(f"columns {table.header} != {columns}")
        return None, problems
    if len(table.rows) != n_rows:
        problems.append(f"{len(table.rows)} rows, expected {n_rows}")
    checked = [j for j, c in enumerate(columns) if c not in may_be_nan]
    bad = sum(1 for row in table.rows for j in checked if not math.isfinite(row[j]))
    if bad:
        problems.append(f"{bad} non-finite values")
    return table, problems


# --- independent oracle ----------------------------------------------------


def _oracle_threshold() -> float:
    from ptstack.cli import ORACLE_THRESHOLD

    return ORACLE_THRESHOLD


def _entries(m) -> tuple:
    return (m.m11, m.m12, m.m21, m.m22)


def _oracle_intensities(v: float, n: int, total_length: float, k: float) -> tuple:
    """(T, R_left, R_right) of the balanced stack from the slab tier."""
    from ptstack.oracle import slab_propagation_matrix
    from ptstack.stack import build_alternating

    m = slab_propagation_matrix(build_alternating(0.0, v, 1.0, n, total_length), k)
    return (abs(1.0 / m.m22) ** 2, abs(m.m21 / m.m22) ** 2, abs(m.m12 / m.m22) ** 2)


def _close(value: float, reference: float, threshold: float) -> bool:
    return abs(value - reference) <= threshold * max(1.0, abs(reference))


# --- workloads ---------------------------------------------------------------


SWEEP_COLUMNS = ["N", "k", "T", "R_left", "R_right", "absdet_err"]
STUDY_COLUMNS = ["N", "k", "deviation_inf", "diag_err", "offdiag_dev", "absdet_err"]
CONVERGE_COLUMNS = [
    "N", "k", "deviation_inf", "diag_err", "offdiag_measured",
    "offdiag_predicted", "offdiag_ratio", "absdet_err",
]
CELL_COLUMNS = [
    "k", "v", "b", "rho", "phi", "alpha", "beta", "u_plus", "u_minus", "xi", "chi", "eta", "tau",
    "m11_re", "m11_im", "m12_re", "m12_im", "m21_re", "m21_im", "m22_re", "m22_im", "absdet_err",
]
ORACLE_COLUMNS = ["k", "v", "N", "slab_vs_closed", "ode_vs_closed", "ode_vs_slab", "t_lr_diff", "absdet_err"]


def _check_sweep(v: float, k_min: float, k_max: float, seed: int) -> Check:
    n_grid = log_grid(*SURFACE_N)
    k_grid = [float(x) for x in np.linspace(k_min, k_max, SURFACE_K_COUNT)]

    def check(path: Path) -> list:
        table, problems = _table_problems(path, SWEEP_COLUMNS, len(n_grid) * len(k_grid))
        if table is None or problems:
            return problems
        expected_n = [float(n) for n in n_grid for _ in k_grid]
        if table.column("N") != expected_n or table.column("k") != k_grid * len(n_grid):
            return ["(N, k) rows out of grid order"]
        threshold = _oracle_threshold()
        rng = random.Random(f"surface-oracle:{seed}")
        small = [i for i, n in enumerate(expected_n) if n <= SURFACE_ORACLE_N_MAX]
        for i in sorted(rng.sample(small, SURFACE_ORACLE_ROWS)):
            n, k, *measured = table.rows[i][:5]
            reference = _oracle_intensities(v, int(n), 1.0, k)
            if not all(_close(a, b, threshold) for a, b in zip(measured, reference)):
                problems.append(f"N={int(n)} k={k!r}: (T, R_l, R_r) {measured} != oracle {reference}")
        return problems

    return check


def _check_general(v1: float, v2: float, eps: float, k: float, grid: list) -> Check:
    """Rows, ``converged = True`` and deviation_inf at N_max against the oracle."""

    def check(path: Path) -> list:
        table, problems = _table_problems(path, STUDY_COLUMNS, len(grid))
        if table is None or problems:
            return problems
        if table.column("N") != [float(n) for n in grid]:
            problems.append("N column differs from the schedule")
        if table.summary.get("converged") != "True":
            problems.append(f"converged = {table.summary.get('converged')}")
        from ptstack.core import Layer, PotentialStack
        from ptstack.oracle import slab_propagation_matrix
        from ptstack.stack import build_alternating

        try:
            height = complex(
                float(table.summary["effective_height_re"]), float(table.summary["effective_height_im"])
            )
        except (KeyError, ValueError) as exc:
            return problems + [f"effective_height unreadable: {exc}"]
        stack = slab_propagation_matrix(build_alternating(v1, v2, eps, grid[-1], 1.0), k)
        barrier = slab_propagation_matrix(PotentialStack([Layer(height, 1.0, 0.0)]), k)
        expected = max(abs(a - b) for a, b in zip(_entries(stack), _entries(barrier)))
        scale = max(1.0, *(abs(z) for z in _entries(stack) + _entries(barrier)))
        reported = table.column("deviation_inf")[-1]
        # Both are 2N-slab products in double precision: they agree to rounding.
        tolerance = ROUNDING_MARGIN * 2 * grid[-1] * sys.float_info.epsilon * scale
        if abs(reported - expected) > tolerance:
            problems.append(f"deviation_inf at N_max {reported!r} != oracle {expected!r}")
        return problems

    return check


def _check_rows(columns: list, n_rows: int) -> Check:
    def check(path: Path) -> list:
        return _table_problems(path, columns, n_rows)[1]

    return check


def _check_oracle_check(path: Path) -> list:
    # The ODE columns are NaN by design for N above the --quick limit.
    table, problems = _table_problems(
        path, ORACLE_COLUMNS, ORACLE_CHECK_ROWS, may_be_nan=("ode_vs_closed", "ode_vs_slab", "t_lr_diff")
    )
    if table is None:
        return problems
    for row in table.rows:
        if row[2] <= ORACLE_CHECK_QUICK_N and not all(math.isfinite(x) for x in row[4:7]):
            problems.append(f"ODE tier missing at N={int(row[2])}")
    if table.summary.get("verdict") != "ok":
        problems.append(f"verdict = {table.summary.get('verdict')}")
    return problems


def surface(seed: int) -> Workload:
    rng = random.Random(f"surface:{seed}")
    v = _band(rng, 38.0, 42.0)
    k_min = _band(rng, 1.0, 1.5)
    k_max = round(k_min + SURFACE_K_SPAN, 6)
    n_min, n_max, n_count = SURFACE_N
    args = (
        "sweep", "--v", repr(v), "--total-length", "1",
        "--n-min", str(n_min), "--n-max", str(n_max), "--n-count", str(n_count), "--n-spacing", "log",
        "--k-min", repr(k_min), "--k-max", repr(k_max), "--k-count", str(SURFACE_K_COUNT),
    )
    points = len(log_grid(*SURFACE_N)) * SURFACE_K_COUNT
    mix = (Invocation("sweep", args, _check_sweep(v, k_min, k_max, seed)),)
    return Workload("surface", seed, mix, points, "points", {"v": v, "k_min": k_min, "k_max": k_max})


def _general_invocation(k: float, grid_spec: tuple, explicit_grid: bool) -> Invocation:
    args = ("general", "--v1", "7", "--v2", "40", "--eps", "1", "--k", repr(k))
    if explicit_grid:
        n_min, n_max, n_count = grid_spec
        args += ("--n-min", str(n_min), "--n-max", str(n_max), "--n-count", str(n_count))
    return Invocation("general", args, _check_general(7.0, 40.0, 1.0, k, log_grid(*grid_spec)))


def unbalanced(seed: int) -> Workload:
    rng = random.Random(f"unbalanced:{seed}")
    k = _band(rng, 2.75, 3.25)
    slabs = sum(2 * n for n in log_grid(*UNBALANCED_N))
    mix = (_general_invocation(k, UNBALANCED_N, explicit_grid=True),)
    return Workload("unbalanced", seed, mix, slabs, "slabs", {"k": k})


def short_runs(seed: int) -> Workload:
    rng = random.Random(f"short-runs:{seed}")
    k_cell = _band(rng, 0.9, 1.1)
    k_converge = _band(rng, 4.5, 5.5)
    k_general = _band(rng, 2.75, 3.25)
    mix = (
        Invocation(
            "cell", ("cell", "--k", repr(k_cell), "--v", "40", "--b", "0.05"), _check_rows(CELL_COLUMNS, 1)
        ),
        Invocation(
            "converge",
            ("converge", "--k", repr(k_converge), "--v", "40"),
            _check_rows(CONVERGE_COLUMNS, len(log_grid(*CONVERGE_DEFAULT_N))),
        ),
        _general_invocation(k_general, GENERAL_DEFAULT_N, explicit_grid=False),
        Invocation("oracle-check", ("oracle-check", "--quick"), _check_oracle_check),
    )
    inputs = {"k_cell": k_cell, "k_converge": k_converge, "k_general": k_general}
    return Workload("short-runs", seed, mix, len(mix), "invocations", inputs)


WORKLOADS = {"surface": surface, "unbalanced": unbalanced, "short-runs": short_runs}


def main(argv: list) -> int:
    """Check kept outputs: ``workloads.py WORKLOAD SEED NAME=PATH ...``.

    Prints one JSON object mapping each invocation name to its problems.
    It runs as a process of its own so that the measuring process stays
    smaller than the CLI processes whose peak memory it reads.
    """
    workload_name, seed, *outputs = argv
    checks = {inv.name: inv.check for inv in WORKLOADS[workload_name](int(seed)).mix}
    verdicts = {}
    for item in outputs:
        name, _, path = item.partition("=")
        try:
            verdicts[name] = checks[name](Path(path))
        except Exception as exc:  # a crashing check is a failed check, reported per invocation
            verdicts[name] = [f"check raised {exc!r}"]
    print(json.dumps(verdicts))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
