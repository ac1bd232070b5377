"""``ptstack oracle-check``: closed form vs integration oracles on a fixed
grid, its rows dealt to the CPUs (see :mod:`.forked`)."""

from __future__ import annotations

import math

from .common import EXIT_NUMERICAL, EXIT_OK, ORACLE_THRESHOLD, CliUsageError, _rows_text

# The cross-check grid.
ORACLE_GRID_K = (0.5, 1.0, 2.0, 5.0, 10.0)
ORACLE_GRID_V = (1.0, 40.0)
ORACLE_GRID_N = (1, 4, 16, 64)


def _matrix_dev(a, b) -> float:
    """Componentwise difference scaled by the larger entry magnitude (floor 1).

    NaN if any difference is NaN.
    """
    aa, bb = (a.m11, a.m12, a.m21, a.m22), (b.m11, b.m12, b.m21, b.m22)
    diffs = [abs(x - y) for x, y in zip(aa, bb)]
    if any(map(math.isnan, diffs)):
        return math.nan
    return max(diffs) / max(1.0, *map(abs, aa), *map(abs, bb))


def cmd_oracle_check(opt: dict, defaulted: set):
    from ..oracle import incidence_scattering, integrate_transfer_matrix, slab_propagation_matrix
    from ..stack import PeriodicSpec, build_alternating, periodic_matrix
    from .forked import cpu_count, forked

    ode_n_max = opt["ode_n_max"]
    if ode_n_max < 0:
        raise CliUsageError(f"--ode-n-max must be >= 0 (0 runs no ODE tier), got {ode_n_max}")
    # What the workers share is made before they fork: the integrator's step
    # compiles once, and each (V, N) has one stack, which keeps the oracle's
    # one-stack segment cache hitting while a process runs that stack's k.
    if ode_n_max >= min(ORACLE_GRID_N):
        from .. import dop853  # noqa: F401
    stacks = {(v, n): build_alternating(0.0, v, 1.0, n, 1.0) for v in ORACLE_GRID_V for n in ORACLE_GRID_N}
    grid = [(v, n, k) for v in ORACLE_GRID_V for n in ORACLE_GRID_N for k in ORACLE_GRID_K]

    def row(v: float, n: int, k: float) -> tuple:
        stack = stacks[v, n]
        closed = periodic_matrix(PeriodicSpec(v=v, n_cells=n, total_length=1.0), k)
        slab = slab_propagation_matrix(stack, k)
        slab_vs_closed = _matrix_dev(slab, closed)
        ode_vs_closed = ode_vs_slab = t_lr_diff = math.nan
        if n <= ode_n_max:
            ode = integrate_transfer_matrix(stack, k)
            t_l, _ = incidence_scattering(stack, k, "left")
            t_r, _ = incidence_scattering(stack, k, "right")
            ode_vs_closed = _matrix_dev(ode, closed)
            ode_vs_slab = _matrix_dev(ode, slab)
            t_lr_diff = abs(t_l - t_r)
        return k, v, n, slab_vs_closed, ode_vs_closed, ode_vs_slab, t_lr_diff, closed.absdet_err

    def compute(share: range) -> list:
        return [row(*grid[i]) for i in share]

    def retry(_: int) -> None:
        # The rows in their order, as on one CPU, raise the first failing
        # row's error.  On one CPU that share was all of them.
        if count > 1:
            compute(range(len(grid)))

    # The rows are dealt to the CPUs this process may run on: row i to
    # share i mod count, which evens out the costly V = 40 rows.
    count = min(cpu_count(), len(grid))
    shares = [range(i, len(grid), count) for i in range(count)]
    done = forked(shares, compute, lambda i, rows: rows, retry,
                  lambda share: f"oracle-check worker for grid rows {share[0]}..{share[-1]} in steps of {count}")
    rows = [done[i % count][i // count] for i in range(len(grid))]
    worst = (0.0, math.nan, math.nan, 0, "none")  # (deviation, k, v, N, column)
    for k, v, n, *deviations in rows:
        for column, d in zip(("slab_vs_closed", "ode_vs_closed", "ode_vs_slab"), deviations):
            if d > worst[0]:  # NaN (ODE tier skipped) never compares greater
                worst = (d, k, v, n, column)
    ok = worst[0] <= ORACLE_THRESHOLD
    summary = [
        ("max_deviation", worst[0]),
        ("max_deviation_k", worst[1]),
        ("max_deviation_v", worst[2]),
        ("max_deviation_n", worst[3]),
        ("max_deviation_column", worst[4]),
        ("threshold", ORACLE_THRESHOLD),
        ("verdict", "ok" if ok else "deviation above threshold"),
    ]
    columns = ("k", "v", "N", "slab_vs_closed", "ode_vs_closed", "ode_vs_slab", "t_lr_diff", "absdet_err")
    return _rows_text(opt["format"], columns, rows), summary, [], EXIT_OK if ok else EXIT_NUMERICAL
