"""``ptstack oracle-check``: closed form vs integration oracles on a fixed grid."""

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

    if opt["ode_n_max"] < 0:
        raise CliUsageError(f"--ode-n-max must be >= 0 (0 runs no ODE tier), got {opt['ode_n_max']}")
    rows = []
    worst = (0.0, math.nan, math.nan, 0, "none")  # (deviation, k, v, N, column)
    for v in ORACLE_GRID_V:
        for n in ORACLE_GRID_N:
            stack = build_alternating(0.0, v, 1.0, n, 1.0)
            for k in ORACLE_GRID_K:
                closed = periodic_matrix(PeriodicSpec(v=v, n_cells=n, total_length=1.0), k)
                slab = slab_propagation_matrix(stack, k)
                slab_vs_closed = _matrix_dev(slab, closed)
                ode_vs_closed = ode_vs_slab = t_lr_diff = math.nan
                if n <= opt["ode_n_max"]:
                    ode = integrate_transfer_matrix(stack, k)
                    t_l, _ = incidence_scattering(stack, k, "left")
                    t_r, _ = incidence_scattering(stack, k, "right")
                    ode_vs_closed = _matrix_dev(ode, closed)
                    ode_vs_slab = _matrix_dev(ode, slab)
                    t_lr_diff = abs(t_l - t_r)
                rows.append((k, v, n, slab_vs_closed, ode_vs_closed, ode_vs_slab, t_lr_diff, closed.absdet_err))
                gated = {"slab_vs_closed": slab_vs_closed, "ode_vs_closed": ode_vs_closed, "ode_vs_slab": ode_vs_slab}
                for column, d in gated.items():
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
