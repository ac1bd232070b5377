"""``ptstack converge``: deviation from the identity over an N schedule."""

from __future__ import annotations

import math

from .common import EXIT_OK, _check_finite_rows, _rows_text, _study_n_grid


def cmd_converge(opt: dict, defaulted: set):
    from ..limits import convergence_study, fit_loglog_slope

    records = convergence_study(opt["k"], opt["v"], opt["total_length"], _study_n_grid(opt, "converge fits a slope"))
    rows = [
        (
            r.n, r.k, r.deviation_inf, r.diag_measured_err, r.offdiag_measured, r.offdiag_predicted,
            r.offdiag_measured / r.offdiag_predicted if r.offdiag_predicted else math.nan,
            r.absdet_err,
        )
        for r in records
    ]
    columns = (
        "N", "k", "deviation_inf", "diag_err", "offdiag_measured", "offdiag_predicted",
        "offdiag_ratio", "absdet_err",
    )
    # offdiag_ratio is NaN by design where the prediction is 0
    _check_finite_rows(columns, rows, allowed_nan=("offdiag_ratio",))
    slope = fit_loglog_slope([r.n for r in records], [r.deviation_inf for r in records])
    summary = [("loglog_slope", slope), ("offdiag_ratio_at_n_max", rows[-1][6])]
    return _rows_text(opt["format"], columns, rows), summary, [], EXIT_OK
