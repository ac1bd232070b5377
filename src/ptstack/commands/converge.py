"""``ptstack converge``: deviation from the identity over an N schedule."""

from __future__ import annotations

import math

from .common import EXIT_OK, _rows_text, _study_n_grid


def cmd_converge(opt: dict, defaulted: set):
    from ..core import NonFiniteMatrixError
    from ..limits import convergence_study, fit_loglog_slope

    records = convergence_study(opt["k"], opt["v"], opt["total_length"], _study_n_grid(opt, "converge fits a slope"))
    for r in records:
        # offdiag_ratio is NaN by design where the prediction is 0
        if not all(map(math.isfinite, (r.deviation_inf, r.diag_measured_err, r.offdiag_measured, r.absdet_err))):
            raise NonFiniteMatrixError(
                "deviation_inf, diag_err, offdiag_measured or absdet_err leaves the double range "
                f"at N = {r.n}, k = {r.k}"
            )
    rows = [
        (
            r.n, r.k, r.deviation_inf, r.diag_measured_err, r.offdiag_measured, r.offdiag_predicted,
            r.offdiag_measured / r.offdiag_predicted if r.offdiag_predicted else math.nan,
            r.absdet_err,
        )
        for r in records
    ]
    slope = fit_loglog_slope([r.n for r in records], [r.deviation_inf for r in records])
    summary = [("loglog_slope", slope), ("offdiag_ratio_at_n_max", rows[-1][6])]
    columns = (
        "N", "k", "deviation_inf", "diag_err", "offdiag_measured", "offdiag_predicted",
        "offdiag_ratio", "absdet_err",
    )
    return _rows_text(opt["format"], columns, rows), summary, [], EXIT_OK
