"""``ptstack general``: measure an unbalanced stack against its mean-height barrier."""

from __future__ import annotations

from .common import EXIT_NONCONVERGED, EXIT_OK, _check_finite_rows, _rows_text, _study_n_grid


def cmd_general(opt: dict, defaulted: set):
    from ..limits import generalized_limit_study

    n_values = _study_n_grid(opt, "general judges convergence")
    result = generalized_limit_study(opt["v1"], opt["v2"], opt["eps"], opt["total_length"], n_values, opt["k"])
    rows = [
        (r.n, r.k, r.deviation_inf, r.diag_measured_err, r.offdiag_measured, r.absdet_err)
        for r in result.records
    ]
    columns = ("N", "k", "deviation_inf", "diag_err", "offdiag_dev", "absdet_err")
    _check_finite_rows(columns, rows)
    summary = [("effective_height", result.effective_height), ("converged", result.converged)]
    return _rows_text(opt["format"], columns, rows), summary, [], EXIT_OK if result.converged else EXIT_NONCONVERGED
