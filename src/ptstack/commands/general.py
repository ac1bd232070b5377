"""``ptstack general``: fit the constant-barrier limit of an unbalanced stack."""

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
    summary = [
        (name, getattr(result, name))
        for name in (
            "effective_height", "candidate_full_imbalance", "candidate_mean_height",
            "residual_full_imbalance", "residual_mean_height", "closest_candidate", "converged",
        )
    ]
    return _rows_text(opt["format"], columns, rows), summary, [], EXIT_OK if result.converged else EXIT_NONCONVERGED
