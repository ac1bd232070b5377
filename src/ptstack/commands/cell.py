"""``ptstack cell``: derived quantities and matrix of one gain/loss cell."""

from __future__ import annotations

import cmath

from .common import EXIT_OK, _rows_text

_CELL_ELEMENTS = ("k", "v", "b", "rho", "phi", "alpha", "beta", "u_plus", "u_minus", "xi", "chi", "eta", "tau")
_MATRIX_ENTRIES = ("m11", "m12", "m21", "m22", "absdet_err")


def cmd_cell(opt: dict, defaulted: set):
    from ..cell import unit_cell_elements, unit_cell_matrix
    from ..core import NonFiniteMatrixError

    p = unit_cell_elements(opt["k"], opt["v"], opt["b"])
    m = unit_cell_matrix(opt["k"], opt["v"], opt["b"])
    row = [getattr(p, c) for c in _CELL_ELEMENTS] + [getattr(m, c) for c in _MATRIX_ENTRIES]
    if not all(map(cmath.isfinite, row)):
        raise NonFiniteMatrixError(
            f"cell matrix or absdet_err leaves the double range at k = {p.k}, V = {p.v}, b = {p.b}"
        )
    return _rows_text(opt["format"], _CELL_ELEMENTS + _MATRIX_ENTRIES, [row]), [], [], EXIT_OK
