"""``ptstack sweep``: transmission/reflection over an (N, k) grid, one
contiguous N range per CPU (see :mod:`.forked`), each rendered into a
temporary file (see ``ptstack.cli``)."""

from __future__ import annotations

import tempfile

from .common import EXIT_OK, _column, _float_grid, _n_grid, _render_rows
from .forked import cpu_count, forked


def _ranges(values: list, count: int) -> list:
    """``values`` cut into ``count`` contiguous ranges of near-equal length,
    or one range per value if there are fewer values."""
    count = min(count, len(values))
    return [values[len(values) * i // count:len(values) * (i + 1) // count] for i in range(count)]


def cmd_sweep(opt: dict, defaulted: set):
    from ..scattering import transmission_surface

    fmt = opt["format"]
    n_values = _n_grid(opt)
    k_values = _float_grid(opt["k_min"], opt["k_max"], opt["k_count"])

    def compute(n_range: list):
        return transmission_surface(opt["v"], opt["total_length"], n_range, k_values)

    def render(i: int, table) -> None:
        # Range i renders into files[i], here or in a worker, which leaves
        # through os._exit and so flushes nothing itself.  The k texts are
        # formatted once per range, and each N's once per N.
        k_fields = _column(fmt, "k", table.k_values)
        results = (("T", table.big_t), ("R_left", table.big_r_left), ("R_right", table.big_r_right),
                   ("absdet_err", table.absdet_err))
        for j, n in enumerate(table.n_values):
            fields = [(name, texts * len(table.k_values)) for name, texts in _column(fmt, "N", [n])] + k_fields
            for name, column in results:
                fields += _column(fmt, name, column[j])
            files[i].write(_render_rows(fmt, fields, i == j == 0))
        files[i].flush()

    def retry(i: int) -> None:
        if i:  # the first range's error, raised here, is the earliest
            compute(ranges[i])

    # One N range per CPU this process may run on, each rendered into its
    # own unlinked temporary file; a failure closes them all, so nothing is
    # written after it.
    ranges, files = _ranges(n_values, cpu_count()), []
    try:
        for _ in ranges:
            files.append(tempfile.TemporaryFile("w+", encoding="utf-8", newline=""))
        forked(ranges, compute, render, retry, lambda values: f"sweep worker for N = {values[0]}..{values[-1]}")
    except BaseException:
        for rows in files:
            rows.close()
        raise
    for rows in files:
        rows.seek(0)
    k_is_default = {"k_min", "k_max", "k_count"} <= defaulted
    extra = [
        ("fig3_preset", opt["fig3"]),
        ("k_grid_provenance", "tool default (no externally specified range)" if k_is_default else "user"),
    ]
    return files, [], extra, EXIT_OK
