"""``ptstack sweep``: transmission/reflection over an (N, k) grid, one
contiguous N range per CPU, each rendered into a temporary file (see
``ptstack.cli``)."""

from __future__ import annotations

import os
import tempfile

from .common import EXIT_OK, _column, _float_grid, _n_grid, _render_rows


def _ranges(values: list, count: int) -> list:
    """``values`` cut into ``count`` contiguous ranges of near-equal length,
    or one range per value if there are fewer values."""
    count = min(count, len(values))
    return [values[len(values) * i // count:len(values) * (i + 1) // count] for i in range(count)]


def _render_range(rows, values: list, compute, render):
    """A forked worker's whole life: compute ``values`` and render their rows
    into ``rows``.

    It leaves only through ``os._exit``, so it flushes no stream it
    inherited and runs no exit handler.  The exit code says what happened:
    0 the rows are complete, 2 the computation raised, 1 anything else.
    """
    code = 1
    try:
        try:
            result = compute(values)
        except Exception:
            code = 2
        else:
            render(rows, result, False)
            rows.flush()
            code = 0
    finally:
        os._exit(code)


def _forked_ranges(ranges: list, compute, render) -> list:
    """The rows of an N grid split into contiguous ranges, each rendered into
    its own unlinked temporary file; the files in range order, each at its
    start.  The caller closes them.

    ``render(file, compute(range), first)`` renders a range.  The first
    range is computed and rendered here; each later one by a forked worker
    (:func:`_render_range`).  This returns once every range has rendered and
    every worker is reaped.  It raises the error of the earliest range that
    failed, with every file closed, so nothing is written after a failure.
    A worker whose computation raised is not asked why: the range is
    computed again here, which raises the same exception because the
    computation is deterministic.
    """
    files, workers = [], {}  # pid -> range, in range order
    try:
        for _ in ranges:
            files.append(tempfile.TemporaryFile("w+", encoding="utf-8", newline=""))
        for values, rows in zip(ranges[1:], files[1:]):
            # This process starts no thread, so the forked worker can
            # inherit no lock that another thread holds.
            pid = os.fork()
            if pid == 0:
                _render_range(rows, values, compute, render)
            workers[pid] = values
        render(files[0], compute(ranges[0]), True)
        for pid, values in list(workers.items()):
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del workers[pid]
            if code == 2:
                compute(values)
            if code != 0:
                raise ChildProcessError(f"sweep worker for N = {values[0]}..{values[-1]} failed (exit code {code})")
    except BaseException:
        import signal

        for pid in workers:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for rows in files:
            rows.close()
        raise
    for rows in files:
        rows.seek(0)
    return files


def cmd_sweep(opt: dict, defaulted: set):
    from ..scattering import transmission_surface

    fmt = opt["format"]
    n_values = _n_grid(opt)
    k_values = _float_grid(opt["k_min"], opt["k_max"], opt["k_count"])

    def compute(n_range: list):
        return transmission_surface(opt["v"], opt["total_length"], n_range, k_values)

    def render(out, table, first: bool) -> None:
        # The k texts are formatted once per range, and each N's once per N.
        k_fields = _column(fmt, "k", table.k_values)
        results = (("T", table.big_t), ("R_left", table.big_r_left), ("R_right", table.big_r_right),
                   ("absdet_err", table.absdet_err))
        for i, n in enumerate(table.n_values):
            fields = [(name, texts * len(table.k_values)) for name, texts in _column(fmt, "N", [n])] + k_fields
            for name, column in results:
                fields += _column(fmt, name, column[i])
            out.write(_render_rows(fmt, fields, first and i == 0))

    # One N range per CPU this process may run on; a platform without
    # affinity masks runs one range.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    rows = _forked_ranges(_ranges(n_values, cpus), compute, render)
    k_is_default = {"k_min", "k_max", "k_count"} <= defaulted
    extra = [
        ("fig3_preset", opt["fig3"]),
        ("k_grid_provenance", "tool default (no externally specified range)" if k_is_default else "user"),
    ]
    return rows, [], extra, EXIT_OK
