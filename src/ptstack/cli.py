"""Command-line front end: cell inspection, transmission sweeps, convergence
studies, the generalized alternating-stack fit, and oracle cross-checks.

Output is CSV (UTF-8, comma separated, ``#``-prefixed metadata lines) or
JSON; ``--output -`` writes to standard output.  Runs are fully
deterministic: identical invocations produce byte-identical output.
Nothing is written before the whole output is computed.

``sweep`` spreads its N grid over the CPUs in its affinity mask: every
contiguous N range, the first one included, renders into a temporary file
before the output is opened, a forked worker rendering each range after the
first, and the bytes do not depend on the CPU count.  A failure in any range
writes no row, and every sweep needs a writable temporary directory, also on
one CPU.  ``taskset -c 0 ptstack sweep ...`` runs it in one process.  On
Python >= 3.12 the fork emits a DeprecationWarning, because numpy's OpenBLAS
thread pool makes the process multi-threaded.

Option precedence: command-line flag > preset flag (``sweep --fig3``,
``oracle-check --quick``) > config file > built-in default.  The config file
is a flat ``key = value`` text file whose keys match the long option names
with underscores (``n_min = 500``).

Exit codes: 0 success, 1 invalid arguments or unwritable output, 2 numerical
failure (scattering pole, a value outside the double range, or integrator
tolerance failure), 3 study flagged as non-converged.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import importlib.util
import io
import json
import math
import os
import shutil
import signal
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__


def _register_unexecuted(names) -> None:
    """Put ptstack modules in ``sys.modules`` (and on the package) unexecuted.

    importlib's LazyLoader compiles and runs such a module on the first
    access to one of its attributes.  Each command imports the names it uses
    from their defining modules when it runs, so a process runs only the
    modules of its command, and a function replaced in its module before
    :func:`main` is the one called.  A caller that replaces functions in
    every loaded ptstack module, as ``perfbench/trace.py`` does, finds each
    module a command can use.
    """
    package = sys.modules[__package__]
    for name in names:
        full_name = f"{__package__}.{name}"
        if full_name in sys.modules:
            continue
        spec = importlib.util.find_spec(full_name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[full_name] = module
        spec.loader.exec_module(module)
        setattr(package, name, module)


_register_unexecuted(("core", "cell", "chebyshev", "stack", "scattering", "limits", "oracle"))

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_NONCONVERGED = 3

# Default k grid for sweeps.  The transmission-surface source material does
# not pin a k range; this is a tool choice and is recorded in the output
# metadata of every sweep.
DEFAULT_K_GRID = (1.0, 10.0, 181)

# Oracle cross-check grid and its pass threshold (entry-scaled deviations).
ORACLE_GRID_K = (0.5, 1.0, 2.0, 5.0, 10.0)
ORACLE_GRID_V = (1.0, 40.0)
ORACLE_GRID_N = (1, 4, 16, 64)
ORACLE_THRESHOLD = 1e-7

_REQUIRED = object()


class CliUsageError(Exception):
    """Bad command line, config file, or option combination."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; route through our own error
    # type so the documented exit-code contract (1) holds.
    def error(self, message):
        raise CliUsageError(message)


class _Opt(NamedTuple):
    """One option: a type to cast with or a tuple of allowed values, its default and help."""

    kind: object
    default: object = _REQUIRED
    help: str | None = None
    metavar: str | None = None


class _Preset(NamedTuple):
    """A store-true flag whose values beat the config file but not explicit flags."""

    flag: str
    help: str
    values: dict


_IO_OPTIONS = {
    "format": _Opt(("csv", "json"), "csv", "output format (default csv)"),
    "output": _Opt(str, "-", "output path, '-' for stdout (default)", "PATH"),
}

def _n_options(n_min, n_max, n_count: int, n_spacing: str) -> dict:
    """Options of an N schedule over a fixed total length, with their defaults."""
    return {
        "total_length": _Opt(float, 1.0),
        "n_min": _Opt(int, n_min),
        "n_max": _Opt(int, n_max),
        "n_count": _Opt(int, n_count),
        "n_spacing": _Opt(("linear", "log"), n_spacing),
    }


def _load_config(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliUsageError(f"cannot read config file {path}: {exc}") from exc
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliUsageError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, _, val = line.partition("=")
        values[key.strip().replace("-", "_")] = val.strip()
    return values


def _from_config(name: str, kind, text: str):
    if isinstance(kind, tuple):
        if text not in kind:
            raise CliUsageError(f"config key {name}: {name} must be one of {kind}, got {text!r}")
        return text
    try:
        return kind(text)
    except ValueError as exc:
        raise CliUsageError(f"config key {name}: {exc}") from exc


def _resolve(args: argparse.Namespace, options: dict, preset: _Preset | None) -> tuple[dict, set]:
    """Merge flag > preset > config > default for every option.

    Returns the values, plus the preset flag's own value, and the names of
    the options that fell back to their built-in default.
    """
    config = _load_config(args.config) if args.config else {}
    unknown = set(config) - set(options)
    if unknown:
        raise CliUsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
    preset_values = preset.values if preset and getattr(args, preset.flag) else {}
    values, defaulted = {}, set()
    for name, opt in options.items():
        value = getattr(args, name)
        if value is None:
            value = preset_values.get(name)
        if value is None and name in config:
            value = _from_config(name, opt.kind, config[name])
        if value is None:
            if opt.default is _REQUIRED:
                raise CliUsageError(f"missing required option --{name.replace('_', '-')}")
            value = opt.default
            defaulted.add(name)
        values[name] = value
    if preset:
        values[preset.flag] = getattr(args, preset.flag)
    return values, defaulted


def _n_grid(opt: dict) -> list[int]:
    from .stack import cells_as_float

    lo, hi, count = opt["n_min"], opt["n_max"], opt["n_count"]
    if lo < 1 or hi < lo or count < 1:
        raise CliUsageError(f"bad N range: min={lo} max={hi} count={count}")
    cells_as_float(hi)  # an N beyond the double range is a numerical failure, named
    if opt["n_spacing"] == "log":
        xs = np.geomspace(lo, hi, count)
    else:
        xs = np.linspace(lo, hi, count)
    return sorted({int(round(x)) for x in xs})


def _float_grid(lo: float, hi: float, count: int) -> list[float]:
    if not (lo > 0.0 and hi >= lo and count >= 1):
        raise CliUsageError(f"bad k range: min={lo} max={hi} count={count}")
    return [float(x) for x in np.linspace(lo, hi, count)]


def _flatten(pairs):
    """(name, value) pairs with every complex value split into name_re and name_im."""
    for name, value in pairs:
        if isinstance(value, complex):
            yield f"{name}_re", value.real
            yield f"{name}_im", value.imag
        else:
            yield name, value


# How json.dumps spells the floats that have no JSON literal.
_JSON_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(value: float) -> str:
    text = float.__repr__(value)
    return _JSON_FLOATS.get(text, text)


def _json_token(value, indent: str) -> str:
    """``json.dumps(value, indent=2)`` of a table value on a line indented by
    ``indent``: a complex is the list [re, im] and a NaN float is null."""
    if isinstance(value, complex):
        inner = indent + "  "
        return f"[\n{inner}{_json_float(value.real)},\n{inner}{_json_float(value.imag)}\n{indent}]"
    if isinstance(value, float):
        return "null" if math.isnan(value) else _json_float(value)
    return json.dumps(value)


def _json_object(pairs: list, indent: str) -> str:
    inner = indent + "  "
    items = [f"{inner}{json.dumps(k)}: {_json_token(v, inner)}" for k, v in dict(pairs).items()]
    return "{\n" + ",\n".join(items) + f"\n{indent}}}" if items else "{}"


def _csv_fields(name: str, values: list) -> list:
    """(header, fields) of one column; a complex column splits into _re and _im."""
    if values and isinstance(values[0], complex):
        return [(f"{name}_re", [str(v.real) for v in values]), (f"{name}_im", [str(v.imag) for v in values])]
    return [(name, list(map(str, values)))]


def _json_fields(name: str, values: list) -> list:
    return [(name, [_json_token(v, "      ") for v in values])]


def _one_block(rows: list):
    """A table of row tuples as a single block (see :func:`_write_table`)."""
    yield len(rows), [list(column) for column in zip(*rows)]


def _block_fields(columns: tuple, blocks, fields_of):
    """The (header, fields) columns of each block, formatting a shared value
    once and a column object repeated from the previous block not again.  A
    block that is a file is passed through."""
    previous = {}
    for block in blocks:
        if isinstance(block, io.IOBase):
            yield block
            continue
        count, values = block
        fields = []
        for j, (name, column) in enumerate(zip(columns, values)):
            if not isinstance(column, list):
                fields += [(header, texts * count) for header, texts in fields_of(name, [column])]
                continue
            if j not in previous or previous[j][0] is not column:
                previous[j] = (column, fields_of(name, column))
            fields += previous[j][1]
        yield fields


def _write_rows(out, fmt: str, columns: tuple, blocks, first: bool = True) -> bool:
    """Write the rows of ``blocks`` as CSV lines or JSON row objects.

    ``first`` says that nothing of the table's body precedes them: CSV then
    starts with the header line, and JSON writes no separator before the
    first row.  A block that is a file holds rows this function wrote there,
    with ``first`` as it stands at that block, and is copied.  Returns
    whether the body is still empty.
    """
    template = "{\n" + ",\n".join(f"      {json.dumps(c)}: %s" for c in columns) + "\n    }"
    for fields in _block_fields(columns, blocks, _json_fields if fmt == "json" else _csv_fields):
        if isinstance(fields, io.IOBase):
            shutil.copyfileobj(fields, out)
            first = False
        elif fmt == "json":
            texts = [template % cells for cells in zip(*(f for _, f in fields))]
            if texts:
                out.write(("\n    " if first else ",\n    ") + ",\n    ".join(texts))
                first = False
        else:
            if first:
                out.write(",".join(name for name, _ in fields) + "\n")
                first = False
            lines = "\n".join(map(",".join, zip(*(f for _, f in fields))))
            if lines:
                out.write(lines + "\n")
    return first


def _write_table(out, fmt: str, meta: list, columns: tuple, blocks, summary: list) -> None:
    """Write one table as CSV or JSON, a block of rows at a time.

    ``blocks`` yields (row count, columns); a column is a list of values, or
    one value shared by every row of the block.  A block may also be a file
    of rows another process wrote (see :func:`_write_rows`).  The bytes are
    those of the whole table's lines joined (CSV) or of
    ``json.dumps(doc, indent=2)`` (JSON); str(float) is the shortest
    round-trip repr.
    """
    if fmt == "json":
        out.write('{\n  "metadata": ' + _json_object(meta, "  ") + ',\n  "rows": [')
        out.write("]" if _write_rows(out, fmt, columns, blocks) else "\n  ]")
        if summary:
            out.write(',\n  "summary": ' + _json_object(summary, "  "))
        out.write("\n}\n")
        return
    out.write("".join(f"# {k} = {v}\n" for k, v in meta))
    _write_rows(out, fmt, columns, blocks)
    out.write("".join(f"# {k} = {v}\n" for k, v in _flatten(summary)))


def _open_output(path: str):
    return contextlib.nullcontext(sys.stdout) if path == "-" else open(path, "w", encoding="utf-8")


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
            blocks = compute(values)
        except Exception:
            code = 2
        else:
            render(rows, blocks, False)
            rows.flush()
            code = 0
    finally:
        os._exit(code)


class _ForkedRanges:
    """The rows of an N grid split into contiguous ranges, each rendered into
    its own unlinked temporary file.

    The first range is computed and rendered here; each later one by a
    forked worker (:func:`_render_range`).  The constructor returns once
    every range has rendered and every worker is reaped, and raises the
    error of the earliest range that failed, so nothing is written after a
    failure.  A worker whose computation raised is not asked why: the range
    is computed again here, which raises the same exception because the
    computation is deterministic.  Iterating yields the files in range
    order; :meth:`close` closes them.
    """

    def __init__(self, ranges: list, compute, render):
        self._files = contextlib.ExitStack()
        workers = {}  # pid -> range, in range order
        try:
            self._rows = [
                self._files.enter_context(tempfile.TemporaryFile("w+", encoding="utf-8", newline=""))
                for _ in ranges
            ]
            for values, rows in zip(ranges[1:], self._rows[1:]):
                # numpy's OpenBLAS thread pool makes this process
                # multi-threaded, and a forked child must not touch what
                # another thread may hold locked: the worker calls no BLAS
                # routine and starts no thread.
                pid = os.fork()
                if pid == 0:
                    _render_range(rows, values, compute, render)
                workers[pid] = values
            render(self._rows[0], compute(ranges[0]), True)
            for pid, values in list(workers.items()):
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                del workers[pid]
                if code == 2:
                    compute(values)
                if code != 0:
                    raise ChildProcessError(
                        f"sweep worker for N = {values[0]}..{values[-1]} failed (exit code {code})"
                    )
        except BaseException:
            for pid in workers:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            self.close()
            raise

    def __iter__(self):
        for rows in self._rows:
            rows.seek(0)
            yield rows

    def close(self) -> None:
        self._files.close()


def _matrix_dev(a, b) -> float:
    """Componentwise difference scaled by the larger entry magnitude (floor 1).

    Python's complex arithmetic, so the result does not depend on the SIMD
    kernels numpy dispatches to; NaN if any difference is NaN.
    """
    aa, bb = (a.m11, a.m12, a.m21, a.m22), (b.m11, b.m12, b.m21, b.m22)
    diffs = [abs(x - y) for x, y in zip(aa, bb)]
    if any(map(math.isnan, diffs)):
        return math.nan
    return max(diffs) / max(1.0, *map(abs, aa), *map(abs, bb))


# Each command takes the resolved options and the names left at their default,
# and returns (columns, blocks of rows, summary, extra metadata, exit code).
# main closes the blocks once written or on failure, which closes the files a
# sweep rendered its rows into.

_CELL_ELEMENTS = ("k", "v", "b", "rho", "phi", "alpha", "beta", "u_plus", "u_minus", "xi", "chi", "eta", "tau")
_MATRIX_ENTRIES = ("m11", "m12", "m21", "m22", "absdet_err")


def cmd_cell(opt: dict, defaulted: set):
    from .cell import unit_cell_elements, unit_cell_matrix
    from .core import NonFiniteMatrixError

    p = unit_cell_elements(opt["k"], opt["v"], opt["b"])
    m = unit_cell_matrix(opt["k"], opt["v"], opt["b"])
    row = [getattr(p, c) for c in _CELL_ELEMENTS] + [getattr(m, c) for c in _MATRIX_ENTRIES]
    if not all(map(cmath.isfinite, row)):
        raise NonFiniteMatrixError(
            f"cell matrix or absdet_err leaves the double range at k = {p.k}, V = {p.v}, b = {p.b}"
        )
    return _CELL_ELEMENTS + _MATRIX_ENTRIES, _one_block([row]), [], [], EXIT_OK


def cmd_sweep(opt: dict, defaulted: set):
    from .scattering import transmission_surface

    columns = ("N", "k", "T", "R_left", "R_right", "absdet_err")
    n_values = _n_grid(opt)
    k_values = _float_grid(opt["k_min"], opt["k_max"], opt["k_count"])

    def compute(n_range: list):
        table = transmission_surface(opt["v"], opt["total_length"], n_range, k_values)
        k_column = table.k_values.tolist()
        results = (table.big_t, table.big_r_left, table.big_r_right, table.absdet_err)
        # One block per N: the N is one shared value and the k column one list.
        return (
            (len(k_column), [n, k_column, *(column[i].tolist() for column in results)])
            for i, n in enumerate(table.n_values)
        )

    def render(out, blocks, first: bool) -> None:
        _write_rows(out, opt["format"], columns, blocks, first)

    # One N range per CPU this process may run on; a platform without
    # affinity masks runs one range.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    blocks = _ForkedRanges(_ranges(n_values, cpus), compute, render)
    k_is_default = {"k_min", "k_max", "k_count"} <= defaulted
    extra = [
        ("fig3_preset", opt["fig3"]),
        ("k_grid_provenance", "tool default (no externally specified range)" if k_is_default else "user"),
    ]
    return columns, blocks, [], extra, EXIT_OK


def cmd_converge(opt: dict, defaulted: set):
    from .core import NonFiniteMatrixError
    from .limits import convergence_study, fit_loglog_slope

    records = convergence_study(opt["k"], opt["v"], opt["total_length"], _n_grid(opt))
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
    return columns, _one_block(rows), summary, [], EXIT_OK


def cmd_general(opt: dict, defaulted: set):
    from .limits import generalized_limit_study

    result = generalized_limit_study(
        opt["v1"], opt["v2"], opt["eps"], opt["total_length"], _n_grid(opt), opt["k"]
    )
    rows = [
        (r.n, r.k, r.deviation_inf, r.diag_measured_err, r.offdiag_measured, r.absdet_err)
        for r in result.records
    ]
    summary = [
        (name, getattr(result, name))
        for name in (
            "effective_height", "candidate_full_imbalance", "candidate_mean_height",
            "residual_full_imbalance", "residual_mean_height", "closest_candidate", "converged",
        )
    ]
    columns = ("N", "k", "deviation_inf", "diag_err", "offdiag_dev", "absdet_err")
    return columns, _one_block(rows), summary, [], EXIT_OK if result.converged else EXIT_NONCONVERGED


def cmd_oracle_check(opt: dict, defaulted: set):
    from .oracle import incidence_scattering, integrate_transfer_matrix, slab_propagation_matrix
    from .stack import PeriodicSpec, build_alternating, periodic_matrix

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
    return columns, _one_block(rows), summary, [], EXIT_OK if ok else EXIT_NUMERICAL


# subcommand -> (function, help, options, preset); --help lists the options in
# this order, then the preset flag, then --format, --output and --config.
_COMMANDS = {
    "cell": (
        cmd_cell, "derived quantities and matrix of one gain/loss cell",
        {"k": _Opt(float), "v": _Opt(float), "b": _Opt(float)}, None,
    ),
    "sweep": (
        cmd_sweep, "transmission/reflection over an (N, k) grid",
        {
            "v": _Opt(float),
            **_n_options(_REQUIRED, _REQUIRED, 16, "linear"),
            "k_min": _Opt(float, DEFAULT_K_GRID[0]),
            "k_max": _Opt(float, DEFAULT_K_GRID[1]),
            "k_count": _Opt(int, DEFAULT_K_GRID[2]),
        },
        _Preset(
            "fig3", "preset: V=40, L=1, N in [500, 2000]",
            {"v": 40.0, "total_length": 1.0, "n_min": 500, "n_max": 2000},
        ),
    ),
    "converge": (
        cmd_converge, "deviation from the identity over an N schedule",
        {"k": _Opt(float), "v": _Opt(float), **_n_options(100, 100000, 13, "log")}, None,
    ),
    "general": (
        cmd_general, "fit the constant-barrier limit of an unbalanced stack",
        {"v1": _Opt(float), "v2": _Opt(float), "eps": _Opt(float), "k": _Opt(float),
         **_n_options(128, 2048, 5, "log")},
        None,
    ),
    "oracle-check": (
        cmd_oracle_check, "closed form vs integration oracles on a fixed grid",
        {"ode_n_max": _Opt(int, 64, "largest N run through the ODE tier")},
        _Preset("quick", "restrict the ODE tier to N <= 4", {"ode_n_max": 4}),
    ),
}


def _add_option(parser: argparse.ArgumentParser, name: str, opt: _Opt) -> None:
    kind = {"choices": opt.kind} if isinstance(opt.kind, tuple) else {"type": opt.kind}
    parser.add_argument(f"--{name.replace('_', '-')}", help=opt.help, metavar=opt.metavar, **kind)


def _build_parser() -> _Parser:
    parser = _Parser(prog="ptstack", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"ptstack {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options, preset) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for opt_name, opt in options.items():
            _add_option(p, opt_name, opt)
        if preset:
            p.add_argument(f"--{preset.flag}", action="store_true", help=preset.help)
        for opt_name, opt in _IO_OPTIONS.items():
            _add_option(p, opt_name, opt)
        p.add_argument("--config", metavar="FILE", help="flat key = value config file")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        fn, _, options, preset = _COMMANDS[args.command]
        opt, defaulted = _resolve(args, {**options, **_IO_OPTIONS}, preset)
        columns, blocks, summary, extra, code = fn(opt, defaulted)
        meta = [("tool", "ptstack"), ("tool_version", __version__), ("command", args.command)]
        meta += [(name, opt[name]) for name in options] + extra
        with contextlib.closing(blocks), _open_output(opt["output"]) as out:
            _write_table(out, opt["format"], meta, columns, blocks, summary)
        return code
    except (CliUsageError, ValueError, OSError) as exc:
        print(f"ptstack: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        print(f"ptstack: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
