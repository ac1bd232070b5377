"""Command-line front end: cell inspection, transmission sweeps, convergence
studies, the generalized alternating-stack fit, and oracle cross-checks.

Output is CSV (UTF-8, comma separated, ``#``-prefixed metadata lines) or
JSON; ``--output -`` writes to standard output.  Runs are fully
deterministic: identical invocations produce byte-identical output.

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
import json
import math
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .cell import unit_cell_elements, unit_cell_matrix
from .core import NonFiniteMatrixError
from .limits import (
    convergence_study,
    fit_loglog_slope,
    generalized_limit_study,
)
from .oracle import incidence_scattering, integrate_transfer_matrix, slab_propagation_matrix
from .scattering import transmission_surface
from .stack import PeriodicSpec, build_alternating, cells_as_float, periodic_matrix

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


def _one_block(rows: list) -> list:
    """A table of row tuples as a single block (see :func:`_write_table`)."""
    return [(len(rows), [list(column) for column in zip(*rows)])]


def _block_fields(columns: tuple, blocks, fields_of):
    """The (header, fields) columns of each block, formatting a shared value
    once and a column object repeated from the previous block not again."""
    previous = {}
    for count, values in blocks:
        fields = []
        for j, (name, column) in enumerate(zip(columns, values)):
            if not isinstance(column, list):
                fields += [(header, texts * count) for header, texts in fields_of(name, [column])]
                continue
            if j not in previous or previous[j][0] is not column:
                previous[j] = (column, fields_of(name, column))
            fields += previous[j][1]
        yield fields


def _write_table(out, fmt: str, meta: list, columns: tuple, blocks, summary: list) -> None:
    """Write one table as CSV or JSON, a block of rows at a time.

    ``blocks`` yields (row count, columns); a column is a list of values, or
    one value shared by every row of the block.  The bytes are those of the
    whole table's lines joined (CSV) or of ``json.dumps(doc, indent=2)``
    (JSON); str(float) is the shortest round-trip repr.
    """
    if fmt == "json":
        out.write('{\n  "metadata": ' + _json_object(meta, "  ") + ',\n  "rows": [')
        row = "{\n" + ",\n".join(f"      {json.dumps(c)}: %s" for c in columns) + "\n    }"
        separator = "\n    "
        for fields in _block_fields(columns, blocks, _json_fields):
            texts = [row % cells for cells in zip(*(f for _, f in fields))]
            if texts:
                out.write(separator + ",\n    ".join(texts))
                separator = ",\n    "
        out.write("]" if separator == "\n    " else "\n  ]")
        if summary:
            out.write(',\n  "summary": ' + _json_object(summary, "  "))
        out.write("\n}\n")
        return
    out.write("".join(f"# {k} = {v}\n" for k, v in meta))
    header = None
    for fields in _block_fields(columns, blocks, _csv_fields):
        if header is None:
            header = ",".join(name for name, _ in fields)
            out.write(header + "\n")
        lines = "\n".join(map(",".join, zip(*(f for _, f in fields))))
        if lines:
            out.write(lines + "\n")
    out.write("".join(f"# {k} = {v}\n" for k, v in _flatten(summary)))


def _open_output(path: str):
    return contextlib.nullcontext(sys.stdout) if path == "-" else open(path, "w", encoding="utf-8")


def _matrix_dev(a, b) -> float:
    """Componentwise difference scaled by the larger entry magnitude (floor 1)."""
    aa, bb = a.as_array(), b.as_array()
    scale = max(1.0, float(np.max(np.abs(aa))), float(np.max(np.abs(bb))))
    return float(np.max(np.abs(aa - bb))) / scale


# Each command takes the resolved options and the names left at their default,
# and returns (columns, blocks of rows, summary, extra metadata, exit code).

_CELL_ELEMENTS = ("k", "v", "b", "rho", "phi", "alpha", "beta", "u_plus", "u_minus", "xi", "chi", "eta", "tau")
_MATRIX_ENTRIES = ("m11", "m12", "m21", "m22", "absdet_err")


def cmd_cell(opt: dict, defaulted: set):
    p = unit_cell_elements(opt["k"], opt["v"], opt["b"])
    m = unit_cell_matrix(opt["k"], opt["v"], opt["b"])
    row = [getattr(p, c) for c in _CELL_ELEMENTS] + [getattr(m, c) for c in _MATRIX_ENTRIES]
    if not all(map(cmath.isfinite, row)):
        raise NonFiniteMatrixError(
            f"cell matrix or absdet_err leaves the double range at k = {p.k}, V = {p.v}, b = {p.b}"
        )
    return _CELL_ELEMENTS + _MATRIX_ENTRIES, _one_block([row]), [], [], EXIT_OK


def cmd_sweep(opt: dict, defaulted: set):
    n_values = _n_grid(opt)
    k_values = _float_grid(opt["k_min"], opt["k_max"], opt["k_count"])
    table = transmission_surface(opt["v"], opt["total_length"], n_values, k_values)
    k_column = table.k_values.tolist()
    results = (table.big_t, table.big_r_left, table.big_r_right, table.absdet_err)
    # One block per N: the N is one shared value and the k column one list.
    blocks = (
        (len(k_column), [n, k_column, *(column[i].tolist() for column in results)])
        for i, n in enumerate(table.n_values)
    )
    k_is_default = {"k_min", "k_max", "k_count"} <= defaulted
    extra = [
        ("fig3_preset", opt["fig3"]),
        ("k_grid_provenance", "tool default (no externally specified range)" if k_is_default else "user"),
    ]
    return ("N", "k", "T", "R_left", "R_right", "absdet_err"), blocks, [], extra, EXIT_OK


def cmd_converge(opt: dict, defaulted: set):
    records = convergence_study(opt["k"], opt["v"], opt["total_length"], _n_grid(opt))
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
        with _open_output(opt["output"]) as out:
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
