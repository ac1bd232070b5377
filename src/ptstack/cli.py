"""Command-line front end: cell inspection, transmission sweeps, convergence
studies, the generalized alternating-stack fit, and oracle cross-checks.

Output is CSV (UTF-8, comma separated, ``#``-prefixed metadata lines) or
JSON; ``--output -`` writes to standard output.  Runs are fully
deterministic: identical invocations produce byte-identical output.

Option precedence: command-line flag > config file > built-in default.  The
config file is a flat ``key = value`` text file whose keys match the long
option names with underscores (``n_min = 500``).

Exit codes: 0 success, 1 invalid arguments or unwritable output, 2 numerical
failure (scattering pole, a value outside the double range, or integrator
tolerance failure), 3 study flagged as non-converged.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .cell import unit_cell_elements, unit_cell_matrix
from .limits import (
    convergence_study,
    fit_loglog_slope,
    generalized_limit_study,
)
from .oracle import (
    IntegrationFailureError,
    IntegrationSettings,
    incidence_scattering,
    integrate_transfer_matrix,
    slab_propagation_matrix,
)
from .scattering import transmission_surface
from .stack import PeriodicSpec, build_alternating, periodic_matrix

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


def _resolve(args: argparse.Namespace, schema: dict, preset: dict | None = None) -> dict:
    """Merge flag > preset > config > default for every option in schema."""
    config = _load_config(args.config) if getattr(args, "config", None) else {}
    unknown = set(config) - set(schema)
    if unknown:
        raise CliUsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
    preset = preset or {}
    out = {}
    for name, (cast, default) in schema.items():
        value = getattr(args, name, None)
        if value is None and name in preset:
            value = preset[name]
        if value is None and name in config:
            try:
                value = cast(config[name])
            except ValueError as exc:
                raise CliUsageError(f"config key {name}: {exc}") from exc
        if value is None:
            if default is _REQUIRED:
                raise CliUsageError(f"missing required option --{name.replace('_', '-')}")
            value = default
        out[name] = value
    return out


def _choice(name: str, allowed: tuple[str, ...]):
    def cast(value: str) -> str:
        if value not in allowed:
            raise ValueError(f"{name} must be one of {allowed}, got {value!r}")
        return value

    return cast


def _int_grid(lo: int, hi: int, count: int, spacing: str) -> list[int]:
    if lo < 1 or hi < lo or count < 1:
        raise CliUsageError(f"bad N range: min={lo} max={hi} count={count}")
    if spacing == "log":
        xs = np.geomspace(lo, hi, count)
    else:
        xs = np.linspace(lo, hi, count)
    return sorted({int(round(x)) for x in xs})


def _float_grid(lo: float, hi: float, count: int) -> list[float]:
    if not (lo > 0.0 and hi >= lo and count >= 1):
        raise CliUsageError(f"bad k range: min={lo} max={hi} count={count}")
    return [float(x) for x in np.linspace(lo, hi, count)]


def _json_default(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    raise TypeError(f"not JSON serializable: {type(value)!r}")


def _fmt_cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _split_complex(columns: list[str], rows: list[dict]) -> tuple[list[str], list[dict]]:
    if not rows:
        return columns, rows
    flat_cols: list[str] = []
    complex_cols = {c for c in columns if isinstance(rows[0][c], complex)}
    for c in columns:
        if c in complex_cols:
            flat_cols.extend((f"{c}_re", f"{c}_im"))
        else:
            flat_cols.append(c)
    flat_rows = []
    for row in rows:
        flat = {}
        for c in columns:
            if c in complex_cols:
                flat[f"{c}_re"] = row[c].real
                flat[f"{c}_im"] = row[c].imag
            else:
                flat[c] = row[c]
        flat_rows.append(flat)
    return flat_cols, flat_rows


def _json_value(value):
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def _render(fmt: str, meta: list[tuple], columns: list[str], rows: list[dict], summary: list[tuple] = ()) -> str:
    if fmt == "json":
        doc = {
            "metadata": {k: v for k, v in meta},
            "rows": [{c: _json_value(row[c]) for c in columns} for row in rows],
        }
        if summary:
            doc["summary"] = {k: _json_value(v) for k, v in summary}
        return json.dumps(doc, indent=2, default=_json_default) + "\n"
    flat_cols, flat_rows = _split_complex(columns, rows)
    lines = [f"# {k} = {_fmt_cell(v)}" for k, v in meta]
    lines.append(",".join(flat_cols))
    lines.extend(",".join(_fmt_cell(row[c]) for c in flat_cols) for row in flat_rows)
    for k, v in summary:
        if isinstance(v, complex):
            lines.append(f"# {k}_re = {_fmt_cell(v.real)}")
            lines.append(f"# {k}_im = {_fmt_cell(v.imag)}")
        else:
            lines.append(f"# {k} = {_fmt_cell(v)}")
    return "\n".join(lines) + "\n"


def _write(text: str, path: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _meta(command: str, params: dict) -> list[tuple]:
    meta = [("tool", "ptstack"), ("tool_version", __version__), ("command", command)]
    meta.extend((k, v) for k, v in params.items() if k not in ("format", "output"))
    return meta


_IO_SCHEMA = {
    "format": (_choice("format", ("csv", "json")), "csv"),
    "output": (str, "-"),
}


def _matrix_dev(a, b) -> float:
    """Componentwise difference scaled by the larger entry magnitude (floor 1)."""
    aa, bb = a.as_array(), b.as_array()
    scale = max(1.0, float(np.max(np.abs(aa))), float(np.max(np.abs(bb))))
    return float(np.max(np.abs(aa - bb))) / scale


def cmd_cell(args: argparse.Namespace) -> int:
    schema = {
        "k": (float, _REQUIRED),
        "v": (float, _REQUIRED),
        "b": (float, _REQUIRED),
        **_IO_SCHEMA,
    }
    opt = _resolve(args, schema)
    p = unit_cell_elements(opt["k"], opt["v"], opt["b"])
    m = unit_cell_matrix(opt["k"], opt["v"], opt["b"])
    row = {
        "k": p.k,
        "v": p.v,
        "b": p.b,
        "rho": p.rho,
        "phi": p.phi,
        "alpha": p.alpha,
        "beta": p.beta,
        "u_plus": p.u_plus,
        "u_minus": p.u_minus,
        "xi": p.xi,
        "chi": p.chi,
        "eta": p.eta,
        "tau": p.tau,
        "m11": m.m11,
        "m12": m.m12,
        "m21": m.m21,
        "m22": m.m22,
        "absdet_err": abs(m.det - 1.0),
    }
    params = {k: opt[k] for k in ("k", "v", "b")}
    text = _render(opt["format"], _meta("cell", params), list(row), [row])
    _write(text, opt["output"])
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    schema = {
        "v": (float, _REQUIRED),
        "total_length": (float, 1.0),
        "n_min": (int, _REQUIRED),
        "n_max": (int, _REQUIRED),
        "n_count": (int, 16),
        "n_spacing": (_choice("n_spacing", ("linear", "log")), "linear"),
        "k_min": (float, DEFAULT_K_GRID[0]),
        "k_max": (float, DEFAULT_K_GRID[1]),
        "k_count": (int, DEFAULT_K_GRID[2]),
        **_IO_SCHEMA,
    }
    preset = {"v": 40.0, "total_length": 1.0, "n_min": 500, "n_max": 2000} if args.fig3 else None
    opt = _resolve(args, schema, preset)
    n_values = _int_grid(opt["n_min"], opt["n_max"], opt["n_count"], opt["n_spacing"])
    k_values = _float_grid(opt["k_min"], opt["k_max"], opt["k_count"])
    rows = [
        {
            "N": r.n,
            "k": r.k,
            "T": r.big_t,
            "R_left": r.big_r_left,
            "R_right": r.big_r_right,
            "absdet_err": r.absdet_err,
        }
        for r in transmission_surface(opt["v"], opt["total_length"], n_values, k_values)
    ]
    params = {k: opt[k] for k in schema if k not in ("format", "output")}
    params["fig3_preset"] = args.fig3
    k_is_default = args.k_min is None and args.k_max is None and args.k_count is None
    params["k_grid_provenance"] = "tool default (no externally specified range)" if k_is_default else "user"
    columns = ["N", "k", "T", "R_left", "R_right", "absdet_err"]
    text = _render(opt["format"], _meta("sweep", params), columns, rows)
    _write(text, opt["output"])
    return EXIT_OK


def cmd_converge(args: argparse.Namespace) -> int:
    schema = {
        "k": (float, _REQUIRED),
        "v": (float, _REQUIRED),
        "total_length": (float, 1.0),
        "n_min": (int, 100),
        "n_max": (int, 100000),
        "n_count": (int, 13),
        "n_spacing": (_choice("n_spacing", ("linear", "log")), "log"),
        **_IO_SCHEMA,
    }
    opt = _resolve(args, schema)
    n_values = _int_grid(opt["n_min"], opt["n_max"], opt["n_count"], opt["n_spacing"])
    records = convergence_study(opt["k"], opt["v"], opt["total_length"], n_values)
    rows = [
        {
            "N": r.n,
            "k": r.k,
            "deviation_inf": r.deviation_inf,
            "diag_err": r.diag_measured_err,
            "offdiag_measured": r.offdiag_measured,
            "offdiag_predicted": r.offdiag_predicted,
            "offdiag_ratio": (
                r.offdiag_measured / r.offdiag_predicted if r.offdiag_predicted else math.nan
            ),
            "absdet_err": r.absdet_err,
        }
        for r in records
    ]
    slope = fit_loglog_slope([r.n for r in records], [r.deviation_inf for r in records])
    summary = [
        ("loglog_slope", slope),
        ("offdiag_ratio_at_n_max", rows[-1]["offdiag_ratio"]),
    ]
    params = {k: opt[k] for k in schema if k not in ("format", "output")}
    columns = list(rows[0])
    text = _render(opt["format"], _meta("converge", params), columns, rows, summary)
    _write(text, opt["output"])
    return EXIT_OK


def cmd_general(args: argparse.Namespace) -> int:
    schema = {
        "v1": (float, _REQUIRED),
        "v2": (float, _REQUIRED),
        "eps": (float, _REQUIRED),
        "k": (float, _REQUIRED),
        "total_length": (float, 1.0),
        "n_min": (int, 128),
        "n_max": (int, 2048),
        "n_count": (int, 5),
        "n_spacing": (_choice("n_spacing", ("linear", "log")), "log"),
        **_IO_SCHEMA,
    }
    opt = _resolve(args, schema)
    n_values = _int_grid(opt["n_min"], opt["n_max"], opt["n_count"], opt["n_spacing"])
    result = generalized_limit_study(
        opt["v1"], opt["v2"], opt["eps"], opt["total_length"], n_values, opt["k"]
    )
    rows = [
        {
            "N": r.n,
            "k": r.k,
            "deviation_inf": r.deviation_inf,
            "diag_err": r.diag_measured_err,
            "offdiag_dev": r.offdiag_measured,
            "absdet_err": r.absdet_err,
        }
        for r in result.records
    ]
    summary = [
        ("effective_height", result.effective_height),
        ("candidate_full_imbalance", result.candidate_full_imbalance),
        ("candidate_mean_height", result.candidate_mean_height),
        ("residual_full_imbalance", result.residual_full_imbalance),
        ("residual_mean_height", result.residual_mean_height),
        ("closest_candidate", result.closest_candidate),
        ("converged", result.converged),
    ]
    params = {k: opt[k] for k in schema if k not in ("format", "output")}
    columns = list(rows[0])
    text = _render(opt["format"], _meta("general", params), columns, rows, summary)
    _write(text, opt["output"])
    return EXIT_OK if result.converged else EXIT_NONCONVERGED


def cmd_oracle_check(args: argparse.Namespace) -> int:
    schema = {
        "rel_tol": (float, 1e-12),
        "abs_tol": (float, 1e-14),
        "ode_n_max": (int, 64),
        **_IO_SCHEMA,
    }
    preset = {"ode_n_max": 4} if args.quick else None
    opt = _resolve(args, schema, preset)
    settings = IntegrationSettings(rel_tol=opt["rel_tol"], abs_tol=opt["abs_tol"])
    rows = []
    worst = 0.0
    for v in ORACLE_GRID_V:
        for n in ORACLE_GRID_N:
            stack = build_alternating(0.0, v, 1.0, n, 1.0)
            for k in ORACLE_GRID_K:
                closed = periodic_matrix(PeriodicSpec(v=v, n_cells=n, total_length=1.0), k)
                slab = slab_propagation_matrix(stack, k)
                row = {
                    "k": k,
                    "v": v,
                    "N": n,
                    "slab_vs_closed": _matrix_dev(slab, closed),
                    "ode_vs_closed": math.nan,
                    "ode_vs_slab": math.nan,
                    "t_lr_diff": math.nan,
                    "absdet_err": abs(closed.det - 1.0),
                }
                if n <= opt["ode_n_max"]:
                    ode = integrate_transfer_matrix(stack, k, settings)
                    t_l, _ = incidence_scattering(stack, k, "left", settings)
                    t_r, _ = incidence_scattering(stack, k, "right", settings)
                    row["ode_vs_closed"] = _matrix_dev(ode, closed)
                    row["ode_vs_slab"] = _matrix_dev(ode, slab)
                    row["t_lr_diff"] = abs(t_l - t_r)
                rows.append(row)
                worst = max(
                    worst,
                    *(row[c] for c in ("slab_vs_closed", "ode_vs_closed") if not math.isnan(row[c])),
                )
    summary = [
        ("max_deviation", worst),
        ("threshold", ORACLE_THRESHOLD),
        ("verdict", "ok" if worst <= ORACLE_THRESHOLD else "deviation above threshold"),
    ]
    params = {k: opt[k] for k in schema if k not in ("format", "output")}
    columns = list(rows[0])
    text = _render(opt["format"], _meta("oracle-check", params), columns, rows, summary)
    _write(text, opt["output"])
    return EXIT_OK if worst <= ORACLE_THRESHOLD else EXIT_NUMERICAL


def _add_io_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("csv", "json"), default=None, help="output format (default csv)")
    sub.add_argument("--output", default=None, metavar="PATH", help="output path, '-' for stdout (default)")
    sub.add_argument("--config", default=None, metavar="FILE", help="flat key = value config file")


def _build_parser() -> _Parser:
    parser = _Parser(prog="ptstack", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"ptstack {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_cell = sub.add_parser("cell", help="derived quantities and matrix of one gain/loss cell")
    p_cell.add_argument("--k", type=float)
    p_cell.add_argument("--v", type=float)
    p_cell.add_argument("--b", type=float)
    _add_io_options(p_cell)
    p_cell.set_defaults(func=cmd_cell)

    p_sweep = sub.add_parser("sweep", help="transmission/reflection over an (N, k) grid")
    p_sweep.add_argument("--v", type=float)
    p_sweep.add_argument("--total-length", type=float, dest="total_length")
    p_sweep.add_argument("--n-min", type=int, dest="n_min")
    p_sweep.add_argument("--n-max", type=int, dest="n_max")
    p_sweep.add_argument("--n-count", type=int, dest="n_count")
    p_sweep.add_argument("--n-spacing", choices=("linear", "log"), dest="n_spacing")
    p_sweep.add_argument("--k-min", type=float, dest="k_min")
    p_sweep.add_argument("--k-max", type=float, dest="k_max")
    p_sweep.add_argument("--k-count", type=int, dest="k_count")
    p_sweep.add_argument("--fig3", action="store_true", help="preset: V=40, L=1, N in [500, 2000]")
    _add_io_options(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_conv = sub.add_parser("converge", help="deviation from the identity over an N schedule")
    p_conv.add_argument("--k", type=float)
    p_conv.add_argument("--v", type=float)
    p_conv.add_argument("--total-length", type=float, dest="total_length")
    p_conv.add_argument("--n-min", type=int, dest="n_min")
    p_conv.add_argument("--n-max", type=int, dest="n_max")
    p_conv.add_argument("--n-count", type=int, dest="n_count")
    p_conv.add_argument("--n-spacing", choices=("linear", "log"), dest="n_spacing")
    _add_io_options(p_conv)
    p_conv.set_defaults(func=cmd_converge)

    p_gen = sub.add_parser("general", help="fit the constant-barrier limit of an unbalanced stack")
    p_gen.add_argument("--v1", type=float)
    p_gen.add_argument("--v2", type=float)
    p_gen.add_argument("--eps", type=float)
    p_gen.add_argument("--k", type=float)
    p_gen.add_argument("--total-length", type=float, dest="total_length")
    p_gen.add_argument("--n-min", type=int, dest="n_min")
    p_gen.add_argument("--n-max", type=int, dest="n_max")
    p_gen.add_argument("--n-count", type=int, dest="n_count")
    p_gen.add_argument("--n-spacing", choices=("linear", "log"), dest="n_spacing")
    _add_io_options(p_gen)
    p_gen.set_defaults(func=cmd_general)

    p_oc = sub.add_parser("oracle-check", help="closed form vs integration oracles on a fixed grid")
    p_oc.add_argument("--rel-tol", type=float, dest="rel_tol")
    p_oc.add_argument("--abs-tol", type=float, dest="abs_tol")
    p_oc.add_argument("--ode-n-max", type=int, dest="ode_n_max", help="largest N run through the ODE tier")
    p_oc.add_argument("--quick", action="store_true", help="restrict the ODE tier to N <= 4")
    _add_io_options(p_oc)
    p_oc.set_defaults(func=cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliUsageError as exc:
        print(f"ptstack: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"ptstack: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ArithmeticError, IntegrationFailureError) as exc:
        print(f"ptstack: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
