"""What the CLI front end and every command share: the usage error, the exit
codes, the N and k grids and the table renderers."""

from __future__ import annotations

import math
import sys

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_NONCONVERGED = 3

# The oracle cross-check's pass threshold (entry-scaled deviations): above
# it, oracle-check exits 2.
ORACLE_THRESHOLD = 1e-7


class CliUsageError(Exception):
    """Bad command line, config file, or option combination."""


def _linspace(start: float, stop: float, count: int) -> list[float]:
    """numpy's ``linspace(start, stop, count)`` to the bit: ``i*step + start``,
    the last value ``stop``, and numpy's branch for a step that is 0."""
    div = count - 1
    delta = stop - start
    if div <= 0:
        return [0.0 * delta + start]
    step = delta / div
    if step == 0.0:
        values = [i / div * delta + start for i in range(count)]
    else:
        values = [i * step + start for i in range(count)]
    values[-1] = stop
    return values


def _check_list_size(count: int, option: str) -> None:
    """A usage error naming ``option`` for a count of points no list can hold."""
    if count > sys.maxsize:
        from decimal import Decimal

        raise CliUsageError(f"{option} = {Decimal(count):.3e} is more points than a list can hold")


def _n_grid(opt: dict) -> list[int]:
    from ..stack import cells_as_float

    lo, hi, count = opt["n_min"], opt["n_max"], opt["n_count"]
    if lo < 1 or hi < lo or count < 1:
        raise CliUsageError(f"bad N range: min={lo} max={hi} count={count}")
    lo, hi = cells_as_float(lo), cells_as_float(hi)  # an N beyond the double range is a numerical failure, named
    log = opt["n_spacing"] == "log"
    if count > 1 and hi < 2.0**52:
        # Where no two neighbouring points lie more than 0.5 apart (log
        # spacing is widest at the top), rounding hits every integer from lo
        # to hi, and the grid costs memory for its distinct N only.  A count
        # above sys.maxsize, which may lie beyond the double range, has gaps
        # narrower than sys.maxsize points have, all below 0.02.
        div = min(count, sys.maxsize) - 1
        gap = -hi * math.expm1(-math.log(hi / lo) / div) if log else (hi - lo) / div
        if gap <= 0.5:
            return list(range(int(lo), int(hi) + 1))
    _check_list_size(count, "--n-count")
    if log:
        # As numpy's geomspace: 10 to the power of the linspace of the
        # logs, with the two ends pinned to lo and hi.
        exponents = _linspace(math.log10(lo), math.log10(hi), count)
        xs = [lo, *(10.0 ** e for e in exponents[1:-1]), hi][:count]
    else:
        xs = _linspace(lo, hi, count)
    return sorted({int(round(x)) for x in xs})


def _float_grid(lo: float, hi: float, count: int) -> list[float]:
    if not (lo > 0.0 and hi >= lo and math.isfinite(hi) and count >= 1):
        raise CliUsageError(f"bad k range: min={lo} max={hi} count={count}")
    _check_list_size(count, "--k-count")
    return _linspace(lo, hi, count)


def _study_n_grid(opt: dict, what: str) -> list[int]:
    """The N grid of a study, which needs at least two distinct N; ``what``
    the study does over them starts the message of a grid with fewer."""
    n_values = _n_grid(opt)
    if len(n_values) < 2:
        raise CliUsageError(f"{what} over at least two distinct N; --n-min/--n-max/--n-count give N = {n_values}")
    return n_values


def _check_finite_rows(columns: tuple, rows: list, allowed_nan: tuple = ()) -> None:
    """Raise :class:`ptstack.core.NonFiniteMatrixError` naming the column, N
    and k of the first value of ``rows`` that is not finite, row by row and
    column by column; a column in ``allowed_nan`` may be NaN (a 0/0 by
    design) but not infinite.  Rows start with N and k."""
    for row in rows:
        for name, value in zip(columns, row):
            if not math.isfinite(value) and not (math.isnan(value) and name in allowed_nan):
                from ..core import NonFiniteMatrixError

                raise NonFiniteMatrixError(f"{name} leaves the double range at N = {row[0]}, k = {row[1]}")


def _json_dumps(value) -> str:
    """``json.dumps(value)``; only JSON output loads the json module."""
    import json

    return json.dumps(value)


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
    return _json_dumps(value)


def _json_object(pairs: list, indent: str) -> str:
    inner = indent + "  "
    items = [f"{inner}{_json_dumps(k)}: {_json_token(v, inner)}" for k, v in dict(pairs).items()]
    return "{\n" + ",\n".join(items) + f"\n{indent}}}" if items else "{}"


def _column(fmt: str, name: str, values) -> list:
    """(header, texts) of one column: in CSV a complex column splits into
    name_re and name_im, and in JSON a text is the value in a row object."""
    if fmt == "json":
        return [(name, [_json_token(v, "      ") for v in values])]
    if values and isinstance(values[0], complex):
        return [(f"{name}_re", [str(v.real) for v in values]), (f"{name}_im", [str(v.imag) for v in values])]
    return [(name, list(map(str, values)))]


def _render_rows(fmt: str, fields: list, first: bool) -> str:
    """The rows of ``fields``, (header, texts) columns, as CSV lines, or as
    JSON row objects that each follow a newline, with a comma between two.

    ``first`` says the rows start the table: CSV then starts with the header
    line, and JSON with no comma.  Texts rendered one after another join
    into the table's rows.
    """
    rows = zip(*(texts for _, texts in fields))
    if fmt == "json":
        template = "\n    {\n" + ",\n".join(f"      {_json_dumps(name)}: %s" for name, _ in fields) + "\n    }"
        return ("" if first else ",") + ",".join(map(template.__mod__, rows))
    header = ",".join(name for name, _ in fields) + "\n" if first else ""
    return header + "\n".join(map(",".join, rows)) + "\n"


def _rows_text(fmt: str, columns: tuple, rows: list) -> str:
    """A whole table of row tuples under ``columns`` as text (see :func:`_render_rows`)."""
    fields = [field for name, values in zip(columns, zip(*rows)) for field in _column(fmt, name, values)]
    return _render_rows(fmt, fields, True)
