"""Command-line front end: cell inspection, transmission sweeps, convergence
studies, the unbalanced alternating stack against its mean-height barrier,
and oracle cross-checks.

Output is CSV (UTF-8, comma separated, ``#``-prefixed metadata lines) or
JSON; ``--output -`` writes to standard output.  Runs are fully
deterministic: identical invocations produce byte-identical output.
Nothing is written before the whole output is computed: each command
renders its rows as text first, and the output gets the metadata, those
rows and the summary.

``sweep`` spreads its N grid over the CPUs in its affinity mask: every
contiguous N range, the first one included, renders into a temporary file
before the output is opened, a forked worker rendering each range after the
first, and the bytes do not depend on the CPU count.  A failure in any range
writes no row, and every sweep needs a writable temporary directory, also on
one CPU.  ``taskset -c 0 ptstack sweep ...`` runs it in one process.

Option precedence: command-line flag > preset flag (``sweep --fig3``,
``oracle-check --quick``) > config file > built-in default.  The config file
is a flat ``key = value`` text file whose keys match the long option names
with underscores (``n_min = 500``).

Exit codes: 0 success, 1 invalid arguments, unwritable output (a full or
closed standard output included) or too little memory (a grid of a huge
count), 2 numerical failure (scattering pole, a value outside the double
range, or integrator tolerance failure), 3 study flagged as non-converged.

``ptstack`` and ``python -m ptstack.cli`` end through :func:`run`, which
flushes the standard streams and ends the process without interpreter
teardown; :func:`main` is the in-process entry and returns the exit code.

Each command's code is a module of ``ptstack.commands`` that :func:`main`
imports only when it runs that command, so a process compiles and runs this
front end, the shared ``ptstack.commands.common`` and its one command.
:func:`_parse` reads every command line from the option table, as argparse
reads it and with argparse's usage errors, so no process loads argparse or
gettext; ``--help`` is rendered from the table.
"""

from __future__ import annotations

import contextlib
import importlib.util
import os
import re
import sys
from collections import namedtuple

from . import __version__
from .commands.common import EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, CliUsageError, _column, _json_object
from .commands.common import ORACLE_THRESHOLD  # noqa: F401 (the benchmark's output check reads it here)


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

# Default k grid for sweeps.  The transmission-surface source material does
# not pin a k range; this is a tool choice and is recorded in the output
# metadata of every sweep.
DEFAULT_K_GRID = (1.0, 10.0, 181)

_REQUIRED = object()


class _Opt(namedtuple("_Opt", "kind default help metavar", defaults=(_REQUIRED, None, None))):
    """One option: a type to cast with or a tuple of allowed values, its default and help."""

    __slots__ = ()


class _Preset(namedtuple("_Preset", "flag help values")):
    """A store-true flag whose values beat the config file but not explicit flags."""

    __slots__ = ()


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
        with open(path, encoding="utf-8") as config:
            text = config.read()
    except (OSError, UnicodeDecodeError) as exc:
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


def _resolve(args: dict, options: dict, preset: _Preset | None) -> tuple[dict, set]:
    """Merge flag > preset > config > default for every option, given the
    command line's options by name, as :func:`_parse` returns them.

    Returns the values, plus the preset flag's own value, and the names of
    the options that fell back to their built-in default.
    """
    config = _load_config(args["config"]) if args["config"] else {}
    unknown = set(config) - set(options)
    if unknown:
        raise CliUsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
    preset_values = preset.values if preset and args[preset.flag] else {}
    values, defaulted = {}, set()
    for name, opt in options.items():
        value = args[name]
        if value is None:
            value = preset_values.get(name)
        if value is None and name in config:
            value = _value(f"config key {name}", config[name], opt.kind)
        if value is None:
            if opt.default is _REQUIRED:
                raise CliUsageError(f"missing required option --{name.replace('_', '-')}")
            value = opt.default
            defaulted.add(name)
        values[name] = value
    if preset:
        values[preset.flag] = args[preset.flag]
    return values, defaulted


def _write_table(out, fmt: str, meta: list, rows, summary: list) -> None:
    """Write one table, with at least one row, as CSV or JSON.

    ``rows`` is the table's rows as text (see ``_render_rows`` in
    ``ptstack.commands.common``): one string, or a list of files whose texts
    follow one another, each read from the start.  The bytes are those of
    the whole table's lines joined (CSV) or of ``json.dumps(doc, indent=2)``
    (JSON); str(float) is the shortest round-trip repr.
    """
    if fmt == "json":
        out.write('{\n  "metadata": ' + _json_object(meta, "  ") + ',\n  "rows": [')
    else:
        out.write("".join(f"# {k} = {v}\n" for k, v in meta))
    if isinstance(rows, str):
        out.write(rows)
    else:
        for part in rows:
            while chunk := part.read(1 << 16):
                out.write(chunk)
    if fmt == "json":
        out.write("\n  ]" + (',\n  "summary": ' + _json_object(summary, "  ") if summary else "") + "\n}\n")
    else:
        fields = [field for name, value in summary for field in _column("csv", name, [value])]
        out.write("".join(f"# {name} = {text}\n" for name, (text,) in fields))


def _open_output(path: str):
    if path != "-":
        return open(path, "w", encoding="utf-8")
    if sys.stdout is None:  # the process started with its standard output closed
        raise OSError("standard output is closed")
    return contextlib.nullcontext(sys.stdout)


# subcommand -> (help, options, preset); --help lists the options in this
# order, then the preset flag, then --format, --output and --config.  The
# command runs as cmd_<name> of ptstack.commands.<name>, with "-" read as "_".
_COMMANDS = {
    "cell": (
        "derived quantities and matrix of one gain/loss cell",
        {"k": _Opt(float), "v": _Opt(float), "b": _Opt(float)}, None,
    ),
    "sweep": (
        "transmission/reflection over an (N, k) grid",
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
        "deviation from the identity over an N schedule",
        {"k": _Opt(float), "v": _Opt(float), **_n_options(100, 100000, 13, "log")}, None,
    ),
    "general": (
        "deviation of an unbalanced stack from its mean-height barrier",
        {"v1": _Opt(float), "v2": _Opt(float), "eps": _Opt(float), "k": _Opt(float),
         **_n_options(128, 2048, 5, "log")},
        None,
    ),
    "oracle-check": (
        "closed form vs integration oracles on a fixed grid",
        {"ode_n_max": _Opt(int, 64, "largest N run through the ODE tier, 0 for none (default 64)")},
        _Preset("quick", "restrict the ODE tier to N <= 4", {"ode_n_max": 4}),
    ),
}


_CONFIG = _Opt(str, None, "flat key = value config file", "FILE")
_NEGATIVE_NUMBER = r"^-\d+$|^-\d*\.\d+$"  # argparse's pattern, compiled only when a token needs it
# The full names of the options with a typed value, of every command.
_TYPED_FLAGS = {f"--{name.replace('_', '-')}" for _, options, _ in _COMMANDS.values()
                for name, opt in {**options, **_IO_OPTIONS}.items() if isinstance(opt.kind, type)}


def _reads_as_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _scan(tokens: list, flags: dict) -> list:
    """What each token is among the option strings ``flags``, as argparse
    reads it: (option string, text after "=" or None), a long option also by
    a unique prefix; (None, None), an unknown option; None, a value ("-", a
    token not starting with "-", a negative number or a text with a space,
    and "--" and all after it); or False, a float after the full name of a
    typed option (``--v1 -1e1``), which is that option's text."""
    end = tokens.index("--") if "--" in tokens else len(tokens)
    found = []
    for token in tokens[:end]:
        if found and tokens[len(found) - 1] in _TYPED_FLAGS and token[:1] == "-" and _reads_as_float(token):
            flag = found[-1][0]
            found[-1:] = [(flag, token), False] if flag else [(None, None)] * 2
            continue
        if token[:1] != "-" or token == "-":
            found.append(None)
            continue
        name, joined, text = token.partition("=")
        matches = [name] if name in flags else [flag for flag in flags if flag.startswith(name) and token[1] == "-"]
        if len(matches) > 1:
            raise CliUsageError(f"ambiguous option: {token} could match {', '.join(matches)}")
        if matches or token[1] == "h":  # -h and the letters after it
            found.append((matches[0], text if joined else None) if matches else ("-h", token[2:]))
        else:
            negative = token[1] != "-" and re.match(_NEGATIVE_NUMBER, token)
            found.append(None if negative or " " in token else (None, None))
    return found + [None] * (len(tokens) - end)


def _value(source: str, text: str, kind):
    """``text`` as one of the choices ``kind``, or cast by it; ``source``
    ("argument --k", "config key k") starts the message of a bad value."""
    if isinstance(kind, tuple):
        if text not in kind:
            raise CliUsageError(f"{source}: invalid choice: {text!r} (choose from {', '.join(map(repr, kind))})")
        return text
    try:
        return kind(text)
    except ValueError:
        raise CliUsageError(f"{source}: invalid {kind.__name__} value: {text!r}") from None


def _help(command: str | None, flags: dict) -> str:
    """The text of ``--help``: the commands, or a command's options in ``flags``."""
    if command is None:
        # The description is the docstring without its last paragraph,
        # which is about the code.
        usage = "[-h] [--version] {" + ",".join(_COMMANDS) + "} ..."
        description = __doc__ and __doc__[:__doc__.rindex("\n\n")]
        title, rows = "commands", [(name, spec[0]) for name, spec in _COMMANDS.items()]
    else:
        usage, description, title = f"{command} [options]", _COMMANDS[command][0], "options"
        rows = [("-h, --help", "show this help and exit")]
        for flag, (name, opt) in list(flags.items())[2:]:
            if isinstance(opt, _Opt):
                choices = "{" + ",".join(opt.kind) + "}" if isinstance(opt.kind, tuple) else name.upper()
                flag += " " + (opt.metavar or choices)
            rows.append((flag, opt.help))
    width = max(len(term) for term, _ in rows)
    lines = "\n".join(f"  {term:{width}}  {text or ''}".rstrip() for term, text in rows)
    return f"usage: ptstack {usage}\n\n" + (f"{description}\n\n" if description else "") + f"{title}:\n{lines}\n"


def _parse(argv: list) -> dict | str:
    """The options of a command line by name, with ``command``, ``config``
    and the preset flag's, an unset option reading None; or the text that
    ``--help`` or ``--version`` prints.  It reads the command line as argparse
    does (see :func:`_scan`); the last of an option's values wins, and a usage
    error raises :class:`CliUsageError` with argparse's message.
    """
    command = preset = None
    args, extras, flags = {}, [], dict.fromkeys(("-h", "--help", "--version"))
    found = _scan(argv, flags)
    for j, option in enumerate(found):
        if option is None and command is None:
            command = _value("argument command", argv[j], tuple(_COMMANDS))
            _, options, preset = _COMMANDS[command]
            flags = {"-h": None, "--help": None}
            for name, opt in {**options, **({preset.flag: preset} if preset else {}), **_IO_OPTIONS}.items():
                flags[f"--{name.replace('_', '-')}"] = name, opt
            flags["--config"] = "config", _CONFIG
            args = {"command": command, **dict.fromkeys((*options, *_IO_OPTIONS, "config")),
                    **({preset.flag: False} if preset else {})}
            found[j + 1:] = _scan(argv[j + 1:], flags)  # the tokens after the command, against its options
            continue
        if option is False:  # the value of the option before it
            continue
        flag, text = option or (None, None)
        if flag is None:
            extras.append(argv[j])
            continue
        name, opt = flags[flag] or (None, None)
        if opt is None or opt is preset:  # a flag that takes no value
            if flag == "-h" and text:  # the letters after -h read as more -h flags
                text = text.lstrip("h") or None
            if text is not None:
                name = "-h/--help" if flag in ("-h", "--help") else flag
                raise CliUsageError(f"argument {name}: ignored explicit argument {text!r}")
            if opt is not None:
                args[name] = True
                continue
            return f"ptstack {__version__}\n" if flag == "--version" else _help(command, flags)
        if text is None:
            if found[j + 1:j + 2] != [None] or argv[j + 1] == "--":
                raise CliUsageError(f"argument {flag}: expected one argument")
            text, found[j + 1] = argv[j + 1], False
        args[name] = _value(f"argument {flag}", text, opt.kind)
    if command is None:
        raise CliUsageError("the following arguments are required: command")
    if extras:
        raise CliUsageError(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv=None) -> int:
    """Run one command and return its exit code; the in-process entry."""
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parse(argv)
        if isinstance(args, str):  # the text of --help or --version
            with _open_output("-") as out:
                out.write(args)
                out.flush()
            return EXIT_OK
        _, options, preset = _COMMANDS[args["command"]]
        opt, defaulted = _resolve(args, {**options, **_IO_OPTIONS}, preset)
        module = args["command"].replace("-", "_")
        command = getattr(importlib.import_module(f".commands.{module}", __package__), f"cmd_{module}")
        rows, summary, extra, code = command(opt, defaulted)
        meta = [("tool", "ptstack"), ("tool_version", __version__), ("command", args["command"])]
        meta += [(name, opt[name]) for name in options] + extra
        try:
            with _open_output(opt["output"]) as out:
                _write_table(out, opt["format"], meta, rows, summary)
                # Standard output is not closed here, so a full or closed one
                # shows only when its buffer is flushed.
                out.flush()
        finally:
            if not isinstance(rows, str):
                for part in rows:
                    part.close()
        return code
    except (CliUsageError, ValueError, OSError) as exc:
        print(f"ptstack: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        print(f"ptstack: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError:  # a grid of a huge --n-count or --k-count, say
        print("ptstack: error: out of memory", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    """The process entry point: :func:`main`, then ``os._exit`` with its code.

    Teardown (module and object finalization) would run for milliseconds
    after the last byte, and nothing needs it: ``main`` closes the output
    file and the sweep's range files, reaps the sweep's workers and
    registers no exit handler, so only the standard streams are flushed
    here.  A flush that fails here prints nothing: ``main`` flushed its
    output and reported a failure itself, and an exit code of 0 becomes 1.
    An exception from ``main``, a bug's traceback, leaves through the
    interpreter as usual.
    """
    code = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None:
                stream.flush()
        except OSError:
            code = code or EXIT_USAGE
    os._exit(code)


if __name__ == "__main__":
    run()
