"""The command line's argparse parser, which ``ptstack.cli`` imports only for
the command lines its table parser leaves: ``--help``, ``--version``,
abbreviated option names and usage errors.

It builds its parser from the option table it is given, so it imports no
command module and not ``ptstack.cli``.
"""

from __future__ import annotations

import argparse

from .common import CliUsageError, _reads_as_float


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; route through our own error
    # type so the documented exit-code contract (1) holds.
    def error(self, message):
        raise CliUsageError(message)

    # Only --help and --version print here, to standard output.  argparse
    # would ignore a write that fails; theirs fails like any other output.
    def _print_message(self, message, file=None):
        if file is None:
            raise OSError("standard output is closed")
        file.write(message)


def _add_option(parser: argparse.ArgumentParser, name: str, opt) -> None:
    kind = {"choices": opt.kind} if isinstance(opt.kind, tuple) else {"type": opt.kind}
    parser.add_argument(f"--{name.replace('_', '-')}", help=opt.help, metavar=opt.metavar, **kind)


def _unsized_formatter(prog: str) -> argparse.HelpFormatter:
    return argparse.HelpFormatter(prog, width=80)


def _build_parser(commands: dict, io_options: dict, description: str | None, version: str) -> _Parser:
    # argparse builds a formatter to check each option it adds, and one built
    # without a width looks up the terminal's, which imports shutil.  So the
    # parsers get the formatters that --help prints with once they are built.
    parser = _Parser(prog="ptstack", description=description, formatter_class=_unsized_formatter)
    parser.add_argument("--version", action="version", version=version)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, options, preset) in commands.items():
        p = sub.add_parser(name, help=help_text, formatter_class=_unsized_formatter)
        for opt_name, opt in options.items():
            _add_option(p, opt_name, opt)
        if preset:
            p.add_argument(f"--{preset.flag}", action="store_true", help=preset.help)
        for opt_name, opt in io_options.items():
            _add_option(p, opt_name, opt)
        p.add_argument("--config", metavar="FILE", help="flat key = value config file")
        p.formatter_class = argparse.HelpFormatter
    parser.formatter_class = argparse.RawDescriptionHelpFormatter
    return parser


def _join_negative_values(argv: list, commands: dict, io_options: dict) -> list:
    """``argv`` with each option that takes a typed value joined to a
    following token that starts with ``-`` and reads as a float:
    ``--v1 -1e1`` becomes ``--v1=-1e1``.  argparse takes such a token for an
    option unless the rest of it is plain digits."""
    flags = {
        f"--{name.replace('_', '-')}"
        for _, options, _ in commands.values()
        for name, opt in {**options, **io_options}.items()
        if not isinstance(opt.kind, tuple)
    }
    joined = []
    for token in argv:
        if joined and joined[-1] in flags and token.startswith("-") and _reads_as_float(token):
            joined[-1] += f"={token}"
        else:
            joined.append(token)
    return joined


def parse_args(argv: list, commands: dict, io_options: dict, description: str | None, version: str) -> dict:
    """The options of ``argv`` by name, with ``command``, ``config`` and the
    preset flag's; an unset option reads None.

    ``commands`` and ``io_options`` are the front end's option table.  A
    usage error raises :class:`CliUsageError`; ``--help`` and ``--version``
    print to standard output and raise ``SystemExit(0)``.
    """
    parser = _build_parser(commands, io_options, description, version)
    return vars(parser.parse_args(_join_negative_values(argv, commands, io_options)))
