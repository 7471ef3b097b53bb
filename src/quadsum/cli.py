"""Command-line front end.

Subcommands:

  rule   emit the nodes and weights of an N-point rule as JSON or CSV
  sum    approximate the plain (or weighted) sum of an expression f(x)
  table  regenerate one of the bundled reference tables with pass/fail cells

Exit codes: 0 ok, 1 tolerance failure in table mode, 2 usage or validation
error, 3 numerical failure (an overflowing sum and running out of memory
included), 4 the output, help included, could not be written (a full disk,
a closed stdout, or a reader that went away, which alone exits with no
message).  All reals are printed with 17 significant digits, so identical
invocations produce byte-identical output.

The parsers are built once, at import, and ``main`` reuses them for every
call: parsing leaves a parser unchanged (the ``--define`` list is copied
before it is appended to, and usage errors go to the ``sys.stderr`` current
at the time), so a call's output does not depend on the calls before it.
When argv[0] names a subcommand, ``main`` hands the rest of argv to that
subcommand's parser, and leftover arguments are reported by the top-level
parser, so the outcome equals the nested top-level parse in one argparse
pass.  A value that argparse would read as an option is joined to its flag
first: a family value that ``float`` reads (``--mu -inf``, ``--bet
-1e-1``), and any ``--f`` text that is not an option of the subcommand
(``--f -x``).  Flags resolve as in argparse: exactly, or as the one long
option they abbreviate.

``main`` keeps the last 256 commands it prepared (``apply._STORE_SIZE``;
least recently used out first), keyed by argv: a ``rule`` or ``table`` as
its exit code and output text, a ``sum`` as its validated ``Functional``,
whose rule it puts in ``approximate``'s store and whose node sum runs on
every call.  An error, a usage error or --help is never stored, so a
stored ``sum`` raises only what its node sum raises (an evaluation error,
an integrand not finite at a node, an overflowing sum) on every call.
``python -m quadsum`` runs ``main``.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import re
import sys
from typing import Callable, Sequence, TextIO

from .apply import _STORE_SIZE, Functional, approximate
from .apply import _prepared as _prepared_rule
from .errors import NumericalError, ValidationError
from .exprlang import _ARITY, NUMBER_RE, ParseError, evaluate, parse
from .families import FAMILIES, FamilySpec, parameters, recurrence
from .jacobi import build
from .rule import gauss_rule
from .tables import TABLE_NUMBERS, TableCell, run_table

__all__ = ["main"]

_EXIT_OK = 0
_EXIT_TOLERANCE = 1
_EXIT_VALIDATION = 2
_EXIT_NUMERICAL = 3
_EXIT_OUTPUT = 4


_fmt = "{:.17g}".format  # format(x, ".17g") without a Python frame per value


def _fmt_json(value) -> str:
    if isinstance(value, float):
        return _fmt(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(value, int):
        return str(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(map(_fmt_json, value)) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f'{_fmt_json(str(k))}: {_fmt_json(v)}' for k, v in value.items()) + "}"
    raise TypeError(f"cannot serialize {value!r}")


# The parameters of each family, each named by its flag, its constructor
# keyword and its JSON key, and the type of each flag.
_FAMILY_FLAGS = {kind: [name for name, _ in parameters(cls)] for kind, cls in FAMILIES.items()}
_FLAG_TYPES = {name: type_ for cls in FAMILIES.values() for name, type_ in parameters(cls)}


def _family_from_args(args: argparse.Namespace) -> tuple[FamilySpec, dict]:
    params = {}
    for flag in _FAMILY_FLAGS[args.family]:
        value = getattr(args, flag)
        if value is None:
            raise ValidationError(f"family {args.family!r} requires --{flag}")
        params[flag] = value
    for flag in _FLAG_TYPES:
        if flag not in params and getattr(args, flag) is not None:
            raise ValidationError(f"family {args.family!r} takes no --{flag}")
    return FAMILIES[args.family](**params), params


def _stdout() -> TextIO:
    if sys.stdout is None:
        raise OSError("stdout is closed")
    return sys.stdout


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None) -> None:
        # argparse drops an OSError from writing the help; raise it, so that
        # main reports it as a failed write of output
        (file or _stdout()).write(self.format_help())


def _formatter(prog: str) -> argparse.HelpFormatter:
    # A fixed width, so usage errors and --help wrap the same way on every
    # terminal; 78 is argparse's own width when COLUMNS is unset.
    return argparse.HelpFormatter(prog, width=78)


def _add_family_command(commands, name: str, summary: str) -> argparse.ArgumentParser:
    sub = commands.add_parser(name, help=summary, formatter_class=_formatter)
    sub.add_argument("--family", required=True, choices=sorted(FAMILIES))
    for flag, type_ in _FLAG_TYPES.items():
        sub.add_argument(f"--{flag}", type=type_, help=f"family parameter {flag}")
    sub.add_argument("--n", type=int, required=True, help="number of nodes")
    return sub


def _build_parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = _Parser(
        prog="quadsum",
        description="Gauss quadrature rules for integrals, sums, and mixed measures.",
        formatter_class=_formatter,
    )
    commands = parser.add_subparsers(dest="command", required=True)

    rule_cmd = _add_family_command(commands, "rule", "emit an N-point rule")
    rule_cmd.add_argument("--format", choices=("json", "csv"), default="json")

    sum_cmd = _add_family_command(commands, "sum", "approximate a sum of f over the support")
    sum_cmd.add_argument("--f", required=True, help="integrand expression in x")
    sum_cmd.add_argument("--mode", choices=("plain", "weighted"), default="plain",
                         help="plain sum of f, or sum weighted by the masses")
    sum_cmd.add_argument("--define", action="append", default=[], metavar="NAME=VALUE",
                         help="bind NAME to the number VALUE in the expression")

    table_cmd = commands.add_parser("table", help="regenerate a bundled reference table",
                                    formatter_class=_formatter)
    table_cmd.add_argument("which", type=int, choices=TABLE_NUMBERS)
    table_cmd.add_argument("--format", choices=("json", "csv"), default="json")
    return parser, {"rule": rule_cmd, "sum": sum_cmd, "table": table_cmd}


_PARSER, _COMMANDS = _build_parsers()


# argparse reads a token that starts with '-' as an option unless it looks
# like "-1" or "-.5", so a family value that ``float`` reads, and any --f
# text that is not an option of the subcommand, is joined to its flag.
_FAMILY_OPTIONS = frozenset(f"--{flag}" for flag in _FLAG_TYPES)


def _reads_as_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _option(options, token: str) -> str | None:
    """The option argparse reads token as: the flag before any '=' exactly,
    the one long option it abbreviates, or -h with letters attached."""
    flag = token.partition("=")[0]
    if flag in options:
        return flag
    if flag[:2] == "--":
        matches = [option for option in options if option.startswith(flag)]
        return matches[0] if len(matches) == 1 else None
    return "-h" if token[:2] == "-h" else None


def _join_dash_values(sub: argparse.ArgumentParser, args: list[str]) -> list[str]:
    """The arguments of subcommand ``sub`` with "--mu -inf" read as
    "--mu=-inf" and "--f -x" as "--f=-x"."""
    options = sub._option_string_actions
    out = []
    for i, token in enumerate(args):
        if token == "--":  # everything after it is positional
            return out + args[i:]
        prev = out[-1] if out else ""
        flag = _option(options, prev) if token[:1] == prev[:1] == "-" and "=" not in prev else None
        if (flag in _FAMILY_OPTIONS and _reads_as_float(token)
                or flag == "--f" and _option(options, token) is None):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _parse_argv(argv: list[str]) -> argparse.Namespace:
    """``_PARSER.parse_args(argv)`` in one argparse pass when argv[0] names
    a subcommand: its parser reads the rest, with dash-led values joined to
    their flags, and leftovers are reported by the top-level parser, as the
    nested parse does."""
    sub = _COMMANDS.get(argv[0]) if argv else None
    if sub is None:
        return _PARSER.parse_args(argv)
    args, extras = sub.parse_known_args(_join_dash_values(sub, argv[1:]),
                                        argparse.Namespace(command=argv[0]))
    if extras:
        _PARSER.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


# A --define value is a number of the expression language, optionally negated.
_DEFINE_VALUE_RE = re.compile(rf"\s*-?{NUMBER_RE.pattern}\s*")


def _parse_defines(defines: Sequence[str]) -> dict[str, str]:
    values = {}
    for item in defines:
        name, sep, value = item.partition("=")
        name = name.strip()
        if not sep or not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", name) or name == "x":
            raise ValidationError(
                f"--define takes NAME=VALUE with an identifier name other than 'x', got {item!r}"
            )
        if name in _ARITY:
            raise ValidationError(
                f"--define name {name!r} is a function of the expression language, got {item!r}"
            )
        if name in values:
            raise ValidationError(f"--define gives {name!r} more than once, got {item!r}")
        if not _DEFINE_VALUE_RE.fullmatch(value):
            raise ValidationError(f"--define value must be numeric, got {item!r}")
        values[name] = value
    return values


def _render(fmt: str, doc: dict, header: str, rows) -> str:
    """JSON of doc, or CSV: the header line and one line per row of text fields."""
    if fmt == "json":
        return _fmt_json(doc)
    return "\n".join([header, *map(",".join, rows)])


def _run_rule(args: argparse.Namespace) -> tuple[int, str]:
    family, params = _family_from_args(args)
    rule = gauss_rule(build(recurrence(family), args.n))
    nodes, weights = rule.nodes.tolist(), rule.weights.tolist()
    doc = {"family": args.family, "params": params, "n": args.n, "nodes": nodes, "weights": weights}
    return _EXIT_OK, _render(args.format, doc, "node,weight", zip(map(_fmt, nodes), map(_fmt, weights)))


# The output columns of a table cell: its TableCell fields in order, keyed
# as in the JSON cells and the CSV header ("pass" is the field ``passed``);
# a CSV row leaves out the params dict.
_CELL_COLUMNS = {("pass" if f.name == "passed" else f.name): f.name
                 for f in dataclasses.fields(TableCell)}
_CSV_COLUMNS = [key for key in _CELL_COLUMNS if key != "params"]


def _csv_value(value) -> str:
    if isinstance(value, str):
        return value.replace(",", ";")
    return "" if value is None else _fmt_json(value)


def _run_table(args: argparse.Namespace) -> tuple[int, str]:
    report = run_table(args.which)
    cells = [{key: getattr(c, name) for key, name in _CELL_COLUMNS.items()} for c in report.cells]
    doc = {"table": report.table, "title": report.title, "n_values": list(report.n_values),
           "pass": report.passed, "cells": cells}
    rows = ([_csv_value(cell[key]) for key in _CSV_COLUMNS] for cell in cells)
    code = _EXIT_OK if report.passed else _EXIT_TOLERANCE
    return code, _render(args.format, doc, ",".join(_CSV_COLUMNS), rows)


@functools.lru_cache(maxsize=_STORE_SIZE)
def _prepared(argv: tuple[str, ...]) -> Callable[[], tuple[int, str]]:
    """The command argv asks for, ready to run: the output of a ``rule`` or
    ``table``, or the validated ``Functional`` of a ``sum`` whose rule is
    stored.  What raises here is never stored."""
    args = _parse_argv(list(argv))
    if args.command != "sum":
        output = (_run_rule if args.command == "rule" else _run_table)(args)
        return lambda: output
    family, _ = _family_from_args(args)
    ast = parse(args.f, _parse_defines(args.define))
    fn = Functional(f"{args.mode}_sum", lambda x: evaluate(ast, x), family, args.n)
    _prepared_rule(family, args.n, fn.kind)  # approximate's entry: what cannot sum raises here
    return lambda: (_EXIT_OK, _fmt(approximate(fn)))


def _drop_stdout() -> None:
    """Point stdout's descriptor, if any, at os.devnull, so the interpreter's
    flush at exit drops what a failed write left buffered, and succeeds."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        try:
            code, text = _prepared(tuple(sys.argv[1:] if argv is None else argv))()
            print(text)
        except SystemExit as exc:
            if exc.code == 0:  # --help was written to stdout
                _stdout().flush()
            raise
        _stdout().flush()  # a write that fails only when flushed fails here
        return code
    except (ValidationError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL
    except MemoryError:  # a list or array too large, e.g. a huge --n
        print("numerical failure: out of memory", file=sys.stderr)
        return _EXIT_NUMERICAL
    except OSError as exc:
        _drop_stdout()
        if not isinstance(exc, BrokenPipeError):  # else the reader is gone
            print(f"error: cannot write output: {exc}", file=sys.stderr)
        return _EXIT_OUTPUT


if __name__ == "__main__":
    sys.exit(main())
