"""Command-line front end.

Subcommands:

  rule   emit the nodes and weights of an N-point rule as JSON or CSV
  sum    approximate the plain (or weighted) sum of an expression f(x)
  table  regenerate one of the bundled reference tables with pass/fail cells

Exit codes: 0 ok, 1 tolerance failure in table mode, 2 usage or validation
error, 3 numerical failure (an overflowing sum included).  All reals are
printed with 17 significant digits, so identical invocations produce
byte-identical output.

The parsers are built once, at import, and ``main`` reuses them for every
call: parsing leaves a parser unchanged (the ``--define`` list is copied
before it is appended to, and usage errors go to the ``sys.stderr`` current
at the time), so a call's output does not depend on the calls before it.
When argv[0] names a subcommand, ``main`` hands the rest of argv to that
subcommand's parser, and leftover arguments are reported by the top-level
parser, so the outcome equals the nested top-level parse in one argparse
pass.  A family option takes any value ``float`` reads: a negative one
such as ``-inf`` or ``-1e-1``, which argparse would read as an option, is
joined to its flag first.

Two per-process stores of at most 64 entries each (``_STORE_SIZE``, least
recently used out first) serve repeated in-process calls.  ``main`` keeps
the namespace of each command line it parsed, keyed by argv.  ``sum`` keeps
the trees it compiled, keyed by the ``--f`` text and the validated
``--define`` pairs, so a repeated integrand is not parsed again.  Trees
hold no reference cycles, so one dropped from the store is freed at once.
An error, a usage error or --help is never stored: it is raised or printed
again on every call.  ``python -m quadsum`` runs ``main`` from a source
checkout.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import re
import sys
from typing import Sequence

from .apply import SPECTRAL_REFERENCE_SIZE, Functional, approximate
from .errors import NumericalError, ValidationError
from .exprlang import _ARITY, NUMBER_RE, Expr, ParseError, evaluate, parse
from .families import FAMILIES, FamilySpec, recurrence
from .jacobi import build
from .rule import gauss_rule
from .tables import TABLE_NUMBERS, TableReport, run_table

__all__ = ["main", "build_parser"]

_EXIT_OK = 0
_EXIT_TOLERANCE = 1
_EXIT_VALIDATION = 2
_EXIT_NUMERICAL = 3


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


# The command-line name and constructor field of each family parameter.
_FAMILY_FLAGS = {
    kind: [(f.metadata.get("flag", f.name), f) for f in dataclasses.fields(cls)]
    for kind, cls in FAMILIES.items()
}
_FLAG_TYPES = {flag: int if f.type in (int, "int") else float
               for flags in _FAMILY_FLAGS.values() for flag, f in flags}


def _family_from_args(args: argparse.Namespace) -> tuple[FamilySpec, dict]:
    params = {}
    kwargs = {}
    for flag, f in _FAMILY_FLAGS[args.family]:
        value = getattr(args, flag)
        if value is None:
            raise ValidationError(f"family {args.family!r} requires --{flag}")
        params[flag] = kwargs[f.name] = value
    return FAMILIES[args.family](**kwargs), params


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
    parser = argparse.ArgumentParser(
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
    table_cmd.add_argument("--oracle-k", type=int, default=SPECTRAL_REFERENCE_SIZE,
                           help="truncation size of the spectral reference (table 3)")
    return parser, {"rule": rule_cmd, "sum": sum_cmd, "table": table_cmd}


def build_parser() -> argparse.ArgumentParser:
    return _build_parsers()[0]


_PARSER, _COMMANDS = _build_parsers()


# argparse reads a token that starts with '-' as an option unless it looks
# like "-1" or "-.5", so a family value such as "-inf" or "-1e-1" is joined
# to its flag ("--mu=-inf") before parsing.
_FAMILY_OPTIONS = frozenset(f"--{flag}" for flag in _FLAG_TYPES)


def _reads_as_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _join_negative_values(argv: list[str]) -> list[str]:
    out = []
    for i, token in enumerate(argv):
        if token == "--":  # everything after it is positional
            return out + argv[i:]
        if out and out[-1] in _FAMILY_OPTIONS and token[:1] == "-" and _reads_as_float(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _parse_argv(argv: list[str]) -> argparse.Namespace:
    """``_PARSER.parse_args(argv)`` in one argparse pass when argv[0] names
    a subcommand: its parser reads the rest, and leftovers are reported by
    the top-level parser, as the nested parse does.  A family option takes
    any value ``float`` reads, negative ones included."""
    argv = _join_negative_values(argv)
    sub = _COMMANDS.get(argv[0]) if argv else None
    if sub is None:
        return _PARSER.parse_args(argv)
    args, extras = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        _PARSER.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


# The most parsed command lines, and the most compiled integrands, that a
# process keeps.
_STORE_SIZE = 64


@functools.lru_cache(maxsize=_STORE_SIZE)
def _parsed(argv: tuple[str, ...]) -> argparse.Namespace:
    """``_parse_argv`` of a command line, kept per process: the parsers do
    not change, so the namespace is a function of argv, and the commands
    only read it.  A usage error or --help exits, so it is never stored."""
    return _parse_argv(list(argv))


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


def _cmd_rule(args: argparse.Namespace) -> int:
    family, params = _family_from_args(args)
    rule = gauss_rule(build(recurrence(family), args.n))
    nodes, weights = rule.nodes.tolist(), rule.weights.tolist()
    if args.format == "json":
        # _fmt_json's bytes, with each float list formatted in one join
        head = _fmt_json({"family": args.family, "params": params, "n": args.n})[:-1]
        print(f'{head}, "nodes": [{", ".join(map(_fmt, nodes))}], '
              f'"weights": [{", ".join(map(_fmt, weights))}]}}')
    else:
        print("\n".join(["node,weight", *map("{:.17g},{:.17g}".format, nodes, weights)]))
    return _EXIT_OK


@functools.lru_cache(maxsize=_STORE_SIZE)
def _compiled(text: str, defines: tuple[tuple[str, str], ...]) -> Expr:
    """The compiled tree of ``--f`` text under validated ``--define`` pairs.
    Trees are acyclic, so one pushed out of the store is freed at once; an
    error is raised again on every call, never stored."""
    return parse(text, dict(defines))


def _cmd_sum(args: argparse.Namespace) -> int:
    family, _ = _family_from_args(args)
    ast = _compiled(args.f, tuple(_parse_defines(args.define).items()))
    kind = "plain_sum" if args.mode == "plain" else "weighted_sum"
    value = approximate(Functional(kind, lambda x: evaluate(ast, x), family, args.n))
    print(_fmt(value))
    return _EXIT_OK


def _table_csv(report: TableReport) -> str:
    lines = ["label,n,approx,exact,rel_error,published,pass,error"]
    for c in report.cells:
        lines.append(",".join([
            c.label.replace(",", ";"),
            str(c.n),
            _fmt(c.approx) if c.approx is not None else "",
            _fmt(c.exact) if c.exact is not None else "",
            _fmt(c.rel_error) if c.rel_error is not None else "",
            _fmt(c.published),
            "true" if c.passed else "false",
            (c.error or "").replace(",", ";"),
        ]))
    return "\n".join(lines)


def _cmd_table(args: argparse.Namespace) -> int:
    report = run_table(args.which, oracle_size=args.oracle_k)
    if args.format == "json":
        doc = {
            "table": report.table,
            "title": report.title,
            "n_values": list(report.n_values),
            "pass": report.passed,
            "cells": [
                {
                    "label": c.label,
                    "params": c.params,
                    "n": c.n,
                    "approx": c.approx,
                    "exact": c.exact,
                    "rel_error": c.rel_error,
                    "published": c.published,
                    "pass": c.passed,
                    "error": c.error,
                }
                for c in report.cells
            ],
        }
        print(_fmt_json(doc))
    else:
        print(_table_csv(report))
    return _EXIT_OK if report.passed else _EXIT_TOLERANCE


def main(argv: Sequence[str] | None = None) -> int:
    args = _parsed(tuple(sys.argv[1:] if argv is None else argv))
    try:
        if args.command == "rule":
            return _cmd_rule(args)
        if args.command == "sum":
            return _cmd_sum(args)
        return _cmd_table(args)
    except (ValidationError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
