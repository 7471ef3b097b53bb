"""Command-line front end.

Subcommands:

  rule   emit the nodes and weights of an N-point rule as JSON or CSV
  sum    approximate the plain (or weighted) sum of an expression f(x)
  table  regenerate one of the bundled reference tables with pass/fail cells

Exit codes: 0 ok, 1 tolerance failure in table mode, 2 usage or validation
error, 3 numerical failure.  All reals are printed with 17 significant
digits, so identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import dataclasses
import re
import sys
from typing import Sequence

from .apply import Functional, approximate
from .errors import NumericalError, ValidationError
from .exprlang import NUMBER_RE, ParseError, evaluate, parse
from .families import FAMILIES, FamilySpec, recurrence
from .jacobi import build
from .rule import gauss_rule
from .tables import TableReport, run_table

__all__ = ["main", "build_parser"]

_EXIT_OK = 0
_EXIT_TOLERANCE = 1
_EXIT_VALIDATION = 2
_EXIT_NUMERICAL = 3


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _fmt_json(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _fmt(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt_json(v) for v in value) + "]"
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


def _add_family_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--family", required=True, choices=sorted(FAMILIES))
    for flag, type_ in _FLAG_TYPES.items():
        sub.add_argument(f"--{flag}", type=type_, help=f"family parameter {flag}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadsum",
        description="Gauss quadrature rules for integrals, sums, and mixed measures.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    rule_cmd = commands.add_parser("rule", help="emit an N-point rule")
    _add_family_options(rule_cmd)
    rule_cmd.add_argument("--n", type=int, required=True, help="number of nodes")
    rule_cmd.add_argument("--format", choices=("json", "csv"), default="json")

    sum_cmd = commands.add_parser("sum", help="approximate a sum of f over the support")
    _add_family_options(sum_cmd)
    sum_cmd.add_argument("--n", type=int, required=True, help="number of nodes")
    sum_cmd.add_argument("--f", required=True, help="integrand expression in x")
    sum_cmd.add_argument("--mode", choices=("plain", "weighted"), default="plain",
                         help="plain sum of f, or sum weighted by the masses")
    sum_cmd.add_argument("--define", action="append", default=[], metavar="NAME=VALUE",
                         help="substitute NAME by (VALUE) in the expression before parsing")

    table_cmd = commands.add_parser("table", help="regenerate a bundled reference table")
    table_cmd.add_argument("which", type=int, choices=(1, 2, 3))
    table_cmd.add_argument("--format", choices=("json", "csv"), default="json")
    table_cmd.add_argument("--oracle-k", type=int, default=200,
                           help="truncation size of the spectral reference (table 3)")
    return parser


# A --define value is a number of the expression language, optionally negated.
_DEFINE_VALUE_RE = re.compile(rf"\s*-?{NUMBER_RE.pattern}\s*")


def _substitute_defines(text: str, defines: Sequence[str]) -> str:
    for item in defines:
        name, sep, value = item.partition("=")
        name = name.strip()
        if not sep or not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", name) or name == "x":
            raise ValidationError(
                f"--define takes NAME=VALUE with an identifier name other than 'x', got {item!r}"
            )
        if not _DEFINE_VALUE_RE.fullmatch(value):
            raise ValidationError(f"--define value must be numeric, got {item!r}")
        text = re.sub(rf"\b{re.escape(name)}\b", f"({value})", text)
    return text


def _cmd_rule(args: argparse.Namespace) -> int:
    family, params = _family_from_args(args)
    rule = gauss_rule(build(recurrence(family), args.n))
    if args.format == "json":
        doc = {
            "family": args.family,
            "params": params,
            "n": args.n,
            "nodes": [float(x) for x in rule.nodes],
            "weights": [float(w) for w in rule.weights],
        }
        print(_fmt_json(doc))
    else:
        print("node,weight")
        for x, w in zip(rule.nodes, rule.weights):
            print(f"{_fmt(float(x))},{_fmt(float(w))}")
    return _EXIT_OK


def _cmd_sum(args: argparse.Namespace) -> int:
    family, _ = _family_from_args(args)
    text = _substitute_defines(args.f, args.define)
    ast = parse(text)
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
    parser = build_parser()
    args = parser.parse_args(argv)
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
