"""Tests for the command-line interface: schemas, determinism, exit codes."""

import contextlib
import csv
import errno
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import fmt_json_reference, rule_csv_reference, table_csv_reference

import quadsum
import quadsum.apply
import quadsum.cli
import quadsum.rule
import quadsum.tables
from quadsum.apply import spectral_reference
from quadsum.cli import main
from quadsum.errors import NumericalError, ValidationError
from quadsum.families import Charlier, ContinuousDualHahn, Krawtchouk, Meixner, Wilson, recurrence
from quadsum.jacobi import build
from quadsum.rule import gauss_rule
from quadsum.tables import TableCell, TableReport, run_table


def _joined(*argv):
    """argv with the dash-led values its subcommand's parser reads joined to
    their flags, as main parses it."""
    sub = quadsum.cli._COMMANDS.get(argv[0]) if argv else None
    return list(argv) if sub is None else [argv[0], *quadsum.cli._join_dash_values(sub, list(argv[1:]))]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRuleCommand:
    def test_single_point_rule(self, capsys):
        code, out, _ = run_cli(capsys, "rule", "--family", "charlier", "--mu", "2", "--n", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc == {
            "family": "charlier",
            "params": {"mu": 2.0},
            "n": 1,
            "nodes": [2.0],
            "weights": [1.0],
        }

    def test_two_point_rule_values(self, capsys):
        code, out, _ = run_cli(capsys, "rule", "--family", "charlier", "--mu", "2", "--n", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["nodes"] == pytest.approx([1.0, 4.0], rel=1e-14)
        assert doc["weights"] == pytest.approx([2.0 / 3.0, 1.0 / 3.0], rel=1e-14)

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "rule", "--family", "charlier", "--mu", "2", "--n", "2", "--format", "csv"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [float(r["node"]) for r in rows] == pytest.approx([1.0, 4.0], rel=1e-14)
        assert float(rows[0]["weight"]) == pytest.approx(2.0 / 3.0, rel=1e-14)

    def test_charlier_at_400_points(self, capsys):
        # past the order where an unscaled first eigenvector row underflows to
        # an exact zero; 195 weights print 0.0, positive weights whose squares
        # are below the double range
        code, out, _ = run_cli(capsys, "rule", "--family", "charlier", "--mu", "2", "--n", "400")
        assert code == 0
        weights = json.loads(out)["weights"]
        assert weights.count(0.0) == 195
        assert abs(math.fsum(weights) - 1.0) <= 1e-12

    def test_determinism(self, capsys):
        args = ("rule", "--family", "meixner", "--mu", "2", "--beta", "0.4", "--n", "9")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_json_floats_round_trip(self, capsys):
        _, out, _ = run_cli(
            capsys, "rule", "--family", "krawtchouk", "--M", "30", "--gamma", "0.3", "--n", "12"
        )
        doc = json.loads(out)
        total = math.fsum(doc["weights"])
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_krawtchouk_overrun_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "rule", "--family", "krawtchouk", "--M", "2", "--gamma", "0.5", "--n", "4"
        )
        assert code == 2
        assert "exceeds" in err

    def test_wilson_parameter_sum_two(self, capsys):
        code, out, _ = run_cli(
            capsys, "rule", "--family", "wilson", "--mu", "0.5", "--nu", "0.5",
            "--alpha", "0.5", "--beta", "0.5", "--n", "5",
        )
        assert code == 0
        weights = json.loads(out)["weights"]
        assert math.fsum(weights) == pytest.approx(1.0, abs=1e-12)

    def test_tiny_wilson_parameters_exit_3(self, capsys):
        # the recurrence divided by zero here before
        tiny = ("--mu", "2.225073858507203e-309", "--nu", "1e-300", "--alpha", "1e-300",
                "--beta", "1e-300")
        assert run_cli(capsys, "rule", "--family", "wilson", *tiny, "--n", "2") == (
            3, "", "numerical failure: eigenvector with exactly zero first component at "
                   "index 1; matrix is numerically reducible\n")

    def test_invalid_params_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "rule", "--family", "charlier", "--mu", "-1", "--n", "3")
        assert code == 2
        assert "mu > 0" in err

    @pytest.mark.parametrize("command", [("rule",), ("sum", "--f", "1")])
    @pytest.mark.parametrize("params, message", [
        (("--family", "charlier", "--mu", "inf"), "charlier requires a finite mu, got mu=inf"),
        (("--family", "krawtchouk", "--M", str(10**400), "--gamma", "0.3"),
         "krawtchouk requires a finite M, got M too large for a float"),
        (("--family", "krawtchouk", "--M", str(10**308), "--gamma", "0.3"),
         "krawtchouk coefficient b_1 overflows a float at M=1e+308"),
        (("--family", "charlier", "--mu", "1e308"),
         "matrix entries must be finite, got b_1 = -inf"),
    ], ids=["infinite-mu", "huge-M", "overflowing-b", "overflowing-entry"])
    def test_non_finite_params_exit_2(self, capsys, command, params, message):
        code, out, err = run_cli(capsys, *command[:1], *params, "--n", "3", *command[1:])
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_missing_param_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "rule", "--family", "meixner", "--mu", "2", "--n", "3")
        assert code == 2
        assert "--beta" in err

    @pytest.mark.parametrize("value", ["-inf", "-Infinity", "-nan", "-1e-1", "-1E+2", "-1_0"])
    def test_negative_value_reaches_the_library(self, capsys, value):
        # argparse takes such a token for an option unless it is joined to its flag
        argv = ("--family", "cdh", "--alpha", "1", "--beta", "2", "--n", "3")
        joined = run_cli(capsys, "rule", f"--mu={value}", *argv)
        assert run_cli(capsys, "rule", "--mu", value, *argv) == joined
        assert "expected one argument" not in joined[2]

    def test_negative_infinite_mu_names_the_bad_value(self, capsys):
        assert run_cli(capsys, "rule", "--family", "cdh", "--mu", "-inf", "--alpha", "1",
                       "--beta", "2", "--n", "3") == (
            2, "", "error: continuous dual Hahn requires a finite mu, got mu=-inf\n")

    def test_nan_parameter_is_not_finite(self, capsys):
        assert run_cli(capsys, "rule", "--family", "meixner", "--mu", "2", "--beta", "nan",
                       "--n", "3") == (2, "", "error: meixner requires a finite beta, got beta=nan\n")

    def test_exponent_spelling_prints_the_same_bytes(self, capsys):
        argv = ("--alpha", "1", "--beta", "2", "--n", "3")
        code, out, err = run_cli(capsys, "rule", "--family", "cdh", "--mu", "-1e-1", *argv)
        assert (code, err) == (0, "") and out
        assert run_cli(capsys, "rule", "--family", "cdh", "--mu", "-0.1", *argv) == (code, out, err)

    def test_negative_value_of_an_integer_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["rule", "--family", "krawtchouk", "--M", "-1e3", "--gamma", "0.3", "--n", "3"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith("error: argument --M: invalid int value: '-1e3'\n")

    def test_only_family_values_are_joined(self):
        # ... and the --f text, which may be anything but an option of the
        # subcommand
        assert _joined("sum", "--mu", "-inf", "--n", "-1e3", "--f", "-inf") == [
            "sum", "--mu=-inf", "--n", "-1e3", "--f=-inf"]
        assert _joined("sum", "--mu", "-x", "--", "--mu", "-inf") == [
            "sum", "--mu", "-x", "--", "--mu", "-inf"]
        assert _joined("table", "1", "--mu", "-inf") == ["table", "1", "--mu", "-inf"]
        assert _joined("--mu", "-inf") == ["--mu", "-inf"]  # no subcommand
        for option in ("--mode", "--mod", "--mode=plain", "-h", "-hx", "--help", "--f"):
            assert _joined("sum", "--f", option) == ["sum", "--f", option]
        for text in ("-x", "-1e-1", "-", "--m", "-x=1", "--bogus"):
            assert _joined("sum", "--f", text) == ["sum", f"--f={text}"]
        assert _joined("rule", "--f", "-x") == ["rule", "--f", "-x"]  # ambiguous in rule
        assert _joined("rule", "--bet", "-1e-1", "--m", "-2") == ["rule", "--bet=-1e-1", "--m=-2"]
        assert _joined("sum", "--m", "-2") == ["sum", "--m", "-2"]  # --mu or --mode

    def test_dash_led_integrand_is_read_as_text(self, capsys):
        argv = ("sum", "--family", "charlier", "--mu", "2", "--n", "3")
        expected = (0, "-2.0000000000000004\n", "")
        assert run_cli(capsys, *argv, "--f=-x", "--mode", "weighted") == expected
        assert run_cli(capsys, *argv, "--f", "-x", "--mode", "weighted") == expected

    def test_option_after_f_keeps_the_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sum", "--family", "charlier", "--mu", "2", "--n", "3", "--f", "--mode", "plain"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            "quadsum sum: error: argument --f: expected one argument\n")

    @pytest.mark.parametrize("flag", ["--bet", "--beta"])
    def test_abbreviated_family_flag_takes_a_negative_value(self, capsys, flag):
        argv = ("rule", "--family", "meixner", "--mu", "2")
        expected = (2, "", "error: meixner requires 0 < beta < 1, got beta=-0.1\n")
        assert run_cli(capsys, *argv, f"{flag}=-1e-1", "--n", "3") == expected
        assert run_cli(capsys, *argv, flag, "-1e-1", "--n", "3") == expected

    def test_ambiguous_prefix_is_left_to_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sum", "--family", "charlier", "--m", "-1e-1", "--n", "3", "--f", "1"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            "quadsum sum: error: ambiguous option: --m could match --mu, --mode\n")


class TestSumCommand:
    def test_charlier_exponential(self, capsys):
        code, out, _ = run_cli(
            capsys, "sum", "--family", "charlier", "--mu", "2", "--n", "7",
            "--f", "3^x/gamma(x+1)",
        )
        assert code == 0
        value = float(out)
        exact = math.exp(3.0)
        err = abs(exact - value) / abs(exact + value)
        assert 4.165e-11 / 5.0 <= err <= 4.165e-11 * 5.0

    def test_weighted_mode_constant(self, capsys):
        code, out, _ = run_cli(
            capsys, "sum", "--family", "charlier", "--mu", "2", "--n", "5",
            "--f", "1", "--mode", "weighted",
        )
        assert code == 0
        assert float(out) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("mode", ["plain", "weighted"])
    @pytest.mark.parametrize("m", ["2000", "3000"])
    def test_krawtchouk_masses_underflowing_to_zero(self, capsys, m, mode):
        # binomial masses of these spectra underflow to 0.0 (at k = 1437 for
        # M = 2000, at k = 0 for M = 3000); neither sum mode reads them
        code, out, err = run_cli(
            capsys, "sum", "--family", "krawtchouk", "--M", m, "--gamma", "0.3",
            "--n", "10", "--f", "1", "--mode", mode,
        )
        assert (code, err) == (0, "")
        value = float(out)
        assert math.isfinite(value)
        if mode == "weighted":
            assert value == pytest.approx(1.0, abs=1e-12)

    def test_define_substitution(self, capsys):
        base = ("sum", "--family", "meixner", "--mu", "2", "--beta", "0.2", "--n", "10")
        code, out, _ = run_cli(capsys, *base, "--f", "r^x/gamma(x+1)", "--define", "r=3")
        assert code == 0
        code2, out2, _ = run_cli(capsys, *base, "--f", "3^x/gamma(x+1)")
        assert code2 == 0
        assert out == out2
        value = float(out)
        exact = math.exp(3.0)
        err = abs(exact - value) / abs(exact + value)
        assert 1.522e-10 / 5.0 <= err <= 1.522e-10 * 5.0

    @pytest.mark.parametrize("f, message", [
        ("r^x)", "error: syntax error at offset 3: expected end of input, found ')'\n"),
        ("r(2)", "error: syntax error at offset 0: unknown function 'r'; "
                 "known: ['abs', 'exp', 'gamma', 'lgamma', 'ln', 'pow', 'sqrt']\n"),
    ], ids=["offset", "not-a-function"])
    def test_define_errors_point_into_the_given_text(self, capsys, f, message):
        assert run_cli(
            capsys, "sum", "--family", "charlier", "--mu", "2", "--n", "5",
            "--f", f, "--define", "r=3",
        ) == (2, "", message)

    @pytest.mark.parametrize("f, offset", [
        ("(" * 300 + "x" + ")" * 300, 100),
        ("+".join(["x"] * 5000), 199),
    ], ids=["nested-parens", "long-sum"])
    def test_deep_expression_exit_2(self, capsys, f, offset):
        assert run_cli(
            capsys, "sum", "--family", "charlier", "--mu", "2", "--n", "5", "--f", f,
        ) == (2, "", f"error: syntax error at offset {offset}: "
                     "expression nests more than 100 levels deep\n")

    def test_bad_define_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "sum", "--family", "charlier", "--mu", "2", "--n", "3",
            "--f", "r^x", "--define", "x=3",
        )
        assert code == 2
        assert "define" in err

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "sum", "--family", "charlier", "--mu", "2", "--n", "3", "--f", "2+",
        )
        assert code == 2
        assert "syntax" in err

    @pytest.mark.parametrize("value", ["inf", "nan", "1_0"])
    def test_define_outside_number_grammar_exit_2(self, capsys, value):
        code, _, err = run_cli(
            capsys, "sum", "--family", "charlier", "--mu", "2", "--n", "3",
            "--f", "r^x", "--define", f"r={value}",
        )
        assert code == 2
        assert "define" in err

    @pytest.mark.parametrize("f, defines, message", [
        ("1e999*x", (), "error: syntax error at offset 0: number '1e999' overflows to inf\n"),
        ("r*0+1", ("--define", "r=1e999"),
         "error: syntax error at offset 0 in the value of 'r': number '1e999' overflows to inf\n"),
    ], ids=["literal", "define"])
    def test_overflowing_number_exit_2(self, capsys, f, defines, message):
        assert run_cli(
            capsys, "sum", "--family", "charlier", "--mu", "2", "--n", "5", "--f", f, *defines,
        ) == (2, "", message)

    def test_define_error_names_the_define(self, capsys):
        # the offset is into the value of r, not into --f
        assert run_cli(
            capsys, "sum", "--family", "charlier", "--mu", "2", "--n", "5",
            "--f", "2*r+x", "--define", "s=1", "--define", "r= 1e999",
        ) == (2, "", "error: syntax error at offset 1 in the value of 'r': "
                     "number '1e999' overflows to inf\n")

    @pytest.mark.parametrize("defines, message", [
        (("r=2", "r=3"), "error: --define gives 'r' more than once, got 'r=3'\n"),
        (("r=2", " r = 2"), "error: --define gives 'r' more than once, got ' r = 2'\n"),
        (("r=2", "gamma=2"), "error: --define name 'gamma' is a function of the "
                             "expression language, got 'gamma=2'\n"),
        (("r=2", "pow=2"), "error: --define name 'pow' is a function of the expression "
                           "language, got 'pow=2'\n"),
        (("lgamma=1",), "error: --define name 'lgamma' is a function of the expression "
                        "language, got 'lgamma=1'\n"),
    ], ids=["repeated", "repeated-spaced", "gamma", "pow", "lgamma"])
    def test_define_name_clash_exit_2(self, capsys, defines, message):
        argv = ["sum", "--family", "charlier", "--mu", "2", "--n", "10",
                "--f", "r*x+gamma(x+1)"]
        for item in defines:
            argv += ["--define", item]
        assert run_cli(capsys, *argv) == (2, "", message)

    def test_gamma_overflow_is_numerical_failure(self, capsys):
        code, out, err = run_cli(
            capsys, "sum", "--family", "charlier", "--mu", "2", "--n", "40",
            "--f", "gamma(x+200)",
        )
        assert (code, out) == (3, "")
        assert err.startswith("numerical failure")
        assert "Traceback" not in err
        assert err == "numerical failure: integrand is not finite at node -7.577858357427962e-16\n"

    @pytest.mark.parametrize("f, mode", [("1e308", "plain"), ("1.7976931348623157e308", "weighted")])
    def test_overflowing_sum_exit_3(self, capsys, f, mode):
        # a term w*f(x) (plain) or the running sum of finite terms (weighted) overflows
        assert run_cli(
            capsys, "sum", "--family", "charlier", "--mu", "2", "--n", "5", "--f", f, "--mode", mode,
        ) == (3, "", "numerical failure: quadrature sum overflows the float range\n")

    def test_odd_power_overflowing_to_minus_inf(self, capsys):
        # (x-1e200)^3 overflows to -inf at every node, so every term is exp(-inf) = 0
        assert run_cli(
            capsys, "sum", "--family", "charlier", "--mu", "2", "--n", "5",
            "--f", "exp((x-1e200)^3)",
        ) == (0, "0\n", "")

    def test_lgamma_integrand_past_the_gamma_overflow(self, capsys):
        # 3^x/gamma(x+1) is inf/inf at this rule's top nodes; the log form is not
        code, out, err = run_cli(
            capsys, "sum", "--family", "meixner", "--mu", "2", "--beta", "0.4", "--n", "180",
            "--f", "exp(x*ln(3)-lgamma(x+1))",
        )
        assert (code, err) == (0, "")
        assert abs(float(out) - math.exp(3.0)) <= 1e-14 * math.exp(3.0)

    @pytest.mark.parametrize("params, node", [
        (("--family", "charlier", "--mu=1e200", "--n", "1", "--f", "exp(-x)"), "1e+200"),
        (("--family", "krawtchouk", "--M=100000000000000000", "--gamma=1e-8", "--n", "40",
          "--f", "1"), "999668575.26471"),
    ], ids=["charlier", "krawtchouk"])
    def test_overflowing_density_names_the_node(self, capsys, params, node):
        # the log of the mass lost its digits, so exp of it overflows at this node
        quadsum.apply._prepared.cache_clear()
        for _ in range(2):
            assert run_cli(capsys, "sum", *params, "--mode", "plain") == (
                2, "", "error: weight function must be positive and finite at node "
                       f"{node}, got inf\n")
        assert quadsum.apply._prepared.cache_info().currsize == 0

    def test_domain_error_exit_3(self, capsys):
        # ln is undefined at the low nodes of this rule
        code, _, err = run_cli(
            capsys, "sum", "--family", "charlier", "--mu", "2", "--n", "5",
            "--f", "ln(x-100)",
        )
        assert code == 3


@pytest.mark.usefixtures("empty_store")
class TestWholeSupportSum:
    """A plain ``sum`` whose --n is the size of a finite support sums f over
    that support exactly, decomposing no matrix; every other --n and mode
    keeps its Gauss rule and its bytes."""

    _ARGV = ("sum", "--family", "krawtchouk", "--M", "40", "--gamma", "0.3",
             "--f", "(x+1)*3^(x+1)/gamma(x+5)")

    def test_integrand_failing_at_a_support_point(self, capsys):
        # a Gauss rule put the node for 0 at -1.5e-16 and printed -6663762662046786
        assert run_cli(capsys, "sum", "--family", "krawtchouk", "--M", "3", "--gamma", "0.3",
                       "--n", "4", "--f", "1/x") == (
            3, "", "numerical failure: division by zero in '(1.0/x)'\n")

    @pytest.mark.parametrize("extra, decompositions, out", [
        (("--n", "41"), 0, "0.5\n"),
        (("--n", "40"), 1, "0.50000000000001121\n"),
        (("--n", "41", "--mode", "weighted"), 1, "0.00031329511873265159\n"),
    ], ids=["whole", "below", "weighted"])
    def test_decompositions(self, capsys, monkeypatch, extra, decompositions, out):
        quadsum.apply._prepared.cache_clear()
        calls = []

        def counting(*args, _fn=quadsum.rule.decompose, **kwargs):
            calls.append(args)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(quadsum.rule, "decompose", counting)
        try:
            assert run_cli(capsys, *self._ARGV, *extra) == (0, out, "")
        finally:
            quadsum.apply._prepared.cache_clear()
        assert len(calls) == decompositions


class TestTableCommand:
    def test_table_one_json(self, capsys):
        code, out, _ = run_cli(capsys, "table", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["table"] == 1
        assert doc["pass"] is True
        assert doc["n_values"] == [2, 4, 7, 10, 15]
        assert len(doc["cells"]) == 20
        for cell in doc["cells"]:
            assert cell["pass"] is True
            # the reported error column is recomputable from its neighbors
            recomputed = abs(cell["exact"] - cell["approx"]) / abs(
                cell["exact"] + cell["approx"]
            )
            assert recomputed == pytest.approx(cell["rel_error"], rel=1e-12, abs=1e-17)

    @pytest.mark.usefixtures("empty_store")
    def test_table_three_with_a_400_point_reference(self, capsys, monkeypatch):
        _reference_of_size(monkeypatch, 400)
        code, out, _ = run_cli(capsys, "table", "3")
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_table_one_csv_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "table", "1", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 20
        assert all(r["pass"] == "true" for r in rows)
        charlier_n7 = next(r for r in rows if r["label"] == "charlier" and r["n"] == "7")
        assert float(charlier_n7["rel_error"]) == pytest.approx(4.165e-11, rel=5.0)

    def test_table_csv_determinism(self, capsys):
        _, first, _ = run_cli(capsys, "table", "1", "--format", "csv")
        _, second, _ = run_cli(capsys, "table", "1", "--format", "csv")
        assert first == second

    @pytest.mark.usefixtures("empty_store")
    def test_undersized_oracle_fails_tolerance(self, capsys, monkeypatch):
        # a 2x2 spectral reference cannot reproduce the published grid
        _reference_of_size(monkeypatch, 2)
        code, out, _ = run_cli(capsys, "table", "3")
        assert code == 1
        doc = json.loads(out)
        assert doc["pass"] is False
        assert any(not c["pass"] for c in doc["cells"])

    def test_reference_size_is_not_an_option(self, capsys):
        code, out, err = _exit_output(capsys, ("table", "3", "--oracle-k", "200"))
        assert (code, out) == (2, "")
        assert err.endswith("quadsum: error: unrecognized arguments: --oracle-k 200\n")


# Every built-in family once, with its CLI flags in declaration order.
_FAMILY_ARGV = {
    "charlier": ("--mu", "2"),
    "meixner": ("--mu", "2", "--beta", "0.4"),
    "krawtchouk": ("--M", "6", "--gamma", "0.3"),
    "cdh": ("--mu", "-1.5", "--alpha", "2.5", "--beta", "3"),
    "wilson": ("--mu", "1", "--nu", "1.2", "--alpha", "1.5", "--beta", "2"),
}

# Three-point rules, byte for byte.
_RULE_JSON = {
    "charlier": '{"family": "charlier", "params": {"mu": 2}, "n": 3, '
    '"nodes": [0.51071142818992077, 2.7108314535516902, 5.7784571182583884], '
    '"weights": [0.40431220570283499, 0.53743299196932282, 0.058254802327842234]}\n',
    "meixner": '{"family": "meixner", "params": {"mu": 2, "beta": 0.40000000000000002}, "n": 3, '
    '"nodes": [0.84605849948141665, 4.2382073737690877, 9.9157341267494985], '
    '"weights": [0.51475032942068666, 0.4545022957141, 0.030747374865213895]}\n',
    "krawtchouk": '{"family": "krawtchouk", "params": {"M": 6, "gamma": 0.29999999999999999}, "n": 3, '
    '"nodes": [0.37351707089785868, 2.1042964302336173, 4.1221864988685244], '
    '"weights": [0.30311294515136367, 0.58770112732638757, 0.10918592752224805]}\n',
    "cdh": '{"family": "cdh", "params": {"mu": -1.5, "alpha": 2.5, "beta": 3}, "n": 3, '
    '"nodes": [-1.8775105297388903, 5.4613379577796195, 25.166172571959272], '
    '"weights": [0.85264543182654162, 0.14501515853756131, 0.0023394096358967864]}\n',
    "wilson": '{"family": "wilson", "params": {"mu": 1, "nu": 1.2, "alpha": 1.5, "beta": 2}, "n": 3, '
    '"nodes": [0.9534247023783381, 3.7939798895246599, 10.479399531808346], '
    '"weights": [0.68725607054748594, 0.30482434451917789, 0.00791958493333649]}\n',
}

_RULE_CSV = {
    "charlier": "node,weight\n0.51071142818992077,0.40431220570283499\n"
    "2.7108314535516902,0.53743299196932282\n5.7784571182583884,0.058254802327842234\n",
    "meixner": "node,weight\n0.84605849948141665,0.51475032942068666\n"
    "4.2382073737690877,0.4545022957141\n9.9157341267494985,0.030747374865213895\n",
    "krawtchouk": "node,weight\n0.37351707089785868,0.30311294515136367\n"
    "2.1042964302336173,0.58770112732638757\n4.1221864988685244,0.10918592752224805\n",
    "cdh": "node,weight\n-1.8775105297388903,0.85264543182654162\n"
    "5.4613379577796195,0.14501515853756131\n25.166172571959272,0.0023394096358967864\n",
    "wilson": "node,weight\n0.9534247023783381,0.68725607054748594\n"
    "3.7939798895246599,0.30482434451917789\n10.479399531808346,0.00791958493333649\n",
}

_PARAM_KEYS = {
    "charlier": ["mu"],
    "meixner": ["mu", "beta"],
    "krawtchouk": ["M", "gamma"],
    "cdh": ["mu", "alpha", "beta"],
    "wilson": ["mu", "nu", "alpha", "beta"],
}


class TestFamilyContract:
    """The per-family CLI surface: output bytes, params keys, flag errors."""

    @pytest.mark.parametrize("family", sorted(_FAMILY_ARGV))
    def test_rule_json_bytes(self, capsys, family):
        code, out, err = run_cli(capsys, "rule", "--family", family, *_FAMILY_ARGV[family], "--n", "3")
        assert (code, out, err) == (0, _RULE_JSON[family], "")

    @pytest.mark.parametrize("family", sorted(_FAMILY_ARGV))
    def test_rule_csv_bytes(self, capsys, family):
        code, out, err = run_cli(
            capsys, "rule", "--family", family, *_FAMILY_ARGV[family], "--n", "3", "--format", "csv"
        )
        assert (code, out, err) == (0, _RULE_CSV[family], "")

    @pytest.mark.parametrize("family", sorted(_FAMILY_ARGV))
    def test_params_key_order(self, capsys, family):
        _, out, _ = run_cli(capsys, "rule", "--family", family, *_FAMILY_ARGV[family], "--n", "2")
        assert list(json.loads(out)["params"]) == _PARAM_KEYS[family]

    @pytest.mark.parametrize("family", sorted(_FAMILY_ARGV))
    def test_each_missing_flag_is_named(self, capsys, family):
        argv = _FAMILY_ARGV[family]
        for i in range(0, len(argv), 2):
            rest = argv[:i] + argv[i + 2:]
            code, out, err = run_cli(capsys, "rule", "--family", family, *rest, "--n", "3")
            assert (code, out) == (2, "")
            assert err == f"error: family {family!r} requires {argv[i]}\n"

    @pytest.mark.parametrize("family", sorted(_FAMILY_ARGV))
    def test_each_flag_the_family_does_not_take_is_named(self, capsys, family):
        argv = _FAMILY_ARGV[family]
        for flag, type_ in quadsum.cli._FLAG_TYPES.items():
            if f"--{flag}" in argv:
                continue
            extra = (f"--{flag}", "3" if type_ is int else "0.5")
            for command in (("rule",), ("sum", "--f", "x")):
                code, out, err = run_cli(capsys, command[0], "--family", family, *argv, *extra,
                                         "--n", "3", *command[1:])
                assert (code, out, err) == (2, "", f"error: family {family!r} takes no --{flag}\n")

    def test_unknown_family_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["rule", "--family", "bogus", "--mu", "2", "--n", "3"])
        assert exc.value.code == 2
        assert "bogus" in capsys.readouterr().err


_EXP_SUM = ("sum", "--family", "meixner", "--mu", "2", "--beta", "0.2", "--n", "10",
            "--f", "r^x/gamma(x+1)")


class TestParserReuse:
    """main parses every call with the one parser built at import."""

    def test_parser_is_built_once(self, capsys, monkeypatch):
        build_parser = quadsum.cli.build_parser
        calls = []

        def counting_build_parser():
            calls.append(1)
            return build_parser()

        monkeypatch.setattr(quadsum.cli, "build_parser", counting_build_parser)
        for i in range(50):
            assert main(["rule", "--family", "charlier", "--mu", "2", "--n", str(1 + i % 5)]) == 0
        capsys.readouterr()
        assert calls == []

    def test_build_parser_returns_a_fresh_parser(self):
        assert quadsum.cli.build_parser() is not quadsum.cli.build_parser()

    def test_define_does_not_leak_into_the_next_call(self, capsys):
        code, out, _ = run_cli(capsys, *_EXP_SUM, "--define", "r=3")
        assert code == 0 and out
        code, out, err = run_cli(capsys, *_EXP_SUM)
        assert (code, out) == (2, "")
        assert err.startswith("error: ")
        assert "unknown name 'r'" in err

    def test_usage_error_does_not_affect_the_next_call(self, capsys):
        argv = ("rule", "--family", "wilson", "--mu", "1", "--nu", "1.2",
                "--alpha", "1.5", "--beta", "2", "--n", "4")
        alone = run_cli(capsys, *argv)
        with pytest.raises(SystemExit) as exc:
            main(["rule", "--family", "bogus", "--mu", "2", "--n", "3"])
        assert exc.value.code == 2
        assert "bogus" in capsys.readouterr().err
        assert run_cli(capsys, *argv) == alone



def _ci_commands() -> list[tuple[list[str], int | None]]:
    """The argv of each ``quadsum`` line of CI's console-script step, and the
    exit code the line expects: N from its own ``test "$rc" -eq N``, else 0.
    The code is None where only a real process's write fails (to /dev/full,
    a closed stdout or a closed pipe): such a line is replayed for its bytes
    alone."""
    workflow = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"
    step = workflow.read_text().split("- name: Console script\n", 1)[1].split("- name: ", 1)[0]
    commands = []
    for line in step.splitlines():
        if "quadsum " in line:
            # the command ends at the first "||", "|", ">" or "2>"
            command = re.split(r" (?:\|\|?|2?>)", line.split("quadsum ", 1)[1])[0]
            for python, value in (("$huge_m", 10**400), ("$(python -c 'print(10**308)')", 10**308)):
                command = command.replace(python, str(value))
            expected = re.search(r'test "\$rc" -eq (\d+)', line)
            code = int(expected[1]) if expected else 0
            if any(write in line for write in ("> /dev/full", ">&-", "| true")):
                code = None
            commands.append((shlex.split(command), code))
    return commands


def _reference_of_size(monkeypatch, size: int) -> None:
    """Grade table 3 against the spectral reference of dimension ``size``
    instead of the paper's 200."""
    monkeypatch.setattr(quadsum.tables, "spectral_reference",
                        lambda family, f: spectral_reference(family, f, size))


def _outcome(capsys, argv):
    """(exit code, stdout, stderr) of main(argv), a usage error's included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _sum_argv(f: str, *defines: str) -> list[str]:
    return ["sum", "--family", "charlier", "--mu", "2", "--n", "6", "--f", f,
            *(item for define in defines for item in ("--define", define))]


@pytest.fixture
def empty_store():
    quadsum.cli._prepared.cache_clear()
    yield
    quadsum.cli._prepared.cache_clear()


@pytest.fixture
def preparing_calls(monkeypatch):
    """The calls main makes to prepare a command: _parse_argv, and parse and
    gauss_rule through their module names."""
    calls = []
    for name in ("_parse_argv", "parse", "gauss_rule"):
        def counting(*args, _name=name, _fn=getattr(quadsum.cli, name)):
            calls.append((_name, *args))
            return _fn(*args)

        monkeypatch.setattr(quadsum.cli, name, counting)
    return calls


def _counted(monkeypatch, name: str) -> list:
    """The argument tuples of each call main makes to ``quadsum.cli.<name>``."""
    calls = []

    def counting(*args, _fn=getattr(quadsum.cli, name), **kwargs):
        calls.append(args)
        return _fn(*args, **kwargs)

    monkeypatch.setattr(quadsum.cli, name, counting)
    return calls


@pytest.mark.usefixtures("empty_store")
class TestExpressionStore:
    """A stored ``sum`` command holds its compiled integrand, so a repeated
    ``sum`` parses nothing and prints the bytes of a miss."""

    def test_hit_prints_the_bytes_of_a_miss(self, capsys, preparing_calls):
        commands = [(argv, code) for argv, code in _ci_commands() if argv[0] == "sum"]
        assert len(commands) >= 10
        for argv, code in commands:
            quadsum.cli._prepared.cache_clear()
            miss = run_cli(capsys, *argv)
            stored = quadsum.cli._prepared.cache_info().currsize == 1
            del preparing_calls[:]
            assert (argv, run_cli(capsys, *argv)) == (argv, miss)
            if stored:  # a hit parses nothing
                assert [call for call in preparing_calls if call[0] == "parse"] == []
            if code is not None:
                # the lines left unstored are the usage errors (exit 2); a
                # new line that exits 3 while it is prepared, such as a
                # density not finite at a node, breaks this rule on purpose
                assert (argv, miss[0], stored) == (argv, code, code != 2)

    def test_miss_parses_through_the_module_name(self, capsys, preparing_calls):
        argv = _sum_argv("r*x/gamma(x+1)", "r=1.5")
        first = run_cli(capsys, *argv)
        assert preparing_calls == [("_parse_argv", argv), ("parse", "r*x/gamma(x+1)", {"r": "1.5"})]
        assert run_cli(capsys, *argv) == first
        assert len(preparing_calls) == 2
        info = quadsum.cli._prepared.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)

    def test_defines_are_part_of_the_key(self, capsys):
        outputs = {r: run_cli(capsys, *_sum_argv("r^x", f"r={r}")) for r in ("2", "3", "2")}
        assert outputs["2"] != outputs["3"]
        assert outputs["3"] == run_cli(capsys, *_sum_argv("3^x"))
        assert quadsum.cli._prepared.cache_info().currsize == 3

    @pytest.mark.parametrize("f, defines", [
        ("x+", ()),
        ("foo(x)", ()),
        ("x*r", ()),
        ("x*r", ("r=1e999",)),
        ("x*r", ("r=abc",)),
        ("x*r", ("x=1",)),
        ("x*r", ("r=1", "r=2")),
        ("x*r", ("exp=1",)),
    ])
    def test_error_is_raised_again_and_never_stored(self, capsys, f, defines):
        first = run_cli(capsys, *_sum_argv(f, *defines))
        assert (first[0], first[1]) == (2, "") and first[2].startswith("error: ")
        assert run_cli(capsys, *_sum_argv(f, *defines)) == first
        assert quadsum.cli._prepared.cache_info().currsize == 0

    def test_evaluation_error_from_a_stored_tree(self, capsys):
        argv = _sum_argv("1+ln(x-100)")
        first = run_cli(capsys, *argv)
        assert first[0] == 3 and first[2].startswith("numerical failure: ln of non-positive")
        assert run_cli(capsys, *argv) == first
        assert quadsum.cli._prepared.cache_info().currsize == 1  # the tree is good

    def test_store_never_holds_more_than_its_bound(self, capsys, preparing_calls):
        # the least recently used integrand is parsed again, the newest not
        for i in range(quadsum.cli._STORE_SIZE + 1):
            assert run_cli(capsys, *_sum_argv(f"x+{i}"))[0] == 0
        assert quadsum.cli._prepared.cache_info().currsize == quadsum.cli._STORE_SIZE
        del preparing_calls[:]
        run_cli(capsys, *_sum_argv(f"x+{quadsum.cli._STORE_SIZE}"))
        assert preparing_calls == []
        run_cli(capsys, *_sum_argv("x+0"))
        assert [call[0] for call in preparing_calls] == ["_parse_argv", "parse"]


class _FailingStdout(io.StringIO):
    """A stdout whose ``method`` ("write" or "flush") raises ``error``."""

    def __init__(self, method: str, error: OSError):
        super().__init__()
        setattr(self, method, self._fail)
        self.error = error

    def _fail(self, *args):
        raise self.error


_ENOSPC = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
_OUTPUT_CASES = (
    ("rule", "--family", "charlier", "--mu", "2", "--n", "2"),
    ("sum", "--family", "charlier", "--mu", "2", "--n", "7", "--f", "3^x/gamma(x+1)"),
    ("table", "1", "--format", "csv"),
)


@pytest.mark.usefixtures("empty_store")
class TestCommandLineStore:
    """``main`` keeps the command each command line prepared, at most 256:
    a hit skips argparse, the integrand parse and the rule, and prints the
    bytes of a miss; an error, a usage error or --help is raised or
    printed again on every call."""

    def test_every_ci_command_hit_prints_the_bytes_of_a_miss(self, capsys, preparing_calls):
        for argv, code in _ci_commands():
            quadsum.cli._prepared.cache_clear()
            miss = _outcome(capsys, argv)
            assert code is None or miss[0] == code, (argv, miss[0])
            stored = quadsum.cli._prepared.cache_info().currsize == 1
            assert stored or miss[0] != 0 or "--help" in argv
            del preparing_calls[:]
            assert (argv, _outcome(capsys, argv)) == (argv, miss)
            if stored:  # the hit prepared nothing
                assert (argv, preparing_calls) == (argv, [])
            else:  # an error or a usage error, raised again and not stored
                assert preparing_calls[0] == ("_parse_argv", argv)
                assert quadsum.cli._prepared.cache_info().currsize == 0

    @pytest.mark.parametrize("argv", [
        ("rule", "--family", "cdh", "--mu", "-1e-1", "--alpha", "1", "--beta", "2", "--n", "3"),
        ("rule", "--family", "krawtchouk", "--M", "8", "--gamma", "0.3", "--n", "5", "--format", "csv"),
        (*_EXP_SUM, "--define", "r=2.5", "--mode", "weighted"),
        ("sum", "--family", "charlier", "--mu", "2", "--n", "5", "--f", "ln(x-100)"),
        ("rule", "--family", "charlier", "--mu", "1e308", "--n", "3"),
        ("table", "1", "--format", "csv"),
    ])
    def test_repeated_command_line_is_parsed_once(self, capsys, preparing_calls, argv):
        first = run_cli(capsys, *argv)
        for _ in range(2):
            assert run_cli(capsys, *argv) == first
        parsed = [call for call in preparing_calls if call[0] == "_parse_argv"]
        # a command that fails to prepare (an overflowing matrix entry) is
        # parsed again on every call; a failing node sum is not
        calls = 3 if first[2].startswith("error: ") else 1
        assert parsed == [("_parse_argv", list(argv))] * calls

    @pytest.mark.parametrize("argv", [
        ("rule", "--family", "bogus", "--n", "2"),
        ("rule", "--family", "charlier", "--mu", "2", "--n", "3", "extra"),
        ("sum", "--help"),
    ])
    def test_usage_error_and_help_are_printed_every_time(self, capsys, argv):
        first = _exit_output(capsys, argv)
        assert first[0] in (0, 2) and first[1] + first[2]
        assert _exit_output(capsys, argv) == first
        assert quadsum.cli._prepared.cache_info().currsize == 0

    def test_out_of_memory_is_a_numerical_failure_never_stored(self, capsys, monkeypatch):
        # a real allocation that large could be killed by the system instead
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(quadsum.cli, "build", exhausted)
        argv = ("rule", "--family", "charlier", "--mu", "2", "--n", "99999999999")
        for _ in range(2):
            assert run_cli(capsys, *argv) == (3, "", "numerical failure: out of memory\n")
        assert quadsum.cli._prepared.cache_info().currsize == 0

    @pytest.mark.parametrize("argv", [
        ("table", "1"),
        ("table", "2", "--format", "csv"),
        ("table", "3", "--format", "csv"),
    ])
    def test_repeated_table_is_run_once(self, capsys, monkeypatch, argv):
        calls = _counted(monkeypatch, "run_table")
        first = run_cli(capsys, *argv)
        assert run_cli(capsys, *argv) == first and first[0] in (0, 1) and first[1]
        assert len(calls) == 1

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_repeated_rule_is_formatted_once(self, capsys, monkeypatch, fmt):
        calls = _counted(monkeypatch, "_run_rule")
        argv = ("rule", "--family", "wilson", "--mu", "-0.5", "--nu", "1", "--alpha", "1.2",
                "--beta", "1.4", "--n", "6", "--format", fmt)
        first = run_cli(capsys, *argv)
        assert run_cli(capsys, *argv) == first and first[0] == 0
        assert len(calls) == 1

    def test_repeated_sum_runs_its_node_sum_every_time(self, capsys, monkeypatch):
        # no store keeps a value of the user's integrand
        calls = _counted(monkeypatch, "approximate")
        first = run_cli(capsys, *_sum_argv("3^x/gamma(x+1)"))
        assert run_cli(capsys, *_sum_argv("3^x/gamma(x+1)")) == first and first[0] == 0
        assert len(calls) == 2

    def test_sum_of_order_zero_is_never_stored(self, capsys):
        # the Functional is validated while the command is prepared
        argv = ("sum", "--family", "charlier", "--mu", "2", "--n", "0", "--f", "x")
        for _ in range(2):
            assert run_cli(capsys, *argv) == (2, "", "error: order must be >= 1, got 0\n")
        assert quadsum.cli._prepared.cache_info().currsize == 0

    @pytest.mark.parametrize("argv, error", [
        # a family with a continuous part has no plain or weighted sum
        (("sum", "--family", "cdh", "--mu", "2", "--alpha", "1", "--beta", "1", "--n", "3", "--f", "x"),
         "error: kind 'plain_sum' requires a purely discrete measure\n"),
        (("sum", "--family", "wilson", "--mu", "0.5", "--nu", "1", "--alpha", "1.5", "--beta", "2",
          "--n", "3", "--f", "x", "--mode", "weighted"),
         "error: kind 'weighted_sum' requires a purely discrete measure\n"),
        (("sum", "--family", "krawtchouk", "--M", "3", "--gamma", "0.3", "--n", "5", "--f", "x"),
         "error: order 5 exceeds the stream's valid size 4\n"),
        (("sum", "--family", "charlier", "--mu", "1e200", "--n", "1", "--f", "x"),
         "error: weight function must be positive and finite at node 1e+200, got inf\n"),
        (("sum", "--family", "charlier", "--mu", "2", "--n", "550", "--f", "1", "--mode", "weighted"),
         "numerical failure: eigenvector with exactly zero first component at index 549;"
         " matrix is numerically reducible\n"),
    ], ids=["kind", "weighted-kind", "order", "density", "rule"])
    def test_sum_whose_rule_cannot_be_prepared_is_never_stored(self, capsys, monkeypatch, argv, error):
        # preparing a sum fills approximate's store, so what can never sum
        # raises before anything is stored, and approximate never runs
        calls = _counted(monkeypatch, "approximate")
        first = run_cli(capsys, *argv)
        assert first == (3 if error.startswith("numerical") else 2, "", error)
        assert run_cli(capsys, *argv) == first
        assert calls == [] and quadsum.cli._prepared.cache_info().currsize == 0

    def test_preparing_a_sum_stores_the_rule_approximate_reads(self, capsys):
        quadsum.apply._prepared.cache_clear()
        argv = _sum_argv("3^x/gamma(x+1)")
        first = run_cli(capsys, *argv)
        assert run_cli(capsys, *argv) == first and first[0] == 0
        info = quadsum.apply._prepared.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 2, 1)  # the rule is computed once

    def test_stored_sum_evaluates_through_the_module_name(self, capsys, monkeypatch):
        # a stored sum reads quadsum.cli.evaluate at call time, once per
        # node, so a wrapper patched in after the entry is stored sees
        # every evaluation of every repeat
        argv = _sum_argv("3^x/gamma(x+1)")
        first = run_cli(capsys, *argv)
        calls = _counted(monkeypatch, "evaluate")
        for repeat in (1, 2):
            assert run_cli(capsys, *argv) == first
            assert len(calls) == 6 * repeat  # --n 6
        assert quadsum.cli._prepared.cache_info().currsize == 1

    def test_failing_table_is_run_every_time(self, capsys, monkeypatch):
        def failing(which):
            raise NumericalError("spectral sum overflows the float range")

        monkeypatch.setattr(quadsum.cli, "run_table", failing)
        calls = _counted(monkeypatch, "run_table")
        first = run_cli(capsys, "table", "3")
        assert first == (3, "", "numerical failure: spectral sum overflows the float range\n")
        assert run_cli(capsys, "table", "3") == first
        assert len(calls) == 2

    @pytest.mark.parametrize("argv", _OUTPUT_CASES, ids=lambda argv: argv[0])
    def test_hit_whose_write_fails_exits_4(self, capsys, monkeypatch, argv):
        first = run_cli(capsys, *argv)
        with monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", _FailingStdout("write", _ENOSPC))
            assert main(list(argv)) == 4
        assert capsys.readouterr().err == (
            "error: cannot write output: [Errno 28] No space left on device\n")
        assert run_cli(capsys, *argv) == first and first[0] == 0 and first[1]

    def test_store_never_holds_more_than_its_bound(self, capsys):
        assert quadsum.cli._STORE_SIZE == 256
        for i in range(300):
            assert run_cli(capsys, "rule", "--family", "charlier", "--mu", str(1 + i), "--n", "2")[0] == 0
            assert quadsum.cli._prepared.cache_info().currsize == min(i + 1, 256)
        assert quadsum.cli._prepared.cache_info().maxsize == 256


# argv lists that parse, or end in SystemExit, on both parse routes.
_PARSE_CASES = (
    *(("rule", "--family", family, *params, "--n", "3") for family, params in _FAMILY_ARGV.items()),
    *(("sum", "--family", family, *params, "--n", "4", "--f", "x^2") for family, params in _FAMILY_ARGV.items()),
    (*_EXP_SUM, "--mode", "weighted", "--define", "r=3", "--define", "s=-2.5"),
    ("table", "1"),
    ("table", "3", "--format", "csv", "--oracle-k", "-3"),
    ("rule", "--family=charlier", "--mu=2", "--n=3", "--format=csv"),
    ("rule", "--fam", "cdh", "--mu", "-1.5", "--alpha", "2.5", "--beta", "3", "--n", "2"),
    ("sum", "--family", "charlier", "--mu", "2", "--n", "3", "--f", "-x"),
    ("rule", "--", "--family", "charlier"),
    ("--", "rule", "--family", "charlier", "--mu", "2", "--n", "3"),
    ("table", "--", "1"),
    ("rule", "--family", "charlier", "--mu", "2", "--n", "3", "--"),
    ("rule", "--family", "charlier", "--mu", "2", "--n", "3", "extra"),
    ("rule", "--family", "charlier", "--bogus", "1", "--mu", "2", "--n", "3", "x", "-y"),
    ("table", "1", "2"),
    ("-h",),
    ("--help",),
    ("rule", "-h"),
    ("sum", "--help"),
    ("table", "-h"),
    ("rule", "--family", "charlier", "--n", "3", "-h", "extra"),
    (),
    ("bogus",),
    ("--family", "charlier"),
    ("rule",),
    ("rule", "--family", "bogus", "--n", "2"),
    ("rule", "--family", "charlier", "--n", "x"),
    ("table", "9"),
)


def _parse_outcome(capsys, parse, argv):
    try:
        result = parse(list(argv))
    except SystemExit as exc:
        result = exc.code
    captured = capsys.readouterr()
    return result, captured.out, captured.err


class TestParseRoute:
    """main parses a subcommand's argv with that subcommand's parser alone,
    with the outcome of the nested parse through the top-level parser."""

    @pytest.mark.parametrize("argv", _PARSE_CASES, ids=lambda argv: " ".join(argv) or "<empty>")
    def test_equals_the_nested_parse(self, capsys, argv):
        # of the argv whose dash-led values are joined to their flags
        expected = _parse_outcome(capsys, quadsum.cli.build_parser().parse_args, _joined(*argv))
        assert _parse_outcome(capsys, quadsum.cli._parse_argv, argv) == expected

    def test_main_reads_sys_argv(self, capsys, monkeypatch):
        argv = ["rule", "--family", "charlier", "--mu", "2", "--n", "3"]
        expected = run_cli(capsys, *argv)
        monkeypatch.setattr(sys, "argv", ["quadsum", *argv])
        code = main()
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == expected


@st.composite
def _rule_request(draw):
    """A family with its CLI flags, an order of 1-40 and an output format;
    a Krawtchouk order may exceed the support, which exits 2."""
    positive = st.floats(0.05, 8.0)
    unit = st.floats(0.01, 0.99)
    family = draw(st.sampled_from(sorted(_FAMILY_ARGV)))
    n = draw(st.integers(1, 40))
    if family == "charlier":
        params = {"mu": draw(positive)}
    elif family == "meixner":
        params = {"mu": draw(positive), "beta": draw(unit)}
    elif family == "krawtchouk":
        params = {"M": draw(st.integers(1, 60)), "gamma": draw(unit)}
    else:
        mu = draw(st.floats(-4.0, 4.0).filter(lambda v: abs(v) >= 0.05))
        names = ("alpha", "beta") if family == "cdh" else ("nu", "alpha", "beta")
        params = {"mu": mu, **{name: draw(positive) + max(0.0, -mu) for name in names}}
    return family, params, n, draw(st.sampled_from(["json", "csv"]))


_SPECS = {"charlier": Charlier, "meixner": Meixner, "krawtchouk": Krawtchouk,
          "cdh": ContinuousDualHahn, "wilson": Wilson}


class TestOutputMatchesReferenceFormatter:
    """rule and table output keep the bytes of the per-value JSON formatter
    and the per-line CSV loop."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(request=_rule_request())
    def test_rule_output(self, request):
        family, params, n, fmt = request
        flags = [item for flag, value in params.items() for item in (f"--{flag}", repr(value))]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["rule", "--family", family, *flags, "--n", str(n), "--format", fmt])
        out, err = out.getvalue(), err.getvalue()
        try:
            rule = gauss_rule(build(recurrence(_SPECS[family](*params.values())), n))
        except ValidationError:
            assert (code, out) == (2, "")
            return
        except NumericalError:
            assert (code, out) == (3, "")
            return
        if fmt == "json":
            expected = fmt_json_reference({
                "family": family,
                "params": params,
                "n": n,
                "nodes": [float(x) for x in rule.nodes],
                "weights": [float(w) for w in rule.weights],
            }) + "\n"
        else:
            expected = rule_csv_reference(rule)
        assert (code, out, err) == (0, expected, "")

    def test_edge_values(self):
        doc = {
            "reals": [-0.0, 0.0, 5e-324, -5e-324, 1e-300, 1.7976931348623157e308, 0.1, -2.0],
            "ints": [0, -7, 10**20],
            "flags": [True, False],
            "none": None,
            "text": 'a "quoted" back\\slash, comma',
            "nested": {"n": 3, "row": (1.5, None, "x", [])},
        }
        assert quadsum.cli._fmt_json(doc) == fmt_json_reference(doc)

    # A table 3 graded against a 500-point reference, which fails on all
    # 25 cells, prints each cell's error text.
    @pytest.mark.usefixtures("empty_store")
    @pytest.mark.parametrize("which, size", [("1", None), ("2", None), ("3", None), ("3", 500)],
                             ids=["1", "2", "3", "3-500"])
    def test_table_json(self, capsys, monkeypatch, which, size):
        if size is not None:
            _reference_of_size(monkeypatch, size)
        output = run_cli(capsys, "table", which)
        assert sum(cell["error"] is not None for cell in json.loads(output[1])["cells"]) == (
            25 if size else 0)
        monkeypatch.setattr(quadsum.cli, "_fmt_json", fmt_json_reference)
        quadsum.cli._prepared.cache_clear()  # a stored table would not format again
        assert run_cli(capsys, "table", which) == output

    @pytest.mark.usefixtures("empty_store")
    @pytest.mark.parametrize("which, size", [(1, None), (2, None), (3, None), (3, 500)])
    def test_table_csv(self, capsys, monkeypatch, which, size):
        if size is not None:
            _reference_of_size(monkeypatch, size)
        report = run_table(which)
        output = run_cli(capsys, "table", str(which), "--format", "csv")
        assert output == (0 if report.passed else 1, table_csv_reference(report), "")
        assert sum(c.error is not None for c in report.cells) == (25 if size else 0)

    @pytest.mark.usefixtures("empty_store")
    def test_table_csv_text_and_nulls(self, capsys, monkeypatch):
        # no bundled table has a comma in its text
        cells = (TableCell("a,b", {"mu": 2.0}, 3, None, 1.5, None, 0.25, False, "bad, worse"),
                 TableCell("c", {}, 4, 0.1, 0.2, 0.3, 0.4, True))
        report = TableReport(1, "title", (3, 4), cells)
        monkeypatch.setattr(quadsum.cli, "run_table", lambda which: report)
        assert run_cli(capsys, "table", "1", "--format", "csv") == (1, table_csv_reference(report), "")
        assert table_csv_reference(report).splitlines()[1] == "a;b,3,,1.5,,0.25,false,bad; worse"


# One invocation per output path: rule JSON and CSV, plain and weighted
# sums, a table, validation errors (exit 2, one from a density that
# underflows at a node) and a numerical failure (exit 3).
_FRESH_PROCESS_CASES = (
    ("rule", "--family", "cdh", "--mu", "-1.5", "--alpha", "2.5", "--beta", "3", "--n", "6"),
    ("rule", "--family", "krawtchouk", "--M", "8", "--gamma", "0.3", "--n", "5",
     "--format", "csv"),
    (*_EXP_SUM, "--define", "r=2.5"),
    ("sum", "--family", "krawtchouk", "--M", "100", "--gamma", "0.2", "--n", "30",
     "--f", "(x+1)*3^(x+1)/gamma(x+5)"),
    ("sum", "--family", "charlier", "--mu", "2", "--n", "12", "--f", "x^3", "--mode", "weighted"),
    ("table", "1"),
    ("rule", "--family", "krawtchouk", "--M", "3", "--gamma", "0.3", "--n", "5"),
    ("sum", "--family", "charlier", "--mu", "2", "--n", "180", "--f", "3^x/gamma(x+1)"),
    ("sum", "--family", "charlier", "--mu", "2", "--n", "40", "--f", "gamma(x+200)"),
)


def test_in_process_output_equals_fresh_process_output(capsys):
    """Each case prints the same bytes and exit code in a fresh
    ``python -m quadsum`` process as in-process after other calls, and again
    when it is repeated in-process."""
    src = str(Path(quadsum.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    procs = [subprocess.Popen([sys.executable, "-m", "quadsum", *argv], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
             for argv in _FRESH_PROCESS_CASES]
    try:
        outputs = [proc.communicate(timeout=120) for proc in procs]
    finally:
        for proc in procs:
            proc.kill()
    fresh = [(proc.returncode, out, err) for proc, (out, err) in zip(procs, outputs)]

    run_cli(capsys, *_EXP_SUM, "--define", "r=3")
    with pytest.raises(SystemExit):
        main(["table", "4"])
    capsys.readouterr()
    # the second call of each case finds its prepared command in the store
    # of main, and each sum its rule and weights in the store of approximate
    for _ in range(2):
        for argv, expected in zip(_FRESH_PROCESS_CASES, fresh):
            code, out, err = run_cli(capsys, *argv)
            assert (argv, code, out.encode(), err.encode()) == (argv, *expected)
    assert [code for code, _, _ in fresh] == [0, 0, 0, 0, 0, 0, 2, 2, 3]


# Usage errors (exit 2) and --help (exit 0) at both parser levels.
_USAGE_CASES = (
    ("rule", "--family", "bogus", "--n", "2"),
    ("table", "9"),
    ("sum", "--help"),
    ("--help",),
)


def _exit_output(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


class TestFixedWidthUsage:
    """Usage errors and --help wrap at 78 columns whatever the terminal."""

    @pytest.mark.parametrize("columns", ["40", "200"])
    @pytest.mark.parametrize("argv", _USAGE_CASES, ids=" ".join)
    def test_output_ignores_columns(self, capsys, monkeypatch, argv, columns):
        monkeypatch.delenv("COLUMNS", raising=False)
        unset = _exit_output(capsys, argv)
        monkeypatch.setenv("COLUMNS", columns)
        assert _exit_output(capsys, argv) == unset

    def test_usage_error_bytes(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "40")
        assert _exit_output(capsys, ("rule", "--family", "bogus", "--n", "2")) == (
            2,
            "",
            "usage: quadsum rule [-h] --family {cdh,charlier,krawtchouk,meixner,wilson}\n"
            "                    [--mu MU] [--beta BETA] [--M M] [--gamma GAMMA]\n"
            "                    [--alpha ALPHA] [--nu NU] --n N [--format {json,csv}]\n"
            "quadsum rule: error: argument --family: invalid choice: 'bogus' (choose from "
            "'cdh', 'charlier', 'krawtchouk', 'meixner', 'wilson')\n",
        )


class TestOutputFailure:
    """Output that cannot be written exits 4: with one stderr line, or with
    none when the reader went away (a broken pipe)."""

    @pytest.mark.parametrize("method", ["write", "flush"])
    @pytest.mark.parametrize("argv", _OUTPUT_CASES, ids=lambda argv: argv[0])
    def test_full_device(self, capsys, monkeypatch, argv, method):
        monkeypatch.setattr(sys, "stdout", _FailingStdout(method, _ENOSPC))
        assert main(list(argv)) == 4
        assert capsys.readouterr().err == (
            "error: cannot write output: [Errno 28] No space left on device\n")

    @pytest.mark.parametrize("argv", _OUTPUT_CASES, ids=lambda argv: argv[0])
    def test_broken_pipe_is_silent(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(sys, "stdout", _FailingStdout("write", BrokenPipeError(errno.EPIPE, "")))
        assert main(list(argv)) == 4
        assert capsys.readouterr().err == ""

    def test_closed_stdout(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdout", None)
        assert main(list(_OUTPUT_CASES[0])) == 4
        assert capsys.readouterr().err == "error: cannot write output: stdout is closed\n"

    def test_an_error_before_output_keeps_its_code(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdout", _FailingStdout("write", _ENOSPC))
        assert main(["rule", "--family", "charlier", "--mu", "inf", "--n", "3"]) == 2
        assert capsys.readouterr().err.startswith("error: charlier requires a finite mu")

    def test_fresh_process_exits_4_without_a_flush_error_at_exit(self):
        # the interpreter flushes stdout again at exit; that flush must not
        # fail on the text the failed write left in the buffer
        src = str(Path(quadsum.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        command = [sys.executable, "-m", "quadsum", "table", "1"]
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            broken = subprocess.run(command, env=env, stdout=write_end,
                                    stderr=subprocess.PIPE, timeout=120)
        finally:
            os.close(write_end)
        assert (broken.returncode, broken.stderr) == (4, b"")
        if os.path.exists("/dev/full"):
            with open("/dev/full", "wb") as full:
                failed = subprocess.run(command, env=env, stdout=full,
                                        stderr=subprocess.PIPE, timeout=120)
            assert (failed.returncode, failed.stderr) == (
                4, b"error: cannot write output: [Errno 28] No space left on device\n")


_HELP_CASES = (("--help",), ("rule", "--help"))


class TestHelpOutputFailure:
    """--help written to a working stdout exits 0 with argparse's help
    bytes; help that cannot be written exits 4, as any other output does."""

    @pytest.mark.parametrize("argv", _HELP_CASES, ids=" ".join)
    def test_help_exits_0(self, capsys, argv):
        parser = quadsum.cli._COMMANDS.get(argv[0], quadsum.cli._PARSER)
        assert _exit_output(capsys, argv) == (0, parser.format_help(), "")

    # argparse drops an error from writing the help, which is where an
    # unbuffered stdout fails; a buffered one fails at the flush after it
    @pytest.mark.parametrize("method", ["write", "flush"])
    @pytest.mark.parametrize("argv", _HELP_CASES, ids=" ".join)
    def test_full_device(self, capsys, monkeypatch, argv, method):
        monkeypatch.setattr(sys, "stdout", _FailingStdout(method, _ENOSPC))
        assert main(list(argv)) == 4
        assert capsys.readouterr().err == (
            "error: cannot write output: [Errno 28] No space left on device\n")

    def test_closed_stdout(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdout", None)
        assert main(["--help"]) == 4
        assert capsys.readouterr().err == "error: cannot write output: stdout is closed\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_fresh_process_to_dev_full(self, unbuffered):
        src = str(Path(quadsum.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED=unbuffered)
        with open("/dev/full", "wb") as full:
            failed = subprocess.run([sys.executable, "-m", "quadsum", "rule", "--help"], env=env,
                                    stdout=full, stderr=subprocess.PIPE, timeout=120)
        assert (failed.returncode, failed.stderr) == (
            4, b"error: cannot write output: [Errno 28] No space left on device\n")


def test_readme_cli_examples_exit_0(capsys):
    readme = Path(__file__).resolve().parent.parent / "README.md"
    block = readme.read_text().split("## CLI", 1)[1].split("```")[1]
    lines = [line for line in block.splitlines() if line.startswith("quadsum ")]
    assert lines
    for line in lines:
        assert (line, main(shlex.split(line)[1:])) == (line, 0)
    capsys.readouterr()


# Family values the sweep draws from: ordinary ones, each edge of the
# families' parameter ranges, spellings argparse reads as options
# ("-inf", "-1e-1"), and values float() reads as inf or nan.
_SWEEP_REALS = st.one_of(
    st.floats(-5.0, 5.0).map(repr),
    st.sampled_from(["0", "-0.0", "1", "0.5", "-1e-1", "1e-300", "1e308", "1e400", "-1e400",
                     "inf", "-inf", "nan", "-nan", "0.999999", "1.5", "-1.5", "2"]),
)
_SWEEP_COUNTS = st.one_of(st.integers(-2, 60).map(str), st.sampled_from([str(10**20), str(10**400)]))
_SWEEP_INTEGRANDS = ("1", "x", "-x", "x^2", "-1e-1*x", "exp(-x)", "3^x/gamma(x+1)", "r^x/gamma(x+1)",
                     "gamma(x+200)", "1e308", "ln(x-100)", "1/x", "sqrt(x)", "lgamma(x+1)",
                     "(-10)^401", "exp((x-1e200)^3)", "x+", "r")


@st.composite
def _main_argv(draw):
    """argv of a ``rule``, plain or weighted ``sum`` or ``table`` that
    argparse accepts, with family values anywhere from ordinary to
    invalid.  About a quarter of the Krawtchouk draws take an ordinary M
    and gamma and ask for N = M+1, the size of the whole support."""
    command = draw(st.sampled_from(["rule", "sum", "sum", "table"]))
    if command == "table":
        which = draw(st.sampled_from(["1", "2", "3"]))
        return ["table", which, "--format", draw(st.sampled_from(["json", "csv"]))]
    family = draw(st.sampled_from(sorted(_FAMILY_ARGV)))
    argv = [command, "--family", family]
    if family == "krawtchouk" and draw(st.integers(1, 4)) == 4:
        m = draw(st.integers(1, 60))
        argv += ["--M", str(m), "--gamma", repr(draw(st.floats(0.01, 0.99))), "--n", str(m + 1)]
    else:
        for flag in quadsum.cli._FAMILY_FLAGS[family]:
            value = draw(_SWEEP_COUNTS if quadsum.cli._FLAG_TYPES[flag] is int else _SWEEP_REALS)
            argv += [f"--{flag}", value]
        argv += ["--n", str(draw(st.integers(1, 40)))]
    if command == "rule":
        return argv + ["--format", draw(st.sampled_from(["json", "csv"]))]
    argv += ["--f", draw(st.sampled_from(_SWEEP_INTEGRANDS)),
             "--mode", draw(st.sampled_from(["plain", "weighted"]))]
    return argv + draw(st.sampled_from([[], ["--define", "r=2.5"], ["--define", "r=-1e-1"]]))


def _numbers(text: str, fmt: str) -> list[float]:
    """Every number in a command's output."""
    if fmt == "csv":
        fields = [field for line in text.splitlines()[1:] for field in line.split(",")]
        return [float(field) for field in fields if quadsum.cli._reads_as_float(field)]
    doc = json.loads(text, parse_constant=float)
    found = []

    def walk(value):
        if isinstance(value, dict):
            value = list(value.values())
        if isinstance(value, list):
            for item in value:
                walk(item)
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            found.append(float(value))

    walk(doc)
    return found


class TestMainSweep:
    """Every family through in-process ``main``: each argv exits 0-3 with
    no traceback, prints finite numbers (rule weights summing to 1) on
    success and an error message on failure, and prints the same bytes
    when it is run again."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(argv=_main_argv())
    def test_outcome(self, argv):
        outcomes = []
        for _ in range(2):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            outcomes.append((code, out.getvalue(), err.getvalue()))
        code, out, err = outcomes[0]
        assert outcomes[1] == outcomes[0]
        assert code in ((0, 1, 2, 3) if argv[0] == "table" else (0, 2, 3))
        assert "Traceback" not in err
        if code in (2, 3):
            assert out == "" and err.startswith("error: " if code == 2 else "numerical failure: ")
            return
        assert err == ""
        if argv[0] == "sum":
            assert math.isfinite(float(out))
            return
        fmt = argv[argv.index("--format") + 1]
        assert all(map(math.isfinite, _numbers(out, fmt)))
        if argv[0] == "rule":
            weights = (json.loads(out)["weights"] if fmt == "json"
                       else [float(line.split(",")[1]) for line in out.splitlines()[1:]])
            assert abs(math.fsum(weights) - 1.0) <= 1e-12


@pytest.mark.usefixtures("empty_store")
class TestMaximumOrder:
    """An order above families.MAX_ORDER = 2**16 exits 2 with a message
    naming the bound, before any matrix or list is made; nothing is
    stored."""

    @pytest.mark.parametrize("argv, message", [
        (("rule", "--family", "charlier", "--mu", "2", "--n", "99999999999"),
         "order must be <= 65536, got 99999999999"),
        (("rule", "--family", "wilson", "--mu", "1", "--nu", "1", "--alpha", "1", "--beta", "1",
          "--n", "65537", "--format", "csv"), "order must be <= 65536, got 65537"),
        (("sum", "--family", "charlier", "--mu", "2", "--n", "65537", "--f", "1"),
         "order must be <= 65536, got 65537"),
    ])
    def test_exits_2_naming_the_bound(self, capsys, argv, message):
        tracemalloc.start()
        try:
            outcomes = [run_cli(capsys, *argv) for _ in range(2)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert outcomes == [(2, "", f"error: {message}\n")] * 2
        assert peak < 2**20
        assert quadsum.cli._prepared.cache_info().currsize == 0
