"""Tests for the command-line interface: schemas, determinism, exit codes."""

import contextlib
import csv
import io
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import fmt_json_reference, rule_csv_reference

import quadsum
import quadsum.cli
from quadsum.cli import main
from quadsum.errors import NumericalError, ValidationError
from quadsum.families import Charlier, ContinuousDualHahn, Krawtchouk, Meixner, Wilson, recurrence
from quadsum.jacobi import build
from quadsum.rule import gauss_rule


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

    def test_domain_error_exit_3(self, capsys):
        # ln is undefined at the low nodes of this rule
        code, _, err = run_cli(
            capsys, "sum", "--family", "charlier", "--mu", "2", "--n", "5",
            "--f", "ln(x-100)",
        )
        assert code == 3


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

    def test_undersized_oracle_fails_tolerance(self, capsys):
        # a 2x2 spectral reference cannot reproduce the published grid
        code, out, _ = run_cli(capsys, "table", "3", "--oracle-k", "2")
        assert code == 1
        doc = json.loads(out)
        assert doc["pass"] is False
        assert any(not c["pass"] for c in doc["cells"])

    @pytest.mark.parametrize("k", ["0", "-3"])
    def test_oracle_size_below_one_exits_2(self, capsys, k):
        code, out, err = run_cli(capsys, "table", "3", "--oracle-k", k)
        assert (code, out) == (2, "")
        assert err == f"error: table 3 requires oracle_size >= 1, got {k}\n"


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
        expected = _parse_outcome(capsys, quadsum.cli.build_parser().parse_args, argv)
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

    @pytest.mark.parametrize("which", ["1", "2"])
    def test_table_json(self, capsys, monkeypatch, which):
        output = run_cli(capsys, "table", which)
        monkeypatch.setattr(quadsum.cli, "_fmt_json", fmt_json_reference)
        assert run_cli(capsys, "table", which) == output


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
    ("table", "3", "--oracle-k", "0"),
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
    # the second call of each case finds its rules in the cache of gauss_rule,
    # and each sum its rule and weights in the cache of approximate
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


def test_readme_cli_examples_exit_0(capsys):
    readme = Path(__file__).resolve().parent.parent / "README.md"
    block = readme.read_text().split("## CLI", 1)[1].split("```")[1]
    lines = [line for line in block.splitlines() if line.startswith("quadsum ")]
    assert lines
    for line in lines:
        assert (line, main(shlex.split(line)[1:])) == (line, 0)
    capsys.readouterr()
