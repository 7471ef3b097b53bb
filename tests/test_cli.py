"""Tests for the command-line interface: schemas, determinism, exit codes."""

import csv
import io
import json
import math

import pytest

from quadsum.cli import main


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

    def test_gamma_overflow_is_numerical_failure(self, capsys):
        code, out, err = run_cli(
            capsys, "sum", "--family", "charlier", "--mu", "2", "--n", "40",
            "--f", "gamma(x+200)",
        )
        assert (code, out) == (3, "")
        assert err.startswith("numerical failure")
        assert "Traceback" not in err

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
