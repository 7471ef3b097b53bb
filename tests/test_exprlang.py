"""Tests for the expression language."""

import math

import pytest

from quadsum.exprlang import (
    BinaryOp,
    Call,
    EvalError,
    Negate,
    Number,
    ParseError,
    Variable,
    evaluate,
    parse,
    to_text,
)


def ev(text: str, x: float = 0.0) -> float:
    return evaluate(parse(text), x)


class TestParsing:
    def test_precedence(self):
        assert ev("2+3*4") == 14.0

    def test_right_associative_power(self):
        assert ev("2^3^2") == 512.0

    def test_parens(self):
        assert ev("(2+3)*4") == 20.0

    def test_variable(self):
        assert ev("x^3*exp(-x/2)", 0.0) == 0.0
        assert ev("x^3*exp(-x/2)", 2.0) == pytest.approx(8.0 * math.exp(-1.0), rel=1e-15)

    def test_unary_minus_binds_before_power(self):
        # per the grammar, -2^2 is (-2)^2
        assert ev("-2^2") == 4.0
        assert ev("2^-3") == 0.125

    def test_number_formats(self):
        assert ev("1e3") == 1000.0
        assert ev(".5") == 0.5
        assert ev("2.5e-1") == 0.25
        assert ev("7.") == 7.0

    def test_ast_shape(self):
        tree = parse("2+x")
        assert tree == BinaryOp("+", Number(2.0), Variable())

    def test_call_and_negate_nodes(self):
        tree = parse("-exp(x)")
        assert tree == Negate(Call("exp", (Variable(),)))


class TestParseErrors:
    @pytest.mark.parametrize(
        "text,offset",
        [(")", 0), ("2+", 2), ("(1+2", 4), ("x y", 2), ("2..5", 2), ("1#2", 1)],
    )
    def test_error_offsets(self, text, offset):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert info.value.offset == offset

    def test_unknown_function(self):
        with pytest.raises(ParseError, match="unknown function"):
            parse("foo(1)")

    def test_unknown_variable(self):
        with pytest.raises(ParseError, match="unknown name"):
            parse("y+1")

    def test_arity(self):
        with pytest.raises(ParseError, match="argument"):
            parse("pow(1)")
        with pytest.raises(ParseError, match="argument"):
            parse("exp(1, 2)")

    def test_expected_token_in_message(self):
        with pytest.raises(ParseError, match="expected"):
            parse("2*")


class TestEvaluation:
    def test_gamma_factorial(self):
        assert ev("gamma(x+1)", 4.0) == pytest.approx(24.0, rel=1e-13)

    def test_ratio(self):
        assert ev("3^x/gamma(x+1)", 2.0) == pytest.approx(4.5, rel=1e-13)

    def test_pow_function(self):
        assert ev("pow(2, 10)") == 1024.0

    def test_other_functions(self):
        assert ev("abs(-3.5)") == 3.5
        assert ev("ln(exp(2))") == pytest.approx(2.0, rel=1e-15)
        assert ev("sqrt(9)") == 3.0

    def test_overflow_saturates(self):
        assert ev("exp(10000)") == math.inf
        assert ev("10^1000") == math.inf

    def test_gamma_overflow_saturates(self):
        assert ev("gamma(x+200)", 2.0) == math.inf
        # |Gamma| underflows for large negative non-integers; the sign is kept
        value = ev("gamma(-x-180.5)", 0.0)
        assert value == 0.0 and math.copysign(1.0, value) == -1.0
        value = ev("gamma(-x-181.5)", 0.0)
        assert value == 0.0 and math.copysign(1.0, value) == 1.0


class TestEvalErrors:
    def test_ln_domain(self):
        with pytest.raises(EvalError, match="ln"):
            ev("ln(x)", -1.0)

    def test_sqrt_domain(self):
        with pytest.raises(EvalError, match="sqrt"):
            ev("sqrt(x)", -4.0)

    def test_gamma_pole(self):
        with pytest.raises(EvalError, match="gamma"):
            ev("gamma(x)", 0.0)

    def test_division_by_zero(self):
        with pytest.raises(EvalError, match="division"):
            ev("1/(x-x)", 3.0)

    def test_fractional_power_of_negative(self):
        with pytest.raises(EvalError, match="power"):
            ev("x^0.5", -2.0)

    def test_error_carries_subexpression(self):
        with pytest.raises(EvalError, match=r"ln\(x\)"):
            ev("2+ln(x)", -1.0)


CORPUS = [
    "2+3*4",
    "2^3^2",
    "x^3*exp(-x/2)",
    "3^x/gamma(x+1)",
    "-x",
    "-(x+1)*2",
    "pow(x, 2)+sqrt(abs(x))",
    "1e-3*x^2",
    "((x))",
    "2^-3",
    "exp(-x)/(1+x)",
]


class TestRoundTrip:
    @pytest.mark.parametrize("text", CORPUS)
    def test_pretty_print_reparses_identically(self, text):
        tree = parse(text)
        assert parse(to_text(tree)) == tree

    @pytest.mark.parametrize("f", ["x^2", "exp(-x)", "gamma(x+1)"])
    @pytest.mark.parametrize("g", ["3*x", "1+x^3"])
    def test_addition_homomorphism(self, f, g):
        for x in (0.25, 1.0, 2.5):
            combined = ev(f"({f})+({g})", x)
            assert combined == pytest.approx(ev(f, x) + ev(g, x), rel=1e-14)
