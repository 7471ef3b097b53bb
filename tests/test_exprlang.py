"""Tests for the expression language."""

import dataclasses
import gc
import math
import struct
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import evaluate_reference
from quadsum.exprlang import (
    _ARITY,
    BinaryOp,
    MAX_DEPTH,
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

    @pytest.mark.parametrize(
        "text,offset",
        [("1e999*x", 0), ("2*1e999", 2), ("x+.5e400", 2), ("1" * 400, 0)],
        ids=["exponent", "after-operator", "leading-dot", "400-digits"],
    )
    def test_literal_that_overflows_to_inf(self, text, offset):
        with pytest.raises(ParseError, match="overflows to inf") as info:
            parse(text)
        assert info.value.offset == offset

    def test_largest_and_underflowing_literals_parse(self):
        assert parse("1.7976931348623157e308") == Number(1.7976931348623157e308)
        assert parse("1e-999") == Number(0.0)

    def test_unexpected_character_message(self):
        with pytest.raises(ParseError) as info:
            parse("1#2")
        assert str(info.value) == "syntax error at offset 1: unexpected character '#'"

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


class TestDefines:
    def test_name_is_the_tree_of_its_value(self):
        for value in ("3", "-2", " 1e-3 ", ".5"):
            defines = {"r": value}
            assert parse("r^x*-r", defines) == parse(f"({value})^x*-({value})")

    def test_error_offset_is_in_the_text_as_given(self):
        with pytest.raises(ParseError) as info:
            parse("r^x)", {"r": "3"})
        assert info.value.offset == 3

    @pytest.mark.parametrize("value, offset, reason", [
        ("1e999", 0, "number '1e999' overflows to inf"),
        (" (1", 3, "expected ')', found 'end of input'"),
    ], ids=["overflow", "unclosed"])
    def test_error_in_a_value_names_the_define(self, value, offset, reason):
        with pytest.raises(ParseError) as info:
            parse("2*r+x", {"s": "1", "r": value})
        assert str(info.value) == f"syntax error at offset {offset} in the value of 'r': {reason}"
        assert (info.value.offset, info.value.reason, info.value.define) == (offset, reason, "r")

    def test_error_in_the_expression_names_no_define(self):
        with pytest.raises(ParseError) as info:
            parse("r+", {"r": "3"})
        assert str(info.value) == "syntax error at offset 2: expected a number, 'x', function, or '(', found 'end of input'"
        assert info.value.define is None

    def test_defined_name_is_not_a_function(self):
        with pytest.raises(ParseError, match="unknown function 'r'"):
            parse("r(2)", {"r": "3"})

    def test_undefined_name_stays_unknown(self):
        with pytest.raises(ParseError, match="unknown name 's'"):
            parse("r+s", {"r": "3"})


class TestDepthLimit:
    @pytest.mark.parametrize("text", [
        "(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH,
        "abs(" * (MAX_DEPTH - 1) + "x" + ")" * (MAX_DEPTH - 1),
        "x^" * (MAX_DEPTH - 1) + "x",
        "+".join(["x"] * MAX_DEPTH),
    ], ids=["parens", "calls", "powers", "sum"])
    def test_deepest_accepted_expression_evaluates(self, text):
        tree = parse(text)
        assert math.isfinite(evaluate(tree, 0.5))
        assert parse(to_text(tree)) == tree

    @pytest.mark.parametrize("text, offset", [
        ("(" * 300 + "x" + ")" * 300, MAX_DEPTH),
        ("(" * (MAX_DEPTH + 1) + "x" + ")" * (MAX_DEPTH + 1), MAX_DEPTH),
        ("+".join(["x"] * 5000), 2 * MAX_DEPTH - 1),
        ("x^" * 300 + "x", 2 * (300 - MAX_DEPTH) + 1),
    ], ids=["parens-300", "parens-limit", "sum-5000", "powers-300"])
    def test_deeper_expression_is_a_parse_error(self, text, offset):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert info.value.offset == offset
        assert str(info.value).endswith(f"expression nests more than {MAX_DEPTH} levels deep")


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

    @pytest.mark.parametrize("text, value", [
        ("(-10)^401", -math.inf),
        ("-10^401", -math.inf),  # unary minus binds first
        ("(-1e200)^3", -math.inf),
        ("pow(-0.5, -1075)", -math.inf),
        ("(-10)^400", math.inf),
        ("pow(-0.5, -1076)", math.inf),
        ("(-1e200)^1e300", math.inf),  # every double this large is even
        ("pow(-1e200, 3)", -math.inf),
    ])
    def test_power_overflow_keeps_the_sign_of_odd_powers(self, text, value):
        assert ev(text) == value

    def test_lgamma(self):
        assert ev("lgamma(x)", 0.5) == math.lgamma(0.5)
        assert ev("lgamma(x+1)", 200.0) == math.lgamma(201.0)
        assert ev("exp(x*ln(3)-lgamma(x+1))", 700.0) == pytest.approx(
            math.exp(700.0 * math.log(3.0) - math.lgamma(701.0)), rel=1e-15
        )
        assert math.isnan(ev("lgamma(x-x)", math.inf))  # NaN passes through, as in ln

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

    @pytest.mark.parametrize("x", [0.0, -0.0, -1.0, -2.5])
    def test_lgamma_domain(self, x):
        with pytest.raises(EvalError) as info:
            ev("lgamma(x)", x)
        assert str(info.value) == f"lgamma of non-positive value {x!r} in 'lgamma(x)'"

    def test_division_by_zero(self):
        with pytest.raises(EvalError, match="division"):
            ev("1/(x-x)", 3.0)

    def test_fractional_power_of_negative(self):
        with pytest.raises(EvalError, match="power"):
            ev("x^0.5", -2.0)

    def test_error_carries_subexpression(self):
        with pytest.raises(EvalError, match=r"ln\(x\)"):
            ev("2+ln(x)", -1.0)

    # Each kind of error, at the node that raises it, with its exact text.
    @pytest.mark.parametrize("text, x, node_text, message", [
        ("2+1/(x-x)", 3.0, "(1.0/(x-x))", "division by zero"),
        ("2*x^0.5", -2.0, "(x^0.5)", "domain error raising -2.0 to power 0.5"),
        ("pow(x, 0.5)+1", -2.0, "pow(x, 0.5)", "domain error raising -2.0 to power 0.5"),
        ("1+ln(x-1)", -1.0, "ln((x-1.0))", "ln of non-positive value -2.0"),
        ("sqrt(x)-1", -4.0, "sqrt(x)", "sqrt of negative value -4.0"),
        ("gamma(x)*2", -3.0, "gamma(x)", "gamma pole at -3.0"),
        ("lgamma(-x)", 2.0, "lgamma((-x))", "lgamma of non-positive value -2.0"),
    ])
    def test_exact_message_and_equal_node(self, text, x, node_text, message):
        tree = parse(text)
        for _ in range(2):  # the same error from the same tree, every time
            with pytest.raises(EvalError) as info:
                evaluate(tree, x)
            assert str(info.value) == f"{message} in {node_text!r}"
            assert info.value.node == parse(node_text)
            assert to_text(info.value.node) == node_text


def _freed_without_the_cycle_collector(make):
    """Whether the object ``make()`` returns is freed as soon as it is dropped,
    with the cycle collector off."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        ref = weakref.ref(make())
        return ref() is None
    finally:
        if enabled:
            gc.enable()


class TestAcyclicTrees:
    """A node's evaluator does not hold the node, so a tree is not a
    reference cycle and is freed by reference counting alone."""

    @pytest.mark.parametrize("text", [
        "1/x", "x^2", "-x+1*2-x",
        *(f"{name}({', '.join(['x'] * arity)})" for name, arity in _ARITY.items()),
        "r*x/r^(x+1)",
        "x+2", "2-x", "-2*x", "(x+1)*2", "x/4", "2^x", "2^(x+1)", "pow(r, x)", "r^x/gamma(x+1)",
    ])
    def test_dropped_tree_is_freed(self, text):
        assert _freed_without_the_cycle_collector(lambda: parse(text, {"r": "1.5"}))

    @pytest.mark.parametrize("text, x", [
        ("1/(x-x)", 1.0), ("x^0.5", -1.0), ("pow(x, 0.5)", -1.0), ("ln(x)", -1.0),
        ("sqrt(x)", -1.0), ("gamma(x)", 0.0), ("lgamma(x)", 0.0),
        ("x/-0", 1.0), ("3/x", 0.0), ("(-8)^x", 0.5), ("(-8)^(x+0)", 0.5), ("pow(-8, x)", 0.5),
        ("x^-2", 0.0), ("gamma(x+1)", -1.0),
    ])
    def test_tree_is_freed_after_an_error(self, text, x):
        def make():
            tree = parse(text)
            with pytest.raises(EvalError):
                evaluate(tree, x)
            return tree

        assert _freed_without_the_cycle_collector(make)


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


# Values of x, and of literals, where the float operations are most likely
# to part: zeros, the tiniest and hugest doubles, gamma poles, negatives,
# and odd and even integers for powers.
_EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300,
    1.7976931348623157e308, -1.7976931348623157e308,
    -1.0, -2.0, -3.0, -170.0, -0.5, -2.5, -180.5, 0.5, 1.0, 2.0, 3.0, 171.5,
]
_FLOATS = st.one_of(
    st.sampled_from(_EDGES),
    st.floats(-200.0, 200.0),
    st.floats(allow_nan=False, allow_infinity=False),
)
_UNARY = ("exp", "ln", "sqrt", "gamma", "lgamma", "abs")
# Arguments at each one-argument function's edges: signed zeros and
# infinities, the tiniest doubles, a NaN, a pole, and where exp, gamma and
# lgamma overflow.
_ARGUMENT_EDGES = [
    -math.inf, -1.0, -5e-324, -0.0, 0.0, 5e-324, 0.5, 171.7, 710.0, 1e306, 1e308,
    math.inf, math.nan,
]


def _extend(children):
    return st.one_of(
        st.builds(Negate, children),
        st.builds(BinaryOp, st.sampled_from("+-*/^"), children, children),
        st.builds(lambda name, a: Call(name, (a,)), st.sampled_from(_UNARY), children),
        st.builds(lambda a, b: Call("pow", (a, b)), children, children),
    )


_TREES = st.recursive(
    st.one_of(st.just(Variable()), st.builds(Number, _FLOATS)), _extend, max_leaves=12
)


def _outcome(evaluator, tree, x):
    """The bits of the value (all NaNs alike), or the error raised."""
    try:
        value = evaluator(tree, x)
    except Exception as exc:
        return type(exc), str(exc)
    return "nan" if math.isnan(value) else struct.pack("<d", value)


class TestCompiledEvaluator:
    """The closures built with each node against the tree walk in
    ``oracles.evaluate_reference``."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(tree=_TREES, xs=st.lists(_FLOATS, min_size=1, max_size=4))
    @example(tree=parse("x-2/x"), xs=[3.0, math.inf])  # a value, and a NaN
    @example(tree=parse("1/(x-x)+ln(x)"), xs=[1.0, -1.0])  # an EvalError from either side
    @example(tree=parse("sqrt(x)*gamma(x)*lgamma(x)"), xs=[-1.0, -2.0, 0.0])
    @example(tree=parse("x^0.5-pow(x, 3)"), xs=[-1.0, -1e200])
    # every shape whose constant or x operand is read in place, not called
    @example(tree=parse("(x+2)*(2-x)+x*x-2*x+(x*2+(x-2))*(-2)"), xs=[0.5, -0.0, 1e308])
    @example(tree=parse("(1/x+2)-(3-1/x)*(2*(1/x))/4+(x+1)/-3"), xs=[0.5, 5e-324])
    @example(tree=parse("x*r-r/x", {"r": "-1.5"}), xs=[2.0, -0.0])  # a negated number
    @example(tree=parse("x/4+x/-0"), xs=[0.5])  # a zero divisor keeps its test
    @example(tree=parse("3/x"), xs=[2.0, 0.0])
    @example(tree=parse("2^x+x^-2"), xs=[0.5, 2000.0, 0.0])
    @example(tree=parse("(-8)^x"), xs=[3.0, 0.5])
    @example(tree=parse("10^(x*400)+pow(2, x)"), xs=[1.0, -1.0])
    @example(tree=parse("(-10)^(x*401)-pow(-10, x)"), xs=[1.0, 0.5])
    @example(tree=parse("exp(-x)"), xs=[1.0, -1000.0])
    @example(tree=parse("gamma(x)"), xs=[0.0, -1.0, -math.inf, 171.8, -1e-309, 0.5])
    @example(tree=parse("lgamma(x)"), xs=[1e306, 0.5, math.inf])
    # each one-argument function at the edges of its domain and range
    @example(tree=parse("abs(x)"), xs=_ARGUMENT_EDGES)
    @example(tree=parse("exp(x)"), xs=_ARGUMENT_EDGES)
    @example(tree=parse("ln(x)"), xs=_ARGUMENT_EDGES)
    @example(tree=parse("sqrt(x)"), xs=_ARGUMENT_EDGES)
    @example(tree=parse("gamma(x)"), xs=_ARGUMENT_EDGES)
    @example(tree=parse("lgamma(x)"), xs=_ARGUMENT_EDGES)
    @example(tree=parse("x^0.5"), xs=[-2.0, -math.inf])  # a negative base, a fractional power
    @example(tree=parse("pow(x, -1)"), xs=[0.0, -0.0])  # 0^-1
    @example(tree=parse("x^1001"), xs=[-10.0, 10.0])  # an odd integer power past the overflow
    def test_same_bits_or_error_as_the_tree_walk(self, tree, xs):
        for x in xs:
            assert _outcome(evaluate, tree, x) == _outcome(evaluate_reference, tree, x)


def _children(e):
    if isinstance(e, Negate):
        return (e.operand,)
    if isinstance(e, BinaryOp):
        return (e.left, e.right)
    return e.args if isinstance(e, Call) else ()


def _nodes(e):
    yield e
    for child in _children(e):
        yield from _nodes(child)


def _height(e):
    return 1 + max(map(_height, _children(e)), default=0)


class TestNodeAttributes:
    """``height`` and ``run`` are plain attributes each node sets when it is
    built; the dataclass fields are the node's value alone."""

    def _check_heights(self, tree):
        for node in _nodes(tree):
            assert node.height == _height(node)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(tree=_TREES, x=_FLOATS)
    def test_hand_built_trees(self, tree, x):
        self._check_heights(tree)
        assert _outcome(lambda t, v: t.run(v), tree, x) == _outcome(evaluate_reference, tree, x)

    @pytest.mark.parametrize("text, defines, height", [
        ("x", {}, 1),
        ("-2.5", {}, 2),
        ("r^x/gamma(x+1)", {"r": "3"}, 4),
        ("(x+1)*r^(x+1)/gamma(x+r+2)", {"r": "2"}, 5),
        ("pow(r, s)-s", {"r": "-(1+x)", "s": "2^x^x"}, 5),
        ("+".join(["x"] * MAX_DEPTH), {}, MAX_DEPTH),
        ("x*r", {"r": "+".join(["x"] * (MAX_DEPTH - 1))}, MAX_DEPTH),
    ], ids=["variable", "negated-number", "exp", "shifted-power", "defines", "longest-sum",
            "highest-define"])
    def test_parsed_trees(self, text, defines, height):
        tree = parse(text, defines)
        assert tree.height == height
        self._check_heights(tree)
        for x in (0.5, 2.0, -1.5):
            assert _outcome(lambda t, v: t.run(v), tree, x) == _outcome(evaluate_reference, tree, x)

    def test_fields_are_the_value(self):
        fields = {cls: [f.name for f in dataclasses.fields(cls)]
                  for cls in (Number, Variable, Negate, BinaryOp, Call)}
        assert fields == {Number: ["value"], Variable: [], Negate: ["operand"],
                          BinaryOp: ["op", "left", "right"], Call: ["name", "args"]}
        tree = parse("-exp(2*x)")
        assert dataclasses.asdict(tree) == {
            "operand": {"name": "exp", "args": ({"op": "*", "left": {"value": 2.0}, "right": {}},)}}
        assert repr(tree) == ("Negate(operand=Call(name='exp', args=(BinaryOp(op='*', "
                              "left=Number(value=2.0), right=Variable()),)))")
