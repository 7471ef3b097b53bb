"""Tests for the polynomial family catalog."""

import dataclasses
import itertools
import math
import sys
from decimal import Decimal
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, quad_vec

import quadsum.apply
from oracles import eval_poly, finite_support, lanczos_recurrence, truncated_sum
from quadsum import families
from quadsum.apply import Functional, approximate
from quadsum.errors import NumericalError, ValidationError
from quadsum.families import (
    FAMILIES,
    Charlier,
    ContinuousDualHahn,
    ContinuousPart,
    Custom,
    DiscretePart,
    Krawtchouk,
    MeasureSpec,
    Meixner,
    RecurrenceStream,
    Wilson,
    measure,
    recurrence,
)
from quadsum.jacobi import build
from quadsum.rule import gauss_rule


class TestValidation:
    @pytest.mark.parametrize("read", [recurrence, measure])
    def test_unknown_family_spec(self, read):
        with pytest.raises(ValidationError) as exc:
            read("charlier")
        assert str(exc.value) == "unknown family spec 'charlier'"

    def test_measure_needs_a_component(self):
        with pytest.raises(ValidationError) as exc:
            MeasureSpec()
        assert str(exc.value) == "measure needs a continuous or discrete component"

    def test_charlier_needs_positive_mu(self):
        with pytest.raises(ValidationError, match="mu > 0"):
            Charlier(0.0)
        with pytest.raises(ValidationError, match="mu > 0"):
            Charlier(-2.0)

    def test_meixner_beta_range(self):
        with pytest.raises(ValidationError, match="beta"):
            Meixner(2.0, 1.0)
        with pytest.raises(ValidationError, match="beta"):
            Meixner(2.0, 0.0)
        with pytest.raises(ValidationError, match="mu > 0"):
            Meixner(-1.0, 0.5)

    def test_krawtchouk_constraints(self):
        with pytest.raises(ValidationError, match="gamma"):
            Krawtchouk(10, 1.5)
        with pytest.raises(ValidationError, match="M >= 1"):
            Krawtchouk(0, 0.5)

    def test_cdh_constraints(self):
        with pytest.raises(ValidationError, match="alpha"):
            ContinuousDualHahn(2.0, -1.0, 3.0)
        with pytest.raises(ValidationError, match="alpha \\+ mu"):
            ContinuousDualHahn(-3.5, 3.0, 4.5)
        # valid both ways
        ContinuousDualHahn(2.0, 1.0, 3.0)
        ContinuousDualHahn(-3.5, 4.5, 4.5)

    def test_wilson_constraints(self):
        with pytest.raises(ValidationError, match="nu"):
            Wilson(1.0, -0.5, 2.0, 2.0)
        with pytest.raises(ValidationError, match="mu"):
            Wilson(-3.5, 3.0, 5.0, 5.0)
        Wilson(-3.5, 4.5, 5.5, 6.5)

    def test_krawtchouk_rejects_bool_m(self):
        with pytest.raises(ValidationError) as exc:
            Krawtchouk(True, 0.3)
        assert str(exc.value) == "krawtchouk requires integer M >= 1, got M=True"

    @pytest.mark.parametrize("make, message", [
        (lambda: Charlier(True), "charlier requires a number mu, got mu=True"),
        (lambda: Meixner(True, 0.5), "meixner requires a number mu, got mu=True"),
        (lambda: ContinuousDualHahn(True, True, True),
         "continuous dual Hahn requires a number mu, got mu=True"),
        (lambda: ContinuousDualHahn(1.0, 2.0, True),
         "continuous dual Hahn requires a number beta, got beta=True"),
        (lambda: Wilson(1.0, True, 1.0, 1.0), "wilson requires a number nu, got nu=True"),
    ], ids=["charlier", "meixner", "cdh-all", "cdh-beta", "wilson-nu"])
    def test_bool_parameter_is_rejected(self, make, message):
        with pytest.raises(ValidationError) as exc:
            make()
        assert str(exc.value) == message

    def test_krawtchouk_takes_any_integral_m_as_an_int(self):
        family = Krawtchouk(np.int64(100), 0.3)
        assert type(family.M) is int and family == Krawtchouk(100, 0.3)
        # (n+1)(M-n) = 2(2^62 - 1) would wrap as an int64
        big = recurrence(Krawtchouk(np.int64(2**62), 0.3))
        assert big.b(1) == recurrence(Krawtchouk(2**62, 0.3)).b(1) < 0.0

    @pytest.mark.parametrize("make, message", [
        (lambda: Charlier(math.inf), "charlier requires a finite mu, got mu=inf"),
        (lambda: Charlier(10**400), "charlier requires a finite mu, got mu too large for a float"),
        (lambda: Meixner(math.inf, 0.3), "meixner requires a finite mu, got mu=inf"),
        (lambda: Krawtchouk(10**400, 0.3),
         "krawtchouk requires a finite M, got M too large for a float"),
        (lambda: ContinuousDualHahn(1.0, math.inf, 2.0),
         "continuous dual Hahn requires a finite alpha, got alpha=inf"),
        (lambda: ContinuousDualHahn(math.inf, 1.0, 2.0),
         "continuous dual Hahn requires a finite mu, got mu=inf"),
        (lambda: Wilson(1.0, 1.0, 1.0, math.inf), "wilson requires a finite beta, got beta=inf"),
    ], ids=["charlier-inf", "charlier-huge-int", "meixner", "krawtchouk-huge-m",
            "cdh-alpha", "cdh-mu", "wilson-beta"])
    def test_parameters_must_be_finite(self, make, message):
        with pytest.raises(ValidationError) as exc:
            make()
        assert str(exc.value) == message

    @pytest.mark.parametrize("make, message", [
        (lambda: ContinuousDualHahn(0.0, 1.0, 2.0), "continuous dual Hahn requires mu != 0"),
        (lambda: ContinuousDualHahn(2.0, -1.0, 0.0),
         "continuous dual Hahn with mu > 0 requires alpha, beta > 0; "
         "violated by {'alpha': -1.0, 'beta': 0.0}"),
        (lambda: ContinuousDualHahn(-3.5, 3.0, 4.5),
         "continuous dual Hahn with mu < 0 requires alpha + mu, beta + mu > 0; "
         "violated by {'alpha': 3.0} with mu=-3.5"),
        (lambda: Wilson(0.0, 1.0, 2.0, 3.0), "wilson requires mu != 0"),
        (lambda: Wilson(1.0, -0.5, 2.0, 0.0),
         "wilson with mu > 0 requires nu, alpha, beta > 0; "
         "violated by {'nu': -0.5, 'beta': 0.0}"),
        (lambda: Wilson(-3.5, 3.0, 5.0, 3.5),
         "wilson with mu < 0 requires nu + mu, alpha + mu, beta + mu > 0; "
         "violated by {'nu': 3.0, 'beta': 3.5} with mu=-3.5"),
    ], ids=["cdh-zero", "cdh-positive", "cdh-negative",
            "wilson-zero", "wilson-positive", "wilson-negative"])
    def test_squared_variable_parameter_messages(self, make, message):
        with pytest.raises(ValidationError) as exc:
            make()
        assert str(exc.value) == message


@st.composite
def _valid_family(draw):
    """A built-in family's class, its parameters as float32-exact Python
    numbers (M an int), a rule order it admits and the kind it answers."""
    cls = draw(st.sampled_from(sorted(FAMILIES.values(), key=lambda c: c.kind)))
    unit = st.floats(0.0625, 0.9375, width=32)
    if cls in (Charlier, Meixner):
        params = [draw(st.floats(0.125, 20.0, width=32))]
        if cls is Meixner:
            params.append(draw(unit))
    elif cls is Krawtchouk:
        params = [draw(st.integers(1, 60)), draw(unit)]
    else:
        mu = draw(st.sampled_from([-2.75, -1.5, -1.0, -0.25, 0.5, 1.0, 2.25]))
        others = len(dataclasses.fields(cls)) - 1
        params = [mu] + [float(np.float32(max(0.0, -mu) + draw(st.floats(0.125, 5.0))))
                         for _ in range(others)]
    n = draw(st.integers(1, 8))
    if cls is Krawtchouk:
        n = min(n, params[0] + 1)
    kind = ("weighted_sum" if cls in (Charlier, Meixner, Krawtchouk)
            else "mixed" if params[0] < 0.0 else "weighted_integral")
    return cls, params, n, kind


def _variants(value):
    """The number types a parameter may be given in, each equal to value."""
    if isinstance(value, int):
        return [value, np.int64(value)]
    out = [value, np.float64(value), np.float32(value)]
    return out + [int(value)] if value.is_integer() else out


def _bits(family, n):
    rule = gauss_rule(build(recurrence(family), n))
    return rule.nodes.tobytes(), rule.weights.tobytes()


class TestCanonicalParameters:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(case=_valid_family())
    def test_every_number_type_gives_the_float_family(self, case):
        cls, params, n, kind = case
        base = cls(*params)
        assert [type(v) for v in dataclasses.astuple(base)] == [type(v) for v in params]
        options = [_variants(v) for v in params]
        # the i-th type of each parameter, shifted by its position to mix types
        variants = [cls(*(opts[(i + j) % len(opts)] for j, opts in enumerate(options)))
                    for i in range(4)]
        quadsum.apply._prepared.cache_clear()
        expected = approximate(Functional(kind, lambda x: x, base, n))
        for family in variants:
            assert family == base and hash(family) == hash(base)
            assert dataclasses.astuple(family) == dataclasses.astuple(base)
            assert [type(v) for v in dataclasses.astuple(family)] == [type(v) for v in params]
            assert _bits(family, n) == _bits(base, n)
            assert approximate(Functional(kind, lambda x: x, family, n)).hex() == expected.hex()
        assert quadsum.apply._prepared.cache_info().currsize == 1

    def test_float32_parameters_compute_in_double(self):
        family = Meixner(np.float32(2.0), np.float32(0.5))
        assert (type(family.mu), type(family.beta)) == (float, float)
        assert _bits(family, 10) == _bits(Meixner(2.0, 0.5), 10)

    def test_decimal_and_fraction_parameters_approximate(self):
        expected = approximate(Functional("weighted_sum", lambda x: x, Meixner(2.0, 0.5), 6))
        for family in (Meixner(Decimal("2"), 0.5), Meixner(Fraction(2), Fraction(1, 2))):
            assert family == Meixner(2.0, 0.5)
            assert approximate(Functional("weighted_sum", lambda x: x, family, 6)) == expected

    def test_integer_parameters_are_stored_as_floats(self):
        assert Charlier(2).mu == 2.0 and type(Charlier(2).mu) is float
        assert type(Krawtchouk(np.int64(3), 0.5).M) is int

    @pytest.mark.parametrize("make, message", [
        (lambda: Meixner(np.complex128(2.0), 0.5),
         "meixner requires a number mu, got mu=np.complex128(2+0j)"),
        (lambda: Krawtchouk(np.float64(3.0), 0.5),
         "krawtchouk requires integer M >= 1, got M=np.float64(3.0)"),
    ], ids=["complex-mu", "float-m"])
    def test_parameter_of_another_type_is_rejected(self, make, message):
        with pytest.raises(ValidationError) as exc:
            make()
        assert str(exc.value) == message

    @pytest.mark.parametrize("make, message", [
        (lambda: Charlier("2"), "charlier requires a number mu, got mu='2'"),
        (lambda: Charlier(None), "charlier requires a number mu, got mu=None"),
        (lambda: Charlier(2 + 0j), "charlier requires a number mu, got mu=(2+0j)"),
        (lambda: Krawtchouk(10, "0.3"), "krawtchouk requires a number gamma, got gamma='0.3'"),
        (lambda: Meixner(Decimal("NaN"), 0.5),
         "meixner requires a finite mu, got mu=Decimal('NaN')"),
        (lambda: Meixner(Decimal("sNaN"), 0.5),
         "meixner requires a finite mu, got mu=Decimal('sNaN')"),
        (lambda: Charlier(math.nan), "charlier requires a finite mu, got mu=nan"),
        (lambda: Krawtchouk(10, -math.inf),
         "krawtchouk requires a finite gamma, got gamma=-inf"),
        (lambda: ContinuousDualHahn(-math.inf, 1.0, 2.0),
         "continuous dual Hahn requires a finite mu, got mu=-inf"),
        (lambda: Wilson(1.0, 1.0, Decimal("sNaN"), 1.0),
         "wilson requires a finite alpha, got alpha=Decimal('sNaN')"),
    ], ids=["str", "none", "complex", "str-gamma", "decimal-nan", "decimal-snan", "nan",
            "minus-inf-gamma", "cdh-minus-inf-mu", "wilson-snan"])
    def test_range_checks_see_only_canonical_values(self, make, message):
        with pytest.raises(ValidationError) as exc:
            make()
        assert str(exc.value) == message

    def test_decimal_parameters_meet_the_squared_variable_rule(self):
        assert ContinuousDualHahn(Decimal("-3.5"), 4.5, 4.5) == ContinuousDualHahn(-3.5, 4.5, 4.5)
        with pytest.raises(ValidationError) as exc:
            ContinuousDualHahn(Decimal("-3.5"), Decimal("3"), 4.5)
        assert str(exc.value) == ("continuous dual Hahn with mu < 0 requires alpha + mu, "
                                  "beta + mu > 0; violated by {'alpha': 3.0} with mu=-3.5")

    def test_parameters_give_flags_and_types(self):
        # a parameter's flag is its name: keyword, attribute and JSON key
        assert families.parameters(Krawtchouk) == (("M", int), ("gamma", float))
        assert families.parameters(Wilson) == tuple(
            (name, float) for name in ("mu", "nu", "alpha", "beta"))
        assert Krawtchouk(M=100, gamma=0.3).M == 100


class TestRecurrence:
    def test_charlier_first_coefficients(self):
        st = recurrence(Charlier(2.0))
        assert st.a(0) == 2.0
        assert st.b(0) == pytest.approx(-math.sqrt(2.0), rel=1e-15)

    def test_krawtchouk_first_coefficients(self):
        st = recurrence(Krawtchouk(2, 0.5))
        assert st.a(0) == 1.0
        assert st.b(0) == pytest.approx(-math.sqrt(0.5), rel=1e-15)
        assert st.size == 3

    def test_krawtchouk_b_too_large_for_a_float(self):
        # (n+1)(M-n) is an int; past the float range its product with gamma
        # overflows, which is a validation error naming the coefficient
        st = recurrence(Krawtchouk(10**308, 0.3))
        assert st.b(0) == -math.sqrt(10**308 * 0.3 * (1.0 - 0.3))
        with pytest.raises(ValidationError) as exc:
            st.b(1)
        assert str(exc.value) == "krawtchouk coefficient b_1 overflows a float at M=1e+308"
        # a product that fits keeps the bits of the plain expression
        m = 10**307
        for n in range(5):
            plain = -math.sqrt((n + 1) * (m - n) * 0.3 * (1.0 - 0.3))
            assert recurrence(Krawtchouk(m, 0.3)).b(n) == plain

    def test_cdh_first_coefficients(self):
        # direct substitution: a0 = (mu+al)(mu+be) - mu^2, b0 = -sqrt((al+be))
        st = recurrence(ContinuousDualHahn(-3.5, 4.5, 4.5))
        assert st.a(0) == pytest.approx(-11.25, rel=1e-15)
        assert st.b(0) == pytest.approx(-3.0, rel=1e-15)

    def test_meixner_coefficients_positive_offdiag_magnitude(self):
        st = recurrence(Meixner(2.0, 0.4))
        for n in range(20):
            assert st.b(n) < 0.0

    @pytest.mark.parametrize("param", [0.25, 0.5])  # s = 1 and s = 2
    def test_wilson_removable_singularities(self, param):
        st = recurrence(Wilson(param, param, param, param))
        nearby = recurrence(Wilson(param + 1e-7, param, param, param))
        for coef, near in ((st.a(0), nearby.a(0)), (st.b(0), nearby.b(0))):
            assert math.isfinite(coef)
            assert coef == pytest.approx(near, rel=1e-6)
        rule = gauss_rule(build(st, 20))
        assert abs(math.fsum(rule.weights.tolist()) - 1.0) <= 1e-12
        assert np.all(rule.weights > 0.0)
        assert np.all(np.diff(rule.nodes) > 0.0)

    def test_wilson_parameter_sum_below_the_ulp_of_two(self):
        # 2n+s-2 at n = 1 is s, which 2+s-2 rounds to 0.0
        st = recurrence(Wilson(1e-17, 1e-17, 1e-17, 1e-17))
        assert all(math.isfinite(st.a(n)) and math.isfinite(st.b(n)) for n in range(5))

    def test_wilson_regular_a0_keeps_generic_formula(self):
        # the cancelled s = 1 form would round to 1.8947368421052633 here
        assert recurrence(Wilson(1.0, 1.2, 1.5, 2.0)).a(0) == 1.8947368421052628

    def test_require_order(self):
        st = recurrence(Krawtchouk(2, 0.5))
        st.require_order(3)
        with pytest.raises(ValidationError, match="exceeds"):
            st.require_order(4)
        with pytest.raises(ValidationError):
            st.require_order(0)

    @pytest.mark.parametrize("order", [2.5, 3.0, "3", None, True, False])
    def test_non_integral_order_is_a_validation_error(self, order):
        with pytest.raises(ValidationError) as exc:
            build(recurrence(Charlier(2.0)), order)
        assert str(exc.value) == f"order must be an integer, got {order!r}"

    def test_numpy_integer_order(self):
        assert build(recurrence(Charlier(2.0)), np.int64(3)).dimension == 3


class TestMeasures:
    def test_charlier_masses(self):
        ms = measure(Charlier(2.0))
        d = ms.discrete
        assert ms.continuous is None
        assert d.size is None
        assert d.mass_at(0) == pytest.approx(math.exp(-2.0), rel=1e-14)
        # ratio xi_{k+1}/xi_k = mu/(k+1)
        for k in range(10):
            assert d.mass_at(k + 1) / d.mass_at(k) == pytest.approx(
                2.0 / (k + 1), rel=1e-12
            )

    def test_charlier_density_continues_masses(self):
        d = measure(Charlier(2.0)).discrete
        for k in range(12):
            assert d.density(float(k)) == pytest.approx(d.mass_at(k), rel=1e-13)

    def test_meixner_total_mass(self):
        d = measure(Meixner(2.0, 0.4)).discrete
        assert truncated_sum(d, lambda x: 1.0) == pytest.approx(1.0, abs=1e-13)

    def test_krawtchouk_total_mass_and_size(self):
        d = measure(Krawtchouk(20, 0.3)).discrete
        assert d.size == 21
        _, masses = finite_support(d)
        assert math.fsum(masses) == pytest.approx(1.0, abs=1e-14)
        assert all(xi > 0.0 for xi in masses)

    def test_cdh_discrete_points_and_masses(self):
        # hand evaluation for mu=-3.5, alpha=beta=4.5: the Pochhammer factors
        # collapse to xi_k = (3.5-k) k! (7-k)! / (4 * 7!)
        ms = measure(ContinuousDualHahn(-3.5, 4.5, 4.5))
        points, masses = finite_support(ms.discrete)
        assert points == pytest.approx((-12.25, -6.25, -2.25, -0.25))
        assert masses == pytest.approx(
            (7.0 / 8.0, 5.0 / 56.0, 1.0 / 56.0, 1.0 / 280.0), rel=1e-12
        )
        assert ms.continuous.support == (0.0, math.inf)
        assert ms.continuous.density(0.0) == 0.0
        assert ms.continuous.density(1.0) > 0.0

    def test_cdh_continuous_mass(self):
        # the continuous part carries 1 - sum(xi) = 1/70 of the mass
        sigma = measure(ContinuousDualHahn(-3.5, 4.5, 4.5)).continuous.density
        got, _ = quad(sigma, 0.0, math.inf)
        assert got == pytest.approx(1.0 / 70.0, rel=1e-9)

    def test_cdh_positive_mu_has_no_discrete_part(self):
        ms = measure(ContinuousDualHahn(2.0, 1.0, 3.0))
        assert ms.discrete is None
        assert ms.continuous is not None

    def test_wilson_masses_positive(self):
        d = measure(Wilson(-3.5, 4.5, 5.5, 6.5)).discrete
        assert d.size == 4
        assert all(xi > 0.0 for xi in finite_support(d)[1])

    @pytest.mark.parametrize("spec, constants", [
        (ContinuousDualHahn(-3.5, 4.5, 4.5), 7),
        (Wilson(-3.5, 4.5, 5.5, 6.5), 14),
    ], ids=["cdh", "wilson"])
    def test_squared_variable_masses_are_evaluated_only_when_summed(
        self, monkeypatch, spec, constants
    ):
        # building the measure takes lnGamma of its constants alone; summing
        # takes one ln k! per mass
        seen = []
        counted = families.ln_gamma

        def counting(x):
            seen.append(x)
            return counted(x)

        monkeypatch.setattr(families, "ln_gamma", counting)
        d = measure(spec).discrete
        assert (d.size, len(seen)) == (4, constants)
        assert d.weighted_sum(lambda y: 1.0) > 0.0
        assert seen[constants:] == [1.0, 2.0, 3.0, 4.0]

    @pytest.mark.parametrize("mu, size", [
        (-3.0, 3), (-0.3, 1), (math.nextafter(-3.0, 0.0), 3), (math.nextafter(-3.0, -4.0), 4),
    ])
    def test_squared_variable_support_size(self, mu, size):
        d = measure(ContinuousDualHahn(mu, 4.5, 4.5)).discrete
        assert d.size == size
        assert d.point_at(size - 1) == -((size - 1 + mu) ** 2) < 0.0

    def test_density_decays_at_large_argument(self):
        sigma = measure(ContinuousDualHahn(-3.5, 4.5, 4.5)).continuous.density
        assert sigma(50.0) < sigma(5.0)
        assert sigma(400.0) == 0.0  # underflows cleanly instead of raising

    def test_measure_needs_a_component(self):
        with pytest.raises(ValidationError):
            MeasureSpec()


class TestTruncationPolicy:
    """weighted_sum never truncates: it sums a finite support exactly and
    refuses an infinite one, whose sums the tests take from the oracle."""

    def test_infinite_support_is_a_validation_error(self):
        calls = []
        for family in (Charlier(2), Meixner(2.0, 0.4)):
            with pytest.raises(ValidationError) as exc:
                measure(family).discrete.weighted_sum(lambda x: calls.append(x) or 1.0)
            assert str(exc.value) == "weighted_sum requires a finite discrete support"
        assert calls == []

    def test_nan_integrand_fails_at_first_point(self):
        d = measure(Krawtchouk(5, 0.3)).discrete
        with pytest.raises(NumericalError, match="point 0.0"):
            d.weighted_sum(lambda x: math.nan)

    def test_infinite_terms_on_finite_measure(self):
        d = measure(Krawtchouk(5, 0.3)).discrete
        f = lambda x: math.inf if x == 2.0 else (-math.inf if x == 4.0 else 1.0)
        with pytest.raises(NumericalError, match="point 2.0"):
            d.weighted_sum(f)

    def test_overflowing_sum_is_numerical_failure(self):
        # every term xi f(x) is finite, and fsum's running sum overflows
        d = measure(Krawtchouk(5, 0.5)).discrete
        with pytest.raises(NumericalError) as exc:
            d.weighted_sum(lambda x: 1.7976931348623157e308)
        assert str(exc.value) == "weighted sum overflows the float range"

    def test_integrand_errors_pass_through(self):
        # an integrand's own OverflowError is not read as an overflowing sum
        d = measure(Krawtchouk(5, 0.5)).discrete
        with pytest.raises(OverflowError, match="math range error"):
            d.weighted_sum(lambda x: math.exp(1000.0))


class TestEvalPoly:
    def test_degree_zero(self):
        st = recurrence(Charlier(2.0))
        assert eval_poly(st, 0, 123.4) == 1.0

    def test_degree_one_at_a0(self):
        st = recurrence(Charlier(2.0))
        assert eval_poly(st, 1, 2.0) == 0.0

    def test_degree_one_at_zero(self):
        st = recurrence(Charlier(2.0))
        assert eval_poly(st, 1, 0.0) == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_krawtchouk_degree_range(self):
        st = recurrence(Krawtchouk(2, 0.5))
        eval_poly(st, 2, 1.0)
        with pytest.raises(ValidationError, match="out of range"):
            eval_poly(st, 3, 1.0)

    def test_negative_degree(self):
        with pytest.raises(ValidationError):
            eval_poly(recurrence(Charlier(2.0)), -1, 0.0)


class TestOrthonormality:
    def test_charlier_discrete(self):
        spec = Charlier(2.0)
        st = recurrence(spec)
        d = measure(spec).discrete
        for n in range(6):
            for m in range(n + 1):
                s = truncated_sum(d, lambda x: eval_poly(st, n, x) * eval_poly(st, m, x))
                assert s == pytest.approx(1.0 if n == m else 0.0, abs=1e-10)

    def test_krawtchouk_finite(self):
        spec = Krawtchouk(20, 0.3)
        st = recurrence(spec)
        points, masses = finite_support(measure(spec).discrete)
        for n in range(11):
            for m in range(n + 1):
                s = math.fsum(
                    xi * eval_poly(st, n, x) * eval_poly(st, m, x)
                    for x, xi in zip(points, masses)
                )
                assert s == pytest.approx(1.0 if n == m else 0.0, abs=1e-10)


# Meixner and Wilson sets, with Wilson's special-cased s = mu + nu + alpha
# + beta = 1 and s = 2 (its a_0 and b_0 formulas) last.  Meixner(0.7, 0.8)
# needs 800 terms: at 200 the omitted tail of beta^k still weighs 7.0e-8.
_GRAM_SETS = [
    (Meixner(2.0, 0.4), 200),
    (Meixner(0.7, 0.8), 800),
    (Wilson(0.5, 1.0, 1.5, 2.0), None),
    (Wilson(-3.5, 4.5, 5.5, 6.5), None),
    (Wilson(-0.5, 1.0, 1.2, 1.4), None),
    (Wilson(1.0, 1.2, 1.5, 2.0), None),
    (Wilson(0.25, 0.25, 0.25, 0.25), None),
    (Wilson(0.5, 0.5, 0.5, 0.5), None),
]


def _gram(spec, terms=None, degree=5) -> np.ndarray:
    """G_{nm} = integral of p_n p_m against the family's measure, n, m <=
    degree: scipy ``quad_vec`` of the continuous density in the squared
    variable, plus ``weighted_sum`` over a finite discrete part or
    ``truncated_sum`` of ``terms`` terms over an infinite one."""
    stream = recurrence(spec)
    ms = measure(spec)
    g = np.zeros((degree + 1, degree + 1))
    if ms.continuous is not None:
        sigma = ms.continuous.density

        def integrand(x):
            p = np.array([eval_poly(stream, n, x * x) for n in range(degree + 1)])
            return sigma(x) * np.outer(p, p)

        g += quad_vec(integrand, 0.0, math.inf, epsabs=1e-15, epsrel=1e-13)[0]
    if ms.discrete is not None:
        d = ms.discrete
        for n in range(degree + 1):
            for m in range(degree + 1):
                def f(y, n=n, m=m):
                    return eval_poly(stream, n, y) * eval_poly(stream, m, y)
                g[n, m] += d.weighted_sum(f) if d.finite else truncated_sum(d, f, terms)
    return g


def _wilson_density_mp(spec, x):
    """The Wilson weight function (Koekoek, Lesky & Swarttouw 2010, sec.
    9.1), normalized to unit mass, transcribed on mpmath.gamma."""
    mu, nu, al, be = map(mpmath.mpf, (spec.mu, spec.nu, spec.alpha, spec.beta))
    g, ix = mpmath.gamma, 1j * mpmath.mpf(x)
    front = g(mu + nu + al + be) / (
        2 * mpmath.pi * g(mu + nu) * g(al + be) * g(mu + al) * g(mu + be) * g(nu + al) * g(nu + be)
    )
    return front * abs(g(mu + ix) * g(nu + ix) * g(al + ix) * g(be + ix) / g(2 * ix)) ** 2


class TestGramMatrix:
    """Each family's measure integrated against its own recurrence: the
    Gram matrix of p_0..p_5 is the identity (measured |G - I| at most
    6.3e-14 on every set here)."""

    @pytest.mark.parametrize("spec, terms", _GRAM_SETS, ids=repr)
    def test_gram_matrix_is_identity(self, spec, terms):
        assert np.max(np.abs(_gram(spec, terms) - np.eye(6))) <= 1e-13

    def test_short_meixner_truncation_shows(self):
        # the same sum cut at the default 200 terms misses 7.0e-8 of G
        defect = np.max(np.abs(_gram(Meixner(0.7, 0.8), 200) - np.eye(6)))
        assert 5e-8 <= defect <= 1e-7

    @pytest.mark.parametrize(
        "spec", [spec for spec, _ in _GRAM_SETS if spec.kind == "wilson"], ids=repr
    )
    def test_wilson_density_matches_mpmath(self, spec):
        # relative error grows with x as the log-space density's terms do:
        # measured at most 1.3e-12 at x = 40
        sigma = measure(spec).continuous.density
        with mpmath.workdps(30):
            for x in (0.01, 0.1, 0.5, 1.0, 2.0, 3.7, 5.0, 10.0, 20.0, 40.0):
                ref = _wilson_density_mp(spec, x)
                assert float(abs(sigma(x) - ref) / ref) <= 2e-12


def _cdh_mass_mp(spec, k):
    """The k-th continuous dual Hahn point mass (Koekoek, Lesky & Swarttouw
    2010, eq. 9.3.3), divided by the n = 0 norm Gamma(a+b)Gamma(a+c)Gamma(b+c)
    so that the measure has unit mass; a, b, c = mu, alpha, beta."""
    a, b, c = map(mpmath.mpf, (spec.mu, spec.alpha, spec.beta))
    g, rf = mpmath.gamma, mpmath.rf
    front = g(b - a) * g(c - a) / (g(-2 * a) * g(b + c))
    return front * (-1) ** k * (
        rf(2 * a, k) * rf(a + 1, k) * rf(a + b, k) * rf(a + c, k)
        / (rf(a, k) * rf(a - b + 1, k) * rf(a - c + 1, k) * mpmath.factorial(k))
    )


def _wilson_mass_mp(spec, k):
    """The k-th Wilson point mass (Koekoek, Lesky & Swarttouw 2010, eq.
    9.1.3), divided by the n = 0 norm Gamma(a+b)...Gamma(c+d)/Gamma(a+b+c+d);
    a, b, c, d = mu, nu, alpha, beta."""
    a, b, c, d = map(mpmath.mpf, (spec.mu, spec.nu, spec.alpha, spec.beta))
    g, rf = mpmath.gamma, mpmath.rf
    front = g(a + b + c + d) * g(b - a) * g(c - a) * g(d - a) / (
        g(-2 * a) * g(b + c) * g(b + d) * g(c + d)
    )
    return front * (
        rf(2 * a, k) * rf(a + 1, k) * rf(a + b, k) * rf(a + c, k) * rf(a + d, k)
        / (rf(a, k) * rf(a - b + 1, k) * rf(a - c + 1, k) * rf(a - d + 1, k) * mpmath.factorial(k))
    )


# mu at a half-integer, at -1, and one 1e-9 to each side of -1 and -2,
# where the number of point masses changes.
_MASS_MUS = (-0.5, -1.0, -1.0 + 1e-9, -1.0 - 1e-9, -2.0 + 1e-9, -2.0 - 1e-9, -3.5)
_MASS_SETS = [
    *((ContinuousDualHahn(mu, al, be), _cdh_mass_mp)
      for mu in _MASS_MUS for al, be in ((4.5, 4.5), (4.25, 5.5))),
    *((Wilson(mu, nu, al, be), _wilson_mass_mp)
      for mu in _MASS_MUS for nu, al, be in ((4.5, 5.5, 6.5), (4.25, 5.5, 6.75))),
]


class TestPointMasses:
    """The squared-variable families' point masses against an mpmath
    transcription of the handbook's (30 digits): measured at most 1.5e-14
    relative error over every mass here."""

    @pytest.mark.parametrize("spec, mass_mp", _MASS_SETS, ids=[repr(spec) for spec, _ in _MASS_SETS])
    def test_masses_match_mpmath(self, spec, mass_mp):
        d = measure(spec).discrete
        with mpmath.workdps(30):
            # the masses sit at the k >= 0 with mu + k < 0, mu read exactly
            size = sum(1 for k in range(5) if mpmath.mpf(spec.mu) + k < 0)
            assert d.size == size == math.ceil(-spec.mu)
            for k in range(d.size):
                ref = mass_mp(spec, k)
                assert float(abs((d.mass_at(k) - ref) / ref)) <= 3e-14


def _lattice(spec, size: int) -> tuple[list, list]:
    """The first ``size`` points and masses of a lattice family."""
    d = measure(spec).discrete
    return [d.point_at(k) for k in range(size)], [d.mass_at(k) for k in range(size)]


def _squared_variable(spec, upper: float = 120.0, panels: int = 100,
                      graded: int = 0) -> tuple[list, list]:
    """A squared-variable family's measure made discrete: its density on x
    in [0, upper] by a composite 60-point Gauss-Legendre rule on ``panels``
    equal panels (6000 points by default), placed at y = x^2, plus its exact
    point masses.  ``graded`` > 0 splits the first panel at h 2^-graded, ...,
    h/4, h/2 (h its width), for a density that changes within far less than
    h of x = 0.  numpy's one 6000-point rule is slow to build and its
    weights are off by 3e-7, which reads as 1e-12 in a_n."""
    ms = measure(spec)
    t, w = np.polynomial.legendre.leggauss(60)
    h = upper / panels
    halves = h * 2.0 ** np.arange(-graded, 0)
    lo = np.concatenate(([0.0], halves, h * np.arange(1, panels)))
    width = np.concatenate(([h * 2.0**-graded], halves, np.full(panels - 1, h)))
    x = (lo[:, None] + (t + 1.0) * width[:, None] / 2.0).ravel()
    w = (w * width[:, None] / 2.0).ravel()
    points = (x * x).tolist()
    masses = [wk * ms.continuous.density(xk) for xk, wk in zip(x.tolist(), w.tolist())]
    if ms.discrete is not None:
        more_points, more_masses = finite_support(ms.discrete)
        points += more_points
        masses += more_masses
    return points, masses


def _recovery_errors(spec, points, masses, n: int) -> tuple[list, list]:
    """Per order k < n, the error of the a_k and |b_k| that the Lanczos
    procedure recovers from the measure, against ``recurrence()``: a_k
    relative to max(1, |a_k|), b_k relative to |b_k|."""
    a, b = lanczos_recurrence(points, masses, n)
    stream = recurrence(spec)
    err_a = [abs(a[k] - stream.a(k)) / max(1.0, abs(stream.a(k))) for k in range(n)]
    err_b = [abs(b[k] - abs(stream.b(k))) / abs(stream.b(k)) for k in range(n)]
    return err_a, err_b


# Each set, its discretization, the orders checked and the bands on the a
# and b errors.  Measured: at most 1.21e-14 (a) and 2.27e-14 (b) on the
# lattice sets, Krawtchouk the largest; 7.2e-14 (a) and 7.4e-14 (b) on the
# squared-variable sets, Wilson at s = 1 the largest.  Wilson at s = 1 and
# s = 2 checks the cancelled n = 0 forms of the recurrence, and
# Wilson(1000, 1, 1.5, 2) its sorted parameters: a_n read 6.3e-12 with mu
# in the shift slot.
_LATTICE_BANDS = (2e-14, 3e-14)
_SQUARED_BANDS = (1e-13, 1e-13)
_RECOVERY_SETS = [
    (Charlier(2.0), lambda spec: _lattice(spec, 400), 100, _LATTICE_BANDS),
    (Meixner(2.0, 0.4), lambda spec: _lattice(spec, 1500), 100, _LATTICE_BANDS),
    (Krawtchouk(1000, 0.3), lambda spec: finite_support(measure(spec).discrete), 100, _LATTICE_BANDS),
    (ContinuousDualHahn(-3.5, 4.5, 4.5), _squared_variable, 40, _SQUARED_BANDS),
    (ContinuousDualHahn(2.0, 1.0, 3.0), _squared_variable, 40, _SQUARED_BANDS),
    (Wilson(0.5, 1.0, 1.5, 2.0), _squared_variable, 40, _SQUARED_BANDS),
    (Wilson(-3.5, 4.5, 5.5, 6.5), _squared_variable, 40, _SQUARED_BANDS),
    (Wilson(0.25, 0.25, 0.25, 0.25), _squared_variable, 40, _SQUARED_BANDS),
    (Wilson(0.5, 0.5, 0.5, 0.5), _squared_variable, 40, _SQUARED_BANDS),
    (Wilson(1000.0, 1.0, 1.5, 2.0), _squared_variable, 40, _SQUARED_BANDS),
]


def _cdh_density_mp(spec, x):
    """The continuous dual Hahn weight function (Koekoek, Lesky & Swarttouw
    2010, sec. 9.3), divided by 2 pi Gamma(a+b) Gamma(a+c) Gamma(b+c) so that
    the measure has unit mass, transcribed on mpmath.gamma; a, b, c = mu,
    alpha, beta."""
    a, b, c = map(mpmath.mpf, (spec.mu, spec.alpha, spec.beta))
    g, ix = mpmath.gamma, 1j * mpmath.mpf(x)
    front = 1 / (2 * mpmath.pi * g(a + b) * g(a + c) * g(b + c))
    return front * abs(g(a + ix) * g(b + ix) * g(c + ix) / g(2 * ix)) ** 2


class TestRecurrenceFromMeasure:
    """Each family's recurrence recovered from its own measure by the
    discretized Lanczos procedure, at every order up to 99 (lattice
    families) or 39 (squared-variable families), equals ``recurrence()``
    within a pinned band."""

    @pytest.mark.parametrize("spec, discretize, n, bands", _RECOVERY_SETS,
                             ids=[repr(spec) for spec, *_ in _RECOVERY_SETS])
    def test_recovered_recurrence_matches(self, spec, discretize, n, bands):
        err_a, err_b = _recovery_errors(spec, *discretize(spec), n)
        worst = max(err_a), max(err_b)
        assert worst[0] <= bands[0] and worst[1] <= bands[1], worst

    def test_short_interval_truncation_shows(self):
        # on [0, 60] the density's tail is cut where p_n^2 still weighs:
        # measured a_n off by 6.6e-9 at n = 20, 0.15 at n = 30, 0.48 at n = 39
        spec = ContinuousDualHahn(2.0, 1.0, 3.0)
        err_a, _ = _recovery_errors(spec, *_squared_variable(spec, 60.0, 50), 40)
        assert err_a[20] <= 1e-7 and err_a[39] >= 0.1

    @pytest.mark.parametrize("spec", [spec for spec, *_ in _RECOVERY_SETS if spec.kind == "cdh"]
                             + [ContinuousDualHahn(0.5, 0.5, 0.5)], ids=repr)
    def test_cdh_density_matches_mpmath(self, spec):
        # the oracle's continuous input, up to the discretization's x = 120:
        # measured at most 1.25e-12
        sigma = measure(spec).continuous.density
        with mpmath.workdps(30):
            for x in (0.01, 0.1, 0.5, 1.0, 2.0, 3.7, 5.0, 10.0, 20.0, 40.0, 80.0, 120.0):
                ref = _cdh_density_mp(spec, x)
                assert float(abs(sigma(x) - ref) / ref) <= 2e-12


def _unit_interval(draw, least_gap: float) -> float:
    """A parameter in (0, 1), log-uniform in its distance to the nearer end:
    down to 1e-8 from 0 and to ``least_gap`` from 1."""
    if draw(st.booleans()):
        return 10.0 ** draw(st.floats(-8.0, math.log10(0.5)))
    return 1.0 - 10.0 ** draw(st.floats(math.log10(least_gap), math.log10(0.5)))


@st.composite
def _lattice_family(draw):
    """A Charlier, Meixner or Krawtchouk family across its valid region:
    mu log-uniform in [1e-3, 1e3] (Charlier) or [1e-3, 1e2] (Meixner),
    beta in (0, 0.99] and gamma in (0, 1 - 1e-8] near either end as often
    as in between, and M log-uniform in [1, 2e4]."""
    kind = draw(st.sampled_from(("charlier", "meixner", "krawtchouk")))
    if kind == "charlier":
        return Charlier(10.0 ** draw(st.floats(-3.0, 3.0)))
    if kind == "meixner":
        return Meixner(10.0 ** draw(st.floats(-3.0, 2.0)), _unit_interval(draw, 1e-2))
    return Krawtchouk(round(10.0 ** draw(st.floats(0.0, math.log10(2e4)))), _unit_interval(draw, 1e-8))


def _lattice_truncation(spec, n: int) -> tuple[list, list, int]:
    """Points and masses of a lattice family from k = 0 to where orders
    below n are resolved, and the number of orders they resolve.  The cut
    comes from the measure's mean and spread: the order-n Gauss nodes reach
    about 2 sqrt(n) spreads past the mean, and in a heavy tail about 4n
    dispersion lengths (variance over mean: 1/(1-beta) for Meixner), so it
    lies 8 spreads and 4n lengths beyond those.  A mass within 2**52 of the
    subnormal range has lost bits or is the next one to, so only larger
    masses are kept.  The last b of a whole finite support is 0, and the
    last three orders before a cut depend on the masses it drops."""
    if spec.kind == "charlier":
        mean = variance = spec.mu
    elif spec.kind == "meixner":
        mean = 2.0 * spec.mu * spec.beta / (1.0 - spec.beta)
        variance = mean / (1.0 - spec.beta)
    else:
        mean = spec.M * spec.gamma
        variance = mean * (1.0 - spec.gamma)
    size = math.ceil(mean + (2.0 * math.sqrt(n) + 8.0) * math.sqrt(variance) + 8.0 * n * variance / mean)
    if spec.kind == "krawtchouk" and size > spec.M:
        points, masses = finite_support(measure(spec).discrete)
    else:
        points, masses = _lattice(spec, size)
    kept = [(x, m) for x, m in zip(points, masses) if m >= sys.float_info.min / sys.float_info.epsilon]
    whole = spec.kind == "krawtchouk" and len(kept) == spec.M + 1
    return [x for x, _ in kept], [m for _, m in kept], min(n, len(kept) - (1 if whole else 3))


# Bands on the errors of ``_recovery_errors`` (a, b) per family, about twice
# the worst measured over the sweep's draws and the corners of its region:
# Charlier 9.9e-15 and 3.5e-14 (mu = 1e3); Meixner 4.8e-13 and 1.2e-12
# (mu = 100, beta = 0.99, whose cut keeps 80687 points); Krawtchouk 2.0e-12
# (M = 2e4, gamma = 1e-3) and 4.0e-11 (M = 2e4, gamma = 1 - 1e-8).  The
# Krawtchouk masses are exp of log-gamma sums as large as ln Gamma(M+1), so
# at M = 2e4 they are themselves off by up to 3.6e-11 against mpmath.
_LATTICE_SWEEP_BANDS = {"charlier": (2e-14, 7e-14), "meixner": (1e-12, 2.5e-12),
                        "krawtchouk": (4e-12, 8e-11)}


class TestLatticeRecurrenceSweep:
    """Each lattice family's recurrence recovered from a truncation of its
    own measure, over parameters drawn across its valid region, equals
    ``recurrence()`` at every order below 40 that the truncation resolves."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(spec=_lattice_family())
    @example(spec=Charlier(1e3))
    @example(spec=Meixner(1e-3, 1e-8))
    @example(spec=Meixner(1e2, 1e-8))
    @example(spec=Meixner(1e2, 0.9))
    @example(spec=Krawtchouk(20000, 1e-8))
    @example(spec=Krawtchouk(20000, 0.5))
    @example(spec=Krawtchouk(20000, 1.0 - 1e-8))
    def test_recovered_recurrence_matches(self, spec):
        err_a, err_b = _recovery_errors(spec, *_lattice_truncation(spec, 40))
        worst = max(err_a), max(err_b)
        bands = _LATTICE_SWEEP_BANDS[spec.kind]
        assert worst[0] <= bands[0] and worst[1] <= bands[1], worst


@st.composite
def _squared_variable_region(draw):
    """A continuous dual Hahn or Wilson family across its valid region:
    every parameter log-uniform in [1e-3, 1e3] if mu > 0; otherwise -mu
    log-uniform in [1e-3, 10], a quarter of the draws within 1e-9 of -1 to
    -10, and each other p with p + mu log-uniform in [1e-6, 1e2]."""
    cls = draw(st.sampled_from((ContinuousDualHahn, Wilson)))
    count = len(dataclasses.fields(cls)) - 1
    if draw(st.booleans()):
        return cls(*(10.0 ** draw(st.floats(-3.0, 3.0)) for _ in range(count + 1)))
    if draw(st.integers(0, 3)) == 0:
        mu = draw(st.floats(-1e-9, 1e-9)) - draw(st.integers(1, 10))
    else:
        mu = -(10.0 ** draw(st.floats(-3.0, 1.0)))
    return cls(mu, *(10.0 ** draw(st.floats(-6.0, 2.0)) - mu for _ in range(count)))


def _resolved_squared_variable(spec, n: int) -> tuple[list, list]:
    """``_squared_variable`` on [0, upper], 100 panels, where upper is where
    y^(2n) times the density, y = x^2, the integrand of the highest moment
    that orders below n read, has fallen e^-120 below its peak (an e^-40
    cut reads 1e-9 in a_n); and the first panel graded down to 2^-6 of the
    distance d of the parameter nearest a pole of its Gamma(p + ix) at x =
    0, whose density changes within d of x = 0."""
    sigma = measure(spec).continuous.density
    peak, x = -math.inf, 0.05
    while True:
        density = sigma(x)
        ln = math.log(density) + 4 * n * math.log(x) if density > 0.0 else -math.inf
        if ln < peak - 120.0:
            break
        peak, x = max(peak, ln), 1.02 * x + 0.05
    h = x / 100
    d = min(abs(p - min(round(p), 0)) for p in dataclasses.astuple(spec))
    graded = math.ceil(math.log2(h / d)) + 6 if 0.0 < d < h else 0
    return _squared_variable(spec, x, 100, graded)


# Bands on the errors of ``_recovery_errors`` (a, b), about twice the worst
# measured over 150 draws and the examples below: 2.5e-13 and 1.9e-13, both
# at Wilson(615.7, 1e-3, 615.7, 1e-3).  When mu < 0 the a error is divided
# by mu^2 first: a point mass at y = -mu^2 sets the scale of the Lanczos
# procedure's rounding, so a_3 = 1 of continuous dual Hahn (-9, 10, 10)
# reads 1.2e-12 even from exactly rounded masses.  Ungraded panels read
# 1.0e-10 at Wilson(-3 - 1e-9, 3.5, 4, 5) and 2.1e-5 at continuous dual
# Hahn (1e-3, 1, 2).
_SQUARED_SWEEP_BANDS = (5e-13, 4e-13)


class TestSquaredVariableRecurrenceSweep:
    """Each squared-variable family's recurrence recovered from its own
    measure, density and point masses, over parameters drawn across its
    valid region, equals ``recurrence()`` at every order below 40."""

    @settings(max_examples=13, deadline=None, derandomize=True, database=None)
    @given(spec=_squared_variable_region())
    @example(spec=ContinuousDualHahn(1000.0, 1.0, 1.5))
    @example(spec=Wilson(-0.125, 0.25, 0.375, 0.5))
    @example(spec=Wilson(-0.25, 0.5, 0.75, 1.0))
    @example(spec=ContinuousDualHahn(-2.0 + 1e-9, 3.0, 4.5))
    @example(spec=Wilson(-3.0 - 1e-9, 3.5, 4.0, 5.0))
    def test_recovered_recurrence_matches(self, spec):
        err_a, err_b = _recovery_errors(spec, *_resolved_squared_variable(spec, 40), 40)
        worst = max(err_a) / max(1.0, min(spec.mu, 0.0) ** 2), max(err_b)
        assert worst[0] <= _SQUARED_SWEEP_BANDS[0] and worst[1] <= _SQUARED_SWEEP_BANDS[1], worst


@st.composite
def _squared_variable_family(draw):
    """A continuous dual Hahn or Wilson family from either parameter region:
    mu > 0 with the others in (0.05, 8), or mu in (-4.95, -0.05), some draws
    within 1e-9 of a negative integer, with each other p having p + mu in
    (0.02, 5)."""
    cls = draw(st.sampled_from((ContinuousDualHahn, Wilson)))
    count = len(dataclasses.fields(cls)) - 1
    if draw(st.booleans()):
        mu = draw(st.floats(0.05, 8.0))
        return cls(mu, *draw(st.lists(st.floats(0.05, 8.0), min_size=count, max_size=count)))
    near = st.builds(lambda k, e: e - k, st.integers(1, 4), st.floats(-1e-9, 1e-9))
    mu = draw(st.one_of(st.floats(-4.95, -0.05), near))
    shifted = draw(st.lists(st.floats(0.02, 5.0), min_size=count, max_size=count))
    return cls(mu, *(s - mu for s in shifted))


# Relative error bands against mpmath (30 digits), about twice the worst
# measured over the sweep's 80 draws: the density within 3.1e-14 for
# x <= 2.5, 2.3e-13 at x = 7 and 6.1e-13 at x = 20, every mass within 1.8e-14.
_SWEEP_DENSITY_BANDS = {0.3: 6e-14, 1.0: 6e-14, 2.5: 6e-14, 7.0: 5e-13, 20.0: 1.2e-12}
_SWEEP_MASS_BAND = 3.5e-14


@st.composite
def _many_mass_family(draw):
    """A continuous dual Hahn or Wilson family with 5 to 40 point masses:
    mu in (-40, -5), a quarter of the draws within 1e-9 of a negative
    integer, and each other p with p + mu in [1e-12, 1e-3], (0.02, 5) or
    (5, 50)."""
    cls = draw(st.sampled_from((ContinuousDualHahn, Wilson)))
    count = len(dataclasses.fields(cls)) - 1
    if draw(st.integers(0, 3)) == 0:
        mu = draw(st.floats(-1e-9, 1e-9)) - draw(st.integers(6, 39))
    else:
        mu = draw(st.floats(-40.0, -5.0, exclude_min=True, exclude_max=True))
    shift = st.one_of(st.floats(-12.0, -3.0).map(lambda e: 10.0 ** e),
                      st.floats(0.02, 5.0, exclude_min=True, exclude_max=True),
                      st.floats(5.0, 50.0, exclude_min=True, exclude_max=True))
    return _shifted(cls, mu, *draw(st.lists(shift, min_size=count, max_size=count)))


def _shifted(cls, mu: float, *shifts: float):
    """The family with this mu and each other parameter p = shift - mu."""
    return cls(mu, *(s - mu for s in shifts))


# Relative error against mpmath (30 digits), measured over 160 draws of
# ``_many_mass_family``: at most 2.5e-13 (continuous dual Hahn) and 6.5e-13
# (Wilson, mu = -40 + 1e-14 with each p + mu = 0.02, at k = 37); over this
# test's 40 draws, 2.2e-13 and 2.9e-13.  It grows with the number of
# Pochhammer factors summed in log space.
_MANY_MASS_BAND = 8e-13


class TestHandbookSweep:
    """Both squared-variable measures against the handbook's formulas over
    their whole parameter region, not only at fixed sets."""

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(spec=_squared_variable_family())
    def test_measure_matches_handbook(self, spec):
        density_mp, mass_mp = ((_wilson_density_mp, _wilson_mass_mp) if spec.kind == "wilson"
                               else (_cdh_density_mp, _cdh_mass_mp))
        ms = measure(spec)
        size = 0 if ms.discrete is None else ms.discrete.size
        with mpmath.workdps(30):
            assert size == sum(1 for k in range(5) if mpmath.mpf(spec.mu) + k < 0)
            for x, band in _SWEEP_DENSITY_BANDS.items():
                ref = density_mp(spec, x)
                err = float(abs(ms.continuous.density(x) - ref) / ref)
                assert err <= band, (x, err)
            for k in range(size):
                ref = mass_mp(spec, k)
                err = float(abs((ms.discrete.mass_at(k) - ref) / ref))
                assert err <= _SWEEP_MASS_BAND, (k, err)

    @settings(max_examples=36, deadline=None, derandomize=True, database=None)
    @given(spec=_many_mass_family())
    @example(spec=_shifted(ContinuousDualHahn, -40.0 + 1e-9, 1e-12, 49.99))
    @example(spec=_shifted(Wilson, -40.0 + 1e-9, 1e-12, 1e-3, 49.99))
    @example(spec=_shifted(ContinuousDualHahn, -5.0 - 1e-9, 1e-12, 49.99))
    @example(spec=_shifted(Wilson, -39.5, 49.99, 1e-12, 4.99))
    def test_many_masses_match_handbook(self, spec):
        # k reaches 39: each Pochhammer product has up to 39 factors, and
        # (2mu)_k and each (mu-p+1)_k change sign with every one of them
        mass_mp = _wilson_mass_mp if spec.kind == "wilson" else _cdh_mass_mp
        d = measure(spec).discrete
        with mpmath.workdps(30):
            assert d.size == sum(1 for k in range(41) if mpmath.mpf(spec.mu) + k < 0)
            for k in range(d.size):
                xi, ref = d.mass_at(k), mass_mp(spec, k)
                err = float(abs((xi - ref) / ref))
                assert xi > 0.0 and err <= _MANY_MASS_BAND, (k, xi, err)


def _exact_recurrence(spec, n: int) -> tuple[Fraction, Fraction]:
    """a_n and b_n^2 of a squared-variable family in exact arithmetic on its
    float parameters, from the handbook's a_n = A_n + C_n - mu^2 and b_n^2 =
    A_n C_{n+1} (KLS 2010, sec. 9.1 and 9.3), in the parameters' given order;
    for Wilson A_n and C_n carry their (2n+s) factors, cancelled at n = 0."""
    params = [Fraction(v) for v in dataclasses.astuple(spec)]
    mu, *others = params
    s = sum(params)

    def big_a(n):
        return math.prod(n + mu + p for p in others)

    def big_c(n):
        return n * math.prod(n + p + q - 1 for p, q in itertools.combinations(others, 2))

    if spec.kind == "cdh":
        return big_a(n) + big_c(n) - mu * mu, big_a(n) * big_c(n + 1)
    up = big_a(n) / s if n == 0 else big_a(n) * (n + s - 1) / ((2 * n + s) * (2 * n + s - 1))
    down = big_c(n) / ((2 * n + s - 1) * (2 * n + s - 2)) if n > 0 else 0
    return up + down - mu * mu, up * big_c(n + 1) / ((2 * n + s + 1) * (2 * n + s))


def _recurrence_digit_errors(spec, orders: int = 40) -> tuple[float, float]:
    """The worst error over n < orders of ``recurrence(spec)`` against
    ``_exact_recurrence``: a_n relative to max(1, |a_n|), b_n relative to the
    60-digit mpmath square root of b_n^2."""
    stream = recurrence(spec)
    err_a = err_b = 0.0
    with mpmath.workdps(60):
        for n in range(orders):
            a, b_sq = _exact_recurrence(spec, n)
            err_a = max(err_a, float(abs(Fraction(stream.a(n)) - a) / max(1, abs(a))))
            ref = mpmath.sqrt(mpmath.mpf(b_sq.numerator) / b_sq.denominator)
            err_b = max(err_b, float(abs(-stream.b(n) - ref) / ref))
    return err_a, err_b


@st.composite
def _large_parameter_family(draw):
    """A continuous dual Hahn or Wilson family with every parameter
    log-uniform in [1e-3, 1e12]."""
    cls = draw(st.sampled_from((ContinuousDualHahn, Wilson)))
    count = len(dataclasses.fields(cls))
    exponents = draw(st.lists(st.floats(-3.0, 12.0), min_size=count, max_size=count))
    return cls(*(10.0 ** e for e in exponents))


# Bands on the errors of ``_recurrence_digit_errors`` (a, b) over the
# derandomized draws below.  Measured with every parameter log-uniform in
# [1e-3, 1e12]: at most 8.3e-16 and 7.3e-16, where unsorted parameters put
# a_n off by up to 2.7e3.  Measured in the mu < 0 region of
# ``_squared_variable_family``, where mu is already the smallest parameter
# and A_n + C_n - mu^2 still cancels at small n: at most 7.0e-15 and 6.5e-16
# (1.05e-14 in a with the other parameters unsorted).
_LARGE_PARAMETER_BANDS = (1e-15, 1e-15)
_NEGATIVE_MU_BANDS = (1e-14, 1e-15)


class TestRecurrenceDigits:
    """The squared-variable recurrences keep their digits for parameters of
    any size: the parameters are sorted, so a large one never sits in the
    mu^2 shift of a_n.  A negative mu is the smallest and still cancels
    there, to a few ulps."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(spec=_large_parameter_family())
    def test_large_parameters_keep_their_digits(self, spec):
        errors = _recurrence_digit_errors(spec)
        assert all(e <= band for e, band in zip(errors, _LARGE_PARAMETER_BANDS)), errors

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(spec=_squared_variable_family().filter(lambda spec: spec.mu < 0.0))
    def test_negative_mu_keeps_its_digits(self, spec):
        errors = _recurrence_digit_errors(spec)
        assert all(e <= band for e, band in zip(errors, _NEGATIVE_MU_BANDS)), errors

    @pytest.mark.parametrize("spec", [
        ContinuousDualHahn(1e8, 1.0, 1.5),
        Wilson(1e8, 1.0, 1.5, 2.0),
        Wilson(-0.5, 1.0, 1.2, 1.4),
    ], ids=repr)
    def test_permuted_parameters_compute_equal_bits(self, spec):
        # a negative mu stays in its slot; the other parameters may move
        mu, *others = dataclasses.astuple(spec)
        orders = ([(mu, *order) for order in itertools.permutations(others)] if mu < 0.0
                  else itertools.permutations((mu, *others)))
        expected = recurrence(spec)
        for params in orders:
            stream = recurrence(type(spec)(*params))
            for n in range(40):
                assert (stream.a(n), stream.b(n)) == (expected.a(n), expected.b(n)), (params, n)


class TestCustom:
    def test_custom_carries_its_pieces(self):
        st = RecurrenceStream(a=lambda n: 0.0, b=lambda n: -1.0)
        ms = MeasureSpec(continuous=ContinuousPart(lambda x: 0.5, (-1.0, 1.0)))
        spec = Custom(st, ms)
        assert recurrence(spec) is st
        assert measure(spec) is ms

    def test_discrete_part_rejects_nonpositive_mass(self):
        d = DiscretePart(point_at=float, mass_at=lambda k: k - 1.0, size=3)
        with pytest.raises(NumericalError, match="not positive"):
            d.weighted_sum(lambda x: 1.0)  # mass -1 at k=0



def _unread_coefficient(n):
    raise AssertionError(f"coefficient {n} read")


class TestMaximumOrder:
    """Orders and sizes up to families.MAX_ORDER = 2**16 pass their check;
    a larger one is a ValidationError naming the bound, raised before any
    coefficient is read or any list is made."""

    def test_the_bound_itself_passes(self):
        assert families.MAX_ORDER == 2**16
        families.require_count("order", families.MAX_ORDER)
        recurrence(Charlier(2.0)).require_order(families.MAX_ORDER)
        # a Functional builds nothing until it is approximated
        assert Functional("weighted_sum", math.exp, Charlier(2.0), 2**16).order == 2**16

    @pytest.mark.parametrize("n", [2**16 + 1, 99999999999, 10**400])
    def test_above_the_bound_is_refused_first(self, n):
        stream = RecurrenceStream(a=_unread_coefficient, b=_unread_coefficient)
        custom = Custom(stream, MeasureSpec(continuous=ContinuousPart(lambda x: 1.0, (0.0, 1.0))))
        assert custom.kind == "custom"
        for refuse, name in [
            (lambda: build(recurrence(custom), n), "order"),
            (lambda: build(recurrence(Charlier(2.0)), n), "order"),
            (lambda: Functional("weighted_sum", math.exp, Charlier(2.0), n), "order"),
            (lambda: quadsum.apply.spectral_reference(custom, math.exp, n), "size"),
        ]:
            with pytest.raises(ValidationError) as info:
                refuse()
            assert str(info.value) == f"{name} must be <= 65536, got {n}"


def _unreadable(k):
    raise RuntimeError(f"support read at k={k}")


class TestFiniteSupportChecks:
    """A finite support is evaluated and checked by weighted_sum, not by the
    constructor, and a bad one fails before the integrand is called."""

    @staticmethod
    def _counting_integrand():
        calls = []
        return calls, lambda x: calls.append(x) or 1.0

    def test_construction_reads_no_point_or_mass(self):
        d = DiscretePart(point_at=_unreadable, mass_at=_unreadable, size=5)
        assert d.finite and d.size == 5

    # A zero mass is a mass: the check passes xi_2 = 0.0 and stops at
    # xi_3 = -0.5.
    @pytest.mark.parametrize("mass_at, message", [
        (lambda k: 1.0 - k / 2.0, "discrete mass xi_3 = -0.5 is not positive"),
        (lambda k: math.nan, "discrete mass xi_0 = nan is not positive"),
    ], ids=["zero", "nan"])
    def test_bad_mass_raises_before_f(self, mass_at, message):
        d = DiscretePart(point_at=float, mass_at=mass_at, size=4)
        calls, f = self._counting_integrand()
        with pytest.raises(NumericalError) as exc:
            d.weighted_sum(f)
        assert str(exc.value) == message
        assert calls == []

    def test_non_finite_term_names_its_point(self):
        d = DiscretePart(point_at=float, mass_at=lambda k: 0.5, size=2)
        with pytest.raises(NumericalError) as exc:
            d.weighted_sum(lambda x: math.inf)
        assert str(exc.value) == "weighted sum term is not finite at point 0.0"

    def test_zero_masses_are_masses(self):
        # all four point masses underflow to 0.0, so the continuous part is
        # the whole mixed value
        spec = ContinuousDualHahn(-3.5, 2000.0, 2000.0)
        discrete = measure(spec).discrete
        assert [discrete.mass_at(k) for k in range(discrete.size)] == [0.0] * 4
        mixed, continuous = (approximate(Functional(kind, lambda y: 1.0, spec, 8))
                             for kind in ("mixed", "continuous_part"))
        assert continuous == mixed == pytest.approx(1.0, abs=1e-14)

    def test_non_increasing_points_raise_before_f(self):
        points = (0.0, 1.0, 1.0, 2.0)
        d = DiscretePart(point_at=points.__getitem__, mass_at=lambda k: 0.25, size=4)
        calls, f = self._counting_integrand()
        with pytest.raises(NumericalError) as exc:
            d.weighted_sum(f)
        assert str(exc.value) == "discrete points are not strictly increasing"
        assert calls == []

    def test_masses_are_checked_before_points(self):
        points = (2.0, 1.0, 0.0)
        d = DiscretePart(point_at=points.__getitem__, mass_at=lambda k: k - 1.0, size=3)
        with pytest.raises(NumericalError) as exc:
            d.weighted_sum(lambda x: 1.0)
        assert str(exc.value) == "discrete mass xi_0 = -1.0 is not positive"

    def test_good_support_calls_f_once_per_point(self):
        d = measure(Krawtchouk(6, 0.3)).discrete
        calls, f = self._counting_integrand()
        assert d.weighted_sum(f) == pytest.approx(1.0, abs=1e-14)
        assert calls == [float(k) for k in range(7)]

    def test_custom_family_with_unreadable_masses_approximates(self):
        # the Gauss rule needs only the recurrence and plain sums only the
        # mass continuation, so neither reads the point masses
        kraw = Krawtchouk(20, 0.3)
        discrete = DiscretePart(
            point_at=_unreadable,
            mass_at=_unreadable,
            size=21,
            density=measure(kraw).discrete.density,
        )
        spec = Custom(recurrence(kraw), MeasureSpec(discrete=discrete))
        assert measure(spec).discrete is discrete
        total = approximate(Functional("weighted_sum", lambda x: 1.0, spec, 5))
        assert total == pytest.approx(1.0, abs=1e-13)
        for kind, f in (("weighted_sum", lambda x: x * x), ("plain_sum", math.sqrt)):
            got = approximate(Functional(kind, f, spec, 5))
            assert got == approximate(Functional(kind, f, kraw, 5)), kind
        with pytest.raises(RuntimeError, match="support read at k=0"):
            discrete.weighted_sum(lambda x: 1.0)
