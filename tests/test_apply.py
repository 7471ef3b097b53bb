"""Tests for functional application, oracles, and the adaptive integrator."""

import math

import pytest
from scipy.integrate import quad

from quadsum.apply import (
    Functional,
    adaptive_integral,
    approximate,
    continuous_part_estimate,
    exact_exponential_sum,
    exact_shifted_power_sum,
    relative_error,
    spectral_reference,
)
from quadsum.eig import decompose
from quadsum.errors import NumericalError, ValidationError
from quadsum.families import (
    Charlier,
    ContinuousDualHahn,
    ContinuousPart,
    Custom,
    MeasureSpec,
    Meixner,
    measure,
    recurrence,
)
from quadsum.jacobi import build, matrix_function_element
from quadsum.special import ln_gamma


def _t1_f(x: float) -> float:
    return math.exp(x * math.log(3.0) - ln_gamma(x + 1.0))


def _t3_f(y: float) -> float:
    if y > 1400.0:
        return 0.0
    return y**3 * math.exp(-0.5 * y)


CDH = ContinuousDualHahn(-3.5, 4.5, 4.5)


class TestFunctionalValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValidationError, match="kind"):
            Functional("sum", lambda x: x, Charlier(2.0), 3)

    def test_bad_order(self):
        with pytest.raises(ValidationError, match="order"):
            Functional("plain_sum", lambda x: x, Charlier(2.0), 0)

    def test_kind_family_compatibility(self):
        with pytest.raises(ValidationError, match="continuous"):
            approximate(Functional("weighted_integral", lambda x: 1.0, Charlier(2.0), 3))
        with pytest.raises(ValidationError, match="discrete"):
            approximate(Functional("plain_sum", lambda x: 1.0, CDH, 3))
        with pytest.raises(ValidationError, match="both"):
            approximate(Functional("mixed", lambda x: 1.0, Charlier(2.0), 3))
        with pytest.raises(ValidationError, match="purely continuous"):
            approximate(Functional("plain_integral", lambda x: 1.0, CDH, 3))


class TestApproximate:
    def test_constant_integrand_gives_total_mass(self):
        v = approximate(Functional("weighted_sum", lambda x: 1.0, Charlier(2.0), 6))
        assert v == pytest.approx(1.0, abs=1e-12)

    def test_linear_integrand_gives_mean(self):
        v = approximate(Functional("weighted_sum", lambda x: x, Charlier(2.0), 2))
        assert v == pytest.approx(2.0, rel=1e-13)

    def test_plain_sum_reproduces_exponential(self):
        v = approximate(Functional("plain_sum", _t1_f, Charlier(2.0), 7))
        err = relative_error(exact_exponential_sum(3.0), v)
        assert 4.165e-11 / 5.0 <= err <= 4.165e-11 * 5.0

    def test_weighted_integral_on_continuous_family(self):
        spec = ContinuousDualHahn(2.0, 1.0, 3.0)
        v = approximate(Functional("weighted_integral", lambda x: 1.0, spec, 5))
        assert v == pytest.approx(1.0, abs=1e-12)

    def test_mixed_squared_arg_constant(self):
        v = approximate(Functional("mixed_squared_arg", lambda y: 1.0, CDH, 8))
        assert v == pytest.approx(1.0, abs=1e-12)

    def test_nonfinite_integrand_reports_node(self):
        with pytest.raises(NumericalError, match="node"):
            approximate(Functional("weighted_sum", lambda x: math.inf, Charlier(2.0), 3))

    def test_exactness_transfer_for_mixed_measure(self):
        # monomials of degree <= 2N-1 in the squared variable integrate to
        # the matrix-power moments
        from quadsum.jacobi import power_element

        st = recurrence(CDH)
        for n in (3, 6, 10):
            for k in range(2 * n):
                fn = Functional("mixed_squared_arg", lambda y, k=k: y**k, CDH, n)
                lhs = approximate(fn)
                rhs = power_element(st, k, 0, 0)
                assert abs(lhs - rhs) <= 1e-9 * abs(rhs), f"N={n} k={k}"

    def test_plain_integral_via_custom_uniform_family(self):
        # orthonormal family of the uniform density 1/2 on [-1, 1]; the plain
        # integral of x^2 over [-1, 1] is 2/3
        from quadsum.families import RecurrenceStream

        stream = RecurrenceStream(
            a=lambda n: 0.0,
            b=lambda n: -(n + 1) / math.sqrt((2 * n + 1) * (2 * n + 3)),
        )
        ms = MeasureSpec(continuous=ContinuousPart(lambda x: 0.5, (-1.0, 1.0)))
        spec = Custom(stream, ms)
        v = approximate(Functional("plain_integral", lambda x: x * x, spec, 6))
        assert v == pytest.approx(2.0 / 3.0, rel=1e-12)


class TestContinuousPartEstimate:
    def test_constant_gives_continuous_mass(self):
        # 1 - sum(xi) = 1/70 for these parameters (hand evaluation)
        fn = Functional("continuous_part", lambda y: 1.0, CDH, 12)
        assert continuous_part_estimate(fn) == pytest.approx(1.0 / 70.0, abs=1e-12)

    def test_zero_integrand(self):
        fn = Functional("continuous_part", lambda y: 0.0, CDH, 6)
        assert continuous_part_estimate(fn) == 0.0

    def test_matches_adaptive_integration(self):
        fn = Functional("continuous_part", _t3_f, CDH, 100)
        est = continuous_part_estimate(fn)
        sigma = measure(CDH).continuous.density
        ref = adaptive_integral(lambda x: sigma(x) * _t3_f(x * x), 0.0, math.inf, tol=1e-12)
        assert relative_error(ref, est) < 1e-6

    def test_routed_through_approximate(self):
        fn = Functional("continuous_part", lambda y: 1.0, CDH, 12)
        assert approximate(fn) == continuous_part_estimate(fn)

    def test_requires_both_components(self):
        with pytest.raises(ValidationError, match="both"):
            continuous_part_estimate(
                Functional("continuous_part", lambda x: 1.0, Charlier(2.0), 4)
            )

    def test_requires_finite_discrete_part(self):
        charlier_measure = measure(Charlier(2.0))
        hybrid = Custom(
            recurrence(Charlier(2.0)),
            MeasureSpec(
                continuous=ContinuousPart(lambda x: 0.0, (0.0, 1.0)),
                discrete=charlier_measure.discrete,
            ),
        )
        with pytest.raises(ValidationError, match="finite"):
            continuous_part_estimate(
                Functional("continuous_part", lambda x: 1.0, hybrid, 4)
            )

    def test_consistency_with_mixed_sum(self):
        # quadrature = continuous estimate + discrete sum, up to association
        # of the floating-point subtraction
        fn = Functional("mixed_squared_arg", _t3_f, CDH, 40)
        quadrature = approximate(fn)
        est = continuous_part_estimate(fn)
        disc = measure(CDH).discrete.weighted_sum(_t3_f)
        assert est + disc == pytest.approx(quadrature, rel=1e-15)


class TestMatrixElement:
    def test_constant_function(self):
        j = build(recurrence(Charlier(2.0)), 6)
        assert matrix_function_element(j, lambda t: 1.0, 1, 1) == pytest.approx(1.0, abs=1e-13)
        assert matrix_function_element(j, lambda t: 1.0, 0, 2) == pytest.approx(0.0, abs=1e-13)

    def test_linear_function(self):
        st = recurrence(Charlier(2.0))
        got = matrix_function_element(build(recurrence(Charlier(2.0)), 6), lambda t: t, 0, 1)
        assert got == pytest.approx(st.b(0), rel=1e-13)

    def test_square(self):
        j = build(recurrence(Charlier(2.0)), 5)
        assert matrix_function_element(j, lambda t: t * t, 0, 0) == pytest.approx(6.0, rel=1e-12)

    def test_index_validation(self):
        with pytest.raises(ValidationError):
            matrix_function_element(build(recurrence(Charlier(2.0)), 3), lambda t: t, 3, 0)


class TestRelativeError:
    def test_equal(self):
        assert relative_error(2.0, 2.0) == 0.0

    def test_one_zero(self):
        assert relative_error(1.0, 0.0) == 1.0

    def test_half(self):
        assert relative_error(3.0, 1.0) == 0.5

    def test_degenerate(self):
        with pytest.raises(ValidationError):
            relative_error(1.0, -1.0)


class TestOracles:
    def test_exponential_sum(self):
        assert exact_exponential_sum(3.0) == math.exp(3.0)
        assert exact_exponential_sum(1.0) == math.exp(1.0)
        with pytest.raises(ValidationError):
            exact_exponential_sum(0.0)

    def test_shifted_power_sum_small_m(self):
        r = 3.0
        expected = 1.0 / math.gamma(r) - r**2 / math.gamma(r + 2.0)
        assert exact_shifted_power_sum(r, 0) == pytest.approx(expected, rel=1e-14)

    def test_shifted_power_sum_is_half_at_m100(self):
        # the subtracted tail is ~1e-117, far below double resolution, so the
        # result is bit-identical to the leading term 1/Gamma(3) ~ 0.5
        value = exact_shifted_power_sum(3.0, 100)
        assert value == pytest.approx(0.5, rel=1e-14)
        assert value == math.exp(-ln_gamma(3.0))

    def test_shifted_power_sum_brute_force(self):
        r, m = 3.0, 100
        brute = math.fsum(
            (k + 1) * math.exp((k + 1) * math.log(r) - math.lgamma(k + r + 2))
            for k in range(m + 1)
        )
        assert exact_shifted_power_sum(r, m) == pytest.approx(brute, rel=1e-14)

    def test_spectral_reference_equals_full_row_zero_sum(self):
        # the first-row route must give the bits of the full-matrix route
        spec = ContinuousDualHahn(-3.5, 5.5, 5.5)
        dec = decompose(build(recurrence(spec), 60), mode="full")
        full_sum = math.fsum(
            l * _t3_f(float(eps)) * l
            for eps, l in zip(dec.eigenvalues, dec.full_matrix[0])
        )
        assert spectral_reference(spec, _t3_f, 60) == full_sum

    def test_spectral_reference_trivials(self):
        assert spectral_reference(CDH, lambda t: 1.0, 40) == pytest.approx(1.0, abs=1e-12)
        assert spectral_reference(CDH, lambda t: t, 40) == pytest.approx(-11.25, rel=1e-12)
        with pytest.raises(ValidationError):
            spectral_reference(CDH, lambda t: t, 0)


class TestAdaptiveIntegral:
    def test_polynomial(self):
        assert adaptive_integral(lambda x: x * x, 0.0, 1.0) == pytest.approx(
            1.0 / 3.0, rel=1e-12
        )

    def test_decaying_exponential_to_infinity(self):
        assert adaptive_integral(lambda x: math.exp(-x), 0.0, math.inf) == pytest.approx(
            1.0, rel=1e-10
        )

    def test_cdh_density_total(self):
        sigma = measure(CDH).continuous.density
        got = adaptive_integral(sigma, 0.0, math.inf, tol=1e-10)
        assert got == pytest.approx(1.0 / 70.0, rel=1e-9)

    def test_against_scipy(self):
        sigma = measure(ContinuousDualHahn(2.0, 1.0, 3.0)).continuous.density
        ref, _ = quad(sigma, 0.0, math.inf, limit=300)
        got = adaptive_integral(sigma, 0.0, math.inf, tol=1e-11)
        assert got == pytest.approx(ref, rel=1e-9)

    def test_subdivision_limit(self):
        spiky = lambda x: abs(x - 0.3) ** -0.5
        with pytest.raises(NumericalError, match="subdivision"):
            adaptive_integral(spiky, 0.0, 1.0, tol=1e-12, max_depth=20)

    def test_bad_interval(self):
        with pytest.raises(ValidationError):
            adaptive_integral(lambda x: x, 1.0, 0.0)
