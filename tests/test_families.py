"""Tests for the polynomial family catalog."""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from oracles import eval_poly, finite_support
from quadsum import families
from quadsum.apply import Functional, approximate
from quadsum.errors import NumericalError, ValidationError
from quadsum.families import (
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
        assert d.weighted_sum(lambda x: 1.0) == pytest.approx(1.0, abs=1e-13)

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

    @pytest.mark.parametrize("spec, calls", [
        (ContinuousDualHahn(-3.5, 4.5, 4.5), 20),
        (Wilson(-3.5, 4.5, 5.5, 6.5), 28),
    ], ids=["cdh", "wilson"])
    def test_squared_variable_masses_are_evaluated_only_when_summed(
        self, monkeypatch, spec, calls
    ):
        seen = []
        counted = families.ln_pochhammer_signed

        def counting(a, n):
            seen.append((a, n))
            return counted(a, n)

        monkeypatch.setattr(families, "ln_pochhammer_signed", counting)
        d = measure(spec).discrete
        assert (d.size, seen) == (4, [])
        assert d.weighted_sum(lambda y: 1.0) > 0.0
        assert len(seen) == calls

    @pytest.mark.parametrize("mu, size", [
        (-3.0, 3), (-0.3, 1), (math.nextafter(-3.0, 0.0), 3), (math.nextafter(-3.0, -4.0), 4),
    ])
    def test_squared_variable_support_size(self, mu, size):
        d = measure(ContinuousDualHahn(mu, 4.5, 4.5)).discrete
        assert d.size == size
        assert d.point_at(size - 1) == -((size - 1 + mu) ** 2) < 0.0

    def test_vanishing_pochhammer_denominator_raises_before_f(self):
        # (0)_1 = 0 in the denominator of the k = 1 mass
        d = families._squared_variable_masses(
            -2.5, 0.0, poch_up=(1.0,), poch_down=(0.0,), alternating_sign=False
        )
        calls = []
        with pytest.raises(NumericalError) as exc:
            d.weighted_sum(lambda y: calls.append(y) or 1.0)
        assert str(exc.value) == "discrete mass xi_1 = nan is not positive"
        assert calls == []

    def test_density_decays_at_large_argument(self):
        sigma = measure(ContinuousDualHahn(-3.5, 4.5, 4.5)).continuous.density
        assert sigma(50.0) < sigma(5.0)
        assert sigma(400.0) == 0.0  # underflows cleanly instead of raising

    def test_measure_needs_a_component(self):
        with pytest.raises(ValidationError):
            MeasureSpec()


class TestTruncationPolicy:
    def test_default_policy_terminates(self):
        d = measure(Charlier(2.0)).discrete
        total = d.weighted_sum(lambda x: 1.0)
        assert total == pytest.approx(1.0, abs=1e-13)

    def test_max_terms_cap(self, monkeypatch):
        d = measure(Charlier(2.0)).discrete
        monkeypatch.setattr(families, "SUM_MAX_TERMS", 3)
        # three terms cannot meet the tail test: an error, not a truncated total
        with pytest.raises(NumericalError, match="SUM_MAX_TERMS = 3 terms"):
            d.weighted_sum(lambda x: 1.0)

    def test_sum_converging_on_its_last_allowed_term(self, monkeypatch):
        d = measure(Charlier(2.0)).discrete
        points = []
        total = d.weighted_sum(lambda x: points.append(x) or 1.0)
        monkeypatch.setattr(families, "SUM_MAX_TERMS", len(points))
        assert d.weighted_sum(lambda x: 1.0) == total
        assert total == pytest.approx(1.0, abs=1e-13)

    def test_nan_integrand_fails_at_first_point(self):
        d = measure(Charlier(2.0)).discrete
        start = time.perf_counter()
        with pytest.raises(NumericalError, match="point 0.0"):
            d.weighted_sum(lambda x: math.nan)
        assert time.perf_counter() - start < 0.5

    def test_infinite_terms_on_finite_measure(self):
        d = measure(Krawtchouk(5, 0.3)).discrete
        f = lambda x: math.inf if x == 2.0 else (-math.inf if x == 4.0 else 1.0)
        with pytest.raises(NumericalError, match="point 2.0"):
            d.weighted_sum(f)

    def test_zero_hits_do_not_stop_early(self):
        # an integrand vanishing at isolated points must not trigger the cutoff
        d = measure(Charlier(2.0)).discrete
        f = lambda x: 0.0 if x == 1.0 else 1.0
        total = d.weighted_sum(f)
        assert total == pytest.approx(1.0 - d.mass_at(1), abs=1e-13)


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
                s = d.weighted_sum(lambda x: eval_poly(st, n, x) * eval_poly(st, m, x))
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


class TestCustom:
    def test_custom_carries_its_pieces(self):
        st = RecurrenceStream(a=lambda n: 0.0, b=lambda n: -1.0)
        ms = MeasureSpec(continuous=ContinuousPart(lambda x: 0.5, (-1.0, 1.0)))
        spec = Custom(st, ms)
        assert recurrence(spec) is st
        assert measure(spec) is ms

    def test_discrete_part_rejects_nonpositive_mass(self):
        d = DiscretePart(point_at=float, mass_at=lambda k: float(k), size=3)
        with pytest.raises(NumericalError, match="not positive"):
            d.weighted_sum(lambda x: 1.0)  # mass 0 at k=0


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

    @pytest.mark.parametrize("mass_at, message", [
        (lambda k: 1.0 - k / 2.0, "discrete mass xi_2 = 0.0 is not positive"),
        (lambda k: math.nan, "discrete mass xi_0 = nan is not positive"),
    ], ids=["zero", "nan"])
    def test_bad_mass_raises_before_f(self, mass_at, message):
        d = DiscretePart(point_at=float, mass_at=mass_at, size=4)
        calls, f = self._counting_integrand()
        with pytest.raises(NumericalError) as exc:
            d.weighted_sum(f)
        assert str(exc.value) == message
        assert calls == []

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
