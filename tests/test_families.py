"""Tests for the polynomial family catalog."""

import math
import time

import numpy as np
import pytest

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
    TruncationPolicy,
    Wilson,
    eval_poly,
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
        assert math.fsum(d.masses) == pytest.approx(1.0, abs=1e-14)
        assert all(xi > 0.0 for xi in d.masses)

    def test_cdh_discrete_points_and_masses(self):
        # hand evaluation for mu=-3.5, alpha=beta=4.5: the Pochhammer factors
        # collapse to xi_k = (3.5-k) k! (7-k)! / (4 * 7!)
        ms = measure(ContinuousDualHahn(-3.5, 4.5, 4.5))
        d = ms.discrete
        assert d.points == pytest.approx((-12.25, -6.25, -2.25, -0.25))
        assert d.masses == pytest.approx(
            (7.0 / 8.0, 5.0 / 56.0, 1.0 / 56.0, 1.0 / 280.0), rel=1e-12
        )
        assert ms.continuous.support == (0.0, math.inf)
        assert ms.continuous.density(0.0) == 0.0
        assert ms.continuous.density(1.0) > 0.0

    def test_cdh_positive_mu_has_no_discrete_part(self):
        ms = measure(ContinuousDualHahn(2.0, 1.0, 3.0))
        assert ms.discrete is None
        assert ms.continuous is not None

    def test_wilson_masses_positive(self):
        d = measure(Wilson(-3.5, 4.5, 5.5, 6.5)).discrete
        assert d.size == 4
        assert all(xi > 0.0 for xi in d.masses)

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

    def test_max_terms_cap(self):
        d = measure(Charlier(2.0)).discrete
        short = d.weighted_sum(lambda x: 1.0, TruncationPolicy(max_terms=3))
        # first three masses only
        expected = math.fsum(d.mass_at(k) for k in range(3))
        assert short == pytest.approx(expected, rel=1e-15)

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
        d = measure(spec).discrete
        for n in range(11):
            for m in range(n + 1):
                s = math.fsum(
                    xi * eval_poly(st, n, x) * eval_poly(st, m, x)
                    for x, xi in zip(d.points, d.masses)
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
        with pytest.raises(NumericalError, match="not positive"):
            DiscretePart(
                point_at=float, mass_at=lambda k: float(k), size=3
            )  # mass 0 at k=0
