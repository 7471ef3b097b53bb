"""Tests for the scalar special functions, and for the test oracles' complex
log-gamma and Gamma against mpmath."""

import math

import mpmath as mp
import numpy as np
import pytest

from oracles import gamma, ln_abs_gamma_sq
from quadsum.errors import ValidationError
from quadsum.special import ln_gamma


class TestLnGamma:
    def test_at_one(self):
        assert abs(ln_gamma(1.0)) < 5e-15

    def test_factorial_value(self):
        assert ln_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)

    def test_half_integer(self):
        # Gamma(1/2) = sqrt(pi)
        assert ln_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-14)

    @pytest.mark.parametrize("x", np.geomspace(0.5, 1e6, 40).tolist())
    def test_against_stdlib(self, x):
        # The bits of math.lgamma, which is no independent reference: the
        # accuracy check is against mpmath.
        assert ln_gamma(x) == math.lgamma(x)
        with mp.workdps(40):
            ref = float(mp.loggamma(x))
        assert ln_gamma(x) == pytest.approx(ref, rel=1e-13, abs=1e-14)

    def test_ulp_error_on_grid(self):
        # Worst case 6.7 ulp (at x = 2.977); a Lanczos series evaluated in
        # complex arithmetic reached 14.1 ulp on this grid (at x = 2.04).
        xs = np.concatenate([np.geomspace(1e-3, 1e5, 2000), np.linspace(1.5, 3.0, 2001)])
        with mp.workdps(40):
            worst = max(
                float(abs(mp.mpf(ln_gamma(x)) - ref)) / math.ulp(max(abs(float(ref)), 1.0))
                for x in xs.tolist()
                for ref in [mp.loggamma(x)]
            )
        assert worst <= 8.0

    def test_overflow_is_inf(self):
        for x in (2.6e305, 1e306, 1e308, math.inf):
            assert ln_gamma(x) == math.inf

    def test_functional_equation(self):
        # Gamma(x+1) = x Gamma(x)
        for x in np.linspace(0.5, 100.0, 200):
            lhs = ln_gamma(x + 1.0)
            rhs = math.log(x) + ln_gamma(x)
            assert math.exp(lhs - rhs) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("x", [0.0, -0.0, -1.0, -0.5, -math.inf, math.nan])
    def test_domain_error(self, x):
        with pytest.raises(ValidationError):
            ln_gamma(x)


class TestLnAbsGammaSq:
    """The oracle ln |Gamma(a+ix)|^2 under the squared-variable density that
    the measure tests integrate against."""

    def test_at_one(self):
        assert abs(ln_abs_gamma_sq(1.0, 0.0)) < 1e-14

    def test_unit_imaginary_identity(self):
        # |Gamma(1+iy)|^2 = pi y / sinh(pi y), evaluated independently
        for y in (0.5, 1.0, 3.0):
            ref = math.log(math.pi * y / math.sinh(math.pi * y))
            assert ln_abs_gamma_sq(1.0, y) == pytest.approx(ref, rel=1e-13, abs=1e-13)

    def test_half_at_zero(self):
        # Gamma(1/2)^2 = pi
        assert ln_abs_gamma_sq(0.5, 0.0) == pytest.approx(math.log(math.pi), rel=1e-14)

    def test_even_in_x(self):
        for a in (-3.5, -0.2, 0.0, 0.5, 4.5):
            for x in (0.25, 1.0, 17.0, 300.0):
                assert ln_abs_gamma_sq(a, x) == ln_abs_gamma_sq(a, -x)

    @pytest.mark.parametrize(
        "a,x",
        [(1.0, 1.0), (0.5, 3.0), (-3.5, 0.5), (-3.5, 7.0), (0.0, 1e-3),
         (0.0, 2.0), (0.0, 300.0), (4.5, 80.0), (-3.5, 150.0), (8.5, 0.01),
         (-0.2, 0.0), (12.0, 450.0)],
    )
    def test_against_mpmath(self, a, x):
        with mp.workdps(40):
            ref = float(mp.log(abs(mp.gamma(mp.mpc(a, x))) ** 2))
        assert ln_abs_gamma_sq(a, x) == pytest.approx(ref, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("a", [0.0, -1.0, -2.0, -7.0])
    def test_pole_error(self, a):
        with pytest.raises(ValidationError):
            ln_abs_gamma_sq(a, 0.0)


class TestGamma:
    def test_positive(self):
        assert gamma(4.5) == pytest.approx(float(mp.gamma(4.5)), rel=1e-13)

    def test_negative_non_integer(self):
        assert gamma(-0.5) == pytest.approx(float(mp.gamma(-0.5)), rel=1e-13)
        assert gamma(-1.5) == pytest.approx(float(mp.gamma(-1.5)), rel=1e-13)

    def test_relative_error_on_grid(self):
        # Every non-pole x of a 0.02-step grid over (-30, 171.6): worst case
        # 3.4 eps.  Reflection through sin(pi x) reached 4547 eps on this
        # grid (at x = -25.0003).
        xs = [x for x in np.linspace(-30.0, 171.6, 10001)[1:-1].tolist() if x != math.floor(x)]
        with mp.workdps(40):
            worst = max(float(abs(mp.mpf(gamma(x)) / mp.gamma(x) - 1)) for x in xs)
        assert worst <= 8.0 * 2.0**-52

    def test_pole(self):
        for x in (0.0, -0.0, -3.0, -1e300, -math.inf):
            with pytest.raises(ValidationError, match="Gamma pole"):
                gamma(x)

    def test_overflow_matches_stdlib_limits(self):
        assert gamma(171.0) == pytest.approx(float(mp.gamma(171.0)), rel=1e-12)
        for x in (172.0, 1e306, math.inf, 5e-324, 1e-320):
            assert gamma(x) == math.inf
        for x in (-5e-324, -1e-320):
            assert gamma(x) == -math.inf
        # Gamma(-171.5) is subnormal, not zero.
        assert gamma(-171.5) == pytest.approx(float(mp.gamma(-171.5)), rel=1e-9, abs=0.0)
        for x in (-180.5, -181.5, -1000.25):
            assert gamma(x) == 0.0
            assert math.copysign(1.0, gamma(x)) == float(mp.sign(mp.gamma(x)))

    def test_nan_propagates(self):
        assert math.isnan(gamma(math.nan))
