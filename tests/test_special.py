"""Tests for the scalar special functions."""

import math

import mpmath as mp
import numpy as np
import pytest

from quadsum.errors import ValidationError
from quadsum.special import (
    gamma,
    ln_abs_gamma_sq,
    ln_gamma,
    ln_pochhammer_signed,
    pochhammer,
)


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
        ref = math.lgamma(x)
        assert ln_gamma(x) == pytest.approx(ref, rel=1e-13, abs=1e-14)

    def test_functional_equation(self):
        # Gamma(x+1) = x Gamma(x)
        for x in np.linspace(0.5, 100.0, 200):
            lhs = ln_gamma(x + 1.0)
            rhs = math.log(x) + ln_gamma(x)
            assert math.exp(lhs - rhs) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5])
    def test_domain_error(self, x):
        with pytest.raises(ValidationError):
            ln_gamma(x)


class TestLnAbsGammaSq:
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


class TestPochhammer:
    def test_rising_product(self):
        assert pochhammer(3.0, 4) == 360.0

    def test_empty_product(self):
        for a in (-2.5, 0.0, 7.0):
            assert pochhammer(a, 0) == 1.0

    def test_vanishing(self):
        assert pochhammer(-2.0, 4) == 0.0

    def test_recursion_exact(self):
        for a in (-3.5, 0.3, 2.0, 11.0):
            for n in range(12):
                assert pochhammer(a, n + 1) == pochhammer(a, n) * (a + n)

    def test_signed_log_form_matches(self):
        for a in (-6.5, -1.2, 0.7, 4.0):
            for n in range(9):
                ln, sign = ln_pochhammer_signed(a, n)
                assert sign * math.exp(ln) == pytest.approx(
                    pochhammer(a, n), rel=1e-13, abs=1e-300
                )

    def test_negative_n_rejected(self):
        with pytest.raises(ValidationError):
            pochhammer(1.0, -1)


class TestGamma:
    def test_positive(self):
        assert gamma(4.5) == pytest.approx(math.gamma(4.5), rel=1e-13)

    def test_negative_non_integer(self):
        assert gamma(-0.5) == pytest.approx(math.gamma(-0.5), rel=1e-13)
        assert gamma(-1.5) == pytest.approx(math.gamma(-1.5), rel=1e-13)

    def test_pole(self):
        for x in (0.0, -3.0):
            with pytest.raises(ValidationError):
                gamma(x)

    def test_overflow_matches_stdlib_limits(self):
        assert gamma(171.0) == pytest.approx(math.gamma(171.0), rel=1e-12)
        assert gamma(172.0) == math.inf
        for x in (-180.5, -181.5, -1000.25):
            assert gamma(x) == 0.0
            assert math.copysign(1.0, gamma(x)) == math.copysign(1.0, math.gamma(x))
