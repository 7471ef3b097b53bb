"""Tests for the bundled reference tables and the cell tolerance policy."""

import dataclasses
import math
import re
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

import quadsum.tables
from quadsum.apply import relative_error, spectral_reference
from quadsum.errors import NumericalError, ValidationError
from quadsum.families import ContinuousDualHahn, Meixner, measure
from quadsum.special import ln_gamma
from quadsum.tables import _T1_EXACT, _T2_EXACT, _t3_integrand, cell_passes, run_table


class TestCellPolicy:
    def test_inside_band(self):
        assert cell_passes(1e-5, 3e-5)
        assert cell_passes(1e-5, 0.3e-5)

    def test_outside_band(self):
        assert not cell_passes(1e-5, 6e-5)
        assert not cell_passes(1e-5, 1e-6)

    def test_floor_rescue(self):
        # both computations at their respective roundoff floors
        assert cell_passes(6.2e-12, 1e-14)
        assert cell_passes(2.2e-16, 1e-13)

    def test_floor_does_not_excuse_large_reference(self):
        assert not cell_passes(1e-4, 1e-13)


class TestRunTable:
    def test_table_one_all_cells_pass(self):
        report = run_table(1)
        assert report.passed
        assert len(report.cells) == 20
        cell = next(c for c in report.cells if c.label == "charlier" and c.n == 7)
        assert cell.exact == pytest.approx(math.exp(3.0), rel=1e-15)
        assert 4.165e-11 / 5.0 <= cell.rel_error <= 4.165e-11 * 5.0

    def test_table_two_all_cells_pass(self):
        report = run_table(2)
        assert report.passed
        assert len(report.cells) == 20
        assert all(c.exact == pytest.approx(0.5, rel=1e-14) for c in report.cells)

    def test_report_errors_recomputable(self):
        report = run_table(1)
        for c in report.cells:
            assert relative_error(c.exact, c.approx) == pytest.approx(
                c.rel_error, rel=1e-12, abs=1e-17
            )

    def test_unknown_table(self):
        with pytest.raises(ValidationError):
            run_table(4)

    def test_table_number_is_not_a_bool(self):
        with pytest.raises(ValidationError, match="unknown table True"):
            run_table(True)

    @pytest.mark.parametrize("which", [1.0, np.float64(2.0), "1"])
    def test_table_number_must_be_an_integer(self, which):
        with pytest.raises(ValidationError) as exc:
            run_table(which)
        assert str(exc.value) == f"unknown table {which!r}; expected one of (1, 2, 3)"

    def test_numpy_integer_table_number(self):
        assert run_table(np.int64(1)) == run_table(1)

    def test_a_failing_reference_fails_its_whole_row(self, monkeypatch):
        # at 500 points each row's first eigenvector row has an exact zero
        monkeypatch.setattr(quadsum.tables, "spectral_reference",
                            lambda family, f: spectral_reference(family, f, 500))
        report = run_table(3)
        assert not report.passed
        assert len(report.cells) == 25
        for cell in report.cells:
            assert not cell.passed
            assert (cell.approx, cell.exact, cell.rel_error) == (None, None, None)
            assert re.fullmatch(
                r"eigenvector with exactly zero first component at index \d+; "
                r"matrix is numerically reducible",
                cell.error,
            )

    def test_a_failing_approximation_fails_its_cell_only(self, monkeypatch):
        healthy = run_table(1)
        approximate = quadsum.tables.approximate

        def failing(fn):
            if fn.order == 10 and fn.family == Meixner(2.0, 0.4):
                raise NumericalError("quadrature sum overflows the float range")
            return approximate(fn)

        monkeypatch.setattr(quadsum.tables, "approximate", failing)
        report = run_table(1)
        assert not report.passed
        for before, after in zip(healthy.cells, report.cells, strict=True):
            if (after.label, after.n) != ("meixner beta=0.4", 10):
                assert after == before
                continue
            assert after == dataclasses.replace(
                before, approx=None, rel_error=None, passed=False,
                error="quadrature sum overflows the float range",
            )
            assert after.exact == _T1_EXACT


class TestExactValues:
    """The exact values of tables 1 and 2 against independent computations."""

    def test_table_one_is_e_cubed_rounded(self):
        with mp.workdps(50):
            assert _T1_EXACT == float(mp.e**3)
        assert {c.exact for c in run_table(1).cells} == {_T1_EXACT}

    def test_table_two_is_the_rational_sum_rounded(self):
        exact = sum(Fraction((k + 1) * 3 ** (k + 1), math.factorial(k + 4)) for k in range(101))
        assert exact == Fraction(1, 2) - Fraction(3**102, math.factorial(104))
        assert _T2_EXACT == float(exact)
        assert {c.exact for c in run_table(2).cells} == {_T2_EXACT}
        # the log-space closed form 1/Gamma(3) - 3^102/Gamma(105) is two ulps high
        closed = math.exp(-ln_gamma(3.0)) - math.exp(102 * math.log(3.0) - ln_gamma(105.0))
        assert closed == _T2_EXACT + 2 * math.ulp(_T2_EXACT)


class TestTableThreeReference:
    """Table 3's reference, the spectral element, against an independent
    value: scipy ``quad`` of the continuous density plus the exact sum over
    the point masses.  At the default 200 points the errors measured on the
    five rows are 2.1e-15, 1.2e-15, 1.9e-14, 9.3e-13 and 2.0e-11, so the
    reference loses accuracy as alpha grows; the first two are at the
    independent value's own rounding.  At 400 points, past the size where
    an unscaled first row underflows to an exact zero, all five are at that
    rounding: 4.1e-15, 2.2e-16, 9.0e-16, 1.3e-15 and 8.1e-16.  Each row is
    pinned within about a factor of two."""

    @staticmethod
    def _error(alpha_plus_mu: float, size: int) -> float:
        mu = -3.5
        alpha = alpha_plus_mu - mu
        family = ContinuousDualHahn(mu, alpha, alpha)
        spec = measure(family)
        sigma = spec.continuous.density
        integral, _ = quad(lambda x: sigma(x) * _t3_integrand(x * x), 0.0, math.inf,
                           epsrel=1e-13, limit=200)
        independent = integral + spec.discrete.weighted_sum(_t3_integrand)
        reference = spectral_reference(family, _t3_integrand, size)
        return abs(reference - independent) / abs(independent)

    @pytest.mark.parametrize("alpha_plus_mu, low, high", [
        (1.0, 0.0, 4e-15),
        (2.0, 0.0, 4e-15),
        (3.0, 1e-14, 3e-14),
        (4.0, 6e-13, 1.5e-12),
        (5.0, 1.5e-11, 3e-11),
    ])
    def test_error_against_quad_and_the_point_masses(self, alpha_plus_mu, low, high):
        assert low <= self._error(alpha_plus_mu, 200) <= high

    @pytest.mark.parametrize("alpha_plus_mu, low, high", [
        (1.0, 2e-15, 8e-15),
        (2.0, 1e-16, 4.5e-16),
        (3.0, 4.5e-16, 1.8e-15),
        (4.0, 6.5e-16, 2.6e-15),
        (5.0, 4e-16, 1.6e-15),
    ])
    def test_error_at_400_points(self, alpha_plus_mu, low, high):
        assert low <= self._error(alpha_plus_mu, 400) <= high
