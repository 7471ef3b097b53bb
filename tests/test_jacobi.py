"""Tests for Jacobi matrix truncations, powers, and the spectral element
[f(J)]_{0,0}."""

import math

import numpy as np
import pytest

from oracles import dense, eigenvector_matrix, power_element
from quadsum.apply import matrix_function_element
from quadsum.errors import NumericalError, ValidationError
from quadsum.families import Charlier, ContinuousDualHahn, Krawtchouk, Meixner, recurrence
from quadsum.jacobi import JacobiMatrix, build


class TestBuild:
    def test_charlier_two_by_two(self):
        j = build(recurrence(Charlier(2.0)), 2)
        assert j.diag.tolist() == [2.0, 3.0]
        assert j.offdiag.tolist() == pytest.approx([-math.sqrt(2.0)])

    def test_one_by_one(self):
        j = build(recurrence(Charlier(2.0)), 1)
        assert j.diag.tolist() == [2.0]
        assert j.offdiag.size == 0

    def test_krawtchouk_full_matrix(self):
        # a_n = 2*0.5 + n*0 = 1 for gamma = 0.5, M = 2
        j = build(recurrence(Krawtchouk(2, 0.5)), 3)
        assert j.diag.tolist() == [1.0, 1.0, 1.0]
        assert j.offdiag.tolist() == pytest.approx([-math.sqrt(0.5)] * 2)

    def test_krawtchouk_overrun(self):
        with pytest.raises(ValidationError, match="exceeds"):
            build(recurrence(Krawtchouk(2, 0.5)), 4)

    def test_truncation_consistency(self):
        st = recurrence(Meixner(2.0, 0.4))
        small = build(st, 7)
        large = build(st, 12)
        assert np.array_equal(small.diag, large.diag[:7])
        assert np.array_equal(small.offdiag, large.offdiag[:6])

    @pytest.mark.parametrize("diag, offdiag, message", [
        ([], [], "diagonal must be a nonempty 1-d array"),
        ([1.0, 2.0], [1.0, 2.0], "off-diagonal must have length 1, got (2,)"),
    ])
    def test_shape_messages(self, diag, offdiag, message):
        with pytest.raises(ValidationError) as exc:
            JacobiMatrix(diag, offdiag)
        assert str(exc.value) == message

    def test_validation(self):
        with pytest.raises(ValidationError):
            JacobiMatrix(np.array([1.0, 2.0]), np.array([1.0, 1.0]))
        # the first non-finite entry is named, reading a_0, b_0, a_1, b_1, ...
        for diag, offdiag, entry in [
            ([1.0, math.inf], [1.0], "a_1 = inf"),
            ([math.nan, 2.0], [1.0], "a_0 = nan"),
            ([1.0, 2.0], [math.inf], "b_0 = inf"),
            ([1.0, 2.0], [math.nan], "b_0 = nan"),
            ([math.nan, 2.0], [-math.inf], "a_0 = nan"),
            ([1.0, 2.0, 3.0], [1.0, -math.inf], "b_1 = -inf"),
            ([1.0, 2.0, -math.inf], [math.nan, 1.0], "b_0 = nan"),
            ([math.inf], [], "a_0 = inf"),
        ]:
            with pytest.raises(ValidationError) as exc:
                JacobiMatrix(np.array(diag), np.array(offdiag))
            assert str(exc.value) == f"matrix entries must be finite, got {entry}"


class TestPowerElement:
    def test_zeroth_power_is_identity(self):
        st = recurrence(Charlier(2.0))
        for n, m in [(0, 0), (1, 1), (0, 3), (2, 1)]:
            assert power_element(st, 0, n, m) == (1.0 if n == m else 0.0)

    def test_first_power_is_matrix(self):
        st = recurrence(Charlier(2.0))
        assert power_element(st, 1, 0, 0) == 2.0
        assert power_element(st, 1, 0, 1) == pytest.approx(-math.sqrt(2.0))

    def test_square_top_left(self):
        # (J^2)_00 = a0^2 + b0^2 = 4 + 2
        assert power_element(recurrence(Charlier(2.0)), 2, 0, 0) == pytest.approx(6.0)

    def test_symmetry(self):
        st = recurrence(Meixner(2.0, 0.4))
        for k in (2, 5, 9):
            assert power_element(st, k, 1, 4) == pytest.approx(
                power_element(st, k, 4, 1), rel=1e-13
            )

    def test_against_dense_power(self):
        st = recurrence(Charlier(2.0))
        ref_j = dense(build(st, 16))
        for k in range(7):
            ref = np.linalg.matrix_power(ref_j, k)
            for n, m in [(0, 0), (0, 2), (3, 1)]:
                assert power_element(st, k, n, m) == pytest.approx(
                    ref[n, m], rel=1e-12, abs=1e-12
                )

    def test_finite_family_cap(self):
        st = recurrence(Krawtchouk(5, 0.5))
        # paths cannot leave the 6-dimensional matrix; high powers still work
        ref = np.linalg.matrix_power(dense(build(st, 6)), 9)
        assert power_element(st, 9, 0, 0) == pytest.approx(ref[0, 0], rel=1e-12)


class TestMatrixFunction:
    def test_identity_function(self):
        j = build(recurrence(Charlier(2.0)), 6)
        assert matrix_function_element(j, lambda t: 1.0) == pytest.approx(1.0, abs=1e-13)
        # off the diagonal, through the whole eigenvector matrix
        _, vectors = eigenvector_matrix(j)
        assert math.fsum(vectors[0] * vectors[3]) == pytest.approx(0.0, abs=1e-13)

    def test_linear_function_recovers_matrix(self):
        j = build(recurrence(Charlier(2.0)), 6)
        assert matrix_function_element(j, lambda t: t) == pytest.approx(2.0, rel=1e-13)
        values, vectors = eigenvector_matrix(j)
        assert math.fsum(vectors[0] * values * vectors[1]) == pytest.approx(
            -math.sqrt(2.0), rel=1e-13
        )

    def test_square_cross_check(self):
        j = build(recurrence(Charlier(2.0)), 3)
        assert matrix_function_element(j, lambda t: t * t) == pytest.approx(6.0, rel=1e-12)

    def test_power_consistency(self):
        st = recurrence(Meixner(2.0, 0.4))
        j = build(st, 12)
        for k in range(9):
            mf = matrix_function_element(j, lambda t, k=k: t**k)
            pw = power_element(st, k, 0, 0)
            assert abs(mf - pw) <= 1e-10 * max(1.0, abs(pw))

    def test_mixed_family_reference_values(self):
        j = build(recurrence(ContinuousDualHahn(-3.5, 4.5, 4.5)), 200)
        assert matrix_function_element(j, lambda t: 1.0) == pytest.approx(1.0, abs=1e-12)
        assert matrix_function_element(j, lambda t: t) == pytest.approx(-11.25, rel=1e-12)

    def test_nonfinite_function_value(self):
        j = build(recurrence(Charlier(2.0)), 3)
        with pytest.raises(NumericalError, match="not finite") as exc:
            matrix_function_element(j, lambda t: math.inf)
        assert str(exc.value) == "f is not finite at eigenvalue 0.5107114281899208"
