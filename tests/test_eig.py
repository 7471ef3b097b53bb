"""Tests for the symmetric tridiagonal eigensolver.

numpy.linalg.eigh on the dense matrix serves as the independent oracle
throughout.
"""

import math

import numpy as np
import pytest

from quadsum.eig import _ql_implicit, decompose, deleted_submatrix_eigenvalues, eigenvalues
from quadsum.errors import NumericalError
from quadsum.families import (
    Charlier,
    ContinuousDualHahn,
    Krawtchouk,
    Meixner,
    Wilson,
    recurrence,
)
from quadsum.jacobi import JacobiMatrix, build


def _random_jacobi(rng: np.random.Generator, n: int) -> JacobiMatrix:
    diag = rng.normal(size=n)
    offdiag = rng.uniform(0.5, 2.0, size=n - 1) * rng.choice([-1.0, 1.0], size=n - 1)
    return JacobiMatrix(diag, offdiag)


class TestSmallCases:
    def test_one_by_one(self):
        j = JacobiMatrix(np.array([3.5]), np.array([]))
        assert eigenvalues(j).tolist() == [3.5]
        dec = decompose(j, mode="full")
        assert dec.full_matrix.tolist() == [[1.0]]

    def test_charlier_two_by_two_values(self):
        # characteristic polynomial x^2 - 5x + 4 by hand
        j = build(recurrence(Charlier(2.0)), 2)
        assert eigenvalues(j) == pytest.approx([1.0, 4.0], rel=1e-14)

    def test_charlier_two_by_two_first_row(self):
        # 2x2 eigenvectors by hand: squared first components 2/3 and 1/3
        j = build(recurrence(Charlier(2.0)), 2)
        dec = decompose(j, mode="first_row")
        assert dec.first_components**2 == pytest.approx([2.0 / 3.0, 1.0 / 3.0], rel=1e-14)

    def test_deleted_submatrix(self):
        j = build(recurrence(Charlier(2.0)), 2)
        assert deleted_submatrix_eigenvalues(j) == pytest.approx([3.0], rel=1e-14)
        with pytest.raises(ValueError):
            deleted_submatrix_eigenvalues(build(recurrence(Charlier(2.0)), 1))

    def test_interlacing_small_case(self):
        # 1 < 3 < 4 from the two examples above
        j = build(recurrence(Charlier(2.0)), 2)
        eps = eigenvalues(j)
        hat = deleted_submatrix_eigenvalues(j)
        assert eps[0] < hat[0] < eps[1]


class TestAgainstNumpy:
    @pytest.mark.parametrize("n", [3, 10, 40])
    def test_random_matrices(self, n):
        rng = np.random.default_rng(1234 + n)
        for _ in range(5):
            j = _random_jacobi(rng, n)
            dec = decompose(j, mode="first_row")
            ref_vals, ref_vecs = np.linalg.eigh(j.dense())
            scale = 1.0 + np.max(np.abs(ref_vals))
            assert np.max(np.abs(dec.eigenvalues - ref_vals)) < 1e-12 * scale
            assert np.max(np.abs(dec.first_components - np.abs(ref_vecs[0]))) < 1e-10

    @pytest.mark.parametrize(
        "spec,n",
        [
            (Charlier(2.0), 15),
            (Meixner(2.0, 0.4), 25),
            (Krawtchouk(100, 0.3), 40),
            (ContinuousDualHahn(-3.5, 4.5, 4.5), 60),
        ],
    )
    def test_family_matrices(self, spec, n):
        j = build(recurrence(spec), n)
        vals = eigenvalues(j)
        ref = np.linalg.eigvalsh(j.dense())
        scale = 1.0 + np.max(np.abs(ref))
        assert np.max(np.abs(vals - ref)) < 1e-12 * scale
        assert np.all(np.diff(vals) > 0)


class TestDecompositionProperties:
    def test_modes(self):
        j = build(recurrence(Charlier(2.0)), 8)
        values_only = decompose(j, mode="values")
        assert values_only.first_components is None
        assert values_only.full_matrix is None
        first = decompose(j, mode="first_row")
        full = decompose(j, mode="full")
        assert np.allclose(first.first_components, full.first_components, atol=1e-14)
        assert np.allclose(full.full_matrix[0], full.first_components)

    def test_unknown_mode(self):
        j = build(recurrence(Charlier(2.0)), 3)
        with pytest.raises(ValueError):
            decompose(j, mode="rows")

    def test_first_components_nonnegative_and_normalized(self):
        j = build(recurrence(Meixner(2.0, 0.4)), 20)
        dec = decompose(j, mode="first_row")
        assert np.all(dec.first_components >= 0.0)
        assert math.fsum((dec.first_components**2).tolist()) == pytest.approx(1.0, abs=1e-12)

    def test_columns_orthonormal(self):
        j = build(recurrence(Charlier(2.0)), 12)
        dec = decompose(j, mode="full")
        gram = dec.full_matrix.T @ dec.full_matrix
        assert np.max(np.abs(gram - np.eye(12))) < 1e-13

    def test_reconstruction_large(self):
        j = build(recurrence(ContinuousDualHahn(-3.5, 4.5, 4.5)), 200)
        dec = decompose(j, mode="full")
        rec = dec.full_matrix @ np.diag(dec.eigenvalues) @ dec.full_matrix.T
        scale = 1.0 + np.max(np.abs(dec.eigenvalues))
        assert np.max(np.abs(rec - j.dense())) <= 1e-10 * scale

    def test_offdiagonal_sign_flips_are_harmless(self):
        st = recurrence(Krawtchouk(30, 0.4))
        j = build(st, 12)
        rng = np.random.default_rng(7)
        for _ in range(4):
            signs = rng.choice([-1.0, 1.0], size=11)
            flipped = JacobiMatrix(j.diag.copy(), j.offdiag * signs)
            a = decompose(j, mode="first_row")
            b = decompose(flipped, mode="first_row")
            scale = 1.0 + np.max(np.abs(a.eigenvalues))
            assert np.max(np.abs(a.eigenvalues - b.eigenvalues)) < 1e-12 * scale
            assert np.max(np.abs(a.first_components - b.first_components)) < 1e-12

    def test_interlacing_for_families(self):
        for spec in (Charlier(2.0), Meixner(2.0, 0.4), Krawtchouk(100, 0.3)):
            for n in (5, 10):
                j = build(recurrence(spec), n)
                eps = eigenvalues(j)
                hat = deleted_submatrix_eigenvalues(j)
                for i in range(n - 1):
                    assert eps[i] < hat[i] < eps[i + 1]

    def test_polynomial_eigenvector_identity_small(self):
        # p_n(eps_k) = L_{n,k} / L_{0,k}
        from quadsum.families import eval_poly

        spec = Charlier(2.0)
        st = recurrence(spec)
        dec = decompose(build(st, 10), mode="full")
        for n in range(10):
            for k in range(10):
                ratio = dec.full_matrix[n, k] / dec.full_matrix[0, k]
                p = eval_poly(st, n, float(dec.eigenvalues[k]))
                assert abs(p - ratio) <= 1e-10 * max(abs(p), abs(ratio), 1.0)


class TestModeBitIdentity:
    """first_row and full mode apply the same rotations elementwise, so the
    eigenvalues and first components agree bit for bit; the spectral
    reference relies on this."""

    @pytest.mark.parametrize(
        "spec",
        [
            Charlier(2.0),
            Meixner(2.0, 0.4),
            Krawtchouk(100, 0.3),
            ContinuousDualHahn(1.5, 2.0, 3.0),
            ContinuousDualHahn(-3.5, 4.5, 4.5),
            Wilson(1.0, 1.2, 1.5, 2.0),
            Wilson(-3.5, 4.5, 5.5, 6.5),
        ],
    )
    @pytest.mark.parametrize("n", [1, 2, 30])
    def test_first_row_equals_full_row_zero(self, spec, n):
        j = build(recurrence(spec), n)
        first = decompose(j, mode="first_row")
        full = decompose(j, mode="full")
        values = decompose(j, mode="values")
        assert np.array_equal(first.eigenvalues, full.eigenvalues)
        assert np.array_equal(values.eigenvalues, full.eigenvalues)
        assert np.array_equal(first.first_components, full.full_matrix[0])

    def test_python_floats_match_numpy_scalars(self):
        # the sweep on numpy arrays (numpy-scalar arithmetic) is the reference
        # for the sweep on lists of Python floats: same operations, same bits
        j = build(recurrence(ContinuousDualHahn(-3.5, 4.5, 4.5)), 40)
        d, e = j.diag.tolist(), j.offdiag.tolist() + [0.0]
        row = [1.0] + [0.0] * 39
        d_ref, e_ref = j.diag.copy(), np.append(j.offdiag, 0.0)
        row_ref = np.eye(40)[0]
        _ql_implicit(d, e, row, None)
        _ql_implicit(d_ref, e_ref, row_ref, None)
        assert np.array_equal(np.array(d), d_ref)
        assert np.array_equal(np.array(e), e_ref)
        assert np.array_equal(np.array(row), row_ref)

    @pytest.mark.parametrize("mode", ["values", "first_row", "full"])
    def test_inputs_untouched_and_outputs_float_arrays(self, mode):
        j = build(recurrence(Meixner(2.0, 0.4)), 25)
        diag, offdiag = j.diag.copy(), j.offdiag.copy()
        dec = decompose(j, mode=mode)
        assert np.array_equal(j.diag, diag)
        assert np.array_equal(j.offdiag, offdiag)
        arrays = [dec.eigenvalues]
        if mode != "values":
            arrays.append(dec.first_components)
        for a in arrays:
            assert isinstance(a, np.ndarray)
            assert a.dtype == np.float64
            assert a.shape == (25,)
        if mode == "full":
            assert dec.full_matrix.dtype == np.float64
            assert dec.full_matrix.shape == (25, 25)
