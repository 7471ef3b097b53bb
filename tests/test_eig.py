"""Tests for the symmetric tridiagonal eigensolver.

numpy.linalg.eigh on the dense matrix serves as the independent oracle
throughout; the QL kernel is also checked bit for bit against the plain
sweep in ``oracles.ql_implicit_reference``, and the first row against the
whole eigenvector matrix of ``oracles.eigenvector_matrix``.
"""

import inspect
import math
import struct
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

import oracles
from oracles import (
    deleted_submatrix_eigenvalues,
    dense,
    eigenvector_matrix,
    ql_implicit_reference,
)
from quadsum import eig
from quadsum.eig import _EPS, ConvergenceError, _ql_implicit, decompose, eigenvalues
from quadsum.errors import NumericalError, ValidationError
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
        dec = decompose(j, mode="first_row")
        assert dec.first_components.tolist() == [1.0]

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


class TestNearFloatLimit:
    """Matrices with an entry of 2^998 or more are scaled by a power of two
    for the sweep, so their eigenvalues come out right; that scaling is the
    kernel's one overflow guard."""

    def test_two_by_two(self):
        # eigenvalues +-sqrt(2) 1e308; unscaled, eps (|d_0| + |d_1|)
        # overflows and the split test passes at once
        j = JacobiMatrix([1e308, -1e308], [1e308])
        for mode in _MODES:
            assert decompose(j, mode=mode).eigenvalues.tolist() == pytest.approx(
                [-1.4142135623730951e308, 1.4142135623730951e308], rel=4 * _EPS
            )
        assert decompose(j, mode="first_row").first_components.tolist() == pytest.approx(
            [math.sin(math.pi / 8), math.cos(math.pi / 8)], rel=4 * _EPS
        )

    def test_three_by_three(self):
        # eigenvalues 0 and +-sqrt(a^2 + 2 b^2); unscaled, a ConvergenceError
        a, b = 1e307, 8e307
        values = eigenvalues(JacobiMatrix([a, 0.0, -a], [b, b])).tolist()
        top = math.sqrt(129.0) * 1e307
        assert [values[0], values[2]] == pytest.approx([-top, top], rel=4 * _EPS)
        assert abs(values[1]) <= 8 * _EPS * top

    @pytest.mark.parametrize("mode", ["values", "first_row"])
    def test_four_by_four_against_scipy(self, mode):
        # unscaled, sweep quantities overflow to inf and NaN; scipy runs on
        # the matrix scaled by 2^-16, which is exact
        d, e = [0.0, 5e307, -2e307, -4e307], [-8e307, -3e307, -9e307]
        values, vectors = eigh_tridiagonal(np.ldexp(d, -16), np.ldexp(e, -16))
        values = np.ldexp(values, 16)
        dec = decompose(JacobiMatrix(d, e), mode=mode)
        top = np.max(np.abs(values))
        assert np.max(np.abs(dec.eigenvalues - values)) <= 4 * _EPS * top
        if mode == "first_row":
            assert np.max(np.abs(dec.first_components - np.abs(vectors[0]))) <= 4 * _EPS

    @pytest.mark.parametrize("mode", ["values", "first_row"])
    def test_eigenvalue_beyond_float_range(self, mode):
        with pytest.raises(NumericalError) as exc:
            decompose(JacobiMatrix([1.7e308, -1.7e308], [1.7e308]), mode=mode)
        assert str(exc.value) == "an eigenvalue overflows the float range"

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), mode=st.sampled_from(["values", "first_row"]))
    def test_kernel_input_is_in_range(self, data, mode):
        # the kernel's one overflow guard is decompose's scaling: every
        # matrix it hands the kernel has max|d| + 2 max|e| below 2^1000
        n = data.draw(st.integers(1, 8))
        entry = st.one_of(
            st.floats(-1.7e308, 1.7e308), st.floats(-1e-300, 1e-300), st.just(0.0)
        )
        j = JacobiMatrix(
            data.draw(st.lists(entry, min_size=n, max_size=n)),
            data.draw(st.lists(entry, min_size=n - 1, max_size=n - 1)),
        )
        seen = []

        def kernel(d, e, row):
            seen.append(max(map(abs, d)) + 2.0 * max(map(abs, e)))
            return _ql_implicit(d, e, row)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(eig, "_ql_implicit", kernel)
            try:
                decompose(j, mode=mode)
            except NumericalError:
                pass
        assert len(seen) == 1
        assert seen[0] < 2.0**1000


class TestAgainstNumpy:
    @pytest.mark.parametrize("n", [3, 10, 40])
    def test_random_matrices(self, n):
        rng = np.random.default_rng(1234 + n)
        for _ in range(5):
            j = _random_jacobi(rng, n)
            dec = decompose(j, mode="first_row")
            ref_vals, ref_vecs = np.linalg.eigh(dense(j))
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
        ref = np.linalg.eigvalsh(dense(j))
        scale = 1.0 + np.max(np.abs(ref))
        assert np.max(np.abs(vals - ref)) < 1e-12 * scale
        assert np.all(np.diff(vals) > 0)


class TestDecompositionProperties:
    def test_modes(self):
        j = build(recurrence(Charlier(2.0)), 8)
        values_only = decompose(j, mode="values")
        assert values_only.first_components is None
        first = decompose(j, mode="first_row")
        _, vectors = eigenvector_matrix(j)
        assert np.allclose(first.first_components, vectors[0], atol=1e-14)

    def test_unknown_mode(self):
        j = build(recurrence(Charlier(2.0)), 3)
        with pytest.raises(ValueError):
            decompose(j, mode="rows")

    def test_argument_checks_raise_validation_error(self):
        with pytest.raises(ValidationError, match="unknown mode 'rows'"):
            decompose(build(recurrence(Charlier(2.0)), 3), mode="rows")
        with pytest.raises(ValidationError, match="unknown mode 'full'"):
            decompose(build(recurrence(Charlier(2.0)), 3), "full")
        with pytest.raises(ValidationError, match="dimension >= 2"):
            deleted_submatrix_eigenvalues(build(recurrence(Charlier(2.0)), 1))

    def test_first_components_nonnegative_and_normalized(self):
        j = build(recurrence(Meixner(2.0, 0.4)), 20)
        dec = decompose(j, mode="first_row")
        assert np.all(dec.first_components >= 0.0)
        assert math.fsum((dec.first_components**2).tolist()) == pytest.approx(1.0, abs=1e-12)

    def test_columns_orthonormal(self):
        j = build(recurrence(Charlier(2.0)), 12)
        _, vectors = eigenvector_matrix(j)
        gram = vectors.T @ vectors
        assert np.max(np.abs(gram - np.eye(12))) < 1e-13

    def test_reconstruction_large(self):
        j = build(recurrence(ContinuousDualHahn(-3.5, 4.5, 4.5)), 200)
        values, vectors = eigenvector_matrix(j)
        rec = vectors @ np.diag(values) @ vectors.T
        scale = 1.0 + np.max(np.abs(values))
        assert np.max(np.abs(rec - dense(j))) <= 1e-10 * scale

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
        from oracles import eval_poly

        spec = Charlier(2.0)
        st = recurrence(spec)
        values, vectors = eigenvector_matrix(build(st, 10))
        for n in range(10):
            for k in range(10):
                ratio = vectors[n, k] / vectors[0, k]
                p = eval_poly(st, n, float(values[k]))
                assert abs(p - ratio) <= 1e-10 * max(abs(p), abs(ratio), 1.0)


class TestModeBitIdentity:
    """The first-row sweep from e_k gives row k of the eigenvector matrix, the
    plain sweep on the columns of the identity, bit for bit; so the first
    row is row 0 of it, and every mode has the same eigenvalues."""

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
        values = decompose(j, mode="values")
        full_values, full = eigenvector_matrix(j)
        assert np.array_equal(first.eigenvalues, full_values)
        assert np.array_equal(values.eigenvalues, full_values)
        assert np.array_equal(first.first_components, full[0])

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
    def test_full_rows_are_first_row_sweeps_from_unit_vectors(self, spec, n):
        # row k of the eigenvector matrix is the kernel's sweep started from
        # e_k, put in eigenvalue order and signed like row 0
        j = build(recurrence(spec), n)
        _, full = eigenvector_matrix(j)
        rows = []
        for k in range(n):
            d, e = j.diag.tolist(), j.offdiag.tolist() + [0.0]
            row = [0.0] * n
            row[k] = 1.0
            _ql_implicit(d, e, row)
            rows.append(row)
        order = np.argsort(d, kind="stable")
        signs = np.sign(np.array(rows[0])[order])
        for k in range(n):
            assert np.array_equal(np.array(rows[k])[order] * signs, full[k])

    def test_python_floats_match_numpy_scalars(self):
        # the sweep on numpy arrays (numpy-scalar arithmetic) is the reference
        # for the sweep on lists of Python floats: same operations, same bits
        j = build(recurrence(ContinuousDualHahn(-3.5, 4.5, 4.5)), 40)
        d, e = j.diag.tolist(), j.offdiag.tolist() + [0.0]
        row = [1.0] + [0.0] * 39
        d_ref, e_ref = j.diag.copy(), np.append(j.offdiag, 0.0)
        row_ref = np.eye(40)[0]
        _ql_implicit(d, e, row)
        _ql_implicit(d_ref, e_ref, row_ref)
        assert np.array_equal(np.array(d), d_ref)
        assert np.array_equal(np.array(e), e_ref)
        assert np.array_equal(np.array(row), row_ref)

    @pytest.mark.parametrize("mode", ["values", "first_row"])
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


# -- the kernel against the plain sweep -------------------------------------

_MODES = ("values", "first_row")
# A sweep over [0, 2] leaves e_1 far below the split threshold.
_INTERIOR_SPLIT = ([-3.0, 0.0, -4.0], [2.0, 1e-12])
# A sweep over [0, 3] leaves e_2 just below the threshold of diagonals of
# unequal size, at 0.23 of the norm cutoff, while e_0 still fails.
_BORDERLINE_SPLIT = ([-4.0, 8.0, -1.0, -9.0], [1.0, 1.0, 3.0803399203573405e-15])
# A sweep over [0, 4] underflows to a zero rotation at i = 1.
_UNDERFLOW = ([0.0, 1e-320, 1e-320, 1e-320, 1e-320], [1e-320, 1e-310, 1e-310, 1.0])


def _start_row(n: int, mode: str, k: int = 0) -> list[float] | None:
    if mode == "values":
        return None
    row = [0.0] * n
    row[k] = 1.0
    return row


def _run(kernel, diag, offdiag, row):
    d, e = list(diag), [*offdiag, 0.0]
    row = None if row is None else list(row)
    try:
        kernel(d, e, row)
        error = None
    except ConvergenceError as exc:
        error = (exc.index, str(exc))
    return d, e, row, error


def _bits(xs) -> list[bytes]:
    return [struct.pack("<d", x) for x in xs]


def _assert_kernel_matches_reference(diag, offdiag, row, cap=None):
    with pytest.MonkeyPatch.context() as patch:
        if cap is not None:
            patch.setattr(eig, "_MAX_SWEEPS", cap)
            patch.setattr(oracles, "_MAX_SWEEPS", cap)
        d, e, out, error = _run(_ql_implicit, diag, offdiag, row)
        d_ref, e_ref, out_ref, error_ref = _run(ql_implicit_reference, diag, offdiag, row)
    assert error == error_ref
    assert _bits(d) == _bits(d_ref)
    assert _bits(e) == _bits(e_ref)
    if row is None:
        assert out is None
    else:
        # The kernel leaves the zero tail of the row unrotated at +0.0, where
        # the reference's rotation of two zeros may give -0.0; every nonzero
        # entry has the same bits, and a zero left in the final row makes
        # decompose raise whatever its sign.
        assert _bits(x if x else 0.0 for x in out) == _bits(x if x else 0.0 for x in out_ref)


def _reference_stops(diag, offdiag, line: str) -> list[dict]:
    """The locals l, m, d and e (copied) of the reference sweep each time it
    reaches the line with text ``line``, traced line by line."""
    code = ql_implicit_reference.__code__
    lines, first = inspect.getsourcelines(ql_implicit_reference)
    lineno = first + next(i for i, t in enumerate(lines) if t.strip() == line)
    stops = []

    def trace(frame, event, arg):
        if frame.f_code is not code:
            return None
        if event == "line" and frame.f_lineno == lineno:
            state = frame.f_locals
            stops.append({"l": state["l"], "m": state["m"], "d": state["d"][:], "e": state["e"][:]})
        return trace

    sys.settrace(trace)
    try:
        ql_implicit_reference(list(diag), [*offdiag, 0.0], None)
    finally:
        sys.settrace(None)
    return stops


def _interior_splits(diag, offdiag) -> list[tuple[int, int, int]]:
    """(l, m, j) for each sweep of the reference over [l, m] after which
    e_j, l < j < m, passes the split test, read where the next scan ends."""
    found = []
    scans = _reference_stops(diag, offdiag, "if m == l:")
    for before, after in zip(scans, scans[1:]):
        l, m, d, e = before["l"], before["m"], after["d"], after["e"]
        if m != l:
            found.extend(
                (l, m, j) for j in range(l + 1, m)
                if abs(e[j]) <= _EPS * (abs(d[j]) + abs(d[j + 1]))
            )
    return found


@st.composite
def _family_matrices(draw) -> JacobiMatrix:
    kind = draw(st.sampled_from(["charlier", "meixner", "krawtchouk", "cdh", "wilson"]))
    n = draw(st.integers(1, 150))
    positive = st.floats(0.05, 8.0)
    unit = st.floats(0.01, 0.99)
    if kind == "charlier":
        spec = Charlier(draw(positive))
    elif kind == "meixner":
        spec = Meixner(draw(positive), draw(unit))
    elif kind == "krawtchouk":
        spec = Krawtchouk(draw(st.integers(max(n - 1, 1), 2000)), draw(unit))
    else:
        mu = draw(st.floats(-4.0, 4.0).filter(lambda v: abs(v) >= 0.05))
        others = [draw(positive) + max(0.0, -mu) for _ in range(2 if kind == "cdh" else 3)]
        spec = (ContinuousDualHahn if kind == "cdh" else Wilson)(mu, *others)
    return build(recurrence(spec), n)


@st.composite
def _random_tridiagonals(draw) -> tuple[list[float], list[float]]:
    """Diagonals spread or clustered; couplings ordinary, tiny (1e-17 to
    1e-200 relative), exactly zero, or up to 8 times the split threshold of
    their diagonals, which a sweep can push just below it; all scaled by
    1e-300 to 1e300."""
    n = draw(st.integers(1, 40))
    scale = 10.0 ** draw(st.floats(-300.0, 300.0))
    unit = st.floats(-1.0, 1.0)
    diag = draw(st.lists(unit, min_size=n, max_size=n))
    if draw(st.booleans()):
        spread = 10.0 ** -draw(st.floats(3.0, 16.0))
        diag = [diag[0] + spread * x for x in diag]
    tiny = st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(17.0, 200.0)).map(
        lambda t: t[0] * 10.0 ** -t[1]
    )
    near = st.floats(1.0, 8.0).map(lambda k: (k,))
    offdiag = draw(
        st.lists(st.one_of(unit, tiny, st.just(0.0), near), min_size=n - 1, max_size=n - 1)
    )
    offdiag = [
        x[0] * _EPS * (abs(diag[i]) + abs(diag[i + 1])) if isinstance(x, tuple) else x
        for i, x in enumerate(offdiag)
    ]
    return [scale * x for x in diag], [scale * x for x in offdiag]


class TestKernelMatchesReference:
    """The kernel's split record, norm cutoff and zero-tail skip save work
    only: d, e and the row come out with the bits of the plain sweep, and a
    sweep cap is hit at the same index."""

    def test_fixed_examples_leave_interior_splits(self):
        # so that the examples below run the recorded-split path
        assert _interior_splits(*_INTERIOR_SPLIT) == [(0, 2, 1)]
        assert _interior_splits(*_BORDERLINE_SPLIT) == [(0, 3, 2)]
        scans = _reference_stops(*_BORDERLINE_SPLIT, "if m == l:")
        assert [(s["l"], s["m"]) for s in scans[:2]] == [(0, 3), (0, 2)]
        # and the underflow break
        assert [(s["l"], s["m"]) for s in _reference_stops(*_UNDERFLOW, "underflowed = True")] == [(0, 4)]

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(j=_family_matrices(), mode=st.sampled_from(_MODES), start=st.integers(0, 200))
    def test_family_matrices(self, j, mode, start):
        n = j.dimension
        # half the rows start at e_0, as decompose's does
        row = _start_row(n, mode, 0 if start % 2 else start % n)
        _assert_kernel_matches_reference(j.diag.tolist(), j.offdiag.tolist(), row)

    # The orders rule_sweep runs, which the strategy above never reaches: a
    # rule at up to N = 300, the row started as decompose starts it, and
    # nodes only at N = 800.
    @pytest.mark.parametrize(
        "spec,n,mode",
        [
            (Charlier(2.0), 300, "first_row"),
            (Meixner(2.0, 0.4), 300, "first_row"),
            (Krawtchouk(400, 0.3), 300, "first_row"),
            (ContinuousDualHahn(1.5, 2.0, 3.0), 300, "first_row"),
            (Wilson(1.0, 1.2, 1.5, 2.0), 300, "first_row"),
            (Charlier(2.0), 800, "values"),
        ],
    )
    def test_large_orders(self, spec, n, mode):
        j = build(recurrence(spec), n)
        row = None if mode == "values" else [2.0**eig._ROW_EXP] + [0.0] * (n - 1)
        _assert_kernel_matches_reference(j.diag.tolist(), j.offdiag.tolist(), row)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        matrix=_random_tridiagonals(),
        mode=st.sampled_from(_MODES),
        start=st.integers(0, 100),
        cap=st.sampled_from([None, None, 1, 2]),
    )
    @example(matrix=_INTERIOR_SPLIT, mode="values", start=0, cap=None)
    @example(matrix=_INTERIOR_SPLIT, mode="first_row", start=0, cap=None)
    @example(matrix=_INTERIOR_SPLIT, mode="first_row", start=2, cap=None)
    @example(matrix=_INTERIOR_SPLIT, mode="first_row", start=0, cap=1)
    @example(matrix=_BORDERLINE_SPLIT, mode="values", start=0, cap=None)
    @example(matrix=_UNDERFLOW, mode="first_row", start=0, cap=None)
    # the break at i = 1 where the sweep also rotates the row (top >= 1)
    @example(matrix=_UNDERFLOW, mode="first_row", start=4, cap=None)
    @example(matrix=_UNDERFLOW, mode="first_row", start=2, cap=None)
    def test_random_tridiagonals(self, matrix, mode, start, cap):
        diag, offdiag = matrix
        row = _start_row(len(diag), mode, start % len(diag))
        _assert_kernel_matches_reference(diag, offdiag, row, cap)
