"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints a single PASS line when it holds (run with -s or check the -v test
listing).  Criteria 1-4 reproduce the bundled reference tables at full
scale, with runtime budgets; 5-10 are the property checks.
"""

import math
import time

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from oracles import (
    deleted_submatrix_eigenvalues,
    eigenvector_matrix,
    eval_poly,
    finite_support,
    gauss_rule_eigenvalue_only,
    power_element,
)
from quadsum.apply import exact_shifted_power_sum, matrix_function_element
from quadsum.eig import eigenvalues
from quadsum.families import (
    Charlier,
    ContinuousDualHahn,
    ContinuousPart,
    Custom,
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
from quadsum.tables import run_table


@pytest.fixture(scope="module")
def table1():
    t0 = time.perf_counter()
    report = run_table(1)
    return report, time.perf_counter() - t0


@pytest.fixture(scope="module")
def table2():
    t0 = time.perf_counter()
    report = run_table(2)
    return report, time.perf_counter() - t0


@pytest.fixture(scope="module")
def table3():
    t0 = time.perf_counter()
    report = run_table(3)
    return report, time.perf_counter() - t0


def _assert_cells(cells):
    for c in cells:
        assert c.passed, (
            f"cell {c.label} N={c.n}: computed {c.rel_error!r} "
            f"vs published {c.published!r} ({c.error or 'out of tolerance'})"
        )


def _rule_sane(rule):
    assert abs(math.fsum(rule.weights.tolist()) - 1.0) <= 1e-12
    assert np.all(rule.weights > 0.0)
    assert np.all(np.diff(rule.nodes) > 0.0)


def test_criterion_01_infinite_sum_charlier_column(table1):
    report, elapsed = table1
    _assert_cells([c for c in report.cells if c.label == "charlier"])
    assert elapsed < 1.0, f"table 1 took {elapsed:.2f}s"
    print("\nACCEPTANCE 1: PASS - Charlier column of table 1 within tolerance, "
          f"{elapsed * 1e3:.0f} ms")


def test_criterion_02_infinite_sum_meixner_rows(table1):
    report, _ = table1
    meixner_cells = [c for c in report.cells if c.label.startswith("meixner")]
    assert len(meixner_cells) == 15
    _assert_cells(meixner_cells)
    print("\nACCEPTANCE 2: PASS - Meixner rows of table 1 within tolerance")


def test_criterion_03_finite_sum_krawtchouk(table2):
    report, elapsed = table2
    assert len(report.cells) == 20
    _assert_cells(report.cells)
    # closed-form reference cross-checked against brute-force summation in
    # 40-digit arithmetic, independent of the library's gamma
    with mp.workdps(40):
        brute = float(mp.fsum((k + 1) * mp.mpf(3) ** (k + 1) / mp.gamma(k + 3 + 2)
                              for k in range(101)))
    closed = exact_shifted_power_sum(3.0, 100)
    assert abs(closed - brute) <= 1e-14 * abs(brute)
    assert elapsed < 2.0, f"table 2 took {elapsed:.2f}s"
    print("\nACCEPTANCE 3: PASS - table 2 within tolerance, reference cross-checked, "
          f"{elapsed * 1e3:.0f} ms")


def test_criterion_04_mixed_measure_table(table3):
    report, elapsed = table3
    assert len(report.cells) == 25
    _assert_cells(report.cells)
    assert elapsed < 10.0, f"table 3 took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 4: PASS - table 3 within tolerance, {elapsed:.2f} s")


_EXACTNESS_FAMILIES = (
    Charlier(2.0),
    Meixner(2.0, 0.4),
    Krawtchouk(30, 0.3),
    ContinuousDualHahn(-3.5, 4.5, 4.5),
    Wilson(-3.5, 4.5, 5.5, 6.5),
)


def test_criterion_05_polynomial_exactness():
    # an N-point rule integrates monomials of degree <= 2N-1 exactly; the
    # reference moments come from the matrix-power route
    for spec in _EXACTNESS_FAMILIES:
        stream = recurrence(spec)
        for n in (2, 5, 10):
            rule = gauss_rule(build(stream, n))
            _rule_sane(rule)
            for k in range(2 * n):
                lhs = math.fsum(w * x**k for x, w in zip(rule.nodes, rule.weights))
                rhs = power_element(stream, k, 0, 0)
                assert abs(lhs - rhs) <= 1e-9 * abs(rhs), (
                    f"{spec!r} N={n} k={k}: {lhs!r} vs {rhs!r}"
                )
    print("\nACCEPTANCE 5: PASS - rules exact to degree 2N-1 at 1e-9, five families")


# Sizes at which double precision certifies the eigenvalue-only weights: the
# product formula's conditioning is roughly eps * ||J|| / (gap * weight), so
# once a rule starts resolving converged nodes (tiny interlacing gaps) or its
# tail weights fall toward the noise floor, no eigenvalue method can verify
# the identity at 1e-9.  Grids below were sized with >= 50x measured margin.
_CROSS_CHECK_GRID = (
    (Charlier(2.0), (2, 3, 4, 5, 6, 7)),
    (Charlier(2500.0), (2, 5, 8)),
    (Meixner(2.0, 0.4), (2, 3, 4, 5, 6)),
    (Meixner(200.0, 0.5), (2, 5, 8)),
    (Krawtchouk(100, 0.3), (2, 4, 6, 8)),
    (Krawtchouk(5000, 0.3), (2, 5)),
    (ContinuousDualHahn(2.5, 2.0, 3.0), (2, 3, 4, 5)),
    (ContinuousDualHahn(-3.5, 4.5, 4.5), (2, 3, 4)),
    (Wilson(1.0, 1.5, 2.0, 2.5), (2, 3, 4, 5)),
    (Wilson(-3.5, 4.5, 5.5, 6.5), (2, 3, 4)),
)


def test_criterion_06_cross_algorithm_weights():
    for spec, sizes in _CROSS_CHECK_GRID:
        stream = recurrence(spec)
        for n in sizes:
            j = build(stream, n)
            eps = eigenvalues(j)
            hat = deleted_submatrix_eigenvalues(j)
            for i in range(n - 1):
                assert eps[i] < hat[i] < eps[i + 1], f"{spec!r} N={n} index {i}"
            by_vectors = gauss_rule(j)
            by_values = gauss_rule_eigenvalue_only(j)
            _rule_sane(by_vectors)
            _rule_sane(by_values)
            rel = np.max(
                np.abs(by_values.weights - by_vectors.weights) / by_vectors.weights
            )
            assert rel <= 1e-9, f"{spec!r} N={n}: max weight deviation {rel:.3e}"
    print("\nACCEPTANCE 6: PASS - eigenvalue-only weights match at 1e-9 with "
          "strict interlacing, five families")


def test_criterion_07_orthonormality():
    # discrete: infinite (truncated) and finite exact summation
    spec = Charlier(2.0)
    st = recurrence(spec)
    d = measure(spec).discrete
    for n in range(6):
        for m in range(n + 1):
            s = d.weighted_sum(lambda x: eval_poly(st, n, x) * eval_poly(st, m, x))
            assert abs(s - (1.0 if n == m else 0.0)) <= 1e-10

    spec = Krawtchouk(20, 0.3)
    st = recurrence(spec)
    points, masses = finite_support(measure(spec).discrete)
    for n in range(11):
        for m in range(n + 1):
            s = math.fsum(
                xi * eval_poly(st, n, x) * eval_poly(st, m, x)
                for x, xi in zip(points, masses)
            )
            assert abs(s - (1.0 if n == m else 0.0)) <= 1e-10

    # mixed: scipy's adaptive integration of the continuous part plus the
    # exact discrete sum, in the squared spectral variable
    spec = ContinuousDualHahn(-3.5, 4.5, 4.5)
    st = recurrence(spec)
    ms = measure(spec)
    sigma = ms.continuous.density
    for n in range(4):
        for m in range(n + 1):
            cont, _ = quad(
                lambda x: sigma(x) * eval_poly(st, n, x * x) * eval_poly(st, m, x * x),
                0.0,
                math.inf,
            )
            disc = ms.discrete.weighted_sum(
                lambda y: eval_poly(st, n, y) * eval_poly(st, m, y)
            )
            total = cont + disc
            assert abs(total - (1.0 if n == m else 0.0)) <= 1e-8
    print("\nACCEPTANCE 7: PASS - discrete and mixed orthonormality at stated tolerances")


# The identity is certified where the rule has not resolved the measure's
# support (see the criterion-6 note); at the narrow table parameters the
# forward recurrence cannot reproduce sub-noise polynomial values at high
# degree, so degree 29 runs on broad parameters and the table parameters are
# checked at N=10.
_IDENTITY_GRID = (
    (Charlier(400.0), 30),
    (Meixner(200.0, 0.5), 30),
    (Krawtchouk(100, 0.3), 30),
    (Charlier(2.0), 10),
    (Meixner(2.0, 0.4), 10),
)


def test_criterion_08_eigenvector_polynomial_identity():
    for spec, size in _IDENTITY_GRID:
        st = recurrence(spec)
        values, vectors = eigenvector_matrix(build(st, size))
        for n in range(size):
            for k in range(size):
                ratio = vectors[n, k] / vectors[0, k]
                p = eval_poly(st, n, float(values[k]))
                rel = abs(p - ratio) / max(abs(p), abs(ratio))
                assert rel <= 1e-8, f"{spec!r} N={size} (n={n}, k={k}): {rel:.3e}"
    print("\nACCEPTANCE 8: PASS - p_n(eps_k) = L_nk/L_0k at 1e-8, three discrete families")


def _uniform_custom():
    stream = RecurrenceStream(
        a=lambda n: 0.0,
        b=lambda n: -(n + 1) / math.sqrt((2 * n + 1) * (2 * n + 3)),
    )
    return Custom(
        stream, MeasureSpec(continuous=ContinuousPart(lambda x: 0.5, (-1.0, 1.0)))
    )


_SANITY_CONFIGS = (
    [(Charlier(2.0), n) for n in (2, 4, 7, 10, 15)]
    + [(Meixner(2.0, b), n) for b in (0.2, 0.4, 0.6) for n in (2, 4, 7, 10, 15)]
    + [(Krawtchouk(100, g), n) for g in (0.01, 0.1, 0.2, 0.3) for n in (10, 20, 30, 40, 50)]
    + [
        (ContinuousDualHahn(-3.5, a, a), n)
        for a in (4.5, 5.5, 6.5, 7.5, 8.5)
        for n in (10, 20, 30, 50, 100)
    ]
    + [(Wilson(-3.5, 4.5, 5.5, 6.5), n) for n in (2, 10, 25, 50)]
    + [(_uniform_custom(), n) for n in (1, 10)]
)


def test_criterion_09_rule_sanity_everywhere():
    for spec, n in _SANITY_CONFIGS:
        rule = gauss_rule(build(recurrence(spec), n))
        assert rule.order == n
        _rule_sane(rule)
    print(f"\nACCEPTANCE 9: PASS - unit mass, positive weights, sorted nodes on "
          f"{len(_SANITY_CONFIGS)} rules")


def test_criterion_10_matrix_function_consistency():
    for spec in (Charlier(2.0), Meixner(2.0, 0.4), Krawtchouk(100, 0.3)):
        stream = recurrence(spec)
        j = build(stream, 12)
        for k in range(9):
            mf = matrix_function_element(j, lambda t, k=k: t**k)
            pw = power_element(stream, k, 0, 0)
            assert abs(mf - pw) <= 1e-10 * max(1.0, abs(pw))
    print("\nACCEPTANCE 10: PASS - spectral matrix function matches matrix powers "
          "for k <= 8 at 1e-10")
