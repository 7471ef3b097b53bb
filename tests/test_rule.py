"""Tests for quadrature rule construction and derivative weights."""

import math

import mpmath
import numpy as np
import pytest

import quadsum.rule
from oracles import InterlacingError, gauss_rule_eigenvalue_only, power_element
from quadsum.eig import EigenDecomposition, decompose
from quadsum.errors import NumericalError, ValidationError
from quadsum.families import Charlier, Krawtchouk, Meixner, recurrence
from quadsum.jacobi import JacobiMatrix, build
from quadsum.rule import QuadratureRule, derivative_weights, gauss_rule


class TestGaussRule:
    def test_one_point(self):
        r = gauss_rule(build(recurrence(Charlier(2.0)), 1))
        assert r.nodes.tolist() == [2.0]
        assert r.weights.tolist() == [1.0]
        assert r.order == 1

    def test_charlier_two_point(self):
        r = gauss_rule(build(recurrence(Charlier(2.0)), 2))
        assert r.nodes == pytest.approx([1.0, 4.0], rel=1e-14)
        assert r.weights == pytest.approx([2.0 / 3.0, 1.0 / 3.0], rel=1e-14)

    def test_mean_matches_first_matrix_element(self):
        st = recurrence(Charlier(2.0))
        r = gauss_rule(build(st, 2))
        mean = math.fsum(w * x for x, w in zip(r.nodes, r.weights))
        assert mean == pytest.approx(power_element(st, 1, 0, 0), rel=1e-14)

    def test_unit_mass_and_positivity(self):
        for spec, n in [(Charlier(2.0), 15), (Meixner(2.0, 0.6), 15), (Krawtchouk(100, 0.01), 50)]:
            r = gauss_rule(build(recurrence(spec), n))
            assert abs(math.fsum(r.weights.tolist()) - 1.0) <= 1e-12
            assert np.all(r.weights > 0.0)
            assert np.all(np.diff(r.nodes) > 0.0)



class TestKrawtchoukFullSupport:
    """At N = M+1 the Gauss rule of Krawtchouk(M, gamma) is its measure:
    node k is k and its weight is the binomial mass C(M,k) gamma^k
    (1-gamma)^(M-k).  The reference ln masses come from mpmath at 50
    digits; double logs of exact masses lose about 1e-12 at M = 200.  Each
    band is about twice the worst error measured (all at tail nodes), so
    that weights from a more accurate method can tighten them."""

    @pytest.mark.parametrize("M, gamma, node_band, ln_band", [
        (20, 0.1, 3e-14, 5e-14),
        (20, 0.3, 3e-14, 1e-13),
        (100, 0.1, 2e-13, 3e-12),
        (100, 0.3, 2e-13, 2e-12),
        (200, 0.1, 5e-13, 3e-12),
        (200, 0.3, 5e-13, 4e-11),
    ])
    def test_nodes_and_weights_are_the_measure(self, M, gamma, node_band, ln_band):
        rule = gauss_rule(build(recurrence(Krawtchouk(M, gamma)), M + 1))
        with mpmath.workdps(50):
            g = mpmath.mpf(gamma)
            ln_mass = [float(mpmath.log(mpmath.binomial(M, k)) + k * mpmath.log(g)
                             + (M - k) * mpmath.log(1 - g)) for k in range(M + 1)]
        assert max(abs(x - k) for k, x in enumerate(rule.nodes.tolist())) <= node_band
        ln_errors = [abs(math.log(w) - ref) for w, ref in zip(rule.weights.tolist(), ln_mass)]
        assert max(ln_errors) <= ln_band


class TestEigenvalueOnlyRule:
    def test_two_point_arithmetic(self):
        # w0 = (1-3)/(1-4), w1 = (4-3)/(4-1) by direct substitution
        r = gauss_rule_eigenvalue_only(build(recurrence(Charlier(2.0)), 2))
        assert r.weights == pytest.approx([2.0 / 3.0, 1.0 / 3.0], rel=1e-13)

    def test_agrees_with_eigenvector_route(self):
        j = build(recurrence(Charlier(2.0)), 5)
        a = gauss_rule(j)
        b = gauss_rule_eigenvalue_only(j)
        assert np.max(np.abs(b.weights - a.weights) / a.weights) < 1e-11
        assert np.array_equal(a.nodes, b.nodes)

    def test_needs_two_points(self):
        with pytest.raises(ValidationError):
            gauss_rule_eigenvalue_only(build(recurrence(Charlier(2.0)), 1))

    def test_interlacing_breakdown_detected(self):
        # eigenvalues of this matrix coincide to machine precision, so the
        # submatrix spectrum cannot strictly separate them
        j = JacobiMatrix(np.array([1.0, 1.0]), np.array([1e-300]))
        with pytest.raises(InterlacingError) as exc:
            gauss_rule_eigenvalue_only(j)
        assert str(exc.value) == (
            "interlacing violated near index 0: eps=1.0, hat=1.0, next eps=1.0"
        )

    def test_log_space_survives_product_overflow(self):
        # a power-of-two rescaling leaves the weights unchanged (exactly, in
        # floating point) while blowing the raw spacing products past the
        # double range; the log-space route must not care
        base = build(recurrence(Charlier(2500.0)), 8)
        scale = 2.0**145
        j = JacobiMatrix(base.diag * scale, base.offdiag * scale)
        r5 = gauss_rule(j)
        r6 = gauss_rule_eigenvalue_only(j)
        with np.errstate(over="ignore"):
            naive = max(
                np.prod(np.abs(r6.nodes[k] - np.delete(r6.nodes, k)))
                for k in range(r6.order)
            )
        assert math.isinf(naive)
        assert np.all(np.isfinite(r6.weights)) and np.all(r6.weights > 0.0)
        assert np.max(np.abs(r6.weights - r5.weights) / r5.weights) < 1e-9


class TestRuleCache:
    """gauss_rule keeps nothing between calls: each call decomposes J and
    returns arrays of its own, and a failure is raised again."""

    @pytest.fixture
    def decompose_calls(self, monkeypatch):
        """The matrix sizes gauss_rule decomposes."""
        calls = []

        def counting(j, mode):
            calls.append(j.dimension)
            return decompose(j, mode=mode)

        monkeypatch.setattr(quadsum.rule, "decompose", counting)
        return calls

    def test_writing_into_a_rule_leaves_the_next_call_alone(self, decompose_calls):
        j = build(recurrence(Meixner(2.0, 0.4)), 12)
        first = gauss_rule(j)
        expected = first.nodes.tobytes(), first.weights.tobytes()
        first.nodes[:] = 0.0
        first.weights[:] = -1.0
        again = gauss_rule(j)
        assert (again.nodes.tobytes(), again.weights.tobytes()) == expected
        assert decompose_calls == [12, 12]

    def test_failed_decomposition_is_not_cached(self, decompose_calls):
        reducible = JacobiMatrix(np.array([1.0, 2.0]), np.array([0.0]))
        for _ in range(2):
            with pytest.raises(NumericalError, match="reducible"):
                gauss_rule(reducible)
        assert decompose_calls == [2, 2]

    def test_failed_rule_check_is_not_cached(self, monkeypatch):
        calls = []

        def unsorted(j, mode):
            calls.append(mode)
            return EigenDecomposition(np.array([1.0, 0.0]), np.array([0.5, 0.5]) ** 0.5)

        monkeypatch.setattr(quadsum.rule, "decompose", unsorted)
        j = build(recurrence(Charlier(2.0)), 2)
        for _ in range(2):
            with pytest.raises(NumericalError, match="increasing"):
                gauss_rule(j)
        assert calls == ["first_row", "first_row"]


class TestQuadratureRuleValidation:
    def test_rejects_unequal_sizes(self):
        with pytest.raises(ValidationError) as exc:
            QuadratureRule([0.0, 1.0], [1.0])
        assert str(exc.value) == "nodes and weights must be 1-d arrays of equal size"

    def test_rejects_unsorted_nodes(self):
        with pytest.raises(NumericalError, match="increasing"):
            QuadratureRule(np.array([1.0, 1.0]), np.array([0.5, 0.5]))

    def test_rejects_negative_weights(self):
        with pytest.raises(NumericalError, match="negative"):
            QuadratureRule(np.array([0.0, 1.0]), np.array([1.1, -0.1]))

    def test_rejects_wrong_mass(self):
        with pytest.raises(NumericalError, match="sum"):
            QuadratureRule(np.array([0.0, 1.0]), np.array([0.6, 0.6]))

    def test_rejects_nonfinite(self):
        with pytest.raises(NumericalError):
            QuadratureRule(np.array([0.0, math.nan]), np.array([0.5, 0.5]))
        for nodes, weights in [
            ([math.nan, 1.0], [0.5, 0.5]),
            ([0.0, 1.0], [math.nan, 0.5]),
            ([0.0, 1.0], [0.5, math.nan]),
        ]:
            with pytest.raises(NumericalError, match="non-finite nodes or weights"):
                QuadratureRule(np.array(nodes), np.array(weights))


class TestDerivativeWeights:
    def test_unit_weight_function(self):
        r = gauss_rule(build(recurrence(Charlier(2.0)), 4))
        assert derivative_weights(r, lambda x: 1.0) == pytest.approx(r.weights)

    def test_constant_weight_function(self):
        r = gauss_rule(build(recurrence(Charlier(2.0)), 4))
        assert derivative_weights(r, lambda x: 2.0) == pytest.approx(r.weights / 2.0)

    def test_positive_outputs(self):
        spec = Charlier(2.0)
        from quadsum.families import measure

        chi = measure(spec).discrete.density
        r = gauss_rule(build(recurrence(spec), 7))
        assert np.all(derivative_weights(r, chi) > 0.0)

    def test_rejects_nonpositive_weight_function(self):
        r = gauss_rule(build(recurrence(Charlier(2.0)), 3))
        with pytest.raises(ValidationError, match="positive") as exc:
            derivative_weights(r, lambda x: 0.0)
        assert str(exc.value) == (
            "weight function must be positive and finite at node 0.5107114281899208, got 0.0"
        )
        with pytest.raises(ValidationError, match="positive"):
            derivative_weights(r, lambda x: -1.0)
        with pytest.raises(ValidationError, match="positive"):
            derivative_weights(r, lambda x: math.nan)

    def test_overflowing_weight_function_names_the_node(self):
        r = gauss_rule(build(recurrence(Charlier(2.0)), 3))
        with pytest.raises(ValidationError) as exc:
            derivative_weights(r, lambda x: math.exp(1e4 * x))
        assert str(exc.value) == (
            "weight function must be positive and finite at node 0.5107114281899208, got inf"
        )
