"""Tests for functional application and the reference values."""

import math
import random
import sys
import threading
from dataclasses import dataclass

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

import quadsum.apply
import quadsum.rule
from oracles import eigenvector_matrix
from quadsum.apply import (
    FUNCTIONAL_KINDS,
    Functional,
    approximate,
    exact_exponential_sum,
    exact_shifted_power_sum,
    relative_error,
    matrix_function_element,
    spectral_reference,
)
from quadsum.eig import EigenDecomposition
from quadsum.errors import NumericalError, ValidationError
from quadsum.families import (
    Charlier,
    ContinuousDualHahn,
    ContinuousPart,
    Custom,
    FamilySpec,
    Krawtchouk,
    MeasureSpec,
    Meixner,
    RecurrenceStream,
    measure,
    recurrence,
)
from quadsum.jacobi import build
from quadsum.rule import derivative_weights, gauss_rule
from quadsum.special import ln_gamma


def _t1_f(x: float) -> float:
    return math.exp(x * math.log(3.0) - ln_gamma(x + 1.0))


def _t3_f(y: float) -> float:
    if y > 1400.0:
        return 0.0
    return y**3 * math.exp(-0.5 * y)


CDH = ContinuousDualHahn(-3.5, 4.5, 4.5)


class TestFunctionalValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValidationError, match="kind"):
            Functional("sum", lambda x: x, Charlier(2.0), 3)

    def test_one_name_per_computation(self):
        assert FUNCTIONAL_KINDS == (
            "weighted_integral",
            "plain_integral",
            "weighted_sum",
            "plain_sum",
            "mixed",
            "continuous_part",
        )
        with pytest.raises(ValidationError, match="kind"):
            Functional("mixed_squared_arg", lambda y: y, CDH, 3)

    def test_bad_order(self):
        with pytest.raises(ValidationError, match="order"):
            Functional("plain_sum", lambda x: x, Charlier(2.0), 0)

    @pytest.mark.parametrize("order", [3.0, 2.5, "3", True])
    def test_non_integral_order(self, order):
        with pytest.raises(ValidationError) as exc:
            Functional("weighted_sum", lambda x: x, Charlier(2.0), order)
        assert str(exc.value) == f"order must be an integer, got {order!r}"

    def test_numpy_integer_order(self):
        fn = Functional("weighted_sum", lambda x: 1.0, Charlier(2.0), np.int64(3))
        assert approximate(fn) == approximate(
            Functional("weighted_sum", lambda x: 1.0, Charlier(2.0), 3)
        )

    def test_kind_family_compatibility(self):
        with pytest.raises(ValidationError, match="continuous"):
            approximate(Functional("weighted_integral", lambda x: 1.0, Charlier(2.0), 3))
        with pytest.raises(ValidationError, match="discrete"):
            approximate(Functional("plain_sum", lambda x: 1.0, CDH, 3))
        with pytest.raises(ValidationError, match="both"):
            approximate(Functional("mixed", lambda x: 1.0, Charlier(2.0), 3))
        with pytest.raises(ValidationError, match="purely continuous"):
            approximate(Functional("plain_integral", lambda x: 1.0, CDH, 3))


class TestApproximate:
    def test_constant_integrand_gives_total_mass(self):
        v = approximate(Functional("weighted_sum", lambda x: 1.0, Charlier(2.0), 6))
        assert v == pytest.approx(1.0, abs=1e-12)

    def test_linear_integrand_gives_mean(self):
        v = approximate(Functional("weighted_sum", lambda x: x, Charlier(2.0), 2))
        assert v == pytest.approx(2.0, rel=1e-13)

    def test_plain_sum_reproduces_exponential(self):
        v = approximate(Functional("plain_sum", _t1_f, Charlier(2.0), 7))
        err = relative_error(exact_exponential_sum(3.0), v)
        assert 4.165e-11 / 5.0 <= err <= 4.165e-11 * 5.0

    def test_weighted_integral_on_continuous_family(self):
        spec = ContinuousDualHahn(2.0, 1.0, 3.0)
        v = approximate(Functional("weighted_integral", lambda x: 1.0, spec, 5))
        assert v == pytest.approx(1.0, abs=1e-12)

    def test_mixed_squared_arg_constant(self):
        v = approximate(Functional("mixed", lambda y: 1.0, CDH, 8))
        assert v == pytest.approx(1.0, abs=1e-12)

    def test_nonfinite_integrand_reports_node(self):
        with pytest.raises(NumericalError, match="node") as exc:
            approximate(Functional("weighted_sum", lambda x: math.inf, Charlier(2.0), 3))
        # the node prints as a plain float, not a numpy scalar repr
        assert str(exc.value) == "integrand is not finite at node 0.5107114281899208"

    def test_overflowing_sum_is_numerical_failure(self):
        # a term w*f(x) overflows to inf and fsum's running sum overflows
        with pytest.raises(NumericalError, match="overflows") as exc:
            approximate(Functional("plain_sum", lambda x: 1e308, Charlier(2.0), 5))
        assert str(exc.value) == "quadrature sum overflows the float range"

    def test_overflowed_terms_of_both_signs_are_numerical_failure(self):
        # two terms w*f(x) overflow to +inf and -inf, which fsum cannot add
        rule = gauss_rule(build(recurrence(Charlier(2.0)), 40))
        weights = derivative_weights(rule, measure(Charlier(2.0)).discrete.density)
        big = sorted(zip(weights.tolist(), rule.nodes.tolist()))[-2:]
        assert all(w * 1.7e308 == math.inf for w, _ in big)
        signs = {x: s for (_, x), s in zip(big, (1.0, -1.0))}
        with pytest.raises(NumericalError, match="overflows"):
            approximate(Functional("plain_sum", lambda x: signs.get(x, 0.0) * 1.7e308, Charlier(2.0), 40))

    def test_exactness_transfer_for_mixed_measure(self):
        # monomials of degree <= 2N-1 in the squared variable integrate to
        # the matrix-power moments
        from oracles import power_element

        st = recurrence(CDH)
        for n in (3, 6, 10):
            for k in range(2 * n):
                fn = Functional("mixed", lambda y, k=k: y**k, CDH, n)
                lhs = approximate(fn)
                rhs = power_element(st, k, 0, 0)
                assert abs(lhs - rhs) <= 1e-9 * abs(rhs), f"N={n} k={k}"

    def test_plain_integral_via_custom_uniform_family(self):
        # orthonormal family of the uniform density 1/2 on [-1, 1]; the plain
        # integral of x^2 over [-1, 1] is 2/3
        from quadsum.families import RecurrenceStream

        stream = RecurrenceStream(
            a=lambda n: 0.0,
            b=lambda n: -(n + 1) / math.sqrt((2 * n + 1) * (2 * n + 3)),
        )
        ms = MeasureSpec(continuous=ContinuousPart(lambda x: 0.5, (-1.0, 1.0)))
        spec = Custom(stream, ms)
        v = approximate(Functional("plain_integral", lambda x: x * x, spec, 6))
        assert v == pytest.approx(2.0 / 3.0, rel=1e-12)


def _t2_f(x: float) -> float:
    return (x + 1.0) * math.exp((x + 1.0) * math.log(3.0) - ln_gamma(x + 5.0))


# One functional per kind; the first call of each is a miss, the second a hit.
_EVERY_KIND = (
    Functional("weighted_integral", lambda y: math.exp(-0.1 * y), ContinuousDualHahn(2.0, 1.0, 3.0), 9),
    Functional("plain_integral", lambda y: math.exp(-y), ContinuousDualHahn(2.0, 1.0, 3.0), 7),
    Functional("weighted_sum", lambda x: x**3, Meixner(2.0, 0.4), 6),
    Functional("plain_sum", _t2_f, Krawtchouk(100, 0.3), 20),
    Functional("mixed", _t3_f, CDH, 30),
    Functional("continuous_part", _t3_f, CDH, 30),
)


@dataclass(frozen=True)
class Shifted(FamilySpec):
    """A family whose order-1 rule has its one node at ``shift``; its
    measure is Charlier's, read here only for its discrete component."""

    shift: float

    def recurrence(self) -> RecurrenceStream:
        shift = self.shift
        return RecurrenceStream(a=lambda n: shift, b=lambda n: -1.0, size=2)

    def measure(self) -> MeasureSpec:
        return measure(Charlier(2.0))


@dataclass
class MutableCharlier(FamilySpec):
    """A Charlier family whose mu can be changed after construction."""

    mu: float

    def recurrence(self) -> RecurrenceStream:
        return Charlier(self.mu).recurrence()

    def measure(self) -> MeasureSpec:
        return Charlier(self.mu).measure()


class StatefulCharlier(Charlier):
    """A frozen Charlier subclass, not a dataclass itself, whose recurrence
    reads an attribute that is not a field."""

    def recurrence(self) -> RecurrenceStream:
        return Charlier(self.mu + self.extra).recurrence()


class TestApproximateCache:
    @pytest.fixture(autouse=True)
    def empty_caches(self, monkeypatch):
        monkeypatch.setattr(quadsum.apply, "_CACHE", quadsum.rule._RuleCache())
        monkeypatch.setattr(quadsum.rule, "_CACHE", quadsum.rule._RuleCache())

    @pytest.fixture
    def calls(self, monkeypatch):
        """The names approximate calls through quadsum.apply, with the order
        of each build (the misses)."""
        seen = []
        for name in ("measure", "recurrence", "build", "gauss_rule", "derivative_weights"):
            def counting(*args, _name=name, _fn=getattr(quadsum.apply, name)):
                seen.append((_name, args[1]) if _name == "build" else _name)
                return _fn(*args)

            monkeypatch.setattr(quadsum.apply, name, counting)
        return seen

    @staticmethod
    def held():
        cache = quadsum.apply._CACHE
        assert cache.nodes == sum(nodes for _, nodes in cache._rules.values())
        return cache.nodes

    @staticmethod
    def builds(calls):
        return [call[1] for call in calls if isinstance(call, tuple)]

    @pytest.mark.parametrize("fn", _EVERY_KIND, ids=[fn.kind for fn in _EVERY_KIND])
    def test_hit_equals_computation_with_empty_caches(self, fn, calls):
        fresh = approximate(fn)
        assert len(calls) == (5 if fn.kind.startswith("plain") else 4)
        calls.clear()
        for _ in range(2):
            assert approximate(fn).hex() == fresh.hex()
        assert calls == []  # the hits ran only the integrand loop
        (_, rule, weights), = [entry for entry, _ in quadsum.apply._CACHE._rules.values()]
        assert not weights.flags.writeable
        assert (weights is rule.weights) == (not fn.kind.startswith("plain"))
        assert self.held() == fn.order

    def test_failing_density_is_not_stored(self, calls):
        # Charlier(2)'s density underflows to 0.0 at the far nodes of N=180
        fn = Functional("plain_sum", _t1_f, Charlier(2.0), 180)
        for _ in range(2):
            with pytest.raises(ValidationError, match="weight function must be positive"):
                approximate(fn)
        assert calls.count("derivative_weights") == 2
        assert self.held() == 0

    def test_failing_rule_is_not_stored(self, monkeypatch, calls):
        def unsorted(j, mode):
            return EigenDecomposition(np.array([1.0, 0.0]), np.array([0.5, 0.5]) ** 0.5)

        monkeypatch.setattr(quadsum.rule, "decompose", unsorted)
        fn = Functional("weighted_sum", lambda x: x, Charlier(2.0), 2)
        for _ in range(2):
            with pytest.raises(NumericalError, match="increasing"):
                approximate(fn)
        assert calls.count("gauss_rule") == 2
        assert self.held() == 0

    def test_kind_is_checked_on_a_hit(self, calls):
        approximate(Functional("weighted_sum", lambda x: 1.0, Charlier(2.0), 3))
        for _ in range(2):  # same key (family, order, no density): a hit each time
            with pytest.raises(ValidationError, match="purely continuous"):
                approximate(Functional("weighted_integral", lambda x: 1.0, Charlier(2.0), 3))
        assert self.builds(calls) == [3]

    def test_failing_integrand_on_a_hit_raises_again(self):
        fn = Functional("weighted_sum", lambda x: math.inf, Charlier(2.0), 3)
        for _ in range(2):
            with pytest.raises(NumericalError, match="not finite at node"):
                approximate(fn)
        assert self.held() == 3  # the rule is good; only the integrand failed

    def test_node_budget_and_lru_order(self, monkeypatch, calls):
        monkeypatch.setattr(quadsum.rule, "_CACHE_NODES", 10)

        def run(mu, order):
            return approximate(Functional("weighted_sum", lambda x: x, Charlier(mu), order))

        first = run(2.0, 4)
        run(3.0, 4)
        assert self.held() == 8
        assert run(2.0, 4) == first  # now the most recently used
        run(2.0, 3)  # 11 nodes: evicts the least recently used, (3.0, 4)
        assert self.held() == 7
        assert self.builds(calls) == [4, 4, 3]
        run(2.0, 4)
        run(3.0, 4)  # a miss again; evicts (2.0, 3), the oldest now
        assert self.builds(calls) == [4, 4, 3, 4]
        assert self.held() == 8
        run(2.0, 4)
        run(2.0, 11)  # larger than the budget: returned, not kept
        assert self.held() == 8
        run(2.0, 11)
        assert self.builds(calls) == [4, 4, 3, 4, 11, 11]

    def test_threads_share_the_cache(self, monkeypatch):
        monkeypatch.setattr(quadsum.rule, "_CACHE_NODES", 60)  # forces evictions
        fns = [Functional(kind, _t1_f, Charlier(1.0 + 0.1 * (i % 3)), 2 + i)
               for i in range(30) for kind in ("weighted_sum", "plain_sum")]
        expected = [approximate(fn) for fn in fns]
        monkeypatch.setattr(quadsum.apply, "_CACHE", quadsum.rule._RuleCache())
        errors = []

        def worker(seed):
            order = list(range(len(fns))) * 3
            random.Random(seed).shuffle(order)
            try:
                for i in order:
                    if approximate(fns[i]).hex() != expected[i].hex():
                        errors.append(f"functional {i}: wrong bits")
            except Exception as exc:  # reported by the assertion below
                errors.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert 0 < self.held() <= 60

    def test_parameter_types_and_values_get_distinct_entries(self, calls):
        for family in (Charlier(2), Charlier(2.0), Charlier(np.float64(2.0))):
            for _ in range(2):
                approximate(Functional("weighted_sum", lambda x: x, family, 4))
        assert self.builds(calls) == [4, 4, 4]
        # -0.0 and 0.0 are equal but give different bits
        sign = lambda x: math.copysign(1.0, x)
        for _ in range(2):
            assert approximate(Functional("weighted_sum", sign, Shifted(0.0), 1)) == 1.0
            assert approximate(Functional("weighted_sum", sign, Shifted(-0.0), 1)) == -1.0

    def test_changeable_family_is_never_served_stale(self, calls):
        def mean(family):
            return approximate(Functional("weighted_sum", lambda x: x, family, 3))

        mutable = MutableCharlier(2.0)
        stateful = StatefulCharlier(2.0)
        object.__setattr__(stateful, "extra", 0.0)
        state = [2.0]
        custom = Custom(RecurrenceStream(a=lambda n: n + state[0],
                                         b=lambda n: -math.sqrt(state[0] * (n + 1))),
                        measure(Charlier(2.0)))
        for family in (mutable, stateful, custom):
            assert mean(family) == mean(Charlier(2.0))
        mutable.mu = 3.0
        object.__setattr__(stateful, "extra", 1.0)
        state[0] = 3.0
        for family in (mutable, stateful, custom):
            assert mean(family) == mean(Charlier(3.0))
        assert self.builds(calls) == [3] * 8
        assert self.held() == 6  # Charlier(2.0) and Charlier(3.0)


class TestContinuousPartEstimate:
    def test_constant_gives_continuous_mass(self):
        # 1 - sum(xi) = 1/70 for these parameters (hand evaluation)
        fn = Functional("continuous_part", lambda y: 1.0, CDH, 12)
        assert approximate(fn) == pytest.approx(1.0 / 70.0, abs=1e-12)

    def test_zero_integrand(self):
        fn = Functional("continuous_part", lambda y: 0.0, CDH, 6)
        assert approximate(fn) == 0.0

    def test_matches_adaptive_integration(self):
        fn = Functional("continuous_part", _t3_f, CDH, 100)
        est = approximate(fn)
        sigma = measure(CDH).continuous.density
        ref, _ = quad(lambda x: sigma(x) * _t3_f(x * x), 0.0, math.inf)
        assert relative_error(ref, est) < 1e-6

    def test_requires_both_components(self):
        with pytest.raises(ValidationError, match="both"):
            approximate(
                Functional("continuous_part", lambda x: 1.0, Charlier(2.0), 4)
            )

    def test_requires_finite_discrete_part(self):
        charlier_measure = measure(Charlier(2.0))
        hybrid = Custom(
            recurrence(Charlier(2.0)),
            MeasureSpec(
                continuous=ContinuousPart(lambda x: 0.0, (0.0, 1.0)),
                discrete=charlier_measure.discrete,
            ),
        )
        with pytest.raises(ValidationError, match="finite"):
            approximate(
                Functional("continuous_part", lambda x: 1.0, hybrid, 4)
            )

    def test_consistency_with_mixed_sum(self):
        # quadrature = continuous estimate + discrete sum, up to association
        # of the floating-point subtraction
        quadrature = approximate(Functional("mixed", _t3_f, CDH, 40))
        est = approximate(Functional("continuous_part", _t3_f, CDH, 40))
        disc = measure(CDH).discrete.weighted_sum(_t3_f)
        assert est + disc == pytest.approx(quadrature, rel=1e-15)


class TestMatrixElement:
    def test_square(self):
        j = build(recurrence(Charlier(2.0)), 5)
        assert matrix_function_element(j, lambda t: t * t) == pytest.approx(6.0, rel=1e-12)


class TestRelativeError:
    def test_equal(self):
        assert relative_error(2.0, 2.0) == 0.0

    def test_one_zero(self):
        assert relative_error(1.0, 0.0) == 1.0

    def test_half(self):
        assert relative_error(3.0, 1.0) == 0.5

    def test_degenerate(self):
        with pytest.raises(ValidationError):
            relative_error(1.0, -1.0)


class TestOracles:
    def test_exponential_sum(self):
        assert exact_exponential_sum(3.0) == math.exp(3.0)
        assert exact_exponential_sum(1.0) == math.exp(1.0)
        with pytest.raises(ValidationError):
            exact_exponential_sum(0.0)

    def test_shifted_power_sum_small_m(self):
        r = 3.0
        expected = 1.0 / math.gamma(r) - r**2 / math.gamma(r + 2.0)
        assert exact_shifted_power_sum(r, 0) == pytest.approx(expected, rel=1e-14)

    def test_shifted_power_sum_is_half_at_m100(self):
        # the subtracted tail is ~1e-117, far below double resolution, so the
        # result is bit-identical to the leading term 1/Gamma(3) ~ 0.5
        value = exact_shifted_power_sum(3.0, 100)
        assert value == pytest.approx(0.5, rel=1e-14)
        assert value == math.exp(-ln_gamma(3.0))

    def test_shifted_power_sum_brute_force(self):
        r, m = 3.0, 100
        with mp.workdps(40):
            brute = float(mp.fsum((k + 1) * mp.mpf(r) ** (k + 1) / mp.gamma(k + r + 2)
                                  for k in range(m + 1)))
        assert exact_shifted_power_sum(r, m) == pytest.approx(brute, rel=1e-14)

    def test_spectral_reference_equals_full_row_zero_sum(self):
        # the first-row route must give the bits of the full-matrix route
        spec = ContinuousDualHahn(-3.5, 5.5, 5.5)
        values, vectors = eigenvector_matrix(build(recurrence(spec), 60))
        full_sum = math.fsum(
            l * _t3_f(float(eps)) * l for eps, l in zip(values, vectors[0])
        )
        assert spectral_reference(spec, _t3_f, 60) == full_sum

    @pytest.mark.parametrize("alpha_plus_mu, pinned", [
        (1.0, "-0x1.6747bd697486bp+19"),
        (2.0, "-0x1.ffb030769fb8dp+18"),
        (3.0, "-0x1.3a7ebb0e0be3fp+18"),
        (4.0, "-0x1.5a27eac672942p+17"),
        (5.0, "-0x1.5d93215eebb20p+16"),
    ])
    def test_table_three_references_keep_their_bits(self, alpha_plus_mu, pinned):
        # table 3's five references at the default size, bit for bit
        alpha = alpha_plus_mu + 3.5
        value = spectral_reference(ContinuousDualHahn(-3.5, alpha, alpha), _t3_f)
        assert value.hex() == pinned

    def test_spectral_reference_trivials(self):
        assert spectral_reference(CDH, lambda t: 1.0, 40) == pytest.approx(1.0, abs=1e-12)
        assert spectral_reference(CDH, lambda t: t, 40) == pytest.approx(-11.25, rel=1e-12)
        with pytest.raises(ValidationError):
            spectral_reference(CDH, lambda t: t, 0)

    @pytest.mark.parametrize("size", [2.5, "40"])
    def test_spectral_reference_non_integral_size(self, size):
        with pytest.raises(ValidationError) as exc:
            spectral_reference(CDH, lambda t: t, size)
        assert str(exc.value) == f"size must be an integer, got {size!r}"

