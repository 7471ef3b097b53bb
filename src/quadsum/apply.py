"""Applying quadrature rules to target functionals.

A Functional pairs an integrand with a family, an order, and a kind saying
what is being approximated: a weighted or plain integral, a weighted or
plain (possibly infinite) sum, a mixed integral-plus-sum (for the families
whose recurrence runs in y = x^2, in that squared variable), or the
continuous part of a mixed measure alone.  The reference values (closed
forms and the spectral element) and the relative-error metric used by the
report tables live here too.

``approximate`` holds the library's one rule store: ``gauss_rule`` itself
computes on every call.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable

import numpy as np

from . import eig
from .errors import NumericalError, ValidationError
from .families import FamilySpec, measure, recurrence, require_count
from .jacobi import JacobiMatrix, build
from .rule import QuadratureRule, derivative_weights, gauss_rule
from .special import ln_gamma

__all__ = [
    "FUNCTIONAL_KINDS",
    "Functional",
    "approximate",
    "relative_error",
    "exact_exponential_sum",
    "exact_shifted_power_sum",
    "spectral_reference",
    "SPECTRAL_REFERENCE_SIZE",
]

# kind -> (whether the measure has (continuous, discrete) components, and
# the component whose density turns the weights into derivative weights).
_KINDS = {
    "weighted_integral": ((True, False), None),
    "plain_integral": ((True, False), "continuous"),
    "weighted_sum": ((False, True), None),
    "plain_sum": ((False, True), "discrete"),
    "mixed": ((True, True), None),
    "continuous_part": ((True, True), None),
}
_REQUIRES = {
    (True, False): "a purely continuous measure",
    (False, True): "a purely discrete measure",
    (True, True): "both continuous and discrete components",
}
FUNCTIONAL_KINDS = tuple(_KINDS)


@dataclass(frozen=True)
class Functional:
    """An integrand together with the family, order, and target kind."""

    kind: str
    f: Callable[[float], float]
    family: FamilySpec
    order: int

    def __post_init__(self):
        if self.kind not in FUNCTIONAL_KINDS:
            raise ValidationError(
                f"unknown functional kind {self.kind!r}; expected one of {FUNCTIONAL_KINDS}"
            )
        require_count("order", self.order)


def _node_sum(
    rule: QuadratureRule, weights: np.ndarray, f: Callable[[float], float]
) -> float:
    terms = []
    for x, w in zip(rule.nodes.tolist(), weights.tolist()):
        fx = f(x)
        if not math.isfinite(fx):
            raise NumericalError(f"integrand is not finite at node {x!r}")
        terms.append(w * fx)
    try:
        total = math.fsum(terms)
    except (OverflowError, ValueError):  # ValueError: inf - inf from overflowed terms
        total = math.inf
    if not math.isfinite(total):
        raise NumericalError("quadrature sum overflows the float range")
    return total


# Total nodes the store of ``approximate`` may hold.  A budget in nodes
# rather than entries keeps its memory small when orders are large, and
# still holds every rule of tables 1-3 (1802 nodes together).
_CACHE_NODES = 4096


class _RuleCache:
    """Least-recently-used map from keys to values that hold a rule, bounded
    by the total number of nodes held; safe to share between threads."""

    def __init__(self):
        self._rules: OrderedDict[Hashable, tuple[object, int]] = OrderedDict()
        self._lock = threading.Lock()
        self.nodes = 0

    def get(self, key: Hashable):
        """The value stored under key, or None."""
        with self._lock:
            entry = self._rules.get(key)
            if entry is None:
                return None
            self._rules.move_to_end(key)
            return entry[0]

    def put(self, key: Hashable, value, nodes: int) -> None:
        """Store value, which holds a rule of ``nodes`` nodes, unless that is
        more than the whole budget."""
        if nodes > _CACHE_NODES:
            return
        with self._lock:
            if key in self._rules:  # stored by another thread meanwhile
                return
            self._rules[key] = (value, nodes)
            self.nodes += nodes
            while self.nodes > _CACHE_NODES:
                _, (_, old) = self._rules.popitem(last=False)
                self.nodes -= old


# What a functional's family, order and density component fix, kept per
# process: (measure, Gauss rule, weights of the node sum).
_CACHE = _RuleCache()


def _family_key(family: FamilySpec) -> tuple | None:
    """The family's type with each field's type and repr (which tells -0.0
    from 0.0), or None when the family cannot promise to stay the same: it
    is not a frozen dataclass of its own type, or a field is not a number or
    a string (a callable may read state that changes)."""
    params = type(family).__dict__.get("__dataclass_params__")
    if params is None or not params.frozen:
        return None
    key = [type(family)]
    for f in dataclasses.fields(family):
        value = getattr(family, f.name)
        if not isinstance(value, (numbers.Number, str)):
            return None
        key.append((type(value), repr(value)))
    return tuple(key)


def approximate(fn: Functional) -> float:
    """N-point quadrature approximation of the functional.

    Weighted and mixed kinds return sum_n w_n f(eps_n); plain kinds divide
    the weights by the measure density at the nodes first.  The
    continuous_part kind estimates the continuous component alone: the
    quadrature sum minus the exact finite discrete sum.

    The measure, the rule and the node-sum weights are kept per process,
    keyed by the family's type and each parameter's type and value, the
    order and the density component, so a repeated request runs only the
    integrand loop.  The store holds at most _CACHE_NODES (4096) nodes and
    drops the least recently used entry first; a larger rule is computed
    but not kept.  Its arrays never leave this function.  A family that is
    not a frozen dataclass of numbers and strings is computed every time,
    and a request that raises stores nothing.
    """
    components, density_of = _KINDS[fn.kind]
    family_key = _family_key(fn.family)
    key = None if family_key is None else (family_key, fn.order, density_of)
    cached = None if key is None else _CACHE.get(key)
    if cached is None:
        spec = measure(fn.family)
    else:
        spec, rule, weights = cached
    if (spec.continuous is not None, spec.discrete is not None) != components:
        raise ValidationError(f"kind {fn.kind!r} requires {_REQUIRES[components]}")
    subtract_discrete = fn.kind == "continuous_part"
    if subtract_discrete and not spec.discrete.finite:
        raise ValidationError(
            "continuous-part estimate requires a finite discrete component"
        )
    if cached is None:
        rule = gauss_rule(build(recurrence(fn.family), fn.order))
        weights = rule.weights
        if density_of is not None:
            density = getattr(spec, density_of).density
            if density is None:
                raise ValidationError(
                    f"{fn.kind} needs a discrete measure with a smooth mass continuation"
                )
            weights = derivative_weights(rule, density)
        if key is not None:
            _CACHE.put(key, (spec, rule, weights), rule.order)
    value = _node_sum(rule, weights, fn.f)
    if subtract_discrete:
        value -= spec.discrete.weighted_sum(fn.f)
    return value


def relative_error(exact: float, approx: float) -> float:
    """|exact - approx| / |exact + approx|, the metric used in the report tables."""
    den = abs(exact + approx)
    if den == 0.0:
        raise ValidationError("degenerate denominator: exact + approx == 0")
    return abs(exact - approx) / den


def exact_exponential_sum(r: float) -> float:
    """Closed form e^r of the infinite sum of r^k / k! over k >= 0."""
    if not r > 0.0:
        raise ValidationError(f"requires r > 0, got {r!r}")
    return math.exp(r)


def exact_shifted_power_sum(r: float, m_max: int) -> float:
    """Closed form of sum_{k=0}^{M} (k+1) r^{k+1} / Gamma(k+r+2):
    1/Gamma(r) - r^{M+2}/Gamma(M+r+2), evaluated in log space."""
    if not r > 0.0:
        raise ValidationError(f"requires r > 0, got {r!r}")
    if m_max < 0:
        raise ValidationError(f"requires m_max >= 0, got {m_max!r}")
    lead = math.exp(-ln_gamma(r))
    tail = math.exp((m_max + 2) * math.log(r) - ln_gamma(m_max + r + 2.0))
    return lead - tail


SPECTRAL_REFERENCE_SIZE = 200  # default truncation, table 3's oracle size


# perfbench/tracing.py wraps this function by this name in this module.
def matrix_function_element(j: JacobiMatrix, f: Callable[[float], float]) -> float:
    """Element [f(J)]_{0,0} = sum_k L_{0,k} f(eps_k) L_{0,k}, the fsum over
    the eigenpairs, read from the first eigenvector row alone (no O(N^3)
    eigenvector matrix)."""
    # eig.decompose is read at call time, so a wrapper patched onto it applies
    dec = eig.decompose(j, mode="first_row")
    values = []
    for eps, l in zip(dec.eigenvalues.tolist(), dec.first_components.tolist()):
        fe = f(eps)
        if not math.isfinite(fe):
            raise NumericalError(f"f is not finite at eigenvalue {eps!r}")
        values.append(l * fe * l)
    return math.fsum(values)


def spectral_reference(
    family: FamilySpec, f: Callable[[float], float], size: int = SPECTRAL_REFERENCE_SIZE
) -> float:
    """Reference value [f(J)]_{0,0} on a truncation of dimension ``size``;
    the exact value of the mixed integral-plus-sum functional in the squared
    spectral variable.  It is not cached: each call decomposes J afresh.
    """
    require_count("size", size)
    return matrix_function_element(build(recurrence(family), size), f)

