"""Applying quadrature rules to target functionals.

A Functional pairs an integrand with a family, an order, and a kind saying
what is being approximated: a weighted or plain integral, a weighted or
plain (possibly infinite) sum, or a mixed integral-plus-sum, including the
squared-argument variant used by the families whose recurrence runs in
y = x^2.  Reference oracles and the relative-error metric used by the
report tables live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericalError, ValidationError
from .families import FamilySpec, measure, recurrence
from .jacobi import build, matrix_function_element
from .rule import QuadratureRule, derivative_weights, gauss_rule
from .special import ln_gamma

__all__ = [
    "FUNCTIONAL_KINDS",
    "Functional",
    "approximate",
    "continuous_part_estimate",
    "relative_error",
    "exact_exponential_sum",
    "exact_shifted_power_sum",
    "spectral_reference",
    "adaptive_integral",
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
    "mixed_squared_arg": ((True, True), None),
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
        if self.order < 1:
            raise ValidationError(f"order must be >= 1, got {self.order}")


def _node_sum(
    rule: QuadratureRule, weights: np.ndarray, f: Callable[[float], float]
) -> float:
    terms = []
    for x, w in zip(rule.nodes, weights):
        fx = f(float(x))
        if not math.isfinite(fx):
            raise NumericalError(f"integrand is not finite at node {x!r}")
        terms.append(w * fx)
    return math.fsum(terms)


def approximate(fn: Functional) -> float:
    """N-point quadrature approximation of the functional.

    Weighted and mixed kinds return sum_n w_n f(eps_n); plain kinds divide
    the weights by the measure density at the nodes first.  The
    continuous_part kind subtracts the exact discrete sum, per
    continuous_part_estimate.
    """
    spec = measure(fn.family)
    components, density_of = _KINDS[fn.kind]
    if (spec.continuous is not None, spec.discrete is not None) != components:
        raise ValidationError(f"kind {fn.kind!r} requires {_REQUIRES[components]}")
    subtract_discrete = fn.kind == "continuous_part"
    if subtract_discrete and not spec.discrete.finite:
        raise ValidationError(
            "continuous-part estimate requires a finite discrete component"
        )
    rule = gauss_rule(build(recurrence(fn.family), fn.order))
    weights = rule.weights
    if density_of is not None:
        density = getattr(spec, density_of).density
        if density is None:
            raise ValidationError(
                f"{fn.kind} needs a discrete measure with a smooth mass continuation"
            )
        weights = derivative_weights(rule, density)
    value = _node_sum(rule, weights, fn.f)
    if subtract_discrete:
        value -= spec.discrete.weighted_sum(fn.f)
    return value


def continuous_part_estimate(fn: Functional) -> float:
    """Estimate of the continuous component alone: the quadrature sum minus
    the exact finite discrete sum."""
    return approximate(Functional("continuous_part", fn.f, fn.family, fn.order))


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


def spectral_reference(
    family: FamilySpec, f: Callable[[float], float], size: int = 200
) -> float:
    """Reference value [f(J)]_{0,0} on a large truncation; the exact value of
    the mixed integral-plus-sum functional in the squared spectral variable.

    It is the fsum of L_{0,k} f(eps_k) L_{0,k} over the eigenpairs, read
    from the first eigenvector row alone (no O(size^3) eigenvector matrix).
    """
    if size < 1:
        raise ValidationError(f"size must be >= 1, got {size}")
    return matrix_function_element(build(recurrence(family), size), f, 0, 0)


def adaptive_integral(
    g: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-10,
    max_depth: int = 60,
) -> float:
    """Adaptive-Simpson integral of g over [lo, hi], hi may be math.inf.

    An infinite upper limit is mapped to [0, 1) by x = lo + t/(1-t); the
    integrand must decay there.  The tolerance acts on the absolute error,
    scaled by max(1, |first whole-interval estimate|).  Exceeding the
    subdivision depth raises NumericalError.
    """
    if math.isinf(hi):
        def mapped(t: float) -> float:
            if t >= 1.0:
                return 0.0
            u = 1.0 - t
            return g(lo + t / u) / (u * u)

        return adaptive_integral(mapped, 0.0, 1.0, tol=tol, max_depth=max_depth)
    if not lo < hi:
        raise ValidationError(f"requires lo < hi, got [{lo!r}, {hi!r}]")

    def simpson(fa: float, fm: float, fb: float, h: float) -> float:
        return h / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(a, fa, m, fm, b, fb, whole, eps, depth):
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm = g(lm)
        frm = g(rm)
        left = simpson(fa, flm, fm, m - a)
        right = simpson(fm, frm, fb, b - m)
        delta = left + right - whole
        if abs(delta) <= 15.0 * eps:
            return left + right + delta / 15.0
        if depth >= max_depth:
            raise NumericalError(
                f"adaptive integration exceeded {max_depth} subdivisions near x={m!r}"
            )
        return recurse(a, fa, lm, flm, m, fm, left, 0.5 * eps, depth + 1) + recurse(
            m, fm, rm, frm, b, fb, right, 0.5 * eps, depth + 1
        )

    fa, fb = g(lo), g(hi)
    mid = 0.5 * (lo + hi)
    fm = g(mid)
    whole = simpson(fa, fm, fb, hi - lo)
    eps = tol * max(1.0, abs(whole))
    return recurse(lo, fa, mid, fm, hi, fb, whole, eps, 0)
