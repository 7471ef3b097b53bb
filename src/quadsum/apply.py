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
from .families import FamilySpec, MeasureSpec, measure, recurrence
from .jacobi import build, matrix_function_element
from .rule import QuadratureRule, derivative_weights, gauss_rule
from .special import ln_gamma

__all__ = [
    "FUNCTIONAL_KINDS",
    "Functional",
    "approximate",
    "continuous_part_estimate",
    "matrix_element",
    "relative_error",
    "exact_exponential_sum",
    "exact_shifted_power_sum",
    "spectral_reference",
    "adaptive_integral",
]

FUNCTIONAL_KINDS = (
    "weighted_integral",
    "plain_integral",
    "weighted_sum",
    "plain_sum",
    "mixed",
    "continuous_part",
    "mixed_squared_arg",
)

_CONTINUOUS_ONLY = ("weighted_integral", "plain_integral")
_DISCRETE_ONLY = ("weighted_sum", "plain_sum")
_MIXED = ("mixed", "continuous_part", "mixed_squared_arg")


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


def _check_compatible(kind: str, spec: MeasureSpec) -> None:
    has_c = spec.continuous is not None
    has_d = spec.discrete is not None
    if kind in _CONTINUOUS_ONLY and not (has_c and not has_d):
        raise ValidationError(
            f"kind {kind!r} requires a purely continuous measure"
        )
    if kind in _DISCRETE_ONLY and not (has_d and not has_c):
        raise ValidationError(f"kind {kind!r} requires a purely discrete measure")
    if kind in _MIXED and not (has_c and has_d):
        raise ValidationError(
            f"kind {kind!r} requires both continuous and discrete components"
        )


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
    if fn.kind == "continuous_part":
        return continuous_part_estimate(fn)
    spec = measure(fn.family)
    _check_compatible(fn.kind, spec)
    rule = gauss_rule(build(recurrence(fn.family), fn.order))
    if fn.kind == "plain_integral":
        weights = derivative_weights(rule, spec.continuous.density)
    elif fn.kind == "plain_sum":
        if spec.discrete.density is None:
            raise ValidationError(
                "plain_sum needs a discrete measure with a smooth mass continuation"
            )
        weights = derivative_weights(rule, spec.discrete.density)
    else:
        weights = rule.weights
    return _node_sum(rule, weights, fn.f)


def continuous_part_estimate(fn: Functional) -> float:
    """Estimate of the continuous component alone: the quadrature sum minus
    the exact finite discrete sum."""
    spec = measure(fn.family)
    if spec.continuous is None or spec.discrete is None:
        raise ValidationError(
            "continuous-part estimate requires both measure components"
        )
    if not spec.discrete.finite:
        raise ValidationError(
            "continuous-part estimate requires a finite discrete component"
        )
    rule = gauss_rule(build(recurrence(fn.family), fn.order))
    quad = _node_sum(rule, rule.weights, fn.f)
    disc = spec.discrete.weighted_sum(fn.f)
    return quad - disc


def matrix_element(
    family: FamilySpec, order: int, f: Callable[[float], float], n: int, m: int
) -> float:
    """Matrix element f_{n,m} approximated spectrally on the N-dim truncation."""
    if not (0 <= n < order and 0 <= m < order):
        raise ValidationError(f"indices ({n}, {m}) must be < order {order}")
    return matrix_function_element(build(recurrence(family), order), f, n, m)


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
