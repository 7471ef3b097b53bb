"""Applying quadrature rules to target functionals.

A Functional pairs an integrand with a family, an order, and a kind saying
what is being approximated: a weighted or plain integral, a weighted or
plain (possibly infinite) sum, a mixed integral-plus-sum (for the families
whose recurrence runs in y = x^2, in that squared variable), or the
continuous part of a mixed measure alone.  The spectral reference value
and the relative-error metric used by the report tables live here too.

``approximate`` holds the library's one rule store, a ``functools.lru_cache``
of prepared functionals keyed by the built-in family itself (its parameters
are canonical floats, so ``Charlier(2)`` and ``Charlier(2.0)`` are one
entry), the order and the kind: ``gauss_rule`` itself computes on every call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import eig
from .errors import NumericalError, ValidationError
from .families import (
    FAMILIES, FamilySpec, MeasureSpec, finite_fsum, measure, recurrence, require_count,
)
from .jacobi import JacobiMatrix, build
from .rule import QuadratureRule, derivative_weights, gauss_rule

__all__ = [
    "FUNCTIONAL_KINDS",
    "Functional",
    "approximate",
    "relative_error",
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
    return finite_fsum(terms, "quadrature sum")


# The most entries each per-process store keeps, here and in ``cli.main``:
# about half of a mixed in-process workload repeats an earlier command
# line, and 256 entries hold nearly all of those repeats where 64 lose a
# quarter of them.
_STORE_SIZE = 256


@functools.lru_cache(maxsize=_STORE_SIZE)
def _prepared(
    family: FamilySpec, order: int, kind: str
) -> tuple[MeasureSpec, QuadratureRule, np.ndarray]:
    """The family's measure, its Gauss rule of the given order and the
    weights of the node sum of this kind, after every check of the kind.
    For a plain sum whose order is the size of the finite support, the rule
    is the support's points and masses, checked as any rule is, and every
    weight is 1.0.  Stored only for a built-in family, whose canonical
    parameters make equal families compute equal bits."""
    components, density_of = _KINDS[kind]
    spec = measure(family)
    if (spec.continuous is not None, spec.discrete is not None) != components:
        raise ValidationError(f"kind {kind!r} requires {_REQUIRES[components]}")
    if kind == "continuous_part" and not spec.discrete.finite:
        raise ValidationError(
            "continuous-part estimate requires a finite discrete component"
        )
    density = None
    if density_of is not None:
        density = getattr(spec, density_of).density
        if density is None:
            what = "a smooth mass continuation" if density_of == "discrete" else "a density"
            raise ValidationError(f"{kind} needs a {density_of} measure with {what}")
    if kind == "plain_sum" and order == spec.discrete.size:
        # The Gauss rule of a measure on N points at order N is the measure
        # itself (Golub & Welsch 1969), and each weight xi_k / rho(x_k) is 1.
        part = spec.discrete
        rule = QuadratureRule([part.point_at(k) for k in range(order)],
                              [part.mass_at(k) for k in range(order)])
        return spec, rule, np.ones(order)
    rule = gauss_rule(build(recurrence(family), order))
    return spec, rule, rule.weights if density is None else derivative_weights(rule, density)


def approximate(fn: Functional) -> float:
    """N-point quadrature approximation of the functional.

    Weighted and mixed kinds return sum_n w_n f(eps_n); plain kinds divide
    the weights by the measure density at the nodes first.  A plain sum at
    the order of its family's finite support size (Krawtchouk's N = M+1, or
    a Custom family's support, which is trusted) returns the exact finite
    sum of f over the support points: the N-point Gauss rule of an N-point
    measure is the measure itself, so no Jacobi matrix is decomposed and no
    density evaluated.  The continuous_part kind estimates the continuous
    component alone: the quadrature sum minus the exact finite discrete sum.

    The measure, the rule and the node-sum weights are kept per process in
    a ``functools.lru_cache`` of _STORE_SIZE (256) entries, keyed by the
    family itself, the order and the kind, so a repeated request runs only
    the integrand loop.  A rule of any order is kept, and the least
    recently used entry goes first.  The arrays never leave this function.
    Only a family whose type is one of ``FAMILIES`` is stored; any other
    (a Custom family, a subclass, a user-defined one) is computed every
    time, and a request that raises stores nothing.
    """
    prepare = _prepared if type(fn.family) in FAMILIES.values() else _prepared.__wrapped__
    spec, rule, weights = prepare(fn.family, fn.order, fn.kind)
    value = _node_sum(rule, weights, fn.f)
    if fn.kind == "continuous_part":
        value -= spec.discrete.weighted_sum(fn.f)
    return value


def relative_error(exact: float, approx: float) -> float:
    """|exact - approx| / |exact + approx|, the metric used in the report tables."""
    den = abs(exact + approx)
    if den == 0.0:
        raise ValidationError("degenerate denominator: exact + approx == 0")
    return abs(exact - approx) / den


SPECTRAL_REFERENCE_SIZE = 200  # the paper's reference truncation of J


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
    return finite_fsum(values, "spectral sum")


def spectral_reference(family: FamilySpec, f: Callable[[float], float]) -> float:
    """Reference value [f(J)]_{0,0} on the truncation of dimension
    SPECTRAL_REFERENCE_SIZE (200); the exact value of the mixed
    integral-plus-sum functional in the squared spectral variable.  It is
    not cached: each call decomposes J afresh.  Another truncation K is
    ``matrix_function_element(build(recurrence(family), K), f)``.
    """
    return matrix_function_element(build(recurrence(family), SPECTRAL_REFERENCE_SIZE), f)

