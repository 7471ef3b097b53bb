"""Quadrature rules from Jacobi matrices.

Nodes are the eigenvalues and weights the squared first eigenvector
components.  Also converts weights to "derivative weights" for plain
(unweighted) integrals and sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericalError, ValidationError
from .eig import decompose
from .jacobi import JacobiMatrix

__all__ = ["QuadratureRule", "gauss_rule", "derivative_weights"]

_MASS_TOL = 1e-12


@dataclass(frozen=True)
class QuadratureRule:
    """Paired nodes (ascending) and nonnegative weights summing to one.

    Weights are mathematically positive; far-tail weights may underflow to
    zero in double precision, which the constructor tolerates.
    """

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.shape != weights.shape or nodes.ndim != 1 or nodes.size < 1:
            raise ValidationError("nodes and weights must be 1-d arrays of equal size")
        if not np.all(np.isfinite(nodes)) or not np.all(np.isfinite(weights)):
            raise NumericalError("rule has non-finite nodes or weights")
        if np.any(np.diff(nodes) <= 0.0):
            raise NumericalError("rule nodes are not strictly increasing")
        if np.any(weights < 0.0):
            raise NumericalError("rule has negative weights")
        mass = math.fsum(weights.tolist())
        if abs(mass - 1.0) > _MASS_TOL:
            raise NumericalError(f"rule weights sum to {mass!r}, expected 1")

    @property
    def order(self) -> int:
        return self.nodes.size


def gauss_rule(j: JacobiMatrix) -> QuadratureRule:
    """Gauss rule of J: nodes are the eigenvalues, weights the squared first
    eigenvector components."""
    dec = decompose(j, mode="first_row")
    return QuadratureRule(dec.eigenvalues, dec.first_components**2)


def derivative_weights(
    rule: QuadratureRule, weight_fn: Callable[[float], float]
) -> np.ndarray:
    """Weights for plain integrals/sums: w_n / weight_fn(node_n).

    weight_fn must be positive and finite at every node (for discrete
    measures this is the smooth continuation of the masses).
    """
    out = np.empty(rule.order)
    for i, (x, w) in enumerate(zip(rule.nodes, rule.weights)):
        rho = weight_fn(float(x))
        if not (math.isfinite(rho) and rho > 0.0):
            raise ValidationError(
                f"weight function must be positive and finite at node {float(x)!r}, "
                f"got {float(rho)!r}"
            )
        out[i] = w / rho
    return out
