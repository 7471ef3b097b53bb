"""Quadrature rules from Jacobi matrices.

Nodes are the eigenvalues and weights the squared first eigenvector
components.  ``gauss_rule`` keeps nothing between calls: the callers that
ask for a rule again keep what they need (``apply.approximate`` its rules
and weights, the CLI each prepared ``rule`` command).  Also converts
weights to "derivative weights" for plain (unweighted) integrals and sums.
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
        if not (np.isfinite(nodes).all() and np.isfinite(weights).all()):
            raise NumericalError("rule has non-finite nodes or weights")
        if (nodes[1:] <= nodes[:-1]).any():
            raise NumericalError("rule nodes are not strictly increasing")
        if (weights < 0.0).any():
            raise NumericalError("rule has negative weights")
        mass = math.fsum(weights.tolist())
        if abs(mass - 1.0) > _MASS_TOL:
            raise NumericalError(f"rule weights sum to {mass!r}, expected 1")

    @property
    def order(self) -> int:
        return self.nodes.size


def gauss_rule(j: JacobiMatrix) -> QuadratureRule:
    """Gauss rule of J: nodes are the eigenvalues, weights the squared first
    eigenvector components.  Each call decomposes J afresh and returns a new
    rule of its own arrays; a matrix whose decomposition or rule checks fail
    raises on every call."""
    dec = decompose(j, mode="first_row")
    return QuadratureRule(dec.eigenvalues, dec.first_components**2)


def derivative_weights(
    rule: QuadratureRule, weight_fn: Callable[[float], float]
) -> np.ndarray:
    """Weights for plain integrals/sums: w_n / weight_fn(node_n).

    weight_fn must be positive and finite at every node (for discrete
    measures this is the smooth continuation of the masses).
    """
    out = []
    for x, w in zip(rule.nodes.tolist(), rule.weights.tolist()):
        try:
            rho = weight_fn(x)
        except OverflowError:  # e.g. exp of a log that lost its digits
            rho = math.inf
        if not (math.isfinite(rho) and rho > 0.0):
            raise ValidationError(
                f"weight function must be positive and finite at node {x!r}, "
                f"got {float(rho)!r}"
            )
        out.append(w / rho)
    return np.array(out)
