"""Quadrature rules from Jacobi matrices.

Nodes are the eigenvalues and weights the squared first eigenvector
components.  Rules are kept in a small per-process cache, because callers
such as the CLI and the report tables ask for the same matrix again and
again.  Also converts weights to "derivative weights" for plain
(unweighted) integrals and sums.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable

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


# Total nodes each rule cache may hold (this module's rules, and the rules
# with their weights that ``apply.approximate`` keeps).  A budget in nodes
# rather than entries keeps its memory small when orders are large, and
# still holds every rule of tables 1-3 (1802 nodes together).
_CACHE_NODES = 4096


class _RuleCache:
    """Least-recently-used map from keys to rules, or to values that hold
    one, bounded by the total number of nodes held; safe to share between
    threads."""

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


_CACHE = _RuleCache()


def gauss_rule(j: JacobiMatrix) -> QuadratureRule:
    """Gauss rule of J: nodes are the eigenvalues, weights the squared first
    eigenvector components.

    Rules are cached per process, keyed by the bytes of J's diagonal and
    off-diagonal, so matrices that differ in any bit (-0.0 against 0.0
    included) are distinct.  The cache holds at most _CACHE_NODES (4096)
    nodes in total and drops the least recently used rule first; a larger
    rule is returned but not kept.  A repeated matrix returns the same rule
    object, so the ``nodes`` and ``weights`` arrays of every rule this
    function returns are read-only.  A matrix whose decomposition or rule
    checks raise is not cached and raises again on the next call.
    """
    key = j.diag.tobytes() + j.offdiag.tobytes()
    rule = _CACHE.get(key)
    if rule is None:
        dec = decompose(j, mode="first_row")
        rule = QuadratureRule(dec.eigenvalues, dec.first_components**2)
        rule.nodes.setflags(write=False)
        rule.weights.setflags(write=False)
        _CACHE.put(key, rule, rule.order)
    return rule


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
