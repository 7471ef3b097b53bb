"""Finite Jacobi matrix truncations."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .families import RecurrenceStream

__all__ = ["JacobiMatrix", "build"]


@dataclass(frozen=True)
class JacobiMatrix:
    """Symmetric tridiagonal matrix with diagonal a_0..a_{N-1} and
    off-diagonal b_0..b_{N-2}."""

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.diag, dtype=float)
        e = np.asarray(self.offdiag, dtype=float)
        object.__setattr__(self, "diag", d)
        object.__setattr__(self, "offdiag", e)
        if d.ndim != 1 or d.size < 1:
            raise ValidationError("diagonal must be a nonempty 1-d array")
        if e.shape != (d.size - 1,):
            raise ValidationError(
                f"off-diagonal must have length {d.size - 1}, got {e.shape}"
            )
        if not (np.isfinite(d).all() and np.isfinite(e).all()):
            raise ValidationError(
                f"matrix entries must be finite, got {_first_nonfinite(d, e)}"
            )

    @property
    def dimension(self) -> int:
        return self.diag.size


def _first_nonfinite(d: np.ndarray, e: np.ndarray) -> str:
    """``a_i = value`` or ``b_i = value`` for the first non-finite entry, read
    in the order a_0, b_0, a_1, b_1, ...; called only when there is one."""
    for i, a in enumerate(d.tolist()):
        if not math.isfinite(a):
            return f"a_{i} = {a!r}"
        if i < e.size and not math.isfinite(e[i]):
            return f"b_{i} = {float(e[i])!r}"


def build(stream: RecurrenceStream, n: int) -> JacobiMatrix:
    """N x N truncation of the Jacobi matrix of a recurrence stream."""
    stream.require_order(n)
    diag = np.array([stream.a(i) for i in range(n)], dtype=float)
    offdiag = np.array([stream.b(i) for i in range(n - 1)], dtype=float)
    return JacobiMatrix(diag, offdiag)

