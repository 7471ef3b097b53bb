"""Finite Jacobi matrix truncations, exact matrix powers, and the spectral
matrix-function element used as the mixed-measure reference value."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ValidationError
from .families import RecurrenceStream

__all__ = ["JacobiMatrix", "build", "power_element", "matrix_function_element"]


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
        if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
            raise ValidationError("matrix entries must be finite")

    @property
    def dimension(self) -> int:
        return self.diag.size

    def dense(self) -> np.ndarray:
        out = np.diag(self.diag)
        n = self.dimension
        out[np.arange(n - 1), np.arange(1, n)] = self.offdiag
        out[np.arange(1, n), np.arange(n - 1)] = self.offdiag
        return out

    def matvec(self, v: np.ndarray) -> np.ndarray:
        out = self.diag * v
        if self.dimension > 1:
            out[:-1] += self.offdiag * v[1:]
            out[1:] += self.offdiag * v[:-1]
        return out


def build(stream: RecurrenceStream, n: int) -> JacobiMatrix:
    """N x N truncation of the Jacobi matrix of a recurrence stream."""
    stream.require_order(n)
    diag = np.array([stream.a(i) for i in range(n)], dtype=float)
    offdiag = np.array([stream.b(i) for i in range(n - 1)], dtype=float)
    return JacobiMatrix(diag, offdiag)


def power_element(stream: RecurrenceStream, k: int, n: int, m: int) -> float:
    """Element (J^k)_{n,m} of the semi-infinite Jacobi matrix.

    Computed on a truncation of dimension max(n, m) + k + 1, which is exact
    because each power widens the bandwidth by one; for finite streams the
    truncation is capped at the full (finite) matrix.
    """
    if k < 0 or n < 0 or m < 0:
        raise ValidationError("power_element requires k, n, m >= 0")
    dim = max(n, m) + k + 1
    if stream.size is not None:
        if max(n, m) >= stream.size:
            raise ValidationError(
                f"indices ({n}, {m}) out of range for size {stream.size}"
            )
        dim = min(dim, stream.size)
    j = build(stream, dim)
    v = np.zeros(dim)
    v[m] = 1.0
    for _ in range(k):
        v = j.matvec(v)
    return float(v[n])


def matrix_function_element(
    j: JacobiMatrix, f: Callable[[float], float], n: int, m: int
) -> float:
    """Element [f(J)]_{n,m} = sum_k L_{n,k} f(eps_k) L_{m,k}.

    The (0, 0) element needs only the first eigenvector row, which the
    first-row eigensolver mode returns bit for bit equal to row 0 of the
    full eigenvector matrix; any other element uses the full matrix.
    """
    from .eig import decompose  # deferred to avoid an import cycle

    if not (0 <= n < j.dimension and 0 <= m < j.dimension):
        raise ValidationError(
            f"indices ({n}, {m}) out of range for dimension {j.dimension}"
        )
    if n == m == 0:
        dec = decompose(j, mode="first_row")
        row_n = row_m = dec.first_components
    else:
        dec = decompose(j, mode="full")
        row_n, row_m = dec.full_matrix[n], dec.full_matrix[m]
    values = []
    for eps, l_n, l_m in zip(dec.eigenvalues, row_n, row_m):
        fe = f(float(eps))
        if not math.isfinite(fe):
            raise ValidationError(f"f is not finite at eigenvalue {eps!r}")
        values.append(l_n * fe * l_m)
    return math.fsum(values)
