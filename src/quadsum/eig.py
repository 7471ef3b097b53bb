"""Eigensolver for real symmetric tridiagonal matrices.

Implicit-shift QL with Wilkinson-style shifts, with three modes: eigenvalues
only, eigenvalues plus the first row of the eigenvector matrix (all that
Golub-Welsch weights need), or the full orthonormal eigenvector matrix.
Rotations applied to the first-row vector are scalar products, which keeps
far-tail components relatively accurate well below the underflow threshold
of squared weights.

The sweep is a scalar loop, so it runs on Python floats (lists) rather than
numpy arrays: reading and writing numpy elements one at a time boxes every
value into a numpy scalar, which makes the loop about 4x slower, while the
same IEEE double operations on Python floats return the same bits.  Full
mode runs the same sweep on numpy vectors, the columns of the eigenvector
matrix, doing on each element what first-row mode does on its float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .jacobi import JacobiMatrix

__all__ = [
    "ConvergenceError",
    "EigenDecomposition",
    "decompose",
    "eigenvalues",
]

_EPS = float(np.finfo(float).eps)
_MAX_SWEEPS = 50


class ConvergenceError(NumericalError):
    """QL iteration failed to isolate an eigenvalue within the sweep cap."""

    def __init__(self, index: int):
        super().__init__(
            f"eigenvalue at index {index} did not converge within "
            f"{_MAX_SWEEPS} sweeps"
        )
        self.index = index


@dataclass(frozen=True)
class EigenDecomposition:
    """Sorted eigenvalues with optional eigenvector data.

    ``first_components`` holds L_{0,n} (normalized so each is >= 0);
    ``full_matrix`` has the unit eigenvector of eigenvalues[n] in column n.
    """

    eigenvalues: np.ndarray
    first_components: np.ndarray | None = None
    full_matrix: np.ndarray | None = None


def _ql_implicit(d: list[float], e: list[float], row: list | None) -> None:
    """In-place implicit-shift QL on diagonal d and off-diagonal e.

    Rotations are accumulated on ``row`` when given: floats (a row of the
    eigenvector matrix) or numpy vectors (its columns).  Deflation splits the
    matrix where |e_i| <= eps (|d_i| + |d_{i+1}|).
    """
    n = len(d)
    for l in range(n):
        sweeps = 0
        while True:
            m = l
            while m < n - 1:
                if abs(e[m]) <= _EPS * (abs(d[m]) + abs(d[m + 1])):
                    break
                m += 1
            if m == l:
                break
            sweeps += 1
            if sweeps > _MAX_SWEEPS:
                raise ConvergenceError(l)
            # Shift from the 2x2 block at l, displaced to the far diagonal.
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            underflowed = False
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    e[m] = 0.0
                    underflowed = True
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                if row is not None:
                    f = row[i + 1]
                    row[i + 1] = s * row[i] + c * f
                    row[i] = c * row[i] - s * f
            if not underflowed:
                d[l] -= p
                e[l] = g
                e[m] = 0.0


def decompose(j: JacobiMatrix, mode: str = "values") -> EigenDecomposition:
    """Eigendecomposition of a Jacobi matrix.

    mode is one of "values", "first_row", or "full".  Eigenvalues come back
    ascending; eigenvector data is permuted alongside and sign-normalized so
    every first component is nonnegative.
    """
    if mode not in ("values", "first_row", "full"):
        raise ValidationError(f"unknown mode {mode!r}")
    n = j.dimension
    d = j.diag.tolist()
    e = j.offdiag.tolist() + [0.0]
    row = None
    if mode == "first_row":
        row = [1.0] + [0.0] * (n - 1)
    elif mode == "full":
        row = list(np.eye(n))
    _ql_implicit(d, e, row)
    d = np.array(d)
    order = np.argsort(d, kind="stable")
    d = d[order]
    if row is None:
        return EigenDecomposition(eigenvalues=d)
    # the first row itself, or the eigenvector matrix with columns in order
    vectors = np.array(row)[order].T
    first = np.atleast_2d(vectors)[0]
    if not first.all():
        raise NumericalError(
            "eigenvector with exactly zero first component at index "
            f"{int(np.flatnonzero(first == 0.0)[0])}; matrix is numerically reducible"
        )
    full = vectors * np.sign(first) if mode == "full" else None
    return EigenDecomposition(d, np.abs(first), full)


def eigenvalues(j: JacobiMatrix) -> np.ndarray:
    """All eigenvalues of J, ascending (the zeros of p_N)."""
    return decompose(j, mode="values").eigenvalues

