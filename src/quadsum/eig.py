"""Eigensolver for real symmetric tridiagonal matrices.

Implicit-shift QL with Wilkinson-style shifts, with two modes: eigenvalues
only, or eigenvalues plus the first row of the eigenvector matrix (all that
Golub-Welsch weights and the spectral element [f(J)]_{0,0} need).  Rotations
applied to the first-row vector are scalar products, which keeps far-tail
components relatively accurate well below the underflow threshold of
squared weights.

The sweep is a scalar loop, so it runs on Python floats (lists) rather than
numpy arrays: reading and writing numpy elements one at a time boxes every
value into a numpy scalar, which makes the loop about 4x slower, while the
same IEEE double operations on Python floats return the same bits.

Three savings in the sweep leave every bit of d and e, and of each nonzero
row entry, as the plain sweep computes them.  A sweep tests each
off-diagonal it finishes for a split, so the next sweep need not rescan for
one.  Those tests run only on off-diagonals below 4 eps G, G the Gershgorin
bound of the input: every diagonal a sweep writes is one of a matrix
orthogonally similar to J (up to rounding), so it is at most ||J||_2 <= G
in size, and a larger off-diagonal cannot pass |e_i| <= eps (|d_i| +
|d_{i+1}|).  And first-row mode skips rotations of the row's tail that is
still exactly zero.
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
# Largest Gershgorin bound for which no sweep quantity can overflow.
_NORM_MAX = 2.0**1000


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
    """Sorted eigenvalues with, in first-row mode, the first eigenvector row.

    ``first_components`` holds L_{0,n} (normalized so each is >= 0).
    """

    eigenvalues: np.ndarray
    first_components: np.ndarray | None = None


def _ql_implicit(d: list[float], e: list[float], row: list[float] | None) -> None:
    """In-place implicit-shift QL on diagonal d and off-diagonal e.

    Rotations are accumulated on ``row``, a row of the eigenvector matrix,
    when given.  Deflation splits the matrix where
    |e_i| <= eps (|d_i| + |d_{i+1}|).

    A sweep over [l, m] leaves e_i and d_i, d_{i+1} final for l < i < m, so
    it tests each such i for a split as it goes and records the first that
    passes in ``start`` (m when none does; e_m is set to 0).  Every index
    between l and ``start`` fails the test, so the next split search tests
    l and then resumes at ``start``, also for the next l.  After an
    underflow break it searches from l + 1, as the plain sweep does.  The
    test itself runs only when |e_i| <= 4 eps G (see the module docstring),
    so a rotation pays one float compare for it; the factor 2 over the
    largest possible threshold 2 eps G covers rounding in d and G.

    Row entries above ``top`` are exactly 0.0: ``top`` starts at the last
    nonzero entry of the row, and each sweep that reaches it makes one
    more entry nonzero, so rotations of the zero tail are skipped.  Such a
    rotation gives zeros, of either sign, and adding a zero to a nonzero
    product changes nothing, so every nonzero entry keeps its bits; an
    entry still zero at the end may read 0.0 where the plain sweep has -0.0,
    and ``decompose`` raises on it either way.  Both savings assume that no
    sweep quantity overflows, which holds for G below ``_NORM_MAX``; above it
    every test and rotation runs.
    """
    n = len(d)
    hypot, copysign, eps = math.hypot, math.copysign, _EPS
    off = [0.0, *map(abs, e[: n - 1]), 0.0]
    norm = max((abs(a) + lo + hi for a, lo, hi in zip(d, off, off[1:])), default=0.0)
    bounded = norm < _NORM_MAX
    cutoff = 4.0 * eps * norm if bounded else math.inf
    top = -1 if row is None else n - 1
    if bounded and top > 0:
        while top > 0 and row[top] == 0.0:
            top -= 1
    start = 0
    for l in range(n):
        sweeps = 0
        while True:
            m = l
            if m < n - 1 and not abs(e[m]) <= eps * (abs(d[m]) + abs(d[m + 1])):
                m = start if start > l else l + 1
                while m < n - 1:
                    if abs(e[m]) <= eps * (abs(d[m]) + abs(d[m + 1])):
                        break
                    m += 1
            if m == l:
                break
            sweeps += 1
            if sweeps > _MAX_SWEEPS:
                raise ConvergenceError(l)
            # Shift from the 2x2 block at l, displaced to the far diagonal.
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + copysign(r, g))
            s = c = 1.0
            p = 0.0
            start = m
            dn = d[m]  # d[i + 1] as it was before this sweep
            for i in range(m - 1, l - 1, -1):
                ei = e[i]
                f = s * ei
                b = c * ei
                h = hypot(f, g)
                e[i + 1] = h
                if h == 0.0:
                    d[i + 1] = dn - p
                    e[m] = 0.0
                    start = 0
                    break
                s = f / h
                c = g / h
                g = dn - p
                dn = d[i]
                r = (dn - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                if h <= cutoff and i < m - 1 and h <= eps * (abs(d[i + 1]) + abs(d[i + 2])):
                    start = i + 1
                if i <= top:
                    x = row[i]
                    f = row[i + 1]
                    row[i + 1] = s * x + c * f
                    row[i] = c * x - s * f
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0
            if l <= top < m:
                top += 1


def decompose(j: JacobiMatrix, mode: str = "values") -> EigenDecomposition:
    """Eigendecomposition of a Jacobi matrix.

    mode is "values" or "first_row".  Eigenvalues come back ascending; the
    first row is permuted alongside, as absolute values.
    """
    if mode not in ("values", "first_row"):
        raise ValidationError(f"unknown mode {mode!r}")
    d = j.diag.tolist()
    e = j.offdiag.tolist() + [0.0]
    row = None if mode == "values" else [1.0] + [0.0] * (len(d) - 1)
    _ql_implicit(d, e, row)
    d = np.array(d)
    order = np.argsort(d, kind="stable")
    d = d[order]
    if row is None:
        return EigenDecomposition(eigenvalues=d)
    first = np.array(row)[order]
    if not first.all():
        raise NumericalError(
            "eigenvector with exactly zero first component at index "
            f"{int(np.flatnonzero(first == 0.0)[0])}; matrix is numerically reducible"
        )
    return EigenDecomposition(d, np.abs(first))


def eigenvalues(j: JacobiMatrix) -> np.ndarray:
    """All eigenvalues of J, ascending (the zeros of p_N)."""
    return decompose(j, mode="values").eigenvalues

