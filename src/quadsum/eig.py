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

``decompose`` scales a matrix with an entry of 2^998 or more by a power of
two, so the kernel sees entries below 2^998 only, and G = max|d| +
2 max|e|, a bound on ||J||_2, stays below 3 * 2^998 < 2^1000: no sweep
quantity overflows.

Three savings in the sweep leave every bit of d and e, and of each nonzero
row entry, as the plain sweep computes them.  A sweep tests each
off-diagonal it finishes for a split, so the next sweep need not rescan for
one.  Those tests run only on off-diagonals below 4 eps G: every diagonal a
sweep writes is one of a matrix orthogonally similar to J (up to rounding),
so it is at most ||J||_2 <= G in size, and a larger off-diagonal cannot
pass |e_i| <= eps (|d_i| + |d_{i+1}|).  And first-row mode skips rotations
of the row's tail that is still exactly zero.

Each sweep runs as two loops of the same rotation, split where that zero
tail begins: the first leaves the row alone (the whole sweep in values
mode), the second rotates it.  So no rotation tests which part it is in,
and both loops carry i + 1, and the second the row entry it moves down, in
locals instead of indexing for them again.
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
# The first row starts as 2^1000 e_0 and keeps that norm, so no entry
# overflows, and tail entries stay nonzero down to 2^-2074, not 2^-1074.
_ROW_EXP = 1000


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
    sweep quantity overflows: every entry must be below 2^998, as
    ``decompose`` ensures.

    A sweep runs i from m - 1 down to l, with k = i + 1, in two loops: over
    i > top it rotates d and e only, then over i <= top it also rotates the
    row.  The second loop keeps the new row[k] in ``y`` and writes it when
    it moves on, or when a rotation underflows to zero and the sweep
    breaks, so each rotation reads one row entry and writes one.
    """
    n = len(d)
    hypot, copysign, eps = math.hypot, math.copysign, _EPS
    cutoff = 4.0 * eps * (max(map(abs, d)) + 2.0 * max(map(abs, e)))
    top = -1 if row is None else n - 1
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
            dn = d[m]  # d[k] as it was before this sweep
            k = m  # i + 1
            h = 1.0  # nonzero until a rotation underflows
            # Two loops of the same rotation; only the second rotates the row.
            for i in range(m - 1, top if top >= l else l - 1, -1):
                ei = e[i]
                f = s * ei
                b = c * ei
                h = hypot(f, g)
                e[k] = h
                if h == 0.0:
                    break
                s = f / h
                c = g / h
                g = dn - p
                dn = d[i]
                r = (dn - g) * s + 2.0 * c * b
                p = s * r
                d[k] = g + p
                g = c * r - b
                if h <= cutoff and k < m and h <= eps * (abs(d[k]) + abs(d[k + 1])):
                    start = k
                k = i
            if h and k > l:  # the first loop stopped at top + 1
                y = row[k]
                for i in range(k - 1, l - 1, -1):
                    ei = e[i]
                    f = s * ei
                    b = c * ei
                    h = hypot(f, g)
                    e[k] = h
                    if h == 0.0:
                        break
                    s = f / h
                    c = g / h
                    g = dn - p
                    dn = d[i]
                    r = (dn - g) * s + 2.0 * c * b
                    p = s * r
                    d[k] = g + p
                    g = c * r - b
                    if h <= cutoff and k < m and h <= eps * (abs(d[k]) + abs(d[k + 1])):
                        start = k
                    x = row[i]
                    row[k] = s * x + c * y
                    y = c * x - s * y
                    k = i
                row[k] = y
            e[m] = 0.0
            if h:
                d[l] -= p
                e[l] = g
            else:  # the rotation at k - 1 underflowed to zero
                d[k] = dn - p
                start = 0
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
    row = None if mode == "values" else [2.0**_ROW_EXP] + [0.0] * (len(d) - 1)
    # The kernel needs every entry below 2^998 (see the module docstring);
    # larger ones are scaled by a power of two to below 2^997 and the
    # eigenvalues scaled back, which leaves the first row as it is.
    scale = max(math.frexp(max(map(abs, d)))[1], math.frexp(max(map(abs, e)))[1]) - 997
    if scale > 1:
        d = [math.ldexp(x, -scale) for x in d]
        e = [math.ldexp(x, -scale) for x in e]
    _ql_implicit(d, e, row)
    if scale > 1:
        try:
            d = [math.ldexp(x, scale) for x in d]
        except OverflowError:
            raise NumericalError("an eigenvalue overflows the float range") from None
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
    return EigenDecomposition(d, np.ldexp(np.abs(first), -_ROW_EXP))


def eigenvalues(j: JacobiMatrix) -> np.ndarray:
    """All eigenvalues of J, ascending (the zeros of p_N)."""
    return decompose(j, mode="values").eigenvalues

