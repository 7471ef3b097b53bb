"""A fixed CPU probe that measures how fast the machine runs right now.

On a machine shared with other tenants the same library call can take up to
twice as long for tens of seconds at a time, in wall and CPU time alike, and
the hypervisor's steal time accounts for only a few percent of it.  The
probe is a frozen copy of an implicit-QL eigenvalue sweep, the interpreter
work that dominates the workloads.  It never calls the library, so a change
to the library does not change it.  An op's normalized time is its measured
time times ``REFERENCE_S`` over the probe times around it.
"""

from __future__ import annotations

import math
import time

_N = 60
_D = [float(k + 2) for k in range(_N)]
_E = [-math.sqrt(2.0 * (k + 1)) for k in range(_N - 1)] + [0.0]
_EPS = 2.220446049250313e-16


def ql_values() -> None:
    """Implicit-shift QL eigenvalues of a fixed 60x60 tridiagonal matrix."""
    d, e = _D[:], _E[:]
    n = _N
    for l in range(n):
        while True:
            m = l
            while m < n - 1 and abs(e[m]) > _EPS * (abs(d[m]) + abs(d[m + 1])):
                m += 1
            if m == l:
                break
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0


# Probe time on a quiet 2-core Intel Xeon; it only fixes the unit.
REFERENCE_S = 0.0018


def probe() -> float:
    """Fastest of three runs of the QL sweep, in seconds; the minimum drops
    an interrupt that hits one run."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        ql_values()
        best = min(best, time.perf_counter() - start)
    return best
