"""Bundled reference tables and the harness that regenerates them.

Three report tables compare quadrature approximations against exact or
spectral reference values over a grid of orders and family parameters:

  1. infinite sum of 3^x/Gamma(x+1) (exact value e^3) via Charlier and
     Meixner rules,
  2. finite sum of (x+1) 3^{x+1}/Gamma(x+5) up to M=100 (exact value 1/2 to
     double precision) via Krawtchouk rules,
  3. mixed integral-plus-sum of y^3 e^{-y/2} in the squared variable via
     continuous dual Hahn rules with mu = -3.5.  Its reference is the
     paper's spectral element [f(J)]_{0,0} of the 200-point matrix.  Against
     adaptive quadrature of the density plus the exact point masses, that
     reference is accurate to a relative 2e-15 at alpha+mu = 1 and 2, and
     to 2e-14, 9e-13 and 2e-11 at alpha+mu = 3, 4 and 5.

Each table is one record in ``_TABLES`` (see there), and ``run_table`` runs
every record through one loop over its rows and orders.

Each grid cell records the published relative error alongside the one
computed here.  A cell passes if the computed error is within a factor of
five of the published one, or if both computations have hit their
respective roundoff floors: published values below 1e-10 came from software
with a higher floor than double precision, so any computed error at or
below 1e-12 is accepted for those cells.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .apply import Functional, approximate, relative_error, spectral_reference
from .errors import NumericalError, ValidationError
from .families import Charlier, ContinuousDualHahn, Krawtchouk, Meixner
from .special import ln_gamma

__all__ = ["TableCell", "TableReport", "run_table", "cell_passes", "TABLE_NUMBERS"]

BAND_FACTOR = 5.0
COMPUTED_FLOOR = 1e-12
PUBLISHED_FLOOR_CEILING = 1e-10

_T1_N = (2, 4, 7, 10, 15)
_T1_EXACT = math.exp(3.0)  # e^3 rounded to a double
_T1_ROWS = (
    ("charlier", {"mu": 2.0}, (5.694e-3, 6.525e-6, 4.165e-11, 2.653e-16, 8.844e-17)),
    ("meixner beta=0.2", {"mu": 2.0, "beta": 0.2},
     (6.943e-3, 1.231e-4, 1.964e-7, 1.522e-10, 1.946e-15)),
    ("meixner beta=0.4", {"mu": 2.0, "beta": 0.4},
     (3.900e-2, 2.272e-3, 3.192e-5, 8.121e-7, 1.1969e-9)),
    ("meixner beta=0.6", {"mu": 2.0, "beta": 0.6},
     (9.541e-2, 5.266e-3, 1.131e-3, 2.588e-5, 8.008e-6)),
)

_T2_N = (10, 20, 30, 40, 50)
_T2_M = 100
# sum_{k=0}^{100} (k+1) 3^{k+1}/(k+4)! = 1/2 - 3^102/104! exactly, and the
# subtracted term (4.5e-118) is far below half an ulp of 1/2
_T2_EXACT = 0.5
_T2_ROWS = (
    ("gamma=0.01", {"M": _T2_M, "gamma": 0.01},
     (4.002e-11, 7.725e-13, 9.770e-15, 2.220e-16, 5.329e-15)),
    ("gamma=0.1", {"M": _T2_M, "gamma": 0.1},
     (3.600e-2, 8.826e-6, 2.469e-11, 6.222e-12, 5.390e-13)),
    ("gamma=0.2", {"M": _T2_M, "gamma": 0.2},
     (8.514e-1, 4.065e-2, 1.075e-4, 9.438e-9, 1.799e-14)),
    ("gamma=0.3", {"M": _T2_M, "gamma": 0.3},
     (9.999e-1, 6.666e-1, 4.314e-2, 2.807e-4, 8.968e-8)),
)

_T3_N = (10, 20, 30, 50, 100)
_T3_MU = -3.5
_T3_ROWS = (
    ("alpha+mu=1.0", {"mu": _T3_MU, "alpha": 1.0 - _T3_MU},
     (6.752e-5, 4.338e-7, 1.169e-8, 6.258e-11, 3.594e-12)),
    ("alpha+mu=2.0", {"mu": _T3_MU, "alpha": 2.0 - _T3_MU},
     (2.012e-3, 2.577e-5, 9.999e-7, 7.667e-9, 2.048e-12)),
    ("alpha+mu=3.0", {"mu": _T3_MU, "alpha": 3.0 - _T3_MU},
     (1.713e-2, 4.119e-4, 2.255e-5, 2.584e-7, 1.289e-10)),
    ("alpha+mu=4.0", {"mu": _T3_MU, "alpha": 4.0 - _T3_MU},
     (7.529e-2, 3.168e-3, 2.403e-4, 4.043e-6, 3.385e-9)),
    ("alpha+mu=5.0", {"mu": _T3_MU, "alpha": 5.0 - _T3_MU},
     (2.197e-1, 1.494e-2, 1.539e-3, 3.743e-5, 4.938e-8)),
)


def cell_passes(published: float, computed: float) -> bool:
    """Tolerance policy for one grid cell (see module docstring)."""
    if published / BAND_FACTOR <= computed <= published * BAND_FACTOR:
        return True
    return computed <= COMPUTED_FLOOR and published <= PUBLISHED_FLOOR_CEILING


@dataclass(frozen=True)
class TableCell:
    label: str
    params: dict
    n: int
    approx: float | None
    exact: float | None
    rel_error: float | None
    published: float
    passed: bool
    error: str | None = None


@dataclass(frozen=True)
class TableReport:
    table: int
    title: str
    n_values: tuple[int, ...]
    cells: tuple[TableCell, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cells)


_LN_3 = math.log(3.0)


def _t1_integrand(x: float) -> float:
    # 3^x / Gamma(x+1)
    return math.exp(x * _LN_3 - ln_gamma(x + 1.0))


def _t2_integrand(x: float) -> float:
    # (x+1) 3^{x+1} / Gamma(x+5)
    return (x + 1.0) * math.exp((x + 1.0) * _LN_3 - ln_gamma(x + 5.0))


def _t3_integrand(y: float) -> float:
    # y^3 e^{-y/2}; guard the exp underflow at huge spectral values
    if y > 1400.0:
        return 0.0
    return y**3 * math.exp(-0.5 * y)


# Table -> (title, N values, rows, family of a row's params, integrand, kind,
# exact value or None for the spectral reference).  run_table looks up
# approximate and spectral_reference here when it runs, not in a record.
_TABLES = {
    1: ("relative error of the N-point approximation of the infinite sum "
        "of 3^x/Gamma(x+1) (exact value e^3)", _T1_N, _T1_ROWS,
        lambda p: Charlier(p["mu"]) if "beta" not in p else Meixner(p["mu"], p["beta"]),
        _t1_integrand, "plain_sum", _T1_EXACT),
    2: ("relative error of the N-point approximation of the finite sum "
        "of (x+1) 3^{x+1}/Gamma(x+5), x = 0..100", _T2_N, _T2_ROWS,
        lambda p: Krawtchouk(p["M"], p["gamma"]), _t2_integrand, "plain_sum", _T2_EXACT),
    3: ("relative error of the N-point approximation of the mixed "
        "integral-plus-sum of y^3 e^{-y/2} in the squared variable", _T3_N, _T3_ROWS,
        lambda p: ContinuousDualHahn(p["mu"], p["alpha"], p["alpha"]),
        _t3_integrand, "mixed", None),
}
TABLE_NUMBERS = tuple(_TABLES)


def run_table(which: int) -> TableReport:
    """Recompute one of the bundled reference tables."""
    if (isinstance(which, bool) or not isinstance(which, numbers.Integral)
            or which not in TABLE_NUMBERS):
        raise ValidationError(f"unknown table {which!r}; expected one of {TABLE_NUMBERS}")
    title, n_values, rows, family_of, integrand, kind, table_exact = _TABLES[which]
    cells = []
    for label, params, published_row in rows:
        try:
            family = family_of(params)
            exact = (table_exact if table_exact is not None
                     else spectral_reference(family, integrand))
        except (ValidationError, NumericalError) as exc:
            for n, published in zip(n_values, published_row):
                cells.append(TableCell(label, params, n, None, None, None,
                                       published, False, error=str(exc)))
            continue
        for n, published in zip(n_values, published_row):
            try:
                approx = approximate(Functional(kind, integrand, family, n))
                err = relative_error(exact, approx)
                cells.append(TableCell(label, params, n, approx, exact, err,
                                       published, cell_passes(published, err)))
            except (ValidationError, NumericalError) as exc:
                cells.append(TableCell(label, params, n, None, exact, None,
                                       published, False, error=str(exc)))
    return TableReport(int(which), title, n_values, tuple(cells))
