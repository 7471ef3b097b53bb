"""Real log-gamma, CPython's C ``math.lgamma`` behind the library's domain
check.  Weight formulas downstream compose results in log space and
exponentiate once, so no routine here returns a raw Gamma value.
"""

from __future__ import annotations

import math

from .errors import ValidationError

__all__ = ["ln_gamma"]


def ln_gamma(x: float) -> float:
    """Natural log of Gamma(x) for real x > 0, inf where it overflows: C
    ``math.lgamma``, within 6.7 ulp of max(|ln Gamma|, 1) of mpmath on
    [1e-3, 1e5]."""
    if not x > 0.0:
        raise ValidationError(f"ln_gamma requires x > 0, got {x!r}")
    try:
        return math.lgamma(x)
    except OverflowError:
        return math.inf
