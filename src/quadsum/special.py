"""Scalar special functions: real log-gamma and |Gamma(a+ix)|^2 in log space.

Real ln Gamma is CPython's C ``math.lgamma``; |Gamma(a+ix)|^2 uses a
Lanczos rational approximation (g = 7, 9 coefficients).  Weight formulas
downstream compose results in log space and exponentiate once, so none of
these routines return raw Gamma values.
"""

from __future__ import annotations

import cmath
import math

from .errors import ValidationError

__all__ = ["ln_gamma", "ln_abs_gamma_sq"]

_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_LN_SQRT_TWO_PI = 0.5 * math.log(2.0 * math.pi)
_LN_PI = math.log(math.pi)


def _lanczos_sum(z: complex) -> complex:
    s = complex(_LANCZOS_COEFFS[0])
    for i in range(1, len(_LANCZOS_COEFFS)):
        s += _LANCZOS_COEFFS[i] / (z + i)
    return s


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


def _ln_gamma_complex(re: float, im: float) -> complex:
    """log Gamma(re + i*im) for re >= 0.5 (principal branch up to 2*pi*i*k)."""
    z = complex(re - 1.0, im)
    t = z + _LANCZOS_G + 0.5
    return _LN_SQRT_TWO_PI + (z + 0.5) * cmath.log(t) - t + cmath.log(_lanczos_sum(z))


def _ln_abs_sin_pi_sq(a: float, x: float) -> float:
    """ln |sin(pi (a + i x))|^2 = ln (sin^2(pi a) + sinh^2(pi x)), overflow safe."""
    t = math.pi * abs(x)
    s2 = math.sin(math.pi * a) ** 2
    if t > 20.0:
        # sinh^2 t = e^{2t} (1 - e^{-2t})^2 / 4
        q = math.exp(-2.0 * t)
        return 2.0 * t - 2.0 * math.log(2.0) + math.log1p((4.0 * s2 - 2.0) * q + q * q)
    return math.log(s2 + math.sinh(t) ** 2)


def ln_abs_gamma_sq(a: float, x: float) -> float:
    """ln |Gamma(a + i x)|^2, computed fully in log space.

    Even in x by construction.  For a < 0.5 the reflection formula is used,
    which keeps the Lanczos sum in its accurate region and stays finite for
    large |x| where sinh(pi x) alone would overflow.
    """
    if x == 0.0 and a <= 0.0 and a == math.floor(a):
        raise ValidationError(f"Gamma pole at a={a!r}, x=0")
    x = abs(x)  # |Gamma(a+ix)| is even in x
    if a >= 0.5:
        return 2.0 * _ln_gamma_complex(a, x).real
    # |Gamma(z)|^2 = pi^2 / (|sin(pi z)|^2 |Gamma(1 - z)|^2), and
    # |Gamma((1-a) - ix)|^2 = |Gamma((1-a) + ix)|^2.
    return 2.0 * _LN_PI - _ln_abs_sin_pi_sq(a, x) - ln_abs_gamma_sq(1.0 - a, x)

