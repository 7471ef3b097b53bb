"""Orthonormal polynomial families: recurrence coefficients and measures.

Five built-in families are provided.  Charlier and Meixner carry infinite
discrete measures on the nonnegative integers, Krawtchouk a finite one on
0..M.  The continuous dual Hahn and Wilson families live in a squared
spectral variable y = x^2: their measure has a continuous density on
x in [0, inf) and, for mu < 0, finitely many point masses at y = -(k+mu)^2.
A Custom family wraps an explicit recurrence stream and measure.  Each
family class owns its ``recurrence()`` and ``measure()``, and ``FAMILIES``,
which maps each built-in family's command-line name to its class, is the
list the CLI builds its family options from.  A discrete part is its point
and mass functions, for every family, so building a measure evaluates no
mass: a finite support is read and checked, by the one positivity check of
the library, only when ``DiscretePart.weighted_sum`` sums over it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable

from .errors import NumericalError, ValidationError
from .special import ln_abs_gamma_sq, ln_gamma, ln_pochhammer_signed

__all__ = [
    "SUM_REL_TAIL",
    "SUM_MAX_TERMS",
    "SUM_RUN_LENGTH",
    "require_count",
    "RecurrenceStream",
    "ContinuousPart",
    "DiscretePart",
    "MeasureSpec",
    "FamilySpec",
    "Charlier",
    "Meixner",
    "Krawtchouk",
    "ContinuousDualHahn",
    "Wilson",
    "Custom",
    "FAMILIES",
    "recurrence",
    "measure",
]


# Cutoff for sums over infinite discrete measures: accumulation stops once
# SUM_RUN_LENGTH consecutive terms fall below SUM_REL_TAIL times the running
# total of absolute terms; reaching SUM_MAX_TERMS first raises NumericalError.
SUM_REL_TAIL = 1e-18
SUM_MAX_TERMS = 1_000_000
SUM_RUN_LENGTH = 3


def require_count(name: str, n: int) -> None:
    """Validate an order or size: an integer (numpy's included, bool not)
    that is >= 1."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {n!r}")
    if n < 1:
        raise ValidationError(f"{name} must be >= 1, got {n}")


@dataclass(frozen=True)
class RecurrenceStream:
    """Coefficient sequence {a_n, b_n} of a symmetric three-term recurrence.

    ``size`` is the number of valid diagonal coefficients (None if infinite);
    off-diagonal b_n is valid and nonzero for n <= size - 2.
    """

    a: Callable[[int], float]
    b: Callable[[int], float]
    size: int | None = None

    def require_order(self, n: int) -> None:
        """Validate that coefficients a_0..a_{n-1}, b_0..b_{n-2} exist."""
        require_count("order", n)
        if self.size is not None and n > self.size:
            raise ValidationError(
                f"order {n} exceeds the stream's valid size {self.size}"
            )


@dataclass(frozen=True)
class ContinuousPart:
    """Continuous density with its support interval."""

    density: Callable[[float], float]
    support: tuple[float, float]


def _finite_term(term: float, x: float) -> float:
    if not math.isfinite(term):
        raise NumericalError(f"weighted sum term is not finite at point {x!r}")
    return term


@dataclass(frozen=True)
class DiscretePart:
    """Point masses xi_k = mass_at(k) at x_k = point_at(k), for k < size or,
    if size is None, every k >= 0; none is evaluated at construction.

    ``density`` is the smooth continuation of the mass function used for
    derivative weights at non-integer nodes (None when not applicable).
    """

    point_at: Callable[[int], float]
    mass_at: Callable[[int], float]
    size: int | None
    density: Callable[[float], float] | None = None

    @property
    def finite(self) -> bool:
        return self.size is not None

    def weighted_sum(self, f: Callable[[float], float]) -> float:
        """Sum of xi_k f(x_k) over the support, truncated per the SUM_*
        constants if infinite; a non-finite term raises NumericalError naming
        its point, and so does reaching SUM_MAX_TERMS before the tail test
        stops the sum.  A finite support is checked before f is called: a
        mass that is not positive or points that do not increase raise."""
        if self.finite:
            points = [self.point_at(k) for k in range(self.size)]
            masses = [self.mass_at(k) for k in range(self.size)]
            for k, xi in enumerate(masses):
                if not xi > 0.0:
                    raise NumericalError(f"discrete mass xi_{k} = {xi!r} is not positive")
            if any(points[k] >= points[k + 1] for k in range(self.size - 1)):
                raise NumericalError("discrete points are not strictly increasing")
            return math.fsum(_finite_term(xi * f(x), x) for x, xi in zip(points, masses))
        total = 0.0
        abs_total = 0.0
        small_run = 0
        for k in range(SUM_MAX_TERMS):
            x = self.point_at(k)
            term = _finite_term(self.mass_at(k) * f(x), x)
            total += term
            abs_total += abs(term)
            if abs(term) < SUM_REL_TAIL * abs_total:
                small_run += 1
                if small_run >= SUM_RUN_LENGTH:
                    break
            else:
                small_run = 0
        else:
            raise NumericalError(
                f"infinite sum did not converge within SUM_MAX_TERMS = {SUM_MAX_TERMS} terms"
            )
        return total


@dataclass(frozen=True)
class MeasureSpec:
    """Continuous density and/or discrete point masses defining a measure."""

    continuous: ContinuousPart | None = None
    discrete: DiscretePart | None = None

    def __post_init__(self):
        if self.continuous is None and self.discrete is None:
            raise ValidationError("measure needs a continuous or discrete component")


class FamilySpec:
    """Base class for polynomial family specifications: a family is its
    recurrence and its measure.  ``kind`` is its command-line name."""

    kind: str = "custom"

    def recurrence(self) -> RecurrenceStream:
        raise NotImplementedError

    def measure(self) -> MeasureSpec:
        raise NotImplementedError


def _require_finite(family: str, **params: float) -> None:
    """Reject a parameter that does not convert to a finite float: an
    infinity, or an int too large for a float."""
    for name, value in params.items():
        try:
            finite = math.isfinite(value)
        except OverflowError:
            raise ValidationError(
                f"{family} requires a finite {name}, got {name} too large for a float"
            ) from None
        if not finite:
            raise ValidationError(f"{family} requires a finite {name}, got {name}={value!r}")


def _lattice_measure(ln_mass: Callable[[float], float], size: int | None) -> MeasureSpec:
    """Masses exp(ln_mass(k)) at the points k = 0, 1, ... (``size`` of them,
    or infinitely many), continued off the lattice by exp(ln_mass(x))."""
    return MeasureSpec(
        discrete=DiscretePart(
            point_at=float,
            mass_at=lambda k: math.exp(ln_mass(float(k))),
            size=size,
            density=lambda x: math.exp(ln_mass(x)),
        )
    )


def _squared_variable_masses(
    mu: float,
    ln_front: float,
    poch_up: tuple[float, ...],
    poch_down: tuple[float, ...],
    alternating_sign: bool,
) -> DiscretePart:
    """Point masses at y_k = -(k+mu)^2 for the ceil(-mu) indices k >= 0 with
    k + mu < 0.  Each is assembled in log space, when summed, from a constant
    prefactor, the (-mu-k) factor, Pochhammer products and 1/k!, tracking the
    factors' signs; a vanishing Pochhammer denominator makes it NaN or 0.0,
    which ``weighted_sum`` rejects like any mass that is not positive."""

    def mass_at(k: int) -> float:
        ln = ln_front + math.log(-(mu + k)) - ln_gamma(k + 1.0)
        sign = -1.0 if (alternating_sign and k % 2 == 1) else 1.0
        for bases, power in ((poch_up, 1.0), (poch_down, -1.0)):
            for base in bases:
                l, s = ln_pochhammer_signed(base, k)
                ln += power * l
                sign *= s
        return sign * math.exp(ln)

    return DiscretePart(
        point_at=lambda k: -((k + mu) ** 2),
        mass_at=mass_at,
        size=math.ceil(-mu),
    )


def _squared_variable_measure(
    ln_c: float, params: tuple[float, ...], discrete: DiscretePart | None
) -> MeasureSpec:
    """Density exp(ln_c) prod_p |Gamma(p+ix)|^2 / |Gamma(2ix)|^2 on x in
    [0, inf), over the parameters p, together with the given point masses."""

    def sigma(x: float) -> float:
        if x == 0.0:
            return 0.0
        ln = ln_c
        for p in params:
            ln += ln_abs_gamma_sq(p, x)
        return math.exp(ln - ln_abs_gamma_sq(0.0, 2.0 * x))

    return MeasureSpec(
        continuous=ContinuousPart(density=sigma, support=(0.0, math.inf)),
        discrete=discrete,
    )


def _require_squared_variable_params(name: str, mu: float, others: dict[str, float]) -> None:
    """The parameter rule of the squared-variable families: mu != 0, and every
    other parameter p has p > 0 if mu > 0, or p + mu > 0 if mu < 0."""
    if mu == 0.0:
        raise ValidationError(f"{name} requires mu != 0")
    if mu > 0.0:
        bad = {k: v for k, v in others.items() if not v > 0.0}
        rule, tail = f"mu > 0 requires {', '.join(others)} > 0", ""
    else:
        bad = {k: v for k, v in others.items() if not v + mu > 0.0}
        rule = f"mu < 0 requires {', '.join(k + ' + mu' for k in others)} > 0"
        tail = f" with mu={mu!r}"
    if bad:
        raise ValidationError(f"{name} with {rule}; violated by {bad!r}{tail}")
    _require_finite(name, mu=mu, **others)


@dataclass(frozen=True)
class Charlier(FamilySpec):
    mu: float
    kind = "charlier"

    def __post_init__(self):
        if not self.mu > 0.0:
            raise ValidationError(f"charlier requires mu > 0, got mu={self.mu!r}")
        _require_finite("charlier", mu=self.mu)

    def recurrence(self) -> RecurrenceStream:
        mu = self.mu
        return RecurrenceStream(
            a=lambda n: n + mu,
            b=lambda n: -math.sqrt(mu * (n + 1)),
        )

    def measure(self) -> MeasureSpec:
        mu = self.mu
        ln_mu = math.log(mu)

        def ln_mass(x: float) -> float:
            return x * ln_mu - mu - ln_gamma(x + 1.0)

        return _lattice_measure(ln_mass, size=None)


@dataclass(frozen=True)
class Meixner(FamilySpec):
    mu: float
    beta: float
    kind = "meixner"

    def __post_init__(self):
        if not self.mu > 0.0:
            raise ValidationError(f"meixner requires mu > 0, got mu={self.mu!r}")
        if not 0.0 < self.beta < 1.0:
            raise ValidationError(
                f"meixner requires 0 < beta < 1, got beta={self.beta!r}"
            )
        _require_finite("meixner", mu=self.mu)

    def recurrence(self) -> RecurrenceStream:
        mu, beta = self.mu, self.beta
        sq = math.sqrt(beta) / (1.0 - beta)
        return RecurrenceStream(
            a=lambda n: (n * (1.0 + beta) + 2.0 * mu * beta) / (1.0 - beta),
            b=lambda n: -sq * math.sqrt((n + 1) * (n + 2.0 * mu)),
        )

    def measure(self) -> MeasureSpec:
        mu, beta = self.mu, self.beta
        c = 2.0 * mu * math.log1p(-beta) - ln_gamma(2.0 * mu)
        ln_beta = math.log(beta)

        def ln_mass(x: float) -> float:
            return c + ln_gamma(2.0 * mu + x) + x * ln_beta - ln_gamma(x + 1.0)

        return _lattice_measure(ln_mass, size=None)


@dataclass(frozen=True)
class Krawtchouk(FamilySpec):
    # The spectrum size is spelled M on the command line and in its output.
    m: int = field(metadata={"flag": "M"})
    gamma: float
    kind = "krawtchouk"

    def __post_init__(self):
        if isinstance(self.m, bool) or not (isinstance(self.m, int) and self.m >= 1):
            raise ValidationError(f"krawtchouk requires integer M >= 1, got M={self.m!r}")
        _require_finite("krawtchouk", M=self.m)
        if not 0.0 < self.gamma < 1.0:
            raise ValidationError(
                f"krawtchouk requires 0 < gamma < 1, got gamma={self.gamma!r}"
            )

    def recurrence(self) -> RecurrenceStream:
        m, g = self.m, self.gamma

        def b(n: int) -> float:
            try:
                return -math.sqrt((n + 1) * (m - n) * g * (1.0 - g))
            except OverflowError:  # the int (n+1)(M-n) is too large for a float
                raise ValidationError(
                    f"krawtchouk coefficient b_{n} overflows a float at M={float(m):g}"
                ) from None

        return RecurrenceStream(a=lambda n: m * g + n * (1.0 - 2.0 * g), b=b, size=m + 1)

    def measure(self) -> MeasureSpec:
        # Binomial masses C(M,k) g^k (1-g)^{M-k}; the exponent on (1-g) uses
        # the spectrum size M, which is what makes the masses sum to one.
        m, g = self.m, self.gamma
        c = ln_gamma(m + 1.0)
        ln_g, ln_q = math.log(g), math.log1p(-g)

        def ln_mass(x: float) -> float:
            return (
                c
                - ln_gamma(m - x + 1.0)
                - ln_gamma(x + 1.0)
                + x * ln_g
                + (m - x) * ln_q
            )

        return _lattice_measure(ln_mass, size=m + 1)


@dataclass(frozen=True)
class ContinuousDualHahn(FamilySpec):
    mu: float
    alpha: float
    beta: float
    kind = "cdh"

    def __post_init__(self):
        _require_squared_variable_params(
            "continuous dual Hahn", self.mu, {"alpha": self.alpha, "beta": self.beta}
        )

    def recurrence(self) -> RecurrenceStream:
        mu, al, be = self.mu, self.alpha, self.beta
        return RecurrenceStream(
            a=lambda n: (n + mu + al) * (n + mu + be)
            + n * (n + al + be - 1.0)
            - mu * mu,
            b=lambda n: -math.sqrt(
                (n + 1) * (n + al + be) * (n + mu + al) * (n + mu + be)
            ),
        )

    def measure(self) -> MeasureSpec:
        mu, al, be = self.mu, self.alpha, self.beta
        ln_c = (
            -math.log(2.0 * math.pi)
            - ln_gamma(mu + al)
            - ln_gamma(mu + be)
            - ln_gamma(al + be)
        )
        discrete = None
        if mu < 0.0:
            ln_front = (
                math.log(2.0)
                + ln_gamma(al - mu)
                + ln_gamma(be - mu)
                - ln_gamma(al + be)
                - ln_gamma(1.0 - 2.0 * mu)
            )
            discrete = _squared_variable_masses(
                mu,
                ln_front,
                poch_up=(mu + al, mu + be, 2.0 * mu),
                poch_down=(mu - al + 1.0, mu - be + 1.0),
                alternating_sign=True,  # the (-1)^k k! denominator
            )
        return _squared_variable_measure(ln_c, (mu, al, be), discrete)


@dataclass(frozen=True)
class Wilson(FamilySpec):
    mu: float
    nu: float
    alpha: float
    beta: float
    kind = "wilson"

    def __post_init__(self):
        _require_squared_variable_params(
            "wilson", self.mu, {"nu": self.nu, "alpha": self.alpha, "beta": self.beta}
        )

    def recurrence(self) -> RecurrenceStream:
        mu, nu, al, be = self.mu, self.nu, self.alpha, self.beta
        s = mu + nu + al + be
        # s > 0 for every valid parameter set, so 2n+s-1 and 2n+s-2 vanish
        # only at n = 0 (s = 1 and s = 2).  Both singularities are
        # removable: t2 carries a factor n, and at s = 1 the factor
        # (n+s-1)/(2n+s-1) in a_0 and b_0 is 1.  The cancelled forms are
        # used only there, so regular parameters keep their bits.
        degenerate = s == 1.0

        def a(n: int) -> float:
            if n == 0 and degenerate:
                return (mu + nu) * (mu + al) * (mu + be) / s - mu * mu
            t1 = (
                (n + mu + nu)
                * (n + mu + al)
                * (n + mu + be)
                * (n + s - 1.0)
                / ((2.0 * n + s) * (2.0 * n + s - 1.0))
            )
            if n == 0:
                return t1 - mu * mu
            t2 = (
                n
                * (n + nu + al - 1.0)
                * (n + nu + be - 1.0)
                * (n + al + be - 1.0)
                / ((2.0 * n + s - 1.0) * (2.0 * n + s - 2.0))
            )
            return t1 + t2 - mu * mu

        def b(n: int) -> float:
            if n == 0 and degenerate:
                num = (
                    (mu + nu)
                    * (al + be)
                    * (mu + al)
                    * (mu + be)
                    * (nu + al)
                    * (nu + be)
                )
                return -math.sqrt(num / (s + 1.0)) / s
            num = (
                (n + 1)
                * (n + mu + nu)
                * (n + al + be)
                * (n + mu + al)
                * (n + mu + be)
                * (n + nu + al)
                * (n + nu + be)
                * (n + s - 1.0)
            )
            den = (2.0 * n + s - 1.0) * (2.0 * n + s + 1.0)
            return -math.sqrt(num / den) / (2.0 * n + s)

        return RecurrenceStream(a=a, b=b)

    def measure(self) -> MeasureSpec:
        mu, nu, al, be = self.mu, self.nu, self.alpha, self.beta
        ln_c = (
            -math.log(2.0 * math.pi)
            + ln_gamma(mu + nu + al + be)
            - ln_gamma(mu + nu)
            - ln_gamma(al + be)
            - ln_gamma(mu + al)
            - ln_gamma(mu + be)
            - ln_gamma(nu + al)
            - ln_gamma(nu + be)
        )
        discrete = None
        if mu < 0.0:
            ln_front = (
                math.log(2.0)
                + ln_gamma(mu + nu + al + be)
                + ln_gamma(nu - mu)
                + ln_gamma(al - mu)
                + ln_gamma(be - mu)
                - ln_gamma(-2.0 * mu + 1.0)
                - ln_gamma(al + be)
                - ln_gamma(al + nu)
                - ln_gamma(be + nu)
            )
            discrete = _squared_variable_masses(
                mu,
                ln_front,
                poch_up=(2.0 * mu, mu + nu, mu + al, mu + be),
                poch_down=(mu - nu + 1.0, mu - al + 1.0, mu - be + 1.0),
                alternating_sign=False,  # plain k! denominator here
            )
        return _squared_variable_measure(ln_c, (mu, nu, al, be), discrete)


@dataclass(frozen=True)
class Custom(FamilySpec):
    stream: RecurrenceStream
    spec_measure: MeasureSpec
    kind = "custom"

    def recurrence(self) -> RecurrenceStream:
        return self.stream

    def measure(self) -> MeasureSpec:
        return self.spec_measure


# The built-in families by command-line name: the only list of them.
FAMILIES: dict[str, type[FamilySpec]] = {
    cls.kind: cls for cls in (Charlier, Meixner, Krawtchouk, ContinuousDualHahn, Wilson)
}


def recurrence(spec: FamilySpec) -> RecurrenceStream:
    """Closed-form recurrence coefficient stream for a family.

    For ContinuousDualHahn and Wilson the recurrence variable is y = x^2;
    nodes and matrix elements downstream live in that squared variable.
    """
    if not isinstance(spec, FamilySpec):
        raise ValidationError(f"unknown family spec {spec!r}")
    return spec.recurrence()


def measure(spec: FamilySpec) -> MeasureSpec:
    """Measure of a family: discrete masses, continuous density, or both.

    For ContinuousDualHahn and Wilson the continuous density is a function
    of x on [0, inf) while discrete points are given in the squared variable
    y = x^2 (every k >= 0 with k + mu < 0 contributes y_k = -(k+mu)^2, which
    is exactly the index range with positive masses).
    """
    if not isinstance(spec, FamilySpec):
        raise ValidationError(f"unknown family spec {spec!r}")
    return spec.measure()

