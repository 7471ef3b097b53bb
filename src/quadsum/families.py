"""Orthonormal polynomial families: recurrence coefficients and measures.

Five built-in families are provided.  Charlier and Meixner carry infinite
discrete measures on the nonnegative integers, Krawtchouk a finite one on
0..M.  The continuous dual Hahn and Wilson families live in a squared
spectral variable y = x^2: their measure has a continuous density on
x in [0, inf) and, for mu < 0, finitely many point masses at y = -(k+mu)^2.
One formula over the parameters builds both measures, and one over the sorted
parameters, so that a large one never cancels in a_n, both recurrences.  Only
Wilson's constants add lnGamma of the parameter sum, and only its recurrence
has (2n+s) factors; the parameter rule makes every point mass positive.
A Custom family wraps an explicit recurrence stream and measure.  Each
family class owns its ``recurrence()`` and ``measure()``, and ``FAMILIES``,
which maps each built-in family's command-line name to its class, is the
list the CLI builds its family options from.  A built-in family stores each
parameter as a Python float (M as an int) before its range checks read it,
so it computes in double whatever number type it was given, and equal
families compute equal bits.  A discrete part is its point and mass
functions, so building a measure evaluates no mass: a finite support is read
only when ``DiscretePart.weighted_sum`` sums over it, checked by the one mass
check of the library, or when ``apply`` takes it as the rule of a plain sum
over the whole support, checked as every rule is; an infinite one is never
summed.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import numbers
from dataclasses import dataclass
from decimal import Decimal
from typing import Callable

from .errors import NumericalError, ValidationError
from .special import ln_abs_gamma_sq, ln_gamma

__all__ = [
    "MAX_ORDER",
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
    "parameters",
    "recurrence",
    "measure",
]


# The largest order or size: values-only QL takes about 0.69 s * (N/1600)^2,
# at least 19 minutes above it, and a far larger order exhausts memory.
MAX_ORDER = 2**16


def require_count(name: str, n: int) -> None:
    """Validate an order or size: an integer (numpy's included, bool not)
    from 1 to MAX_ORDER."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {n!r}")
    if n < 1:
        raise ValidationError(f"{name} must be >= 1, got {n}")
    if n > MAX_ORDER:
        raise ValidationError(f"{name} must be <= {MAX_ORDER}, got {n}")


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


def finite_fsum(terms: list[float], what: str) -> float:
    """math.fsum of finite terms; a total beyond the float range raises
    NumericalError(f"{what} overflows the float range")."""
    try:
        total = math.fsum(terms)
    except (OverflowError, ValueError):  # ValueError: inf - inf from overflowed terms
        total = math.inf
    if not math.isfinite(total):
        raise NumericalError(f"{what} overflows the float range")
    return total


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
        """Exact sum of xi_k f(x_k) over a finite support; an infinite one
        raises ValidationError, since no truncation of it is exact.  The
        support is checked before f is called: a negative or NaN mass (zero
        is a mass) or points that do not increase raise NumericalError, and
        so does a non-finite term, naming its point."""
        if not self.finite:
            raise ValidationError("weighted_sum requires a finite discrete support")
        points = [self.point_at(k) for k in range(self.size)]
        masses = [self.mass_at(k) for k in range(self.size)]
        for k, xi in enumerate(masses):
            if not xi >= 0.0:
                raise NumericalError(f"discrete mass xi_{k} = {xi!r} is not positive")
        if any(points[k] >= points[k + 1] for k in range(self.size - 1)):
            raise NumericalError("discrete points are not strictly increasing")
        terms = [_finite_term(xi * f(x), x) for x, xi in zip(points, masses)]
        return finite_fsum(terms, "weighted sum")


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


@functools.cache
def parameters(cls: type[FamilySpec]) -> tuple[tuple[str, type], ...]:
    """(name, int or float) of each parameter of a family class; the name is its
    constructor keyword, attribute, command-line flag and JSON key."""
    return tuple((f.name, int if f.type in (int, "int") else float)
                 for f in dataclasses.fields(cls))


def _finite_real(value, name: str, owner: str, type_: type = float):
    """value as a Python float, or as a Python int (a size, >= 1 as its family
    checks, so (n+1)(M-n) never wraps) if type_ is int.  A bool, a value of
    another type, and one that is not a finite float (an infinity, a NaN, a
    number too large for a float) raise ValidationError naming owner and name."""
    if type_ is int and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
        raise ValidationError(f"{owner} requires integer {name} >= 1, got {name}={value!r}")
    if isinstance(value, bool) or not isinstance(value, (numbers.Real, Decimal)):
        raise ValidationError(f"{owner} requires a number {name}, got {name}={value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:
        raise ValidationError(
            f"{owner} requires a finite {name}, got {name} too large for a float"
        ) from None
    except ValueError:  # Decimal("sNaN") does not convert to a float
        finite = False
    if not finite:
        raise ValidationError(f"{owner} requires a finite {name}, got {name}={value!r}")
    return type_(value)


def _canonicalize(family: FamilySpec, owner: str) -> None:
    """Store each parameter of a built-in family as ``_finite_real`` returns
    it, before any range check reads it: equal families compute equal bits."""
    for name, type_ in parameters(type(family)):
        object.__setattr__(family, name, _finite_real(getattr(family, name), name, owner, type_))


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


def _squared_variable_measure(params: tuple[float, ...]) -> MeasureSpec:
    """The unit-mass measure of continuous dual Hahn, params (mu, alpha,
    beta), or Wilson, params (mu, nu, alpha, beta) (KLS 2010, sec. 9.3 and
    9.1): density exp(ln_c) prod_p |Gamma(p+ix)|^2 / |Gamma(2ix)|^2 on x in
    [0, inf), ln_c = -ln(2 pi) - sum lnGamma(p+q) over pairs p, q, and for
    mu < 0 point masses at y_k = -(k+mu)^2 for the ceil(-mu) indices k with
    k + mu < 0.  Each mass is assembled in log space, when summed, from a
    constant prefactor, the -(mu+k) factor, the Pochhammer products
    (mu+p)_k (2mu)_k / prod (mu-p+1)_k over the others p, and 1/k!; only
    Wilson adds lnGamma(sum p).  The parameter rule (p + mu > 0) and k <
    -mu make each factor of (mu+p)_k positive and each of (2mu)_k and
    (mu-p+1)_k negative, so the handbook's sign, continuous dual Hahn's
    (-1)^k times (-1)^k per negative product, is +1 for both families."""
    mu, *others = params
    wilson = len(params) == 4
    ln_sum = ln_gamma(sum(params)) if wilson else 0.0
    # this summation order fixes the table 3 measures' last bits, which tests pin
    ln_c = -math.log(2.0 * math.pi) + ln_sum
    for p, q in itertools.combinations(params, 2):
        ln_c -= ln_gamma(p + q)

    def sigma(x: float) -> float:
        if x == 0.0:
            return 0.0
        ln = ln_c
        for p in params:
            ln += ln_abs_gamma_sq(p, x)
        return math.exp(ln - ln_abs_gamma_sq(0.0, 2.0 * x))

    discrete = None
    if mu < 0.0:
        ln_front = math.log(2.0) + ln_sum
        for p in others:
            ln_front += ln_gamma(p - mu)
        for p, q in itertools.combinations(others, 2):
            ln_front -= ln_gamma(p + q)
        ln_front -= ln_gamma(1.0 - 2.0 * mu)
        up = (*(mu + p for p in others), 2.0 * mu)
        down = tuple(mu - p + 1.0 for p in others)

        def mass_at(k: int) -> float:
            ln = ln_front + math.log(-(mu + k)) - ln_gamma(k + 1.0)
            for bases, power in ((up, 1.0), (down, -1.0)):
                for base in bases:
                    ln_poch = 0.0  # ln |(base)_k|; this order fixes the last bits
                    for j in range(k):
                        ln_poch += math.log(abs(base + j))
                    ln += power * ln_poch
            return math.exp(ln)

        discrete = DiscretePart(point_at=lambda k: -((k + mu) ** 2), mass_at=mass_at,
                                size=math.ceil(-mu))
    continuous = ContinuousPart(density=sigma, support=(0.0, math.inf))
    return MeasureSpec(continuous=continuous, discrete=discrete)


def _squared_variable_recurrence(params: tuple[float, ...]) -> RecurrenceStream:
    """The recurrence in y = x^2 of ``_squared_variable_measure``'s families:
    a_n = A_n + C_n - mu^2 and b_n^2 = A_n C_{n+1}, A_n the product of n+mu+p
    over the others p and C_n that of n and n+p+q-1 over their pairs; Wilson
    divides both by (2n+s) factors, s the parameter sum.  The families are
    symmetric in their parameters, which are sorted: a large mu would cancel
    in a_n, and a mu < 0 is the smallest, so it keeps its slot."""
    params = tuple(sorted(params))
    mu, *others = params
    s = sum(params)
    wilson = len(params) == 4
    c_pairs = tuple(itertools.combinations(others, 2))
    # this pair order fixes the last bits of b_n, which tests pin
    b_pairs = (*itertools.combinations(params[:-2], 2), *itertools.combinations(params[-2:], 2),
               *itertools.product(params[:-2], params[-2:]))

    def a(n: int) -> float:
        an, n_mu = 1.0, n + mu
        for p in others:
            an *= n_mu + p
        cn = n
        for p, q in c_pairs:
            cn *= n + p + q - 1.0
        if not wilson:
            return an + cn - mu * mu
        # s > 0, so 2n+s-1 and 2n+s-2 vanish only at n = 0, s = 1 or 2: C_0 = 0
        # drops, and at s = 1 a_0's and b_0's (n+s-1)/(2n+s-1) is 1.  Only these
        # cancelled forms differ, so regular parameter sets keep their bits.
        if n == 0 and s == 1.0:
            return an / s - mu * mu
        d = 2.0 * n + s
        an = an * (n + s - 1.0) / (d * (d - 1.0))
        if n > 0:
            # d-2 rounds to 0 at n = 1 when s is below half an ulp of 2; it is s
            an += cn / ((d - 1.0) * (d - 2.0 or s))
        return an - mu * mu

    def b(n: int) -> float:
        prod = n + 1
        for p, q in b_pairs:
            prod *= n + p + q
        if not wilson:
            return -math.sqrt(prod)
        if n == 0 and s == 1.0:
            return -math.sqrt(prod / (s + 1.0)) / s
        d = 2.0 * n + s
        prod *= n + s - 1.0
        return -math.sqrt(prod / ((d - 1.0) * (d + 1.0))) / d

    return RecurrenceStream(a=a, b=b)


def _require_squared_variable_params(family: FamilySpec, name: str) -> None:
    """The parameter rule of the squared-variable families, checked on their
    canonical floats: mu != 0, and every other parameter p has p > 0 if
    mu > 0, or p + mu > 0 if mu < 0."""
    mu = family.mu
    others = {p: getattr(family, p) for p, _ in parameters(type(family))[1:]}
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


@dataclass(frozen=True)
class Charlier(FamilySpec):
    mu: float
    kind = "charlier"

    def __post_init__(self):
        _canonicalize(self, "charlier")
        if not self.mu > 0.0:
            raise ValidationError(f"charlier requires mu > 0, got mu={self.mu!r}")

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
        _canonicalize(self, "meixner")
        if not self.mu > 0.0:
            raise ValidationError(f"meixner requires mu > 0, got mu={self.mu!r}")
        if not 0.0 < self.beta < 1.0:
            raise ValidationError(
                f"meixner requires 0 < beta < 1, got beta={self.beta!r}"
            )

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
    M: int
    gamma: float
    kind = "krawtchouk"

    def __post_init__(self):
        _canonicalize(self, "krawtchouk")
        if not 0.0 < self.gamma < 1.0:
            raise ValidationError(
                f"krawtchouk requires 0 < gamma < 1, got gamma={self.gamma!r}"
            )
        if self.M < 1:
            raise ValidationError(f"krawtchouk requires integer M >= 1, got M={self.M!r}")

    def recurrence(self) -> RecurrenceStream:
        m, g = self.M, self.gamma

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
        m, g = self.M, self.gamma
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
        _canonicalize(self, "continuous dual Hahn")
        _require_squared_variable_params(self, "continuous dual Hahn")

    def recurrence(self) -> RecurrenceStream:
        return _squared_variable_recurrence((self.mu, self.alpha, self.beta))

    def measure(self) -> MeasureSpec:
        return _squared_variable_measure((self.mu, self.alpha, self.beta))


@dataclass(frozen=True)
class Wilson(FamilySpec):
    mu: float
    nu: float
    alpha: float
    beta: float
    kind = "wilson"

    def __post_init__(self):
        _canonicalize(self, "wilson")
        _require_squared_variable_params(self, "wilson")

    def recurrence(self) -> RecurrenceStream:
        return _squared_variable_recurrence((self.mu, self.nu, self.alpha, self.beta))

    def measure(self) -> MeasureSpec:
        return _squared_variable_measure((self.mu, self.nu, self.alpha, self.beta))


@dataclass(frozen=True)
class Custom(FamilySpec):
    stream: RecurrenceStream
    spec_measure: MeasureSpec

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

