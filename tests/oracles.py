"""Reference computations used only by the test suite.

Each one is an independent route to a value the library computes another
way: orthonormal polynomials by forward recurrence, exact matrix powers of
the Jacobi matrix, and Gauss weights from eigenvalues alone.  Besides them,
``finite_support`` lists the points and masses of a finite discrete part,
which the library reads only inside a sum, ``truncated_sum`` is a
fixed-length sum over an infinite one, which the library never sums,
``ql_implicit_reference`` is the plain QL sweep that the library's kernel
must reproduce bit for bit,
``eigenvector_matrix`` is the whole eigenvector matrix, of which the library
computes only the first row, and
``evaluate_reference`` is the expression tree walk that the compiled
expression evaluators must reproduce bit for bit, with its own ``gamma``
and power, ``fmt_json_reference``,
``rule_csv_reference`` and ``table_csv_reference`` are the per-value JSON
formatter and per-line CSV loops whose bytes the CLI's output must
reproduce, and ``lanczos_recurrence`` recovers a recurrence from a discrete
measure, which the library only ever reads the other way.  Tests import
them as ``from oracles import ...``.
"""

from __future__ import annotations

import io
import math
from typing import Callable

import numpy as np

from quadsum.eig import _EPS, _MAX_SWEEPS, ConvergenceError, eigenvalues
from quadsum.errors import NumericalError, ValidationError
from quadsum.exprlang import BinaryOp, Call, EvalError, Expr, Negate, Number, Variable
from quadsum.families import DiscretePart, RecurrenceStream
from quadsum.jacobi import JacobiMatrix, build
from quadsum.rule import QuadratureRule
from quadsum.special import ln_gamma


def eval_poly(stream: RecurrenceStream, n: int, x: float) -> float:
    """Evaluate the orthonormal polynomial p_n(x) by forward recurrence.

    Seeds are p_0 = 1 and p_1 = (x - a_0)/b_0; then
    x p_k = a_k p_k + b_{k-1} p_{k-1} + b_k p_{k+1}.
    """
    if n < 0:
        raise ValidationError(f"polynomial degree must be >= 0, got {n}")
    if stream.size is not None and n > stream.size - 1:
        raise ValidationError(
            f"degree {n} out of range for a finite family of size {stream.size}"
        )
    p_prev = 1.0
    if n == 0:
        return p_prev
    p_cur = (x - stream.a(0)) / stream.b(0)
    for k in range(1, n):
        p_prev, p_cur = (
            p_cur,
            ((x - stream.a(k)) * p_cur - stream.b(k - 1) * p_prev) / stream.b(k),
        )
    return p_cur


def finite_support(d: DiscretePart) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The (points, masses) tuples of a finite discrete part, read from its
    ``point_at`` and ``mass_at`` over k = 0..size-1."""
    return (
        tuple(d.point_at(k) for k in range(d.size)),
        tuple(d.mass_at(k) for k in range(d.size)),
    )


def truncated_sum(d: DiscretePart, f: Callable[[float], float], terms: int = 200) -> float:
    """fsum of mass_at(k) f(point_at(k)) over k < terms.  The omitted tail is
    the sum over k >= terms: at the default 200 terms its masses total below
    1e-300 for Charlier(2) and below 1e-70 for Meixner(2, 0.4), so for an f
    of polynomial growth the truncation is far below the tests' tolerances."""
    return math.fsum(d.mass_at(k) * f(d.point_at(k)) for k in range(terms))


def dense(j: JacobiMatrix) -> np.ndarray:
    """J as a dense symmetric matrix."""
    out = np.diag(j.diag)
    n = j.dimension
    out[np.arange(n - 1), np.arange(1, n)] = j.offdiag
    out[np.arange(1, n), np.arange(n - 1)] = j.offdiag
    return out


def matvec(j: JacobiMatrix, v: np.ndarray) -> np.ndarray:
    """J v without forming J."""
    out = j.diag * v
    if j.dimension > 1:
        out[:-1] += j.offdiag * v[1:]
        out[1:] += j.offdiag * v[:-1]
    return out


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
        v = matvec(j, v)
    return float(v[n])


class InterlacingError(NumericalError):
    """Submatrix eigenvalues failed to interlace strictly; the eigenvalue-only
    weight formula has broken down numerically."""


def deleted_submatrix_eigenvalues(j: JacobiMatrix) -> np.ndarray:
    """Eigenvalues of the trailing principal submatrix (first row and
    column deleted), ascending."""
    if j.dimension < 2:
        raise ValidationError("deleted submatrix requires dimension >= 2")
    return eigenvalues(JacobiMatrix(j.diag[1:].copy(), j.offdiag[1:].copy()))


def gauss_rule_eigenvalue_only(j: JacobiMatrix) -> QuadratureRule:
    """Gauss rule of J computed from eigenvalues alone.

    The weight at node eps_n is the ratio of the products of (eps_n - eps_hat_m)
    over the deleted-submatrix spectrum and (eps_n - eps_k), k != n.  Products
    are accumulated in log space with sign tracking; strict interlacing of the
    two spectra is verified first.
    """
    if j.dimension < 2:
        raise ValidationError("eigenvalue-only weights require dimension >= 2")
    eps = eigenvalues(j)
    hat = deleted_submatrix_eigenvalues(j)
    for i in range(j.dimension - 1):
        if not (eps[i] < hat[i] < eps[i + 1]):
            raise InterlacingError(
                f"interlacing violated near index {i}: "
                f"eps={float(eps[i])!r}, hat={float(hat[i])!r}, "
                f"next eps={float(eps[i + 1])!r}"
            )
    n = j.dimension
    weights = np.empty(n)
    for k in range(n):
        num = eps[k] - hat
        den = eps[k] - np.delete(eps, k)
        ln = float(np.sum(np.log(np.abs(num))) - np.sum(np.log(np.abs(den))))
        sign = 1.0 if (np.count_nonzero(num < 0) + np.count_nonzero(den < 0)) % 2 == 0 else -1.0
        weights[k] = sign * math.exp(ln)
    return QuadratureRule(eps, weights)


def ql_implicit_reference(d: list[float], e: list[float], row: list | None) -> None:
    """In-place implicit-shift QL on diagonal d and off-diagonal e, without
    the kernel's split record, norm cutoff or zero-tail skip: every sweep
    rescans for the split and rotates every row entry.

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


def eigenvector_matrix(j: JacobiMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of J, ascending, and the orthonormal eigenvector matrix L
    with the eigenvector of eigenvalues[k] in column k, signed so that row 0
    is nonnegative.

    It is ``ql_implicit_reference`` rotating the columns of the identity all
    at once: entry i of its row is a vector holding, for each start e_k, what
    a first-row sweep from e_k leaves at i.  So row k of L is the sweep from
    e_k, put in eigenvalue order and signed like row 0, and the first-row
    mode of ``decompose`` gives row 0 bit for bit.
    """
    d, e = j.diag.tolist(), j.offdiag.tolist() + [0.0]
    columns = list(np.eye(j.dimension))
    ql_implicit_reference(d, e, columns)
    order = np.argsort(d, kind="stable")
    vectors = np.array(columns)[order].T
    return np.array(d)[order], vectors * np.sign(vectors[0])


def gamma(x: float) -> float:
    """Gamma(x) for real non-pole x (sign included for x < 0); inf where it
    overflows, and a signed zero where |Gamma(x)| underflows for x < 0.  C
    ``math.gamma``: within 3.5 eps relative of mpmath on (-30, 171.6)."""
    try:
        return math.gamma(x)
    except ValueError:
        raise ValidationError(f"Gamma pole at {x!r}") from None
    except OverflowError:
        # Only near 0, where Gamma(x) ~ 1/x, and for x > 171.6.
        return math.copysign(math.inf, x)


def _power(e: Expr, base: float, exponent: float) -> float:
    """base ** exponent for the power node e, inf past the largest double."""
    try:
        return math.pow(base, exponent)
    except OverflowError:
        # An odd integer power keeps the sign of its base.
        return math.copysign(math.inf, base) if exponent % 2.0 == 1.0 else math.inf
    except ValueError:
        raise EvalError(e, f"domain error raising {base!r} to power {exponent!r}")


def evaluate_reference(e: Expr, x: float) -> float:
    """Evaluate an expression tree at x by walking it, node by node."""
    if isinstance(e, Number):
        return e.value
    if isinstance(e, Variable):
        return x
    if isinstance(e, Negate):
        return -evaluate_reference(e.operand, x)
    if isinstance(e, BinaryOp):
        left = evaluate_reference(e.left, x)
        right = evaluate_reference(e.right, x)
        if e.op == "+":
            return left + right
        if e.op == "-":
            return left - right
        if e.op == "*":
            return left * right
        if e.op == "/":
            if right == 0.0:
                raise EvalError(e, "division by zero")
            return left / right
        return _power(e, left, right)
    if isinstance(e, Call):
        args = [evaluate_reference(a, x) for a in e.args]
        if e.name == "exp":
            try:
                return math.exp(args[0])
            except OverflowError:
                return math.inf
        if e.name == "ln":
            if args[0] <= 0.0:
                raise EvalError(e, f"ln of non-positive value {args[0]!r}")
            return math.log(args[0])
        if e.name == "sqrt":
            if args[0] < 0.0:
                raise EvalError(e, f"sqrt of negative value {args[0]!r}")
            return math.sqrt(args[0])
        if e.name == "abs":
            return abs(args[0])
        if e.name == "gamma":
            try:
                return gamma(args[0])
            except ValidationError:
                raise EvalError(e, f"gamma pole at {args[0]!r}")
        if e.name == "lgamma":
            if args[0] <= 0.0:
                raise EvalError(e, f"lgamma of non-positive value {args[0]!r}")
            return args[0] if math.isnan(args[0]) else ln_gamma(args[0])
        return _power(e, args[0], args[1])  # pow
    raise TypeError(f"not an expression node: {e!r}")


def _fmt(x: float) -> str:
    return format(x, ".17g")


def fmt_json_reference(value) -> str:
    """JSON text of a document of None, bool, str, int, float, list, tuple
    and dict values, reals with 17 significant digits."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _fmt(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(fmt_json_reference(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f'{fmt_json_reference(str(k))}: {fmt_json_reference(v)}' for k, v in value.items()) + "}"
    raise TypeError(f"cannot serialize {value!r}")


def rule_csv_reference(rule: QuadratureRule) -> str:
    """What ``quadsum rule --format csv`` prints for a rule, one print per line."""
    out = io.StringIO()
    print("node,weight", file=out)
    for x, w in zip(rule.nodes, rule.weights):
        print(f"{_fmt(float(x))},{_fmt(float(w))}", file=out)
    return out.getvalue()


def table_csv_reference(report) -> str:
    """What ``quadsum table --format csv`` prints for a report, one print per
    line: each cell's fields but its params, text with ',' written as ';',
    None as an empty field and any other value as ``fmt_json_reference``."""
    out = io.StringIO()
    print("label,n,approx,exact,rel_error,published,pass,error", file=out)
    for c in report.cells:
        fields = []
        for value in (c.label, c.n, c.approx, c.exact, c.rel_error, c.published, c.passed, c.error):
            if isinstance(value, str):
                fields.append(value.replace(",", ";"))
            else:
                fields.append("" if value is None else fmt_json_reference(value))
        print(",".join(fields), file=out)
    return out.getvalue()


def lanczos_recurrence(points, masses, n: int) -> tuple[np.ndarray, np.ndarray]:
    """a_0..a_{n-1} and b_0..b_{n-1} (b_k > 0) of the orthonormal polynomials
    of the discrete measure with the given points and masses, normalized to
    unit mass: the discretized Lanczos procedure (Gautschi 2004, Orthogonal
    Polynomials: Computation and Approximation, sec. 2.2), Lanczos on
    diag(points) from the vector of square-root masses, each new vector
    orthogonalized twice against all earlier ones."""
    points = np.asarray(points, dtype=float)
    basis = np.empty((n + 1, len(points)))
    basis[0] = np.sqrt(masses) / math.sqrt(math.fsum(masses))
    a, b = np.empty(n), np.empty(n)
    for k in range(n):
        w = points * basis[k]
        a[k] = basis[k] @ w
        for _ in range(2):
            w -= basis[: k + 1].T @ (basis[: k + 1] @ w)
        b[k] = np.linalg.norm(w)
        basis[k + 1] = w / b[k]
    return a, b
