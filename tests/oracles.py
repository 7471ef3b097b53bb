"""Reference computations used only by the test suite.

Each one is an independent route to a value the library computes another
way: orthonormal polynomials by forward recurrence, exact matrix powers of
the Jacobi matrix, and Gauss weights from eigenvalues alone.  Besides them,
``finite_support`` lists the points and masses of a finite discrete part,
which the library reads only inside a sum, ``ql_implicit_reference`` is
the plain QL sweep that the library's kernel must reproduce bit for bit,
``eigenvector_matrix`` is the whole eigenvector matrix, of which the library
computes only the first row, and
``evaluate_reference`` is the expression tree walk that the compiled
expression evaluators must reproduce bit for bit, and ``fmt_json_reference``
and ``rule_csv_reference`` are the per-value JSON formatter and per-line CSV
loop whose bytes the CLI's output must reproduce.  Tests import them as
``from oracles import ...``.
"""

from __future__ import annotations

import io
import math

import numpy as np

from quadsum.eig import _EPS, _MAX_SWEEPS, ConvergenceError, eigenvalues
from quadsum.errors import NumericalError, ValidationError
from quadsum.exprlang import BinaryOp, Call, EvalError, Expr, Negate, Number, Variable, _power
from quadsum.families import DiscretePart, RecurrenceStream
from quadsum.jacobi import JacobiMatrix, build
from quadsum.rule import QuadratureRule
from quadsum.special import gamma as _gamma
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
                return _gamma(args[0])
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
