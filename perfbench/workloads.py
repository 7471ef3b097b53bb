"""The three workloads: seeded op streams, the check of each op's output,
and the bytes each output contributes to the run digest.

Every op calls the library through module attributes looked up at call
time (``quadsum.rule.gauss_rule``, ``quadsum.cli.main`` ...), so the tracer
can replace them.  Checks run outside the timed region and compare against
references the library does not use itself: scipy's
``eigh_tridiagonal`` for nodes, the first three moments of the measure for
weights, and closed forms for sums.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

import quadsum.cli
import quadsum.eig
import quadsum.families
import quadsum.jacobi
import quadsum.rule
import quadsum.tables
from quadsum.families import Charlier, ContinuousDualHahn, Krawtchouk, Meixner, Wilson

TOLERANCES = json.loads((Path(__file__).parent / "tolerances.json").read_text())

FAMILIES = ("charlier", "meixner", "krawtchouk", "cdh", "wilson")


class CheckFailed(Exception):
    """An op returned an output that does not match its reference."""


@dataclass
class Accuracy:
    """Largest errors seen by the checks of one run."""

    node_rel_err_max: float = 0.0
    moment_defect_max: float = 0.0
    sum_rel_err_max: float = 0.0

    def record(self, name: str, value: float) -> None:
        setattr(self, name, max(getattr(self, name), value))
        if not value <= TOLERANCES[name]:
            raise CheckFailed(f"{name} = {value!r} exceeds {TOLERANCES[name]!r}")


@dataclass
class Op:
    """One request.  ``run`` is the timed call; ``check`` validates its
    output; ``digest`` gives the bytes hashed for byte-determinism."""

    key: str
    kind: str
    run: Callable[[], object]
    check: Callable[[object, Accuracy], None]
    digest: Callable[[object], bytes]


# -- family parameters ------------------------------------------------------


def draw_params(rng: random.Random, family: str, order: int) -> dict:
    """Parameters inside each family's domain, with 4 decimals so that the
    CLI argv reproduces them exactly.  Krawtchouk gets M >= order - 1."""
    def u(lo: float, hi: float) -> float:
        return round(rng.uniform(lo, hi), 4)

    if family == "charlier":
        return {"mu": u(0.5, 8.0)}
    if family == "meixner":
        return {"mu": u(0.5, 5.0), "beta": u(0.1, 0.8)}
    if family == "krawtchouk":
        return {"M": order - 1 + rng.randint(0, order), "gamma": u(0.1, 0.9)}
    names = ("mu", "alpha", "beta") if family == "cdh" else ("mu", "nu", "alpha", "beta")
    if rng.random() < 0.5:
        return {name: u(0.5, 3.0) for name in names}
    mu = -u(0.5, 3.5)
    return {"mu": mu, **{name: round(-mu + u(0.5, 3.0), 4) for name in names[1:]}}


def family_spec(family: str, p: dict):
    if family == "charlier":
        return Charlier(p["mu"])
    if family == "meixner":
        return Meixner(p["mu"], p["beta"])
    if family == "krawtchouk":
        return Krawtchouk(p["M"], p["gamma"])
    if family == "cdh":
        return ContinuousDualHahn(p["mu"], p["alpha"], p["beta"])
    return Wilson(p["mu"], p["nu"], p["alpha"], p["beta"])


def log_uniform_orders(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """``count`` orders in [lo, hi], one per equal slice of log-order, so that
    every block of requests covers the whole range."""
    a, b = math.log(lo), math.log(hi)
    return [
        int(round(math.exp(a + (i + rng.random()) / count * (b - a))))
        for i in range(count)
    ]


# -- checks -----------------------------------------------------------------


def _check_nodes(j, nodes: np.ndarray, acc: Accuracy) -> None:
    from scipy.linalg import eigh_tridiagonal

    ref = eigh_tridiagonal(j.diag, j.offdiag, eigvals_only=True)
    if nodes.shape != ref.shape:
        raise CheckFailed(f"{nodes.size} nodes, expected {ref.size}")
    acc.record(
        "node_rel_err_max",
        float(np.max(np.abs(nodes - ref) / np.maximum(np.abs(ref), 1.0))),
    )


def _check_rule(j, nodes: np.ndarray, weights: np.ndarray, acc: Accuracy) -> None:
    """Nodes against scipy; weights by the moments sum w = 1,
    sum w x = a_0 and sum w x^2 = a_0^2 + b_0^2, each relative to the sum of
    absolute terms."""
    _check_nodes(j, nodes, acc)
    a0 = float(j.diag[0])
    b0 = float(j.offdiag[0]) if j.dimension > 1 else 0.0
    x = nodes.tolist()
    w = weights.tolist()
    m0 = abs(math.fsum(w) - 1.0)
    m1 = abs(math.fsum(wi * xi for wi, xi in zip(w, x)) - a0) / math.fsum(
        wi * abs(xi) for wi, xi in zip(w, x))
    m2 = abs(math.fsum(wi * xi * xi for wi, xi in zip(w, x)) - (a0 * a0 + b0 * b0)) / (
        a0 * a0 + b0 * b0)
    acc.record("moment_defect_max", max(m0, m1, m2))


def _check_sum(value: float, exact: float, acc: Accuracy) -> None:
    acc.record("sum_rel_err_max", abs(value - exact) / abs(exact))


def _exact_shifted_power_sum(r: float, m: int) -> float:
    """Closed form of sum_{k=0}^{M} (k+1) r^{k+1} / Gamma(k+r+2)."""
    return math.exp(-math.lgamma(r)) - math.exp(
        (m + 2) * math.log(r) - math.lgamma(m + r + 2.0))


# -- paper_tables -----------------------------------------------------------


def _table_digest(report) -> bytes:
    return repr([(c.label, c.n, c.approx, c.rel_error, c.passed) for c in report.cells]).encode()


def _check_table(report, acc: Accuracy) -> None:
    """The table's own pass flag; the accuracy figure is the largest error
    among the cells the paper publishes at or below 1e-10, the ones near
    the roundoff floor."""
    if not report.passed:
        failed = [c for c in report.cells if not c.passed]
        raise CheckFailed(f"table {report.table}: {len(failed)} cells fail, first {failed[0]}")
    floor_cells = [c.rel_error for c in report.cells
                   if c.published <= quadsum.tables.PUBLISHED_FLOOR_CEILING]
    if floor_cells:
        acc.record("sum_rel_err_max", max(floor_cells))


class PaperTables:
    """Tables 1-3 at the default oracle size, in a seeded order per cycle.
    The paper's headline result; table 3 spends most of its time in the
    full eigendecompositions of the spectral reference."""

    name = "paper_tables"
    digest_ops = 3
    nominal_ops_per_s = 1.5  # ops/s at the seed commit on 2 cores

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def _op(self, which: int) -> Op:
        return Op(
            key=f"table {which}",
            kind=f"table{which}",
            run=lambda: quadsum.tables.run_table(which),
            check=_check_table,
            digest=_table_digest,
        )

    def blocks(self) -> Iterator[list[Op]]:
        while True:
            order = [1, 2, 3]
            self.rng.shuffle(order)
            yield [self._op(which) for which in order]

    def warm_up(self) -> None:
        quadsum.tables.run_table(1)


# -- rule_sweep -------------------------------------------------------------

# Largest rule order per family: below the order at which the first-row QL
# of today's library loses a weight to exact zero and raises, for every
# parameter draw_params can return, with a margin.
RULE_MAX_ORDER = {"charlier": 225, "meixner": 250, "krawtchouk": 300, "cdh": 200, "wilson": 200}
NODES_MAX_ORDER = 800
MIN_ORDER = 50
RULES_PER_FAMILY = 6


def _rule_digest(out) -> bytes:
    _, nodes, weights = out
    return nodes.tobytes() + (b"" if weights is None else weights.tobytes())


def _check_rule_out(out, acc: Accuracy) -> None:
    j, nodes, weights = out
    if weights is None:
        _check_nodes(j, nodes, acc)
    else:
        _check_rule(j, nodes, weights, acc)


def rule_request(family: str, params: dict, order: int, nodes_only: bool) -> Op:
    spec = family_spec(family, params)

    def run():
        j = quadsum.jacobi.build(quadsum.families.recurrence(spec), order)
        if nodes_only:
            return j, quadsum.eig.eigenvalues(j), None
        rule = quadsum.rule.gauss_rule(j)
        return j, rule.nodes, rule.weights

    kind = "nodes" if nodes_only else "rule"
    return Op(f"{kind} {family} {params} {order}", kind, run, _check_rule_out, _rule_digest)


class RuleSweep:
    """Independent rule requests over all five families at orders 50 to
    300 (and nodes-only requests up to 800), parameters drawn fresh for every
    request.  The time goes to the pure-Python QL at large N."""

    name = "rule_sweep"
    digest_ops = (RULES_PER_FAMILY + 1) * len(FAMILIES)  # one block
    nominal_ops_per_s = 10.0  # ops/s at the seed commit on 2 cores

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def block(self) -> list[Op]:
        """One request per log-order slice: six rules per family and one
        nodes-only request per family.  With nodes-only requests at 1/7 of
        the ops, the 90th percentile falls inside their spread of orders
        rather than between two sparse groups, which keeps it steady."""
        rng = self.rng
        ops = []
        for family in FAMILIES:
            for order in log_uniform_orders(rng, MIN_ORDER, RULE_MAX_ORDER[family], RULES_PER_FAMILY):
                ops.append(rule_request(family, draw_params(rng, family, order), order, False))
        families = list(FAMILIES)
        rng.shuffle(families)
        for family, order in zip(families, log_uniform_orders(rng, MIN_ORDER, NODES_MAX_ORDER, len(FAMILIES))):
            ops.append(rule_request(family, draw_params(rng, family, order), order, True))
        rng.shuffle(ops)
        return ops

    def blocks(self) -> Iterator[list[Op]]:
        while True:
            yield self.block()

    def warm_up(self) -> None:
        j = quadsum.jacobi.build(quadsum.families.recurrence(Charlier(1.0)), 20)
        quadsum.rule.gauss_rule(j)
        quadsum.eig.eigenvalues(j)


# -- cli_mix ----------------------------------------------------------------

# Requests of each kind in every block of 100, so that every block has the
# same mix whatever the seed.
CLI_MIX = (
    ("rule", 40),
    ("sum_exp", 22),
    ("sum_krawtchouk", 13),
    ("sum_weighted", 22),
    ("table1", 2),
    ("table2", 1),
)
POOL_PER_KIND = 8
REPEAT_SHARE = 0.5  # share of rule/sum requests drawn from the kind's pool
EXP_INTEGRAND = "r^x/gamma(x+1)"
KRAWTCHOUK_INTEGRAND = "(x+1)*r^(x+1)/gamma(x+r+2)"


def _family_argv(family: str, params: dict) -> list[str]:
    argv = ["--family", family]
    for name, value in params.items():
        argv += [f"--{name}", str(value)]
    return argv


def _cli_digest(out) -> bytes:
    rc, stdout = out
    return f"{rc}\n".encode() + stdout.encode()


def _cli_ok(out) -> str:
    rc, stdout = out
    if rc != 0:
        raise CheckFailed(f"exit code {rc}")
    return stdout


def _cli_op(argv: list[str], kind: str, check: Callable[[str, Accuracy], None]) -> Op:
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = quadsum.cli.main(argv)
        return rc, buf.getvalue()

    return Op(" ".join(argv), kind, run, lambda out, acc: check(_cli_ok(out), acc), _cli_digest)


def _cli_rule_check(family: str, params: dict, order: int, fmt: str):
    def check(stdout: str, acc: Accuracy) -> None:
        if fmt == "json":
            doc = json.loads(stdout)
            nodes, weights = np.array(doc["nodes"]), np.array(doc["weights"])
        else:
            rows = stdout.split()[1:]
            nodes = np.array([float(r.split(",")[0]) for r in rows])
            weights = np.array([float(r.split(",")[1]) for r in rows])
        j = quadsum.jacobi.build(quadsum.families.recurrence(family_spec(family, params)), order)
        _check_rule(j, nodes, weights, acc)

    return check


def _cli_table_check(stdout: str, acc: Accuracy) -> None:
    if json.loads(stdout)["pass"] is not True:
        raise CheckFailed("table reports failing cells")


class CliMix:
    """In-process ``quadsum`` CLI calls at small orders (2-40): rules,
    plain and weighted sums of expression-language integrands, and tables 1
    and 2.  Half the rule and sum requests repeat one of a pool of eight per
    kind, and the table requests are always the same.
    Per-call overhead dominates: argument parsing, measure set-up, the
    expression tree walk and formatting."""

    name = "cli_mix"
    digest_ops = 200
    nominal_ops_per_s = 200.0  # ops/s at the seed commit on 2 cores

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        # Pool entry i takes its order from the i-th slice of the order range
        # and cycles through the families, so that every seed's pool has the
        # same spread of cost.
        self.pools = {kind: [self.fresh(kind, i) for i in range(POOL_PER_KIND)]
                      for kind, _ in CLI_MIX if not kind.startswith("table")}

    def fresh(self, kind: str, slot: int | None = None) -> Op:
        rng = self.rng
        if kind in ("table1", "table2"):
            return _cli_op(["table", kind[-1]], kind, _cli_table_check)
        u = rng.random() if slot is None else (slot + rng.random()) / POOL_PER_KIND

        def pick(lo: int, hi: int) -> int:
            return lo + int(u * (hi - lo + 1))

        def family_of(choices: tuple) -> str:
            return rng.choice(choices) if slot is None else choices[slot % len(choices)]

        if kind == "rule":
            family = family_of(FAMILIES)
            order = pick(2, 40)
            params = draw_params(rng, family, order)
            fmt = rng.choice(("json", "csv"))
            argv = ["rule", *_family_argv(family, params), "--n", str(order), "--format", fmt]
            return _cli_op(argv, kind, _cli_rule_check(family, params, order, fmt))
        r = round(rng.uniform(0.5, 4.0), 4)
        if kind == "sum_exp":
            # Orders 20-40 with beta <= 0.3 converge to 2e-11 or better.
            family = family_of(("charlier", "meixner"))
            params = {"mu": round(rng.uniform(0.5, 4.0), 4)}
            if family == "meixner":
                params["beta"] = round(rng.uniform(0.05, 0.3), 4)
            order = pick(20, 40)
            argv = ["sum", *_family_argv(family, params), "--n", str(order),
                    "--f", EXP_INTEGRAND, "--define", f"r={r}"]
            exact = math.exp(r)
            return _cli_op(argv, kind, lambda out, acc: _check_sum(float(out), exact, acc))
        if kind == "sum_krawtchouk":
            # N = M + 1 nodes cover the whole finite support: exact.
            m = pick(1, 39)
            params = {"M": m, "gamma": round(rng.uniform(0.05, 0.95), 4)}
            argv = ["sum", *_family_argv("krawtchouk", params), "--n", str(m + 1),
                    "--f", KRAWTCHOUK_INTEGRAND, "--define", f"r={r}"]
            exact = _exact_shifted_power_sum(r, m)
            return _cli_op(argv, kind, lambda out, acc: _check_sum(float(out), exact, acc))
        family = family_of(("charlier", "meixner", "krawtchouk"))
        order = pick(2, 40)
        params = draw_params(rng, family, order)
        argv = ["sum", *_family_argv(family, params), "--n", str(order),
                "--f", "1", "--mode", "weighted"]
        return _cli_op(argv, kind, lambda out, acc: _check_sum(float(out), 1.0, acc))

    def blocks(self) -> Iterator[list[Op]]:
        rng = self.rng
        while True:
            kinds = [kind for kind, count in CLI_MIX for _ in range(count)]
            rng.shuffle(kinds)
            yield [rng.choice(self.pools[kind])
                   if kind in self.pools and rng.random() < REPEAT_SHARE
                   else self.fresh(kind) for kind in kinds]

    def warm_up(self) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            quadsum.cli.main(["rule", "--family", "charlier", "--mu", "1", "--n", "4"])
            quadsum.cli.main(["sum", "--family", "charlier", "--mu", "1", "--n", "4",
                              "--f", "x^2"])


WORKLOADS = {w.name: w for w in (PaperTables, RuleSweep, CliMix)}
