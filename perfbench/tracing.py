"""Spans around the calls from one quadsum layer into the next.

The tracer replaces module attributes of the installed package with timing
wrappers (no edit under ``src/``), so a call such as ``quadsum.apply`` ->
``gauss_rule`` is recorded where it crosses the layer boundary.  Spans carry
an id, a parent id, the request id of the benchmark op that caused them, a
name and start/end times; they are kept in memory and written out when the
run ends.  Self time is a span's duration minus the time its child spans
cover, accumulated as spans close.
"""

from __future__ import annotations

import dataclasses
import importlib
import math
from collections import Counter
from time import perf_counter_ns


def _decompose_mode(args, kwargs) -> str:
    return kwargs.get("mode", args[1] if len(args) > 1 else "values")


# (module, attribute, span name).  A call lands in exactly one of these,
# because each module binds its own copy of the names it imports: patching
# ``quadsum.apply.gauss_rule`` traces apply -> rule, patching
# ``quadsum.rule.gauss_rule`` traces a direct call from the benchmark.
# ``quadsum.eig.decompose`` is patched for the lazy import in
# ``jacobi.matrix_function_element`` and for ``eig.eigenvalues``.
BOUNDARIES = (
    ("quadsum.families", "recurrence", "families.recurrence"),
    ("quadsum.jacobi", "build", "jacobi.build"),
    ("quadsum.rule", "gauss_rule", "rule.gauss_rule"),
    ("quadsum.rule", "decompose", "eig.decompose"),
    ("quadsum.eig", "eigenvalues", "eig.eigenvalues"),
    ("quadsum.eig", "decompose", "eig.decompose"),
    ("quadsum.apply", "recurrence", "families.recurrence"),
    ("quadsum.apply", "measure", "families.measure"),
    ("quadsum.apply", "build", "jacobi.build"),
    ("quadsum.apply", "gauss_rule", "rule.gauss_rule"),
    ("quadsum.apply", "derivative_weights", "rule.derivative_weights"),
    ("quadsum.apply", "matrix_function_element", "jacobi.matrix_function_element"),
    ("quadsum.tables", "approximate", "apply.approximate"),
    ("quadsum.tables", "spectral_reference", "apply.spectral_reference"),
    ("quadsum.tables", "run_table", "tables.run_table"),
    ("quadsum.cli", "recurrence", "families.recurrence"),
    ("quadsum.cli", "build", "jacobi.build"),
    ("quadsum.cli", "gauss_rule", "rule.gauss_rule"),
    ("quadsum.cli", "approximate", "apply.approximate"),
    ("quadsum.cli", "parse", "exprlang.parse"),
    ("quadsum.cli", "evaluate", "exprlang.evaluate"),
    ("quadsum.cli", "run_table", "tables.run_table"),
    ("quadsum.cli", "main", "cli.main"),
)


class Tracer:
    """Span recorder for one single-threaded run."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, request, name, start_ns, end_ns)
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.min_ln_weight = math.inf
        self.request = -1
        self._stack: list[list] = []  # [id, name, start_ns, child_ns, parent]
        self._saved: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        sid = len(self.spans) + len(self._stack)
        self._stack.append([sid, name, perf_counter_ns(), 0, parent])

    def end(self) -> None:
        stop = perf_counter_ns()
        sid, name, start, child_ns, parent = self._stack.pop()
        duration = stop - start
        if self._stack:
            self._stack[-1][3] += duration
        self.calls[name] += 1
        self.self_ns[name] += duration - child_ns
        self.spans.append((sid, parent, self.request, name, start, stop))

    def wrap(self, name: str, fn, before=None, after=None):
        """Return ``fn`` wrapped in a span.  ``before(args, kwargs)`` may
        rewrite the arguments and return the span name; ``after(args, kwargs,
        result)`` records counts once the span is closed."""

        def traced(*args, **kwargs):
            span = name
            if before is not None:
                span, args, kwargs = before(args, kwargs)
            self.begin(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end()
                self.counts[".".join(span.split(".")[:2]) + ".failed"] += 1
                raise
            self.end()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # -- boundary hooks ------------------------------------------------------

    def _integrand(self, f):
        return self.wrap("integrand", f)

    def _hooks(self, module: str, name: str):
        """Argument rewriting and work counts for one boundary."""
        if name == "eig.decompose":
            def before(args, kwargs):
                return f"eig.decompose.{_decompose_mode(args, kwargs)}", args, kwargs

            def after(args, kwargs, dec):
                mode = _decompose_mode(args, kwargs)
                n = dec.eigenvalues.size
                if mode == "full":
                    self.counts["eig.decompose.full.n3_sum"] += n**3
                else:
                    self.counts[f"eig.decompose.{mode}.n2_sum"] += n**2
                if module == "quadsum.rule" and mode == "first_row":
                    z = dec.first_components
                    self.counts["rule.weights.underflowed"] += int((z * z == 0.0).sum())
                    self.min_ln_weight = min(self.min_ln_weight, 2.0 * math.log(float(z.min())))

            return before, after
        if name == "jacobi.build":
            def after(args, kwargs, j):
                self.counts["jacobi.build.order_sum"] += j.dimension

            return None, after
        if name == "rule.derivative_weights":
            def after(args, kwargs, out):
                self.counts["rule.derivative_weights.nodes"] += out.size

            return None, after
        if name == "apply.approximate":
            def before(args, kwargs):
                fn = args[0]
                return name, (dataclasses.replace(fn, f=self._integrand(fn.f)),), kwargs

            return before, None
        if name == "apply.spectral_reference":
            def before(args, kwargs):
                family, f, *rest = args
                return name, (family, self._integrand(f), *rest), kwargs

            return before, None
        return None, None

    def install(self) -> None:
        for module, attr, name in BOUNDARIES:
            mod = importlib.import_module(module)
            original = getattr(mod, attr)
            before, after = self._hooks(module, name)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self.wrap(name, original, before, after))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    # -- output --------------------------------------------------------------

    def self_s(self, name: str) -> float:
        return self.self_ns[name] / 1e9

    def total_self_s(self) -> float:
        return sum(self.self_ns.values()) / 1e9

    def write(self, path) -> None:
        """Write every span as a tab-separated line."""
        with open(path, "w") as out:
            out.write("id\tparent\trequest\tname\tstart_ns\tend_ns\n")
            for span in self.spans:
                out.write("\t".join(map(str, span)) + "\n")
