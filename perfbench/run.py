"""quadsum benchmark runner.

    python3 perfbench/run.py --workload {paper_tables,rule_sweep,cli_mix}
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
``src/``.  One closed loop, one client, one process, one thread, BLAS pinned
to one thread.  The seed makes the inputs; the library sees only them.

--trace 0 measures the end-to-end metrics: set-up time of fresh processes,
ops per second and op latency over at least S seconds of ops, and peak RSS.
--trace 1 runs a fixed number of ops untraced (the workload's nominal rate
times S/2), replays the same ops with spans around every layer boundary,
and reports per-layer metrics.

Every op's output is checked outside the timed region.  The last line of
stdout is the JSON result; a fuller record, with the run context, goes to
``.perfbench_out/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from importlib import metadata
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 7
PROBE_EVERY_S = 0.5
MAX_REPORTED_FAILURES = 5


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print 'ready' and exit (used to time set-up)")
    return parser.parse_args(argv)


# -- set-up -----------------------------------------------------------------


def set_up(workload_name: str, seed: int):
    """Import the library, make the inputs and warm every code path."""
    import workloads

    workload = workloads.WORKLOADS[workload_name](seed)
    first_block = next(iter(workload.blocks()))
    workload.warm_up()
    return workload, first_block


def measure_setup(args) -> list[float]:
    """Seconds from spawning a fresh interpreter to its being ready for the
    first timed op; one discarded run first so that bytecode caches exist."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                ready = time.perf_counter()
                code = proc.wait(timeout=60)
            except BaseException:
                proc.kill()
                raise
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up run failed (exit {code}, output {line!r})")
        samples.append(ready - start)
    return samples[1:]


# -- the closed loop --------------------------------------------------------


class Phase:
    """Ops run back to back; checks and hashing happen outside the timed
    region.  ``replay_of`` compares each output with the same op's output
    in an earlier phase instead of checking it again.  Only a phase that
    will be replayed keeps its ops and every output hash, so that the
    bookkeeping of a timed run does not grow with its throughput."""

    def __init__(self, accuracy, digest_ops: int, replay_of: "Phase | None" = None,
                 keep_ops: bool = False, normalize: bool = False):
        self.accuracy = accuracy
        self.normalize = normalize
        self.digest_ops = digest_ops
        self.replay_of = replay_of
        self.keep_ops = keep_ops
        self.ops = []
        self.kinds = []
        self.latencies = array("d")
        self.hashes = []
        self.failures = []
        self.keys_seen = set()
        self.repeats = 0
        self.busy = 0.0
        self.wall = 0.0
        self.probes = []  # (ops run before the probe, probe seconds)
        self._busy_at_probe = -PROBE_EVERY_S

    @property
    def count(self) -> int:
        return len(self.latencies)

    def run_op(self, op) -> None:
        import workloads

        index = self.count
        start = time.perf_counter()
        try:
            output = op.run()
            error = None
        except Exception as exc:  # a failed op is counted, not fatal
            error = exc
        elapsed = time.perf_counter() - start
        self.latencies.append(elapsed)
        self.busy += elapsed
        self.kinds.append(op.kind)
        self.repeats += op.key in self.keys_seen
        self.keys_seen.add(op.key)
        if self.keep_ops:
            self.ops.append(op)
        digest = b""
        if error is None:
            digest = hashlib.sha256(op.digest(output)).digest()
            try:
                if self.replay_of is None:
                    op.check(output, self.accuracy)
                elif digest != self.replay_of.hashes[index]:
                    raise workloads.CheckFailed("output differs from the untraced run")
            except (workloads.CheckFailed, ValueError, KeyError, IndexError) as exc:
                error = exc
        if self.keep_ops or index < self.digest_ops:
            self.hashes.append(digest)
        if error is not None:
            self.failures.append(f"{op.key}: {type(error).__name__}: {error}")

    def run_until(self, blocks, done) -> "Phase":
        """Whole blocks until ``done(self)`` holds, with a machine-speed
        probe before the first op, after every PROBE_EVERY_S of op time and
        after the last op."""
        start = time.perf_counter()
        for block in blocks:
            for op in block:
                if self.normalize and self.busy - self._busy_at_probe >= PROBE_EVERY_S:
                    self._take_probe()
                self.run_op(op)
            if done(self):
                break
        if self.normalize:
            self._take_probe()
        self.wall = time.perf_counter() - start
        return self

    def _take_probe(self) -> None:
        self.probes.append((self.count, calibrate.probe()))
        self._busy_at_probe = self.busy

    def normalized_latencies(self) -> list[float]:
        """Each op's time times the reference probe time over the mean of
        the probes just before and just after its stretch of ops."""
        ref = calibrate.REFERENCE_S
        out = []
        for (first, before), (last, after) in zip(self.probes, self.probes[1:]):
            scale = ref / (0.5 * (before + after))
            out.extend(t * scale for t in self.latencies[first:last])
        return out

    def replay(self, ops, tracer) -> "Phase":
        """Run ``ops`` again, each inside a root span of its own request."""
        start = time.perf_counter()
        for index, op in enumerate(ops):
            tracer.request = index
            tracer.begin("bench.op")
            try:
                self.run_op(op)
            finally:
                tracer.end()
        self.wall = time.perf_counter() - start
        return self

    def digest(self) -> str:
        return hashlib.sha256(b"".join(self.hashes[:self.digest_ops])).hexdigest()

    def share_repeated(self) -> float:
        return self.repeats / self.count

    def latency_ms(self, kind: str | None = None) -> list[float]:
        return [1e3 * t for k, t in zip(self.kinds, self.latencies)
                if kind is None or k == kind]


def percentile(values: list[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


# -- metrics ----------------------------------------------------------------


def end_to_end_metrics(setup_samples: list[float], latencies: list[float]) -> dict:
    """``latencies`` in seconds: normalized for the reported metrics, as
    measured for the record's ``raw_metrics``."""
    ms = [1e3 * t for t in latencies]
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": (len(latencies) / sum(latencies), "ops/s"),
        "latency_p50_ms": (percentile(ms, 50), "ms"),
        "latency_p90_ms": (percentile(ms, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer_metrics(untraced: Phase, traced: Phase, tracer, cliff: dict) -> dict:
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts
    metrics = {}
    for mode, work in (("full", "n3_sum"), ("first_row", "n2_sum"), ("values", "n2_sum")):
        name = f"eig.decompose.{mode}"
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.self_s"] = (self_s(name), "s")
        metrics[f"{name}.{work}"] = (counts[f"{name}.{work}"], "count")
    metrics["eig.decompose.failed"] = (counts["eig.decompose.failed"], "count")
    metrics["rule.gauss_rule.calls"] = (calls["rule.gauss_rule"], "count")
    metrics["rule.gauss_rule.self_s"] = (self_s("rule.gauss_rule"), "s")
    metrics["rule.gauss_rule.failed"] = (counts["rule.gauss_rule.failed"], "count")
    metrics["rule.weights.underflowed"] = (counts["rule.weights.underflowed"], "count")
    min_ln = tracer.min_ln_weight
    metrics["rule.weights.min_ln"] = (min_ln if min_ln != float("inf") else 0.0, "ln")
    for name, extra in (("rule.derivative_weights", "nodes"), ("families.measure", None),
                        ("families.recurrence", None), ("jacobi.build", "order_sum"),
                        ("apply.approximate", None), ("exprlang.evaluate", None),
                        ("cli.main", None)):
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.self_s"] = (self_s(name), "s")
        if extra:
            metrics[f"{name}.{extra}"] = (counts[f"{name}.{extra}"], "count")
    for name in ("jacobi.matrix_function_element", "apply.spectral_reference",
                 "exprlang.parse", "tables.run_table"):
        metrics[f"{name}.self_s"] = (self_s(name), "s")
    metrics["integrand.evals"] = (calls["integrand"], "count")
    metrics["integrand.self_s"] = (self_s("integrand"), "s")
    for which in (1, 2, 3):
        samples = untraced.latency_ms(f"table{which}")
        metrics[f"table{which}_s"] = (statistics.median(samples) / 1e3 if samples else 0.0, "s")
    metrics["trace.overhead_ratio"] = (traced.busy / untraced.busy, "ratio")
    metrics["trace.self_coverage"] = (tracer.total_self_s() / traced.wall, "ratio")
    metrics["ops_failed_ratio"] = (len(untraced.failures) / untraced.count, "ratio")
    metrics["share_repeated"] = (untraced.share_repeated(), "ratio")
    for name, value in vars(untraced.accuracy).items():
        metrics[f"accuracy.{name}"] = (value, "rel")
    metrics["probe.past_cliff.failed"] = (cliff["failed"], "count")
    return metrics


def past_cliff_probe(workload_name: str) -> dict:
    """Rule requests past today's first-row QL cliff, outside the workload
    (which must not fail): counts how many raise, so a fix shows."""
    if workload_name != "rule_sweep":
        return {"attempted": 0, "failed": 0, "errors": []}
    import workloads

    requests = [("charlier", {"mu": 2.0}, 400), ("meixner", {"mu": 2.0, "beta": 0.5}, 450),
                ("cdh", {"mu": 3.0, "alpha": 3.0, "beta": 1.0}, 300),
                ("wilson", {"mu": 2.0, "nu": 1.0, "alpha": 3.0, "beta": 1.5}, 300)]
    errors = []
    for family, params, order in requests:
        op = workloads.rule_request(family, params, order, nodes_only=False)
        try:
            op.run()
        except Exception as exc:  # the failures are what the probe counts
            errors.append(f"{op.key}: {type(exc).__name__}: {exc}")
    return {"attempted": len(requests), "failed": len(errors), "errors": errors}


# -- run context ------------------------------------------------------------


def run_context(args) -> dict:
    import numpy
    import quadsum

    files = sorted((SRC / "quadsum").glob("*.py"))
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        commit = proc.stdout.strip() or None
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "src_sha256": hashlib.sha256(b"".join(f.read_bytes() for f in files)).hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "src_nonblank_lines": sum(1 for f in files for line in f.read_text().splitlines()
                                  if line.strip()),
        "api_size": len(quadsum.__all__),
    }


# -- main -------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "quadsum" / "__init__.py").is_file():
        print(f"error: no quadsum sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_only:
        set_up(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    setup_samples = measure_setup(args) if args.trace == 0 else []
    workload, first_block = set_up(args.workload, args.seed)
    blocks = itertools.chain([first_block], workload.blocks())
    record = {"context": run_context(args), "tolerances": workloads.TOLERANCES}

    if args.trace == 0:
        phase = Phase(workloads.Accuracy(), workload.digest_ops, normalize=True).run_until(
            blocks, lambda p: p.busy >= args.seconds)
        metrics = end_to_end_metrics(setup_samples, phase.normalized_latencies())
        phases = [phase]
        record["setup_samples_s"] = setup_samples
        record["probe"] = {"reference_s": calibrate.REFERENCE_S,
                           "median_s": statistics.median(p for _, p in phase.probes)}
        record["raw_metrics"] = {
            name: {"value": v, "unit": u} for name, (v, u)
            in end_to_end_metrics(setup_samples, list(phase.latencies)).items()}
    else:
        from tracing import Tracer

        # A fixed number of ops, not a fixed time, so that per-layer counts
        # and self times describe the same work on every commit.
        trace_ops = workload.nominal_ops_per_s * args.seconds / 2
        untraced = Phase(workloads.Accuracy(), workload.digest_ops, keep_ops=True).run_until(
            blocks, lambda p: p.count >= trace_ops)
        tracer = Tracer()
        tracer.install()
        try:
            traced = Phase(untraced.accuracy, workload.digest_ops, replay_of=untraced,
                           keep_ops=True).replay(untraced.ops, tracer)
        finally:
            tracer.uninstall()
        cliff = past_cliff_probe(args.workload)
        metrics = per_layer_metrics(untraced, traced, tracer, cliff)
        phases = [untraced, traced]
        record["past_cliff_probe"] = cliff
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"{args.workload}-seed{args.seed}.spans.tsv")

    main_phase = phases[0]
    failures = [f for p in phases for f in p.failures]
    attempted = sum(p.count for p in phases)
    latencies = main_phase.latency_ms()
    p90 = percentile(latencies, 90)
    record.update({
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:MAX_REPORTED_FAILURES],
        "samples": len(latencies),
        "samples_beyond_p90": sum(t > p90 for t in latencies),
        "share_repeated": main_phase.share_repeated(),
        "digest": {"ops": min(workload.digest_ops, main_phase.count),
                   "sha256": main_phase.digest()},
        "accuracy": vars(main_phase.accuracy),
        "op_counts": dict(sorted(Counter(main_phase.kinds).items())),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    })
    OUT.mkdir(exist_ok=True)
    result_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n")

    for failure in failures[:MAX_REPORTED_FAILURES]:
        print(f"FAILED {failure}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    print(f"record: {result_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
