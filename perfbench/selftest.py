"""Self-test of the benchmark, at a tiny load.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs the benchmark untraced and
traced for one second and checks that the last stdout line is a result with
exactly the promised keys, that every declared metric is emitted with its
declared unit and a finite value, that every op passed its check, and that
the traced self times account for the traced wall time.  Finally it checks
that the benchmark fails cleanly, without a result, in a directory that has
no library sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COVERAGE_MIN = 0.95


class SelfTestError(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestError(message)


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable if arg == "python3" else arg for arg in SPEC["command"]]
    cmd += ["--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(workload: str, trace: int) -> dict:
    proc = run(workload, trace)
    require(proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    label = f"{workload} trace={trace}"
    require(sorted(result) == ["attempted", "correct", "failed", "metrics"], f"{label}: keys {sorted(result)}")
    require(result["correct"] is True and result["failed"] == 0, f"{label}: failed ops\n{proc.stdout}")
    require(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{label}: attempted")
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    require(emitted == declared, f"{label}: metrics/units differ from BENCHMARK.json: "
            f"{set(emitted.items()) ^ set(declared.items())}")
    for name, m in result["metrics"].items():
        require(isinstance(m["value"], (int, float)) and math.isfinite(m["value"]),
                f"{label}: {name} = {m['value']!r}")
        if not trace:
            require(m["value"] > 0, f"{label}: end-to-end metric {name} is {m['value']!r}")
    return result["metrics"]


def check_without_sources() -> None:
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(SPEC["workloads"][0]["name"], 0, cwd=bare)
        require(proc.returncode != 0, "benchmark succeeded without library sources")
        require(proc.stdout.strip() == "", f"benchmark printed a result without sources: {proc.stdout}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    for workload in (w["name"] for w in SPEC["workloads"]):
        check_result(workload, 0)
        metrics = check_result(workload, 1)
        coverage = metrics["trace.self_coverage"]["value"]
        require(COVERAGE_MIN <= coverage <= 1.0 + 1e-9,
                f"{workload}: traced self times cover {coverage:.4f} of the traced wall")
        print(f"ok {workload} (self times cover {coverage:.4f} of traced wall)")
    check_without_sources()
    print("ok fails cleanly without library sources")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SelfTestError as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        sys.exit(1)
