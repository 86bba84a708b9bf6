"""Smoke test of the benchmark itself: one tiny pass per workload.

    python3 bench/smoke.py

For every workload it runs one untraced and one traced pass at the
default seed and checks that every metric BENCHMARK.json names is printed
with its unit, that no op failed (failed_op_ratio 0, digests included),
that the traced spans nest inside their parents within one op, and that
every self time is non-negative.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message: str) -> None:
    raise SystemExit(f"smoke: {message}")


def run(workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--passes", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )


def check_result(workload: str, trace: int, expected: dict[str, str]) -> list[str]:
    proc = run(workload, trace)
    if proc.returncode != 0:
        fail(f"{workload} trace {trace} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        fail(f"{workload}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        failures = [line for line in lines if line.startswith("failure")]
        fail(f"{workload} trace {trace}: failed_op_ratio {result['failed']}/{result['attempted']} {failures}")
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    if got != expected:
        fail(f"{workload} trace {trace}: metrics {got} != {expected}")
    for name, metric in result["metrics"].items():
        if not isinstance(metric["value"], (int, float)):
            fail(f"{workload}: {name} is not a number")
    return lines


def check_spans(workload: str, path: Path) -> None:
    spans = []
    for line in path.read_text().splitlines():
        s = json.loads(line)
        spans.append([s["name"], s["start_ns"], s["end_ns"], s["parent"], s["op"], s["attrs"]])
    if not spans:
        fail(f"{workload}: no spans recorded")
    for i, (name, start, end, parent, op, _) in enumerate(spans):
        if end < start:
            fail(f"{workload}: span {i} {name} ends before it starts")
        if parent < 0:
            if name != "op":
                fail(f"{workload}: span {i} {name} has no parent")
            continue
        p = spans[parent]
        if not (parent < i and p[1] <= start and end <= p[2] and p[4] == op):
            fail(f"{workload}: span {i} {name} does not nest in span {parent} {p[0]}")
    for i, own in tracing.self_times(spans, 0, len(spans)).items():
        if own < 0:
            fail(f"{workload}: span {i} {spans[i][0]} has negative self time {own} ns")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        check_result(workload, 0, end_to_end)
        lines = check_result(workload, 1, per_layer)
        spans_line = next(line for line in lines if line.startswith("spans "))
        check_spans(workload, Path(spans_line.split(" ", 1)[1]))
        print(f"smoke: {workload} ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
