"""Steadiness check: run each workload repeatedly, one seed per run, and
print every metric's median, quartiles and spread against its bound.

    python3 bench/steady.py                       # 10 runs of every workload
    python3 bench/steady.py --workloads pdt-build --runs 5 --first-seed 1

The spread is (q3 - q1) / median over the runs, with the quartiles of
``statistics.quantiles(values, n=4)``.  A metric is steady when its spread
is below a third of its bound.  Runs go one after another.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for i in range(args.runs):
            result = run_once(workload, args.first_seed + i, args.seconds, 0)
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {args.first_seed + i}: incorrect output", file=sys.stderr)
                steady = False
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload}: {args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1}")
        print(f"  {'metric':18s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for name, bound in bounds.items():
            q1, _, q3 = statistics.quantiles(values[name], n=4)
            median = statistics.median(values[name])
            spread = (q3 - q1) / median
            flag = "" if spread < bound / 3 else "  WIDE"
            steady = steady and not flag
            print(f"  {name:18s} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {bound:6.3f}{flag}")
        print(f"  values {json.dumps(values)}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
