"""Benchmark of the `parityfold experiment` path.

    python3 bench/run.py --workload pdt-build --seed 0 --seconds 20 --trace 0

One op is a config with one function and one analysis; it is passed to
``runner.run_experiment`` and serialized with ``ExperimentReport.to_json``,
both inside the timed region.  A closed loop with one client runs the
workload's ops back to back, in an order fixed by the seed, in passes
until ``--seconds`` have elapsed (and at least MIN_PASSES passes and
MIN_SAMPLES op latencies are in).  The library is imported from ``src/``
next to this directory and nowhere else.

Times are wall times scaled to a quiet host (see ``calibration_rep``).  With
``--trace 0`` the last line carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a separate traced phase (see
tracing.py).  The lines before it give host facts, each op's output
record, raw wall times, computed kernel counts and calls per op kind.
See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import checks
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "bench"
DIGESTS = BENCH_DIR / "digests.json"

DEFAULT_SEED = 0
MIN_PASSES = 3
MIN_SAMPLES = 110  # so that at least 10 op latencies lie beyond p90
SETUP_PROBES = 10  # fresh processes that repeat set-up, besides this one
CLI_ROUNDS = 4  # interpreter start-up alone varies by a quarter between runs
CAL_REPS = 5
CAL_REF_S = 0.0065  # the calibration loop's time on a quiet 2-core Xeon host

END_TO_END = {
    "experiment_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "cli_experiment_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def load_runner():
    if not (SRC / "parityfold" / "__init__.py").is_file():
        raise SystemExit(f"error: parityfold sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    from parityfold import runner

    return runner


def set_up(workload: str, seed: int):
    """Import the library, generate the configs and run one warm-up op."""
    start = perf_counter()
    runner = load_runner()
    configs = workloads.groups(workload, seed)
    ops = workloads.ops(configs, seed)
    warm = workloads.warmup_op(configs)
    runner.run_experiment(warm.config).to_json()
    return perf_counter() - start, runner, configs, ops


def probe_setup(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--probe-setup"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


def _calibration_loop() -> int:
    import numpy as np

    table: dict[int, int] = {}
    for i in range(20000):
        table[i ^ (i >> 3)] = table.get(i >> 2, 0) + 1
    arr = np.arange(1 << 17, dtype=np.int64)
    for _ in range(8):
        arr = (arr ^ (arr >> 1)) + 1
    return len(table) + int(arr[-1])


def calibration_rep() -> float:
    """Time of one fixed dict-and-numpy loop that never touches the library.

    Other tenants of a shared host slow each CPU, by up to half, in phases
    of a second or more.  The loop slows with them.  One loop follows every
    op, and each time the benchmark reports is multiplied by CAL_REF_S over
    the median of the loops run next to it; on a quiet host the factor is
    about 1."""
    start = perf_counter()
    _calibration_loop()
    return perf_counter() - start


def calibrate() -> float:
    """Median of CAL_REPS loops, for work that has no loop inside it."""
    return statistics.median(calibration_rep() for _ in range(CAL_REPS))


@dataclass
class Pass:
    """One pass over the op list.  A sample is (op, latency s, report
    bytes); the report text itself goes to the Ledger and is not kept, so
    the harness holds the same memory whatever the number of passes."""

    samples: list
    cals: list[float]  # the calibration loop after each op
    spans: tuple[int, int] = (0, 0)  # the pass's slice of tracer.spans
    hot: dict = field(default_factory=dict)  # aggregate-counter deltas

    @property
    def wall(self) -> float:
        """Raw seconds spent in ops: the pass without its calibration loops."""
        return sum(s[1] for s in self.samples)

    @property
    def scale(self) -> float:
        return CAL_REF_S / statistics.median(self.cals)

    def scaled_latencies(self) -> list[float]:
        """Each op's latency scaled by the nine calibration loops around it."""
        return [s[1] * CAL_REF_S / statistics.median(self.cals[max(0, i - 4):i + 5])
                for i, s in enumerate(self.samples)]


def run_pass(runner, ops, ledger, tracer=None, label="") -> Pass:
    def call(op):
        return runner.run_experiment(op.config).to_json()

    samples, cals = [], []
    lo = len(tracer.spans) if tracer else 0
    before = tracer.hot_snapshot() if tracer else {}
    for op in ops:
        t0 = perf_counter()
        text = error = None
        try:
            text = call(op) if tracer is None else tracer.op(f"{label}:{op.key}", lambda: call(op))
        except Exception as exc:  # a failing op is counted and the run goes on
            error = f"{type(exc).__name__}: {exc}"
        latency = perf_counter() - t0
        ledger.add(op, text, error)
        samples.append((op, latency, 0 if text is None else len(text)))
        cals.append(calibration_rep())
    result = Pass(samples, cals)
    if tracer:
        result.spans = (lo, len(tracer.spans))
        result.hot = {name: (calls - before.get(name, (0, 0))[0], ns - before.get(name, (0, 0))[1])
                      for name, (calls, ns) in tracer.hot_snapshot().items()}
    return result


def run_phase(runner, ops, ledger, seconds, min_passes, min_samples, tracer=None,
              after_pass=None) -> list[Pass]:
    """Passes until seconds have elapsed and both minimums are met;
    after_pass() runs between passes."""
    passes = []
    start = perf_counter()
    while (len(passes) < min_passes
           or len(passes) * len(ops) < min_samples
           or perf_counter() - start < seconds):
        passes.append(run_pass(runner, ops, ledger, tracer, f"t{len(passes)}"))
        if after_pass is not None:
            after_pass()
    return passes


class Ledger:
    """Reference output of each op and the failures seen so far."""

    def __init__(self) -> None:
        self.reference: dict[str, tuple] = {}  # key -> (text, sha, failure)
        self.attempted: dict[str, int] = {}
        self.failed: dict[str, int] = {}
        self.reasons: dict[str, str] = {}

    def add(self, op, text: str | None, error: str | None) -> None:
        """One run of op: its report text, or the error it raised."""
        self.attempted[op.key] = self.attempted.get(op.key, 0) + 1
        reason = error
        if reason is None:
            sha = hashlib.sha256(text.encode()).hexdigest()
            if op.key not in self.reference:
                self.reference[op.key] = (text, sha, _check(op, block(text)["analyses"][0]["result"]))
            _, ref_sha, reason = self.reference[op.key]
            if reason is None and sha != ref_sha:
                reason = "report differs between passes"
        if reason is not None:
            self.fail(op.key, reason, 1)

    def fail(self, key: str, reason: str, samples: int) -> None:
        self.failed[key] = min(self.failed.get(key, 0) + samples, self.attempted.get(key, 0))
        self.reasons.setdefault(key, reason)

    @property
    def totals(self) -> tuple[int, int]:
        return sum(self.attempted.values()), sum(self.failed.values())


def block(text: str) -> dict:
    """The single function block of a one-op report."""
    return json.loads(text)["results"][0]


def _check(op, result):
    try:
        return checks.failure(op.analysis, result)
    except (KeyError, TypeError) as exc:
        return f"unexpected result shape: {exc!r}"


def capture_trees(runner, ops, ledger: Ledger) -> dict[str, dict]:
    """Rerun the pdt ops, outside any timing, keeping each built tree."""
    from parityfold import pdt

    trees: dict[str, dict] = {}
    key = None
    original = pdt.build_pdt

    def keep(*args, **kwargs):
        result = original(*args, **kwargs)
        trees[key] = result.tree.to_dict()
        return result

    pdt.build_pdt = keep
    try:
        for op in ops:
            if op.analysis["op"] == "pdt":
                key = op.key
                run_pass(runner, [op], ledger)
    finally:
        pdt.build_pdt = original
    return trees


def op_records(ops, ledger: Ledger, trees: dict[str, dict], latencies: dict[str, list[float]]) -> dict[str, dict]:
    """Per op: function, analysis, latencies, digest of the projection, and
    for trees their depth and node count."""
    records = {}
    for op in sorted(ops, key=lambda o: (o.gi, o.fi, o.ai)):
        if op.key not in ledger.reference:
            continue
        cell = block(ledger.reference[op.key][0])
        result = cell["analyses"][0]["result"]
        record = {"function": cell["function"], "analysis": op.analysis,
                  "latency_ms": sorted(round(t * 1000, 3) for t in latencies.get(op.key, []))}
        tree = trees.get(op.key)
        try:
            record["digest"] = checks.digest(checks.projection(op.analysis, result, tree))
        except (KeyError, TypeError) as exc:
            record["digest"] = None
            ledger.fail(op.key, f"projection failed: {exc!r}", 0)
        if tree is not None:
            record["depth"], record["nodes"] = checks.tree_shape(tree)
            record["node_records"] = len(result["node_records"])
        records[op.key] = record
    return records


def compare_digests(workload: str, records: dict[str, dict]) -> list[str]:
    stored = json.loads(DIGESTS.read_text())["workloads"].get(workload, {})
    return sorted(key for key in set(stored) | set(records)
                  if stored.get(key) != records.get(key, {}).get("digest"))


class SideRuns:
    """Set-up probes and CLI rounds, spread between the untraced passes so
    that they meet the same mix of quiet and busy phases of the host as
    the passes do.  Each probe and each CLI group is one long call, scaled
    by the calibration just before and just after it."""

    def __init__(self, workload: str, seed: int, probes: int, configs, runner, ledger, workdir: Path):
        self.workload, self.seed, self.probes = workload, seed, probes
        self.configs, self.runner, self.ledger, self.workdir = configs, runner, ledger, workdir
        self.setups: list[tuple[float, float]] = []  # (raw s, scaled s)
        self.cli: dict[int, list[float]] = {}  # group -> scaled s per round
        self.cli_rounds: list[float] = []  # raw s of each round over all groups
        self.mismatched: set[str] = set()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), self.env.get("PYTHONPATH")]))

    def after_pass(self) -> None:
        if len(self.setups) < self.probes:
            before = calibrate()
            raw = probe_setup(self.workload, self.seed)
            self.setups.append((raw, raw * CAL_REF_S / ((before + calibrate()) / 2)))
        if len(self.cli_rounds) < CLI_ROUNDS:
            self.cli_round()

    def finish(self) -> None:
        while len(self.setups) < self.probes or len(self.cli_rounds) < CLI_ROUNDS:
            self.after_pass()

    @property
    def cli_s(self) -> float:
        """Sum over groups of each group's median scaled CLI time."""
        return sum(statistics.median(times) for times in self.cli.values())

    def cli_round(self) -> None:
        """Each group through `python -m parityfold.cli experiment`, one after
        another; its report must equal the one assembled from the ops."""
        total = 0.0
        cal = calibrate()
        for gi, config in enumerate(self.configs):
            config_path = self.workdir / f"g{gi}.json"
            report_path = self.workdir / f"g{gi}.report.json"
            config_path.write_text(json.dumps(config, indent=2))
            report_path.unlink(missing_ok=True)
            start = perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "parityfold.cli", "experiment", str(config_path),
                 "-o", str(report_path)],
                cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=170,
            )
            wall = perf_counter() - start
            after = calibrate()
            total += wall
            self.cli.setdefault(gi, []).append(wall * CAL_REF_S / ((cal + after) / 2))
            cal = after
            expected = assemble(self.runner, gi, config, self.ledger)
            if proc.returncode != 0 or expected is None or report_path.read_text() != expected:
                self.mismatched.add(f"g{gi}")
        self.cli_rounds.append(total)


def assemble(runner, gi: int, config: dict, ledger: Ledger) -> str | None:
    """The group's report built from its ops' in-process reports."""
    results = []
    for fi in range(len(config["functions"])):
        merged = None
        for ai in range(len(config["analyses"])):
            ref = ledger.reference.get(f"g{gi}.f{fi}.a{ai}")
            if ref is None:
                return None
            cell = block(ref[0])
            if merged is None:
                merged = {"function": cell["function"], "n": cell["n"], "analyses": []}
            merged["analyses"].extend(cell["analyses"])
        results.append(merged)
    return runner.ExperimentReport(runner.VERSION, config, results).to_json()


def host_facts() -> dict:
    facts = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
    }
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        out = ""
    wanted = {"Model name": "cpu_model", "L2 cache": "l2", "L3 cache": "l3"}
    for line in out.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in wanted:
            facts[wanted[key.strip()]] = value.strip()
    return facts


def emit(tag: str, obj) -> None:
    print(f"{tag} {json.dumps(obj, sort_keys=True)}")


def layer_metrics(passes: list[Pass], tracer, ops, experiment_s: float, cli_s: float) -> dict:
    """Per-layer metrics of the traced phase; prints the computed counts
    and the calls per op kind on the way."""
    layers = []
    for p in passes:
        layer = tracing.pass_metrics(tracer.spans, *p.spans, p.hot)
        for name, unit in tracing.PER_LAYER.items():
            if unit == "s" and name in layer:
                layer[name] *= p.scale
        layer["runner.report_bytes"] = sum(s[2] for s in p.samples)
        layers.append(layer)
    first = layers[0]
    metrics = {name: statistics.median(layer[name] for layer in layers) if unit == "s" else first[name]
               for name, unit in tracing.PER_LAYER.items() if name in first}
    metrics["cli.overhead_s"] = cli_s - experiment_s
    metrics["trace.overhead_s"] = statistics.median(sum(p.scaled_latencies()) for p in passes) - experiment_s

    emit("computed", {name: first[name] for name in (
        "spectral.wht.butterflies", "spectral.wht.bytes_computed", "spectral.titsworth.pairs",
        "folding.direction_classes.pairs", "restriction.restrict.masks_in")})
    per_op = tracing.calls_per_op(tracer.spans, *passes[0].spans,
                                  {f"t0:{op.key}": op_class(op) for op in ops})
    pdt_classes = [calls for cls, calls in per_op.items() if cls.startswith("pdt:")]
    emit("redundancy", {
        "folding.direction_classes.calls_per_fold_delta_op":
            per_op.get("fold+delta", {}).get("folding.direction_classes"),
        "spectral.wht.calls_per_pdt_op":
            statistics.fmean(c.get("spectral.wht", 0) for c in pdt_classes) if pdt_classes else None,
        "restriction.system.calls_per_pdt_child":
            first["restriction.system.calls"] / first["_pdt.children"] if first["_pdt.children"] else None,
    })
    emit("calls_per_op", per_op)
    return {name: metrics[name] for name in tracing.PER_LAYER}


def op_class(op) -> str:
    a = op.analysis
    detail = a.get("strategy") or a.get("check") or a.get("kind")
    name = a["op"] + (f":{detail}" if detail else "")
    return name + ("+delta" if a["op"] == "fold" and "delta" in a else "")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--passes", type=int, default=None,
                        help="run exactly this many passes per phase (smoke test)")
    parser.add_argument("--probe-setup", action="store_true",
                        help="only time set-up and print it (used for the setup_s median)")
    args = parser.parse_args(argv)

    # The host's CPUs are slowed by other tenants independently of each
    # other.  One CPU for this process and its children keeps each
    # calibration loop on the CPU that ran the work it scales.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    setup, runner, configs, ops = set_up(args.workload, args.seed)
    if args.probe_setup:
        print(repr(setup))
        return 0

    if args.passes is not None:
        min_passes, min_samples, seconds = args.passes, 0, 0.0
    elif args.trace:
        min_passes, min_samples, seconds = 2, 0, args.seconds / 2
    else:
        min_passes, min_samples, seconds = MIN_PASSES, MIN_SAMPLES, args.seconds

    calibration_rep()  # the loop's first run pays for its own warm-up
    setup_scale = CAL_REF_S / calibrate()  # main's set-up ran just before
    ledger = Ledger()
    workdir = OUT_DIR / f"{args.workload}-{args.seed}-{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    side = SideRuns(args.workload, args.seed, 0 if args.trace else SETUP_PROBES,
                    configs, runner, ledger, workdir)
    untraced = run_phase(runner, ops, ledger, seconds, min_passes, min_samples,
                         after_pass=side.after_pass)
    side.finish()
    experiment_s = statistics.median(sum(p.scaled_latencies()) for p in untraced)
    traced = []
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_phase(runner, ops, ledger, seconds, min_passes, 0, tracer)
        finally:
            tracer.restore()

    trees = capture_trees(runner, ops, ledger)
    latencies: dict[str, list[float]] = {}
    for p in untraced:
        for (op, *_), latency in zip(p.samples, p.scaled_latencies()):
            latencies.setdefault(op.key, []).append(latency)
    records = op_records(ops, ledger, trees, latencies)
    if args.seed == DEFAULT_SEED:
        for key in compare_digests(args.workload, records):
            # every sample of an op whose computed results changed fails
            ledger.fail(key, "digest differs from bench/digests.json", ledger.attempted.get(key, 0))
    cli_s, cli_bad = side.cli_s, sorted(side.mismatched)
    setup_s = statistics.median([setup * setup_scale] + [scaled for _, scaled in side.setups])
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted, failed = ledger.totals
    emit("host", host_facts())
    for key, record in records.items():
        emit("op", {"key": key, **record})
    for key, reason in sorted(ledger.reasons.items()):
        emit("failure", {"key": key, "reason": reason})
    if cli_bad:
        emit("failure", {"cli_report_differs": cli_bad})
    emit("raw_wall_s", {"passes": [p.wall for p in untraced], "scales": [p.scale for p in untraced],
                        "setup": [setup] + [raw for raw, _ in side.setups], "cli_rounds": side.cli_rounds})
    all_latencies = [t for values in latencies.values() for t in values]
    print(f"samples {len(all_latencies)} op latencies in {len(untraced)} untraced passes "
          f"of {len(ops)} ops; failed_op_ratio {failed / attempted!r}")

    if args.trace:
        metrics = layer_metrics(traced, tracer, ops, experiment_s, cli_s)
        spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(spans_path)
        print(f"spans {spans_path}")
        units = tracing.PER_LAYER
    else:
        deciles = statistics.quantiles(all_latencies, n=10)
        metrics = {
            "experiment_s": experiment_s,
            "op_p50_ms": deciles[4] * 1000,
            "op_p90_ms": deciles[8] * 1000,
            "cli_experiment_s": cli_s,
            "setup_s": setup_s,
            "peak_rss_mib": peak_rss_mib,
        }
        units = END_TO_END
    for name, value in metrics.items():
        print(f"metric {name} {value!r} {units[name]}")

    print(json.dumps({
        "correct": failed == 0 and not ledger.reasons and not cli_bad,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
