"""Spans and counters around the library's public functions, recorded from
outside the library.

``from .x import f`` copies a name into the importing module, so every
binding a caller actually uses is wrapped separately; each wrapper calls
the original function, so no call is counted twice.  Per-element calls
(coset labels, span membership, basis extension, parity sampling) are
counted and timed in aggregate rather than as spans.

A span is [name, start_ns, end_ns, parent index, op id, attrs].  Self
time is a span's duration minus the durations of its child spans; time
in aggregate-counted calls stays in the caller's self time.
"""

from __future__ import annotations

import importlib
import json
from time import perf_counter_ns

NAME, START, END, PARENT, OP, ATTRS = range(6)


def _restrict_attrs(args, result):
    return {"masks_in": len(args[0].coeffs), "masks_out": result.sparsity}


def _build_attrs(args, result):
    log = result.log
    return {
        "nodes": len(log),
        "resamples": sum(r.resamples for r in log),
        "target_met": sum(1 for r in log if r.target_met),
        "children": sum(1 << len(r.batch) for r in log),
    }


# (module, attribute, span name, attrs function); attrs see (args, result)
SPANS = [
    ("runner", "run_experiment", "runner.run_experiment", None),
    ("runner", "build_function", "families.build_function", None),
    ("spectral", "wht", "spectral.wht", lambda a, r: {"n": r.n}),
    ("pdt", "wht", "spectral.wht", lambda a, r: {"n": r.n}),
    ("spectral", "verify_titsworth", "spectral.titsworth", lambda a, r: {"k": a[0].sparsity}),
    ("spectral", "verify_parseval", "spectral.parseval", None),
    ("folding", "direction_classes", "folding.direction_classes", lambda a, r: {"k": r.k}),
    ("folding", "folding_parameters", "folding.folding_parameters", None),
    ("pdt", "folding_parameters", "folding.folding_parameters", None),
    ("folding", "heavy_participants", "folding.heavy_participants", None),
    ("folding", "verify_three_fold", "folding.three_fold", None),
    ("folding", "single_direction_structure", "folding.single_direction", None),
    ("folding", "sign_feasibility", "folding.sign_feasibility", None),
    ("folding", "check_pair_condition", "folding.pair_condition", None),
    ("pdt", "build_pdt", "pdt.build_pdt", _build_attrs),
    ("pdt", "verify_tree", "pdt.verify_tree", lambda a, r: {"n": a[1].n}),
    ("pdt", "estimate_bucket_reduction", "pdt.mc", lambda a, r: {"trials": r.trials}),
    ("pdt", "warmup_success_rate", "pdt.mc", lambda a, r: {"trials": r.trials}),
    ("pdt", "folding_sampling_trial", "pdt.mc", lambda a, r: {"trials": r.trials}),
    ("pdt", "restrict", "restriction.restrict", _restrict_attrs),
    ("pdt", "AffineConstraintSystem", "restriction.system", None),
    ("pdt", "row_reduce", "gf2.row_reduce", None),
    ("restriction", "row_reduce", "gf2.row_reduce", None),
    ("families", "row_reduce", "gf2.row_reduce", None),
]

AGGREGATES = [
    ("pdt", "coset_label", "gf2.coset_label"),
    ("restriction", "coset_label", "gf2.coset_label"),
    ("restriction", "in_span", "gf2.in_span"),
    ("pdt", "extend_basis", "gf2.extend_basis"),
    ("pdt", "sample_parity", "pdt.sample_parity"),
]

# name -> unit, in the order BENCHMARK.json lists them; the kernel counts
# (butterflies, bytes_computed, pairs, masks_in) are computed from sizes,
# not measured
PER_LAYER = {
    "restriction.restrict.calls": "count",
    "restriction.restrict.busy_s": "s",
    "restriction.restrict.masks_in": "count",
    "restriction.restrict.kept_ratio": "ratio",
    "restriction.system.calls": "count",
    "restriction.system.busy_s": "s",
    "gf2.row_reduce.calls": "count",
    "gf2.row_reduce.busy_s": "s",
    "gf2.coset_label.calls": "count",
    "gf2.coset_label.busy_s": "s",
    "gf2.extend_basis.calls": "count",
    "folding.direction_classes.calls": "count",
    "folding.direction_classes.busy_s": "s",
    "folding.direction_classes.pairs": "count",
    "folding.heavy_participants.busy_s": "s",
    "folding.three_fold.busy_s": "s",
    "folding.single_direction.busy_s": "s",
    "folding.sign_feasibility.busy_s": "s",
    "spectral.wht.calls": "count",
    "spectral.wht.busy_s": "s",
    "spectral.wht.butterflies": "count",
    "spectral.wht.bytes_computed": "bytes",
    "spectral.titsworth.busy_s": "s",
    "spectral.titsworth.pairs": "count",
    "spectral.parseval.busy_s": "s",
    "pdt.build_pdt.busy_s": "s",
    "pdt.build_pdt.self_s": "s",
    "pdt.nodes": "count",
    "pdt.resamples": "count",
    "pdt.target_met_ratio": "ratio",
    "pdt.verify_tree.busy_s": "s",
    "pdt.verify_tree.inputs": "count",
    "pdt.sample_parity.calls": "count",
    "pdt.mc.busy_s": "s",
    "pdt.mc.trials": "count",
    "families.build_function.busy_s": "s",
    "runner.run_experiment.self_s": "s",
    "runner.report_bytes": "bytes",
    "cli.overhead_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Installs the wrappers, records spans in memory, restores on close."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id: str | None = None
        self.hot: dict[str, list[int]] = {}
        self._saved: list[tuple[object, str, object]] = []

    def _span(self, name, fn, attrs):
        spans, stack = self.spans, self.stack

        def wrapped(*args, **kwargs):
            record = [name, 0, 0, stack[-1] if stack else -1, self.op_id, None]
            stack.append(len(spans))
            spans.append(record)
            record[START] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = perf_counter_ns()
                stack.pop()
            if attrs is not None:
                record[ATTRS] = attrs(args, result)
            return result

        return wrapped

    def _aggregate(self, name, fn):
        counter = self.hot.setdefault(name, [0, 0])

        def wrapped(*args, **kwargs):
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                counter[0] += 1
                counter[1] += perf_counter_ns() - start

        return wrapped

    def _bind(self, module_name, attr, wrapper):
        module = importlib.import_module(f"parityfold.{module_name}")
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, wrapper(original))

    def install(self) -> None:
        for module_name, attr, name, attrs in SPANS:
            self._bind(module_name, attr, lambda fn, n=name, a=attrs: self._span(n, fn, a))
        for module_name, attr, name in AGGREGATES:
            self._bind(module_name, attr, lambda fn, n=name: self._aggregate(n, fn))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def op(self, op_id: str, fn):
        """Run fn() under a root span named 'op' carrying op_id."""
        self.op_id = op_id
        try:
            return self._span("op", fn, None)()
        finally:
            self.op_id = None

    def hot_snapshot(self) -> dict[str, tuple[int, int]]:
        return {name: (c[0], c[1]) for name, c in self.hot.items()}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op, attrs in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "op": op, "attrs": attrs}) + "\n")


def self_times(spans: list[list], lo: int, hi: int) -> dict[int, int]:
    """Self time in ns of spans[lo:hi] (whose children lie in the same range)."""
    child = dict.fromkeys(range(lo, hi), 0)
    for i in range(lo, hi):
        parent = spans[i][PARENT]
        if parent >= lo:
            child[parent] += spans[i][END] - spans[i][START]
    return {i: spans[i][END] - spans[i][START] - child[i] for i in range(lo, hi)}


def pass_metrics(spans: list[list], lo: int, hi: int, hot: dict[str, tuple[int, int]]) -> dict[str, float]:
    """Per-layer figures of one traced pass: spans[lo:hi], aggregate deltas hot."""
    own = self_times(spans, lo, hi)
    calls: dict[str, int] = {}
    busy: dict[str, int] = {}
    selfs: dict[str, int] = {}
    sums: dict[str, int] = {}

    def add(key, value):
        sums[key] = sums.get(key, 0) + value

    for i in range(lo, hi):
        name, start, end, _, _, attrs = spans[i]
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0) + end - start
        selfs[name] = selfs.get(name, 0) + own[i]
        if not attrs:
            continue
        if name == "spectral.wht":
            n = attrs["n"]
            add("butterflies", n << (n - 1) if n else 0)
            add("wht_bytes", 16 * n << n)
        elif name == "spectral.titsworth":
            add("titsworth_pairs", attrs["k"] ** 2)
        elif name == "folding.direction_classes":
            add("class_pairs", attrs["k"] * (attrs["k"] - 1) // 2)
        elif name == "pdt.verify_tree":
            add("tree_inputs", 1 << attrs["n"])
        else:
            for key, value in attrs.items():
                add(key, value)

    def s(ns_by_name, name):
        return ns_by_name.get(name, 0) / 1e9

    def ratio(num, den):
        return num / den if den else 0.0

    hot_calls = {name: c for name, (c, _) in hot.items()}
    return {
        "restriction.restrict.calls": calls.get("restriction.restrict", 0),
        "restriction.restrict.busy_s": s(busy, "restriction.restrict"),
        "restriction.restrict.masks_in": sums.get("masks_in", 0),
        "restriction.restrict.kept_ratio": ratio(sums.get("masks_out", 0), sums.get("masks_in", 0)),
        "restriction.system.calls": calls.get("restriction.system", 0),
        "restriction.system.busy_s": s(busy, "restriction.system"),
        "gf2.row_reduce.calls": calls.get("gf2.row_reduce", 0),
        "gf2.row_reduce.busy_s": s(busy, "gf2.row_reduce"),
        "gf2.coset_label.calls": hot_calls.get("gf2.coset_label", 0),
        "gf2.coset_label.busy_s": hot.get("gf2.coset_label", (0, 0))[1] / 1e9,
        "gf2.extend_basis.calls": hot_calls.get("gf2.extend_basis", 0),
        "folding.direction_classes.calls": calls.get("folding.direction_classes", 0),
        "folding.direction_classes.busy_s": s(busy, "folding.direction_classes"),
        "folding.direction_classes.pairs": sums.get("class_pairs", 0),
        "folding.heavy_participants.busy_s": s(busy, "folding.heavy_participants"),
        "folding.three_fold.busy_s": s(busy, "folding.three_fold"),
        "folding.single_direction.busy_s": s(busy, "folding.single_direction"),
        "folding.sign_feasibility.busy_s": s(busy, "folding.sign_feasibility"),
        "spectral.wht.calls": calls.get("spectral.wht", 0),
        "spectral.wht.busy_s": s(busy, "spectral.wht"),
        "spectral.wht.butterflies": sums.get("butterflies", 0),
        "spectral.wht.bytes_computed": sums.get("wht_bytes", 0),
        "spectral.titsworth.busy_s": s(busy, "spectral.titsworth"),
        "spectral.titsworth.pairs": sums.get("titsworth_pairs", 0),
        "spectral.parseval.busy_s": s(busy, "spectral.parseval"),
        "pdt.build_pdt.busy_s": s(busy, "pdt.build_pdt"),
        "pdt.build_pdt.self_s": s(selfs, "pdt.build_pdt"),
        "pdt.nodes": sums.get("nodes", 0),
        "pdt.resamples": sums.get("resamples", 0),
        "pdt.target_met_ratio": ratio(sums.get("target_met", 0), sums.get("nodes", 0)),
        "pdt.verify_tree.busy_s": s(busy, "pdt.verify_tree"),
        "pdt.verify_tree.inputs": sums.get("tree_inputs", 0),
        "pdt.sample_parity.calls": hot_calls.get("pdt.sample_parity", 0),
        "pdt.mc.busy_s": s(busy, "pdt.mc"),
        "pdt.mc.trials": sums.get("trials", 0),
        "families.build_function.busy_s": s(busy, "families.build_function"),
        "runner.run_experiment.self_s": s(selfs, "runner.run_experiment"),
        # children of restriction.system per PDT node: 2^b for a batch of b
        "_pdt.children": sums.get("children", 0),
    }


def calls_per_op(spans: list[list], lo: int, hi: int, op_class: dict[str, str]) -> dict[str, dict[str, float]]:
    """For each op class, the mean number of calls per op of each span name."""
    counts: dict[str, dict[str, int]] = {op: {} for op in op_class}
    for name, _, _, _, op, _ in spans[lo:hi]:
        if name != "op" and op in counts:
            counts[op][name] = counts[op].get(name, 0) + 1
    by_class: dict[str, list[dict[str, int]]] = {}
    for op, cls in op_class.items():
        by_class.setdefault(cls, []).append(counts[op])
    return {
        cls: {name: sum(c.get(name, 0) for c in ops) / len(ops)
              for name in sorted({name for c in ops for name in c})}
        for cls, ops in sorted(by_class.items())
    }
