"""Output checks for single ops and the fixed projection that is hashed.

``failure`` applies the library's own verdicts to one op's result block.
``projection`` keeps only the computed results that must not change under
an optimisation (trees, the computed fields of node records, classes,
counts, supports, what each verify check computed); report fields outside
it may change with a schema change stated in CHANGES.md without failing
an op.
"""

from __future__ import annotations

import hashlib
import json

# The computed fields of a PDT node record; the rest (batch_size,
# probabilities, clamped) restate the build config or the batch.
NODE_FIELDS = ("node_id", "depth", "sparsity_before", "batch", "bucket_count",
               "max_child_sparsity", "resamples", "target_met")

# The field that holds what each verify check computed, besides its verdict.
VERIFY_BODY = {
    "three-fold": "witnesses",
    "single-direction": "report",
    "sign-feasibility": "detail",
    "pair-condition": "violation",
    "titsworth": "violations",
}


def failure(analysis: dict, result: dict) -> str | None:
    """Why the op's output is wrong, or None when every check passes."""
    op = analysis["op"]
    if op == "pdt":
        if result["verified"] is not True:
            return "pdt: tree does not compute the function"
    elif op == "analyze":
        if result["parseval"] is not True:
            return "analyze: Parseval fails"
        if result["titsworth_violations"]:
            return "analyze: Titsworth violations"
    elif op == "verify":
        if result["passed"] is not True:
            return f"verify {analysis['check']}: not passed"
    elif op == "mc":
        stats = result["stats"]
        if stats["trials"] != analysis["trials"] or len(stats["bucket_counts"]) != analysis["trials"]:
            return "mc: trial count differs from the requested count"
        if not all(1 <= b <= stats["k"] for b in stats["bucket_counts"]):
            return "mc: bucket count outside [1, k]"
    elif op == "fold":
        profile = result["profile"]
        k = profile["k"]
        if profile["total_pairs"] != k * (k - 1) // 2:
            return "fold: direction classes do not partition the support pairs"
    return None


def projection(analysis: dict, result: dict, tree: dict | None) -> dict:
    op = analysis["op"]
    if op == "pdt":
        return {"tree": tree,
                "node_records": [{f: r[f] for f in NODE_FIELDS} for r in result["node_records"]]}
    if op == "fold":
        return {
            "classes": result["profile"]["classes"],
            "delta": result["delta"],
            "threshold": result["class_size_threshold"],
        }
    if op == "mc":
        stats = result["stats"]
        return {"bucket_counts": stats["bucket_counts"], "sample_sizes": stats["sample_sizes"]}
    if op == "analyze":
        return {
            "sparsity": result["sparsity"],
            "support": result["support"],
            "parseval": result["parseval"],
            "titsworth_violations": result["titsworth_violations"],
        }
    if op == "verify":
        body = VERIFY_BODY.get(analysis["check"])
        return {"passed": result["passed"], "computed": result[body] if body else None}
    raise ValueError(f"no projection for op {op!r}")


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def tree_shape(tree: dict) -> tuple[int, int]:
    """(depth, node count) of a tree in ParityDecisionTree.to_dict form."""
    depth = nodes = 0
    stack = [(tree["root"], 0)]
    while stack:
        node, d = stack.pop()
        nodes += 1
        depth = max(depth, d)
        if "leaf" not in node:
            stack.append((node["pos"], d + 1))
            stack.append((node["neg"], d + 1))
    return depth, nodes
