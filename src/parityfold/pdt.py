"""Parity decision trees: the tree, its exhaustive verification, and the
parity sampling step that the builder and the Monte Carlo trials share.

A tree is three flat arrays in level order (`ParityDecisionTree`), read
from and written to the tree file format (`TREE_KEYS`) and checked
against a truth table by `verify_tree`.  `_draw` marks the union of
every build resample attempt and every uncertain Monte Carlo trial, and
`sample_parity` is its public reference; `_fold_unions` folds drawn
unions to their kept batches and bucket counts, and `_batch_labels`
labels a support against one kept batch.

The builder (`builder`: `build_pdt`, `NodeRecord`, `BuildResult`) and
the Monte Carlo trials (`trials`: `TrialStats`,
`estimate_bucket_reduction`, `warmup_success_rate`,
`folding_sampling_trial`) are modules of their own that import this one,
so a Monte Carlo run compiles neither the builder nor the pair kernel
(`pairs`), and a build compiles no trial code.  The runner, the CLI and
bench/run.py call `build_pdt` and the three trial functions as
`pdt.<name>`, where bench/tracing.py wraps them; those names, and five
the tracer binds here that this module never uses, resolve on first
access through ``TRACED_NAMES`` (PEP 562), as the package's public names
do.  The builder and the trials reach `wht` and `row_reduce` through
`_as_spectrum` and `_batch_labels`, defined here, so a wrapper on
`pdt.wht` or `pdt.row_reduce` sees each of their calls: one row
reduction per sampling node.

The build's parameters (`BuildConfig`, with its strategies) and
`check_sampling`, which holds each range check of a sampling run's seed,
trials, p, delta and ell, live in `params`.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Iterable

import numpy as np

from .gf2 import Value, check_vector, label_step, labels, row_reduce
from .params import CheckFailedError, check_sampling
from .spectral import REQUIRED, FourierSpectrum, TruthTable, json_int, json_of, parity, read_keys, wht

# name -> the module that defines it, for the names bench/tracing.py binds
# here and this module does not define: the builder's and the trials' entry
# points, which callers reach as pdt.<name>, and five that only the tracer
# reads here.  Each is imported on first access
TRACED_NAMES = {
    "build_pdt": "builder",
    "estimate_bucket_reduction": "trials",
    "warmup_success_rate": "trials",
    "folding_sampling_trial": "trials",
    "coset_label": "gf2",
    "extend_basis": "gf2",
    "restrict": "restriction",
    "AffineConstraintSystem": "restriction",
    "folding_parameters": "folding",
}


def __getattr__(name: str):
    module = TRACED_NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, unlike importlib.import_module, shows in -X importtime
    return getattr(__import__(f"{__package__}.{module}", fromlist=[name]), name)


class DegenerateInputError(ValueError):
    pass


class NotFoldingError(ValueError):
    """The requested (delta, ell) folding hypothesis does not hold."""


class ResampleCapExceededError(CheckFailedError):
    def __init__(self, cap: int, best_batch: tuple[int, ...] | None, best_bucket_count: int | None):
        super().__init__(
            f"no batch met the progress requirement within {cap} resamples "
            f"(best bucket count: {best_bucket_count})"
        )
        self.best_batch = best_batch
        self.best_bucket_count = best_bucket_count


# ---------------------------------------------------------------------------
# tree representation
# ---------------------------------------------------------------------------


class ParityDecisionTree(Value):
    """A tree over F2^n in level order (breadth first, pos before neg), so
    == compares arrays: query[i] is internal node i's mask (uint32), child[2i]
    and child[2i + 1] its pos (+1) and neg children (int32; ~j is leaf j),
    values[j] leaf j's +-1 (int8).  The root is node 0, else leaf 0.  No
    walk recurses; `from_dict` checks each node."""

    _fields = ("n", "query", "child", "values")

    def evaluate(self, x: int) -> int:
        state = 0 if len(self.query) else ~0
        while state >= 0:
            state = int(self.child[2 * state + parity(int(self.query[state]), x)])
        return int(self.values[~state])

    def depth(self) -> int:
        # a level's internal nodes are one range; the next level's follow it
        d, lo, hi = 0, 0, min(1, len(self.query))
        while lo < hi:
            d += 1
            lo, hi = hi, hi + int(np.count_nonzero(self.child[2 * lo : 2 * hi] >= 0))
        return d

    def paths(self) -> list[tuple[int, ...]]:
        """Query masks along every root-to-leaf path, pos before neg."""
        query, child, out = self.query.tolist(), self.child.tolist(), []
        stack = [(0 if query else ~0, ())]
        while stack:
            node, prefix = stack.pop()
            if node < 0:
                out.append(prefix)
            else:
                stack += ((child[2 * node + i], prefix + (query[node],)) for i in (1, 0))
        return out

    def to_dict(self) -> dict:
        query, child, values = self.query.tolist(), self.child.tolist(), self.values.tolist()
        root: dict = {}
        stack = [(0 if query else ~0, root)]  # each node with its dict, filled in here
        while stack:
            node, out = stack.pop()
            if node < 0:
                out["leaf"] = values[~node]
            else:
                out.update(query=query[node], pos={}, neg={})
                stack += ((child[2 * node], out["pos"]), (child[2 * node + 1], out["neg"]))
        return {"n": self.n, "root": root}

    @classmethod
    def from_dict(cls, data: dict) -> "ParityDecisionTree":
        """The tree of a dict, numbered breadth first, each object read by
        `read_keys` against TREE_KEYS; a leaf other than +-1 or a query
        outside 1 .. 2^n - 1, or an n outside [0, MAX_DIMENSION], is a
        ValueError."""
        n, root = read_keys("tree", data, TREE_KEYS["tree"]).values()
        check_vector(0, n)  # n itself, before any node: a leaf-only tree has no mask
        query, child, values = [], [], []
        queue = deque([(root, None)])
        while queue:  # each node with the child slot that names it
            node, slot = queue.popleft()
            if "leaf" in json_of(node, dict, "tree node"):
                (leaf,) = read_keys("tree leaf", node, TREE_KEYS["leaf"]).values()
                if leaf not in (-1, 1):
                    raise ValueError(f"leaf value must be +-1, got {leaf!r}")
                number = ~len(values)
                values.append(leaf)
            else:
                mask, pos, neg = read_keys("tree node", node, TREE_KEYS["node"]).values()
                check_vector(mask, n)
                if not mask:
                    raise ValueError("internal queries must be nonzero masks")
                number = len(query)
                query.append(mask)
                child += (0, 0)
                queue += ((pos, 2 * number), (neg, 2 * number + 1))
            if slot is not None:
                child[slot] = number
        return cls(n, *(np.array(a, dtype=t) for a, t in ((query, np.uint32), (child, np.int32), (values, np.int8))))


# the keys of a tree file's objects: the tree, a leaf and an internal node
TREE_KEYS = {
    "tree": {"n": (json_int, REQUIRED), "root": (object, REQUIRED)},
    "leaf": {"leaf": (json_int, REQUIRED)},
    "node": {"query": (json_int, REQUIRED), "pos": (object, REQUIRED), "neg": (object, REQUIRED)},
}


# inputs per chunk in verify_tree: 2^16 keeps a level's arrays (about 1 MiB)
# in cache; unchunked, 2^20 inputs of a complete depth-11 tree ran a fifth
# slower than a walk of one numpy pass per node
_VERIFY_CHUNK = 1 << 16


def verify_tree(tree: ParityDecisionTree, table: TruthTable) -> bool:
    """Exhaustive agreement check over all 2^n inputs of the table, whose
    n is at most `spectral.MAX_TABLE_DIMENSION`.

    The inputs run down the arrays together, one pass per level: x at
    internal node s moves to child[2s + <query[s], x>], and inputs that
    reach a leaf are checked and dropped, so the numpy calls grow with the
    depth, not the node count.  Chunks of _VERIFY_CHUNK inputs stay in cache.
    """
    if tree.n != table.n:
        raise ValueError(f"dimension mismatch: tree n={tree.n}, table n={table.n}")
    query, child, values = tree.query, tree.child, tree.values
    if len(query):  # a query outside n bits is a DimensionMismatchError
        check_vector(int(query.max()), tree.n)
    size = 1 << table.n
    for lo in range(0, size, _VERIFY_CHUNK):
        x = np.arange(lo, min(lo + _VERIFY_CHUNK, size), dtype=np.uint32)
        state = np.full(len(x), 0 if len(query) else ~0, dtype=np.int32)
        while True:
            # index arrays and take: boolean-mask indexing is slower here
            done = np.flatnonzero(state < 0)
            if len(done):
                if not np.array_equal(table.values.take(x.take(done)), values.take(~state.take(done))):
                    return False
                inside = np.flatnonzero(state >= 0)
                x, state = x.take(inside), state.take(inside)
                if not len(x):
                    break
            bits = np.bitwise_count(x & query.take(state)) & 1
            state = child.take(2 * state + bits)
    return True


# ---------------------------------------------------------------------------
# parity sampling
# ---------------------------------------------------------------------------


def sample_parity(
    support: Iterable[int] | np.ndarray, p: float, rng: np.random.Generator
) -> list[int]:
    """Include each support element independently with probability p.

    Elements are visited in sorted order with one batched uniform draw, so
    the result is a pure function of (support, p, generator state).
    """
    check_sampling(p=p)
    if not isinstance(support, np.ndarray):
        support = np.array(list(support), dtype=np.int64)
    masks = np.sort(support)
    return masks[rng.random(len(masks)) < p].tolist()


def _draw(union: np.ndarray, probabilities: tuple[float, ...], rng: np.random.Generator) -> np.ndarray:
    """Mark in the boolean array ``union``, one cell per sorted support
    mask, the union of one ``rng.random(k) < p`` per phase, in phase order:
    ``sample_parity``'s draw, made for every build resample attempt and
    every uncertain Monte Carlo trial.  A p outside [0, 1] is refused
    before any draw.  Returns ``union``, for ``_fold_unions``."""
    for p in probabilities:
        check_sampling(p=p)
    first, *rest = probabilities
    np.less(rng.random(union.shape), first, out=union)
    for p in rest:
        union |= rng.random(union.shape) < p
    return union


def _fold_unions(masks: np.ndarray, union: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(steps, union sizes, bucket counts) of the rows of a (rows, k)
    boolean matrix of unions over the sorted support ``masks``, as arrays
    indexed by row; it draws nothing.  Row r's kept batch is the masks at
    the columns ``steps[r]`` below k, in order: each step past the last
    kept member is k.

    The rows share one (rows, k) matrix of the support's coset labels:
    each elimination step takes, in every row, the first union member in
    sorted order whose label is nonzero (it is independent of those kept
    so far) and folds that label in with one per-row ``label_step``.  A
    zero label stays zero, so this is the sorted walk over the union, in
    at most rank <= n steps.  The bucket count is the number of distinct
    labels in the row.  Labels are int32: masks have at most MAX_DIMENSION
    bits.
    """
    rows, k = union.shape
    sizes = union.sum(axis=1)
    # column k is a sentinel, live with label 0: a row with no live
    # member left steps on it, and a step on row 0 is no step
    live = np.zeros((rows, k + 1), dtype=bool)
    live[:, k] = True
    labels = np.zeros((rows, k + 1), dtype=np.int32)
    labels[:, :k] = masks
    live_body, labels_body = live[:, :k], labels[:, :k]
    # a live member is a union member whose label is nonzero
    np.logical_and(union, labels_body, out=live_body)
    starts = np.arange(0, rows * (k + 1), k + 1)
    firsts = []
    while True:
        first = starts + live.argmax(axis=1)  # flat index per row
        pivot = labels.take(first)
        if not np.count_nonzero(pivot):
            break
        label_step(labels, pivot)
        np.logical_and(live_body, labels_body, out=live_body)
        firsts.append(first)
    # once a row steps on the sentinel it does for good, so its kept
    # members are the prefix of its steps below k
    steps = (np.array(firsts, dtype=np.int64).reshape(-1, rows) - starts).T
    labels_body.sort(axis=1)
    counts = 1 + (labels_body[:, 1:] != labels_body[:, :-1]).sum(axis=1)
    return steps, sizes, counts


def _batch_labels(masks: np.ndarray, batch: tuple[int, ...], n: int) -> tuple[np.ndarray, np.ndarray]:
    """(labels, tags) of the sorted support masks against a kept batch,
    batch[0] on the tags' top bit: one `row_reduce` of the reversed batch."""
    return labels(masks, row_reduce(batch[::-1], n).rows)


def _folding_probabilities(k: int, delta: float, ell: float) -> tuple[float, float]:
    """Requested two-phase probabilities for a (delta, ell)-folding support."""
    log_k = math.log2(k)
    scale = delta * k ** ((1 + ell) / 2)
    return (4 * log_k / (5 * math.e * scale), 2000 * log_k / scale)


def _as_spectrum(f: TruthTable | FourierSpectrum) -> FourierSpectrum:
    return wht(f) if isinstance(f, TruthTable) else f
