"""Parity decision trees: representation, exhaustive verification,
construction, and seeded Monte Carlo bucket experiments.

A tree is three flat arrays in level order (`ParityDecisionTree`).
`build_pdt` grows it from frontiers of restricted spectra, whose
characters are coset labels reduced against every query above, so paths
are irredundant and depth <= n.  The deterministic strategies take a
level per step: one set of kernel calls picks every batch and one
`restrict_frontier` call, as wide as the widest batch, makes every child.
The sampling strategies take nodes one by one, depth first, so the
generator draws follow the tree.  Ids, log order and arrays come from
tree positions at the end.  |c_a| > 2^n is refused up front (no +-1
function has it), so restriction stays within k * 2^n <= 2^48.  `_draw`
marks the union of every build resample attempt and every uncertain
Monte Carlo trial; `_run_trials` sets one generator to each trial's
state from `_trial_states`, and `_fold_unions` folds every drawn union.
A certain union folds nothing: every trial reports size k and bucket
count 1 when a phase is 1, size 0 and count k when every phase is 0.
The build's parameters (`BuildConfig`, with its strategies) and
`check_sampling`, which holds each range check of a sampling run's seed,
trials, p, delta and ell, live in `params`, so a run that builds no tree
reads them without importing this module.

The result records (`NodeRecord`, `BuildResult`, `TrialStats`) are
`typing.NamedTuple`s and `ParityDecisionTree` a plain class whose
`__setattr__` refuses, so importing this module generates no code for
them.

Importing this module loads neither `folding` nor `restriction`.
`build_pdt` imports `restriction` when it runs and `folding_sampling_trial`
imports `folding`, each calling through the module attribute, so a
wrapper set there (bench/tracing.py's on `folding.folding_parameters`)
sees every call; `_distinct`, which greedy selection shares with
restriction, lives in `pairs`.  So a Monte Carlo run compiles neither,
and a build does not compile `folding`.  The names bench/tracing.py
binds here and this module never uses resolve through ``TRACED_NAMES``
(PEP 562), as the package's public names do.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from importlib import import_module
from typing import Iterable, NamedTuple

import numpy as np

from .gf2 import MAX_DIMENSION, check_vector, label_step, labels, row_reduce
from .pairs import _distinct, top_directions
from .params import SAMPLING, BuildConfig, CheckFailedError, check_sampling
from .spectral import REQUIRED, FourierSpectrum, TruthTable, json_int, json_of, parity, read_keys, wht

# name -> the module that defines it, for the names bench/tracing.py binds
# here and nothing in this module uses; each is imported on first access
TRACED_NAMES = {
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
    return getattr(import_module(f".{module}", __package__), name)


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


class ParityDecisionTree:
    """A tree over F2^n in level order (breadth first, pos before neg), so
    == compares arrays: query[i] is internal node i's mask (uint32), child[2i]
    and child[2i + 1] its pos (+1) and neg children (int32; ~j is leaf j),
    values[j] leaf j's +-1 (int8).  The root is node 0, else leaf 0.  No
    walk recurses; `from_dict` checks each node.  Trees are immutable."""

    def __init__(self, n: int, query: np.ndarray, child: np.ndarray, values: np.ndarray) -> None:
        self.__dict__.update(n=n, query=query, child=child, values=values)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to {name!r}: trees are immutable")

    def __repr__(self) -> str:
        return f"ParityDecisionTree(n={self.n!r}, query={self.query!r}, child={self.child!r}, values={self.values!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ParityDecisionTree) and self.n == other.n and all(
            map(np.array_equal, (self.query, self.child, self.values), (other.query, other.child, other.values))
        )

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


# label cells per chunk of trials in _run_trials, so its memory is O(k)
# for any number of trials
_TRIAL_CHUNK_CELLS = 2**16


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


# ---------------------------------------------------------------------------
# tree construction
# ---------------------------------------------------------------------------


class NodeRecord(NamedTuple):
    node_id: int
    depth: int
    sparsity_before: int
    batch: tuple[int, ...]
    bucket_count: int
    max_child_sparsity: int
    resamples: int
    target_met: bool  # bucket_count <= (1 - epsilon) * sparsity_before
    probabilities: tuple[float, ...]
    clamped: bool


class BuildResult(NamedTuple):
    tree: ParityDecisionTree
    log: tuple[NodeRecord, ...]
    config: BuildConfig

    def depth(self) -> int:
        return self.tree.depth()


def _folding_probabilities(k: int, delta: float, ell: float) -> tuple[float, float]:
    """Requested two-phase probabilities for a (delta, ell)-folding support."""
    log_k = math.log2(k)
    scale = delta * k ** ((1 + ell) / 2)
    return (4 * log_k / (5 * math.e * scale), 2000 * log_k / scale)


def _schedule_probabilities(
    strategy: str, k: int, config: BuildConfig
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(requested, clamped-to-1) probabilities for the sampling strategies."""
    if config.probability is not None:
        req = (float(config.probability),)
        return req, req
    if strategy == "sampling":
        req = (0.5 / math.sqrt(k),)
    elif config.delta is not None and config.ell is not None:
        req = _folding_probabilities(k, float(config.delta), float(config.ell))
    else:
        # two-phase variant of the square-root sampling scheme
        req = (0.25 / math.sqrt(k), 0.25 / math.sqrt(k))
    return req, tuple(min(1.0, p) for p in req)


def _heaviest_pair_directions(
    masks: np.ndarray, weights: np.ndarray, seg: np.ndarray, starts: np.ndarray
) -> np.ndarray:
    """Per segment of >= 2 sorted distinct masks, the smallest direction of
    the heaviest w_a w_b, in O(k): within a top-weight class of two or more
    (its smallest XOR is between neighbours), else from the lone top mask to
    each mask of the second weight."""
    top = weights == np.maximum.reduceat(weights, starts)[seg]
    at = top.nonzero()[0]
    several = np.bincount(seg[at], minlength=len(starts))[seg] > 1
    inside = several[at[1:]] & (seg[at[1:]] == seg[at[:-1]])
    second = ~several & (weights == np.maximum.reduceat(np.where(top, -1, weights), starts)[seg])
    lone = np.zeros(len(starts), dtype=np.int64)
    lone[seg[at]] = masks[at]
    out = np.full(len(starts), 1 << MAX_DIMENSION, dtype=np.int64)
    np.minimum.at(out, seg[at[1:]][inside], (masks[at[1:]] ^ masks[at[:-1]])[inside])
    np.minimum.at(out, seg[second], masks[second] ^ lone[seg[second]])
    return out


def _select_frontier(
    masks: np.ndarray, coeffs: np.ndarray, bounds: np.ndarray, config: BuildConfig, rng, n: int
) -> tuple[np.ndarray, np.ndarray, list[tuple]]:
    """Batches for a frontier, node i with the sorted distinct masks
    masks[bounds[i]:bounds[i + 1]], two or more: each mask's label and tag
    against its batch (batch[0] on the tag's top bit), and per node (batch,
    bucket_count, resamples, target_met, probabilities, clamped).  Sampling
    takes one node, drawing until the span buckets it to (1 - epsilon) k,
    else keeping the best strictly-progressing batch at the cap.  The
    deterministic strategies fold a direction per node and round, in one set
    of kernel calls: max-coefficient once, greedy-min-bucket (the largest
    label-pair class, covering every single-query merge) to the target."""
    if config.strategy in SAMPLING:
        k, best, met = len(masks), None, False
        requested, probs = _schedule_probabilities(config.strategy, k, config)
        target = (1 - config.epsilon) * k
        union = np.empty((1, k), dtype=bool)  # one row, drawn again per attempt
        for attempt in range(1, config.resample_cap + 1):
            steps, _, counts = _fold_unions(masks, _draw(union, probs, rng))
            batch, bcount = tuple(masks[steps[0][steps[0] < k]].tolist()), int(counts[0])
            if batch and (best is None or bcount < best[1]):
                best = (batch, bcount)
            if met := bool(batch) and bcount <= target:
                break
        if not met and (best is None or best[1] > k - 1):
            raise ResampleCapExceededError(config.resample_cap, best and best[0], best and best[1])
        picked = (*best, attempt, met, probs, requested != probs)
        return (*labels(masks, row_reduce(best[0][::-1], n).rows), [picked])
    sizes = bounds[1:] - bounds[:-1]
    seg = dseg = np.arange(len(sizes)).repeat(sizes)
    # a node stops at a bucket count <= (1 - epsilon) k, in integers
    eps = config.epsilon
    limit = np.array([(eps.denominator - eps.numerator) * k // eps.denominator for k in sizes.tolist()])
    stop = np.maximum(limit, 1)
    greedy = config.strategy == "greedy-min-bucket"
    label, tag = masks.copy(), np.zeros_like(masks)
    counts, distinct, rounds = sizes, masks, []
    while np.count_nonzero(active := counts > stop) and (greedy or not rounds):
        if not greedy:
            step = _heaviest_pair_directions(masks, np.abs(coeffs), seg, bounds[:-1])
        else:
            step = np.zeros(len(sizes), dtype=np.int64)
            step[active] = top_directions(distinct[active[dseg]], np.concatenate(([0], counts[active].cumsum())))
        row = step[seg]
        tag = tag << (row != 0) | label_step(label, row)
        rounds.append(step)
        keys = _distinct(seg << MAX_DIMENSION | label)
        dseg, distinct = keys >> MAX_DIMENSION, keys & (1 << MAX_DIMENSION) - 1
        counts = np.bincount(dseg, minlength=len(sizes))
    batches = [tuple(g for g in row if g) for row in np.array(rounds).T.tolist()]
    met = (counts <= limit).tolist()
    return label, tag, [(b, c, 1, m, (), False) for b, c, m in zip(batches, counts.tolist(), met)]


def _as_spectrum(f: TruthTable | FourierSpectrum) -> FourierSpectrum:
    return wht(f) if isinstance(f, TruthTable) else f


_PATH = (1 << MAX_DIMENSION) - 1  # a tree position is depth << MAX_DIMENSION | path


def build_pdt(
    f: TruthTable | FourierSpectrum, config: BuildConfig | None = None
) -> BuildResult:
    """Build a tree computing f, sound by construction (restriction agrees
    with f on each branch), from a work list of frontiers.  A node is a
    restricted spectrum at tree position depth << 24 | path, the branch bits
    from the root (pos 0, neg 1).  Sparsity 1 settles as a leaf or a query
    over two leaves; any other node gets a batch (`_select_frontier`), its
    subtree of queries and 2^b exact children, child j where the branch
    bits j lead.  Deterministic frontiers are whole levels; sampling ones
    single nodes, depth first, pos before neg."""
    from . import restriction

    config = config or BuildConfig()
    spectrum = _as_spectrum(f)
    masks, coeffs = spectrum.masks, spectrum.coefficients
    if not len(masks):
        raise DegenerateInputError("empty spectrum")
    n, full = spectrum.n, 1 << spectrum.n
    # no +-1 function has |c| > 2^n; within it restriction is exact in int64.
    # max and min compare exactly, where abs would wrap -2^63
    if coeffs.max() > full or coeffs.min() < -full:
        raise DegenerateInputError("a coefficient has |c| > 2^n; input is not a +-1 function")
    coeffs = coeffs.astype(np.int64, copy=False)  # Python ints beyond int64 were refused
    sampling = config.strategy in SAMPLING
    rng = np.random.default_rng(config.seed) if sampling else None  # the deterministic strategies never draw
    stack: list[tuple[np.ndarray, ...]] = []  # (positions, bounds, masks, coefficients)
    singles: list[tuple[np.ndarray, ...]] = []  # (positions, masks, coefficients) of sparsity-1 nodes
    records: list[tuple] = []  # (positions, sparsities, selections, max child sparsities) of the others
    here, counts = np.zeros(1, dtype=np.int64), np.array([len(masks)])
    while True:
        # settle the +-1 characters; stack the rest as one frontier, or one by one depth first
        bounds = np.concatenate(([0], counts.cumsum()))
        settle = (counts == 1) & (np.abs(coeffs.take(bounds[:-1], mode="clip")) == full)
        at = bounds[:-1][settle]
        singles.append((here[settle], masks[at], coeffs[at]))
        if sampling:
            for i in (~settle).nonzero()[0][::-1].tolist():
                a, z = bounds[i], bounds[i + 1]
                stack.append((here[i : i + 1], bounds[i : i + 2] - a, masks[a:z], coeffs[a:z]))
        elif not settle.all():
            keep = (~settle).repeat(counts)
            stack.append((here[~settle], np.concatenate(([0], counts[~settle].cumsum())), masks[keep], coeffs[keep]))
        if not stack:
            break
        here, bounds, masks, coeffs = stack.pop()
        sizes = bounds[1:] - bounds[:-1]
        if np.count_nonzero(sizes < 2):  # what did not settle is no +-1 spectrum
            i = int(np.argmax(sizes < 2))
            what = f"sparsity-1 spectrum with |c| = {abs(int(coeffs[bounds[i]]))} != 2^n" if sizes[i] else "no support"
            raise DegenerateInputError(f"{what}; input is not a +-1 function")
        label, tag, picked = _select_frontier(masks, coeffs, bounds, config, rng, n)
        # one table as wide as the widest batch: a node of b queries has tags
        # below 2^b, so its children j >= 2^b repeat child j mod 2^b and are dropped
        b = np.array([len(p[0]) for p in picked], dtype=np.int64)
        wide, seg = int(b.max()), np.arange(len(sizes)).repeat(sizes)
        j, node, masks, coeffs = restriction.restrict_frontier(seg, label, tag, coeffs, wide)
        counts = np.bincount(j * len(here) + node, minlength=len(here) << wide).reshape(1 << wide, len(here))
        records.append((here, sizes.tolist(), picked, counts.max(axis=0).tolist()))
        live = np.arange(1 << wide)[:, None] < 1 << b  # [j, node]
        keep = live[j, node]
        # child j at (depth + b, path << b | j)
        spot = here + (b << MAX_DIMENSION) + (here & _PATH) * ((1 << b) - 1)
        here, counts, masks, coeffs = np.add.outer(np.arange(1 << wide), spot)[live], counts[live], masks[keep], coeffs[keep]
    return BuildResult(*_assemble(n, singles, records), config)


def _assemble(n: int, singles: list, records: list) -> tuple[ParityDecisionTree, tuple[NodeRecord, ...]]:
    """The tree and log from node positions: sorted, the tree's are in level
    order, so internal node i has children 2i + 1 and 2i + 2.  Ids count all
    nodes in preorder (left-aligned paths, ancestors first); the log is in
    post-order (paths padded with ones, deeper first)."""
    here, mask, c = (np.concatenate(part) for part in zip(*singles))
    up = np.concatenate([r[0] for r in records] or [here[:0]])
    picks = [p for r in records for p in r[2]]
    sign, q = np.where(c > 0, 1, -1), mask != 0  # a query over two leaves, or a leaf
    below = here[q] + (1 << MAX_DIMENSION) + (here[q] & _PATH)
    # heap node h of a batch's subtree asks batch[lev] at (depth + lev, path << lev | h + 1 - 2^lev)
    width = np.array([len(p[0]) for p in picks], dtype=np.int64)
    size = (1 << width) - 1
    node = np.arange(len(picks)).repeat(size)
    h = np.arange(len(node)) - (size.cumsum() - size).repeat(size)
    lev = np.frexp(h + 1)[1] - 1
    spots = ((up[node] >> MAX_DIMENSION) + lev) << MAX_DIMENSION | (up[node] & _PATH) << lev | h + 1 - (1 << lev)
    batches = np.array([g for p in picks for g in p[0]], dtype=np.int64)
    queries = np.concatenate([mask[q], batches.take((width.cumsum() - width)[node] + lev)])
    order = np.concatenate([here[q], spots, here[~q], below, below + 1]).argsort()
    inner = order < len(queries)
    rank = inner.cumsum() - 1
    child = np.where(inner, rank, rank - np.arange(len(order)))[1:].astype(np.int32)  # ~j is leaf j
    values = np.concatenate([sign[~q], sign[q], -sign[q]])[order[~inner] - len(queries)].astype(np.int8)
    tree = ParityDecisionTree(n, queries[order[inner]].astype(np.uint32), child, values)

    depth, path = up >> MAX_DIMENSION, up & _PATH
    every = np.concatenate([up, here])
    preorder = np.sort((every & _PATH) << (n - (every >> MAX_DIMENSION)) << 5 | every >> MAX_DIMENSION)
    ids = preorder.searchsorted(path << (n - depth) << 5 | depth).tolist()
    post = ((path + 1 << (n - depth)) - 1) << 5 | n - depth
    rows = [(k, *p[:2], m, *p[2:]) for _, sizes, picked, most in records for k, p, m in zip(sizes, picked, most)]
    return tree, tuple(NodeRecord(ids[i], depth[i].item(), *rows[i]) for i in post.argsort().tolist())


# ---------------------------------------------------------------------------
# Monte Carlo bucket experiments
# ---------------------------------------------------------------------------


class TrialStats(NamedTuple):
    trials: int
    k: int
    probabilities: tuple[float, ...]  # used per phase, after clamping
    requested: tuple[float, ...]  # formula values before clamping
    clamped: bool
    bucket_counts: tuple[int, ...]
    sample_sizes: tuple[int, ...]
    mean_bucket_fraction: Fraction
    ci95: tuple[float, float]  # normal-approximation CI for the mean of B/k
    success_threshold: Fraction | None = None  # success means B <= threshold
    success_fraction: Fraction | None = None


def _trial_states(seed: int, t: np.ndarray) -> list[dict]:
    """The PCG64 ``bit_generator.state`` of ``default_rng((seed, t))`` for
    each trial number in the uint32 array t.

    numpy's SeedSequence hashes the entropy words (seed's 32-bit words,
    little endian, 0 as [0], then t's one word) into a pool of four
    uint32 words, and the pool out to eight, which PCG64 reads as four
    uint64: state s, then increment.  Only t's word differs between
    trials, so the hashing runs in uint32 arrays over all of t at once
    (wrapping as numpy's uint32 arithmetic does; the hash constants stay
    Python ints), and PCG64's two-step seeding in Python ints.  Needs
    seed >= 0.
    """
    word = (1 << 32) - 1
    words = [seed >> i & word for i in range(0, max(seed.bit_length(), 1), 32)]

    def hasher(h: int, mult: int):
        """numpy's running hash: each call moves the constant h to h * mult."""

        def step(value: np.ndarray) -> np.ndarray:
            nonlocal h
            value = value ^ h
            h = h * mult & word
            value = value * h
            return value ^ value >> 16

        return step

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        r = x * 0xCA01F9DD - y * 0x4973F715
        return r ^ r >> 16

    entropy = [np.full(len(t), w, dtype=np.uint32) for w in words] + [t]
    entropy += [np.zeros_like(t)] * (4 - len(entropy))
    hashmix = hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(w) for w in entropy[:4]]
    for src in range(4):  # each pool word into every other
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in entropy[4:]:  # words past the pool, into every pool word
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    out = hasher(0x8B51F9DD, 0x58F38DED)
    state = [out(pool[i % 4]).astype(np.uint64) for i in range(8)]
    halves = [(state[i] | state[i + 1] << 32).tolist() for i in range(0, 8, 2)]
    states = []
    for s_hi, s_lo, inc_hi, inc_lo in zip(*halves):
        # two LCG steps from state 0, adding s between them
        inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & (1 << 128) - 1
        s = ((inc + (s_hi << 64 | s_lo)) * 0x2360ED051FC65DA44385DF649FCCF645 + inc) & (1 << 128) - 1
        states.append({"bit_generator": "PCG64", "state": {"state": s, "inc": inc}, "has_uint32": 0, "uinteger": 0})
    return states


def _run_trials(
    spectrum: FourierSpectrum,
    requested: tuple[float, ...],
    trials: int,
    seed: int,
    success_threshold: Fraction | None = None,
) -> TrialStats:
    """Independent seeded trials of the sampling step at the requested
    probabilities, each clamped to 1; trial t's generator depends only on
    (seed, t), so results are identical under any execution order.  It is
    in the state of ``default_rng((seed, t))``.  One loop takes the trials
    in chunks of about _TRIAL_CHUNK_CELLS label cells: `_trial_states`
    computes the chunk's states in one vectorized pass, one generator is
    set to each in turn and `_draw`s that trial's row, and `_fold_unions`
    folds the chunk.

    The union is certain when some clamped phase is exactly 1 or every
    phase is 0: ``rng.random(k)`` lies in [0, 1), so every generator
    marks the whole support, or none of it.  Then no generator is seeded
    and nothing is folded: the step each (seed, t) generator would have
    drawn is known in closed form.  With a phase at 1 every member is
    marked and span(S) holds S, so each trial has sample size k and
    bucket count 1; with every phase at 0 nothing is marked and the k
    masks are distinct, so each has size 0 and count k.  At desk scale
    that covers the warm-up at k <= 1,897 and theorem 2 at delta = 1 and
    ell <= 1/2 for every n <= 20 (its second phase clamps to 1).  Every
    uncertain union is drawn from its (seed, t) state.  Its callers make
    `check_sampling`'s checks first.
    """
    masks = spectrum.masks
    k = len(masks)
    probabilities = tuple(min(1.0, p) for p in requested)
    marked = 1.0 in probabilities
    if marked or not any(probabilities):
        sample_sizes, bucket_counts = [k if marked else 0] * trials, [1 if marked else k] * trials
    else:
        rng = np.random.Generator(np.random.PCG64(0))
        union = np.empty((max(1, _TRIAL_CHUNK_CELLS // (k + 1)), k), dtype=bool)
        sample_sizes, bucket_counts = [], []
        for lo in range(0, trials, len(union)):
            states = _trial_states(seed, np.arange(lo, min(lo + len(union), trials), dtype=np.uint32))
            for row, state in zip(union, states):
                rng.bit_generator.state = state
                _draw(row, probabilities, rng)
            _, sizes, counts = _fold_unions(masks, union[: len(states)])
            sample_sizes += sizes.tolist()
            bucket_counts += counts.tolist()
    mean = Fraction(sum(bucket_counts), trials * k)
    fractions = [b / k for b in bucket_counts]
    mean_f = sum(fractions) / trials
    if trials >= 2:
        var = sum((x - mean_f) ** 2 for x in fractions) / (trials - 1)
        half = 1.96 * math.sqrt(var / trials)
    else:
        half = 0.0
    success_fraction = None
    if success_threshold is not None:
        cut = math.floor(success_threshold)  # b <= threshold for an integer b
        hits = sum(1 for b in bucket_counts if b <= cut)
        success_fraction = Fraction(hits, trials)
    return TrialStats(
        trials=trials,
        k=k,
        probabilities=probabilities,
        requested=requested,
        clamped=probabilities != requested,
        bucket_counts=tuple(bucket_counts),
        sample_sizes=tuple(sample_sizes),
        mean_bucket_fraction=mean,
        ci95=(mean_f - half, mean_f + half),
        success_threshold=success_threshold,
        success_fraction=success_fraction,
    )


def estimate_bucket_reduction(
    f: TruthTable | FourierSpectrum, p: float, trials: int, seed: int
) -> TrialStats:
    """Monte Carlo estimate of E[buckets/k] under one-phase parity sampling
    at probability p."""
    check_sampling(seed, trials, p=p)
    spectrum = _as_spectrum(f)
    k = spectrum.sparsity
    if k < 4:
        raise ValueError(f"need sparsity >= 4, got {k}")
    return _run_trials(spectrum, (float(p),), trials, seed)


def warmup_success_rate(
    f: TruthTable | FourierSpectrum, trials: int, seed: int
) -> TrialStats:
    """Fraction of trials where sampling at 2*sqrt(log2 k)/k^(1/4) buckets
    the support down to k/2; the probability is clamped to 1 at small k
    (recorded in the stats)."""
    check_sampling(seed, trials)
    spectrum = _as_spectrum(f)
    k = spectrum.sparsity
    if k < 2:
        raise ValueError(f"need sparsity >= 2, got {k}")
    requested = 2 * math.sqrt(math.log2(k)) / k**0.25
    return _run_trials(spectrum, (requested,), trials, seed, Fraction(k, 2))


def folding_sampling_trial(
    f: TruthTable | FourierSpectrum,
    delta: Fraction | float,
    ell: Fraction | float,
    trials: int,
    seed: int,
) -> TrialStats:
    """Two-phase sampling experiment for supports with the (delta, ell)
    folding property; success means buckets <= k - delta*k/6.

    The input must actually achieve delta at exponent ell (checked via
    folding_parameters); both phase probabilities are clamped to 1 when the
    formulas exceed it at desk scale.
    """
    from . import folding

    delta, ell = check_sampling(seed, trials, delta=delta, ell=ell)
    spectrum = _as_spectrum(f)
    k = spectrum.sparsity
    achieved = folding.folding_parameters(spectrum.masks, ell)
    if achieved.delta < delta:
        raise NotFoldingError(
            f"support achieves delta = {achieved.delta} at this exponent, below requested {delta}"
        )
    requested = _folding_probabilities(k, float(delta), float(achieved.ell))
    return _run_trials(spectrum, requested, trials, seed, k - delta * k / 6)
