"""The tree builder: `build_pdt` and its records, `NodeRecord` and
`BuildResult`.

`build_pdt` grows a `pdt.ParityDecisionTree` from frontiers of
restricted spectra, whose characters are coset labels reduced against
every query above, so paths are irredundant and depth <= n.  The
deterministic strategies take a level per step: one set of kernel calls
picks every batch and one `restrict_frontier` call, as wide as the
widest batch, makes every child.  The sampling strategies take nodes one
by one, depth first, so the generator draws follow the tree: each
resample attempt draws with `pdt._draw` and folds with
`pdt._fold_unions`, and the kept batch labels its node's support through
`pdt._batch_labels`.  A frontier's keys, node << 24 | label, are sorted
once, by `_select_frontier`, and `restrict_frontier` takes them sorted:
a deterministic frontier's last round sorts them to count its buckets,
and a sampling node sorts its kept batch's labels.  Ids, log order and
arrays come from tree positions at the end.  |c_a| > 2^n is refused up
front (no +-1 function has it), so restriction stays within k * 2^n <=
2^48.

This module imports the pair kernel (`pairs`), whose `top_directions`
and `_distinct` pick greedy batches, and `build_pdt` imports
`restriction` when it runs, calling `restriction.restrict_frontier`
through the module attribute.  Callers reach `build_pdt` as
`pdt.build_pdt` (`pdt.TRACED_NAMES`), so a Monte Carlo run never
compiles this module.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .gf2 import MAX_DIMENSION, label_step
from .pairs import _distinct, top_directions
from .params import SAMPLING, BuildConfig
from .pdt import (
    DegenerateInputError,
    ParityDecisionTree,
    ResampleCapExceededError,
    _as_spectrum,
    _batch_labels,
    _draw,
    _fold_unions,
    _folding_probabilities,
)
from .spectral import FourierSpectrum, TruthTable


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
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[tuple]]:
    """Batches for a frontier, node i with the sorted distinct masks
    masks[bounds[i]:bounds[i + 1]], two or more: each mask's key node << 24
    | label and tag against its node's batch (batch[0] on the tag's top
    bit), the sorted distinct keys, which `restriction.restrict_frontier`
    takes as its buckets, and per node (batch, bucket_count, resamples,
    target_met, probabilities, clamped).  Sampling takes one node, drawing
    until the span buckets it to (1 - epsilon) k, else keeping the best
    strictly-progressing batch at the cap, and sorts its kept batch's
    labels once.  The deterministic strategies fold a direction per node
    and round, in one set of kernel calls: max-coefficient once,
    greedy-min-bucket (the largest label-pair class, covering every
    single-query merge) to the target.  Each round sorts the frontier's
    keys to count its buckets, so the last round's are the buckets."""
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
        label, tag = _batch_labels(masks, best[0], n)  # one node, node 0: its keys are its labels
        return label, _distinct(label), tag, [picked]
    sizes = bounds[1:] - bounds[:-1]
    seg = dseg = np.arange(len(sizes)).repeat(sizes)
    # a node stops at a bucket count <= (1 - epsilon) k, in Python integers
    eps = config.epsilon
    limit = ((eps.denominator - eps.numerator) * sizes.astype(object) // eps.denominator).astype(np.int64)
    stop = np.maximum(limit, 1)
    greedy = config.strategy == "greedy-min-bucket"
    label, tag = masks.copy(), np.zeros_like(masks)
    counts, distinct, rounds = sizes, masks, []
    # every node starts above its stop (k >= 2 > limit), so one round always runs
    while np.count_nonzero(active := counts > stop) and (greedy or not rounds):
        if not greedy:
            step = _heaviest_pair_directions(masks, np.abs(coeffs), seg, bounds[:-1])
        else:
            step = np.zeros(len(sizes), dtype=np.int64)
            step[active] = top_directions(distinct[active[dseg]], np.concatenate(([0], counts[active].cumsum())))
        row = step[seg]
        tag = tag << (row != 0) | label_step(label, row)
        rounds.append(step)
        keys = seg << MAX_DIMENSION | label
        buckets = _distinct(keys)
        dseg, distinct = buckets >> MAX_DIMENSION, buckets & (1 << MAX_DIMENSION) - 1
        counts = np.bincount(dseg, minlength=len(sizes))
    batches = [tuple(g for g in row if g) for row in np.array(rounds).T.tolist()]
    met = (counts <= limit).tolist()
    return keys, buckets, tag, [(b, c, 1, m, (), False) for b, c, m in zip(batches, counts.tolist(), met)]


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
        keys, buckets, tag, picked = _select_frontier(masks, coeffs, bounds, config, rng, n)
        # one table as wide as the widest batch: a node of b queries has tags
        # below 2^b, so its children j >= 2^b repeat child j mod 2^b and are dropped
        b = np.array([len(p[0]) for p in picked], dtype=np.int64)
        wide = int(b.max())
        j, node, masks, coeffs = restriction.restrict_frontier(keys, buckets, tag, coeffs, wide)
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
