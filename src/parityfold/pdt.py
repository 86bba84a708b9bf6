"""Parity decision trees: representation, exhaustive verification,
randomized construction, and seeded Monte Carlo bucket experiments.

The recursive builder keeps every restricted spectrum in the ambient
n-dimensional space with canonical coset labels as characters.  Labels
are fully reduced against the queries made so far, so every character of
a node's spectrum is automatically linearly independent of the node's
ancestors and trees come out irredundant by construction.

A node's 2^b children come from one batched restriction
(`restriction.restrict_batch`): bit i of the child index is the branch bit
of batch[i], and `expand` walks the indices depth first, so node ids and
the generator's draws follow the tree.  `build_pdt` refuses |c_a| > 2^n
up front (no +-1 function has it); restriction never raises sum |c_a|, so
every table entry and butterfly partial sum stays within k * 2^n <= 2^48.

`_sampling_trial` is both a build's resample attempt and every Monte
Carlo trial: row t draws rng.random(k) < p per phase from its generator
(the build's one, or default_rng((seed, t)) for trial t), `sample_parity`'s
draw over the sorted support, and the rows of an op share one (trials, k)
matrix of coset labels, in chunks of at most 2^16 cells, stepped by one
per-row `gf2.label_step` per pivot.  The deterministic strategies keep the
same labels as their only GF(2) state.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterable, Sequence, Union

import numpy as np

from .folding import as_exponent, folding_parameters
# bench/tracing.py binds coset_label, extend_basis, row_reduce, restrict and
# AffineConstraintSystem here by name; they are otherwise unused
from .gf2 import coset_label, extend_basis, label_step, row_reduce
from .pairs import direction_sums
from .restriction import AffineConstraintSystem, _distinct, restrict, restrict_batch
from .spectral import FourierSpectrum, TruthTable, json_int, json_of, parity, parity_of, wht

STRATEGIES = ("sampling", "folding-sampling", "max-coefficient", "greedy-min-bucket")


class DegenerateInputError(ValueError):
    pass


class NotFoldingError(ValueError):
    """The requested (delta, ell) folding hypothesis does not hold."""


class ResampleCapExceededError(RuntimeError):
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


@dataclass(frozen=True)
class Leaf:
    value: int  # +1 or -1

    def __post_init__(self) -> None:
        if self.value not in (-1, 1):
            raise ValueError(f"leaf value must be +-1, got {self.value!r}")


@dataclass(frozen=True)
class Node:
    query: int  # nonzero parity mask
    pos: "Leaf | Node"  # followed when the queried parity evaluates to +1
    neg: "Leaf | Node"

    def __post_init__(self) -> None:
        if self.query <= 0:
            raise ValueError("internal queries must be nonzero masks")


TreeNode = Union[Leaf, Node]


@dataclass(frozen=True)
class ParityDecisionTree:
    n: int
    root: TreeNode

    def evaluate(self, x: int) -> int:
        node = self.root
        while isinstance(node, Node):
            node = node.pos if parity(node.query, x) == 0 else node.neg
        return node.value

    def depth(self) -> int:
        def walk(node: TreeNode) -> int:
            if isinstance(node, Leaf):
                return 0
            return 1 + max(walk(node.pos), walk(node.neg))

        return walk(self.root)

    def paths(self) -> list[tuple[int, ...]]:
        """Query masks along every root-to-leaf path."""
        out: list[tuple[int, ...]] = []

        def walk(node: TreeNode, prefix: tuple[int, ...]) -> None:
            if isinstance(node, Leaf):
                out.append(prefix)
                return
            walk(node.pos, prefix + (node.query,))
            walk(node.neg, prefix + (node.query,))

        walk(self.root, ())
        return out

    def to_dict(self) -> dict:
        def encode(node: TreeNode) -> dict:
            if isinstance(node, Leaf):
                return {"leaf": node.value}
            return {"query": node.query, "pos": encode(node.pos), "neg": encode(node.neg)}

        return {"n": self.n, "root": encode(self.root)}

    @classmethod
    def from_dict(cls, data: dict) -> "ParityDecisionTree":
        def decode(node: dict) -> TreeNode:
            if "leaf" in json_of(node, dict, "tree node"):
                return Leaf(json_int(node["leaf"], "leaf"))
            return Node(json_int(node["query"], "query"), decode(node["pos"]), decode(node["neg"]))

        return cls(json_int(json_of(data, dict, "tree")["n"], "n"), decode(data["root"]))


def verify_tree(tree: ParityDecisionTree, table: TruthTable) -> bool:
    """Exhaustive agreement check over all 2^n inputs (n <= 20)."""
    if tree.n != table.n:
        raise ValueError(f"dimension mismatch: tree n={tree.n}, table n={table.n}")
    if table.n > 20:
        raise ValueError(f"exhaustive verification capped at n = 20, got {table.n}")
    out = np.zeros(1 << table.n, dtype=np.int8)
    indices = np.arange(1 << table.n, dtype=np.uint32)

    def walk(node: TreeNode, idx: np.ndarray) -> None:
        if isinstance(node, Leaf):
            out[idx] = node.value
            return
        sign_bit = parity_of(idx & np.uint32(node.query))
        walk(node.pos, idx[sign_bit == 0])
        walk(node.neg, idx[sign_bit == 1])

    walk(tree.root, indices)
    return bool(np.array_equal(out, table.values))


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
    if not 0 <= p <= 1:
        raise ValueError(f"probability must lie in [0, 1], got {p}")
    if not isinstance(support, np.ndarray):
        support = np.array(list(support), dtype=np.int64)
    masks = np.sort(support)
    return masks[rng.random(len(masks)) < p].tolist()


# label cells per chunk of trials in _sampling_trial, so its memory is O(k)
# for any number of trials
_TRIAL_CHUNK_CELLS = 2**16


def _sampling_trial(
    support_sorted: Sequence[int] | np.ndarray,
    probabilities: tuple[float, ...],
    rngs: Iterable[np.random.Generator],
) -> list[tuple[tuple[int, ...], int, int]]:
    """Parity-sampling steps, one per generator: the only code that draws a
    sampling batch.

    Row t marks the union of one ``rng.random(k) < p`` per phase, in phase
    order, from generator t: ``sample_parity``'s draw over the sorted
    support, refused before any draw for a p outside [0, 1].  The rows then
    share one (trials, k) matrix of the support's coset labels: each
    elimination step takes, in every row, the first union member in sorted
    order whose label is nonzero (it is independent of those kept so far)
    and folds that label in with one per-row ``label_step``.  A zero label
    stays zero, so this is the sorted walk over the union, in at most
    rank <= n steps.  Returns (kept batch, union size, bucket count of the
    support against the batch's span) per generator.
    """
    for p in probabilities:
        if not 0 <= p <= 1:
            raise ValueError(f"probability must lie in [0, 1], got {p}")
    masks = np.asarray(support_sorted, dtype=np.int64)
    k = len(masks)
    rngs = iter(rngs)
    out: list[tuple[tuple[int, ...], int, int]] = []
    while chunk := list(islice(rngs, max(1, _TRIAL_CHUNK_CELLS // (k + 1)))):
        trials = len(chunk)
        # column k is a sentinel, live with label 0: a row with no live
        # member left steps on it, and a step on row 0 is no step
        live = np.zeros((trials, k + 1), dtype=bool)
        for row, rng in zip(live, chunk):
            for p in probabilities:
                row[:k] |= rng.random(k) < p
        sizes = live.sum(axis=1).tolist()
        live[:, k] = True
        labels = np.zeros((trials, k + 1), dtype=np.int64)
        labels[:, :k] = masks
        live_body, labels_body = live[:, :k], labels[:, :k]
        # a live member is a union member whose label is nonzero
        np.logical_and(live_body, labels_body, out=live_body)
        starts = np.arange(0, trials * (k + 1), k + 1)
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
        # members are the prefix of its steps before the first -1
        steps = np.array(firsts, dtype=np.int64).reshape(-1, trials) - starts
        kept = np.append(masks, -1)[steps.T].tolist()
        labels_body.sort(axis=1)
        counts = 1 + (labels_body[:, 1:] != labels_body[:, :-1]).sum(axis=1)
        out.extend(
            (tuple(m for m in row if m >= 0), size, count)
            for row, size, count in zip(kept, sizes, counts.tolist())
        )
    return out


# ---------------------------------------------------------------------------
# tree construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BuildConfig:
    strategy: str = "sampling"
    probability: float | None = None  # overrides the per-node formula
    resample_cap: int = 64
    epsilon: Fraction = Fraction(1, 2)  # progress requirement per batch
    seed: int = 0
    delta: Fraction | None = None  # folding-sampling parameters
    ell: Fraction | None = None

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}; pick from {STRATEGIES}")
        if self.probability is not None and not 0 < self.probability <= 1:
            raise ValueError(f"probability must lie in (0, 1], got {self.probability}")
        if self.resample_cap < 1:
            raise ValueError("resample cap must be >= 1")
        eps = Fraction(self.epsilon)
        if not 0 < eps < 1:
            raise ValueError(f"epsilon must lie in (0, 1), got {eps}")
        object.__setattr__(self, "epsilon", eps)
        if self.delta is not None:
            delta = Fraction(self.delta)
            if not 0 < delta <= 1:
                raise ValueError(f"delta must lie in (0, 1], got {delta}")
            object.__setattr__(self, "delta", delta)
        if self.ell is not None:
            object.__setattr__(self, "ell", as_exponent(self.ell))


@dataclass(frozen=True)
class NodeRecord:
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

    def to_dict(self) -> dict:
        return {
            "node_id": self.node_id,
            "depth": self.depth,
            "sparsity_before": self.sparsity_before,
            "batch": list(self.batch),
            "batch_size": len(self.batch),
            "bucket_count": self.bucket_count,
            "max_child_sparsity": self.max_child_sparsity,
            "resamples": self.resamples,
            "target_met": self.target_met,
            "probabilities": list(self.probabilities),
            "clamped": self.clamped,
        }


@dataclass(frozen=True)
class BuildResult:
    tree: ParityDecisionTree
    log: tuple[NodeRecord, ...]
    config: BuildConfig

    def depth(self) -> int:
        return self.tree.depth()

    def log_jsonl(self) -> str:
        return "\n".join(json.dumps(r.to_dict(), sort_keys=True) for r in self.log)


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


def _heaviest_pair_direction(spectrum: FourierSpectrum, support_sorted: list[int]) -> int:
    """The smallest direction a ^ b among the support pairs with the
    heaviest |c_a c_b|, in O(k): that product is w1 * w2 for the two largest
    weights, reached inside the top-weight class when it holds two masks or
    more, else by the top mask with each mask of the second weight.  The
    smallest XOR within a sorted set is between neighbours."""
    weights = [abs(spectrum.coeffs[a]) for a in support_sorted]
    w1 = max(weights)
    top = [a for a, w in zip(support_sorted, weights) if w == w1]
    if len(top) > 1:
        return min(a ^ b for a, b in zip(top, top[1:]))
    w2 = max(w for w in weights if w != w1)
    return min(top[0] ^ a for a, w in zip(support_sorted, weights) if w == w2)


def _select_batch(
    spectrum: FourierSpectrum, config: BuildConfig, rng: np.random.Generator
) -> tuple[tuple[int, ...], int, int, bool, tuple[float, ...], bool]:
    """Choose a batch of independent parities whose span buckets the
    current support down to at most (1 - epsilon) * k, falling back to the
    best strictly-progressing batch once the resample cap is hit.

    Returns (batch, bucket_count, resamples, target_met, probabilities, clamped).
    """
    support_sorted = sorted(spectrum.coeffs)
    k = len(support_sorted)
    target = (1 - config.epsilon) * k

    if config.strategy in ("sampling", "folding-sampling"):
        requested, probs = _schedule_probabilities(config.strategy, k, config)
        clamped = requested != probs
        masks = np.array(support_sorted, dtype=np.int64)
        best: tuple[int, tuple[int, ...]] | None = None
        for attempt in range(1, config.resample_cap + 1):
            ((batch, _, bcount),) = _sampling_trial(masks, probs, [rng])
            if not batch:
                continue
            if best is None or bcount < best[0]:
                best = (bcount, batch)
            if bcount <= target:
                return batch, bcount, attempt, True, probs, clamped
        if best is not None and best[0] <= k - 1:
            return best[1], best[0], config.resample_cap, False, probs, clamped
        raise ResampleCapExceededError(
            config.resample_cap,
            best[1] if best else None,
            best[0] if best else None,
        )

    # the deterministic strategies fold one direction at a time into the
    # support's labels: max-coefficient once, greedy-min-bucket until the
    # target is met; each direction is a difference of two labels
    greedy = config.strategy == "greedy-min-bucket"
    labels = np.array(support_sorted, dtype=np.int64)  # distinct, sorted
    batch_list: list[int] = []
    while len(labels) > 1 and len(labels) > target and (greedy or not batch_list):
        if greedy:
            # largest label-pair class, which covers every achievable
            # single-query merge; argmax over sorted directions breaks ties
            # to the smallest
            directions, counts = direction_sums(labels)
            batch_list.append(int(directions[np.argmax(counts)]))
        else:
            batch_list.append(_heaviest_pair_direction(spectrum, support_sorted))
        label_step(labels, batch_list[-1])
        labels = _distinct(labels)
    bcount = len(labels)
    return tuple(batch_list), bcount, 1, bcount <= target, (), False


def _as_spectrum(f: TruthTable | FourierSpectrum) -> FourierSpectrum:
    return wht(f) if isinstance(f, TruthTable) else f


def build_pdt(
    f: TruthTable | FourierSpectrum, config: BuildConfig | None = None
) -> BuildResult:
    """Recursively build a tree computing f; the result is always verified
    sound by construction (restriction agrees with f on each branch).

    At a node of sparsity 1 the function is a signed character on the
    branch's subspace, closing the recursion; otherwise the configured
    strategy picks a batch of independent parities whose bucketing shrinks
    the support, both branch children are built on the exactly-restricted
    spectra, and the node log records the progress made.
    """
    config = config or BuildConfig()
    spectrum = _as_spectrum(f)
    if not spectrum.coeffs:
        raise DegenerateInputError("empty spectrum")
    n = spectrum.n
    full = 1 << n
    # no +-1 function has |c| > 2^n; within it restriction is exact in int64
    if any(abs(int(c)) > full for c in spectrum.coeffs.values()):
        raise DegenerateInputError("a coefficient has |c| > 2^n; input is not a +-1 function")
    rng = np.random.default_rng(config.seed)
    log: list[NodeRecord] = []
    next_id = 0

    def build(spec_cur: FourierSpectrum, depth_now: int) -> TreeNode:
        nonlocal next_id
        node_id = next_id
        next_id += 1
        if spec_cur.sparsity == 1:
            ((mask, c),) = spec_cur.coeffs.items()
            if abs(c) != full:
                raise DegenerateInputError(
                    f"sparsity-1 spectrum with |c| = {abs(c)} != 2^n; input is not a +-1 function"
                )
            sign = 1 if c > 0 else -1
            if mask == 0:
                return Leaf(sign)
            return Node(mask, Leaf(sign), Leaf(-sign))
        batch, bcount, resamples, target_met, probs, clamped = _select_batch(
            spec_cur, config, rng
        )
        children = restrict_batch(spec_cur, batch)

        def expand(i: int, j: int) -> TreeNode:
            # bit i of the child index j is the branch bit of batch[i]
            if i == len(batch):
                return build(children[j], depth_now + len(batch))
            return Node(batch[i], expand(i + 1, j), expand(i + 1, j | 1 << i))

        subtree = expand(0, 0)
        log.append(
            NodeRecord(
                node_id,
                depth_now,
                spec_cur.sparsity,
                batch,
                bcount,
                max(c.sparsity for c in children),
                resamples,
                target_met,
                probs,
                clamped,
            )
        )
        return subtree

    root = build(spectrum, 0)
    return BuildResult(ParityDecisionTree(n, root), tuple(log), config)


# ---------------------------------------------------------------------------
# Monte Carlo bucket experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrialStats:
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

    def to_dict(self) -> dict:
        out = {
            "trials": self.trials,
            "k": self.k,
            "probabilities": list(self.probabilities),
            "requested": list(self.requested),
            "clamped": self.clamped,
            "bucket_counts": list(self.bucket_counts),
            "sample_sizes": list(self.sample_sizes),
            "mean_bucket_fraction": str(self.mean_bucket_fraction),
            "mean_bucket_fraction_float": float(self.mean_bucket_fraction),
            "ci95": list(self.ci95),
        }
        if self.success_threshold is not None:
            out["success_threshold"] = str(self.success_threshold)
            out["success_fraction"] = str(self.success_fraction)
            out["success_fraction_float"] = float(self.success_fraction)
        return out

    CSV_HEADER = (
        "trials,k,probabilities,clamped,mean_bucket_fraction,ci95_low,ci95_high,"
        "success_threshold,success_fraction"
    )

    @staticmethod
    def csv_row(stats: dict) -> str:
        """The CSV_HEADER row of stats in to_dict() form."""
        return ",".join(
            [
                str(stats["trials"]),
                str(stats["k"]),
                ";".join(repr(p) for p in stats["probabilities"]),
                str(stats["clamped"]),
                repr(stats["mean_bucket_fraction_float"]),
                repr(stats["ci95"][0]),
                repr(stats["ci95"][1]),
                stats.get("success_threshold", ""),
                stats.get("success_fraction", ""),
            ]
        )


def _run_trials(
    spectrum: FourierSpectrum,
    requested: tuple[float, ...],
    trials: int,
    seed: int,
    success_threshold: Fraction | None = None,
) -> TrialStats:
    """Independent seeded trials of the sampling step at the requested
    probabilities, each clamped to 1; trial t's generator depends only on
    (seed, t), so results are identical under any execution order."""
    support_sorted = sorted(spectrum.coeffs)
    k = len(support_sorted)
    probabilities = tuple(min(1.0, p) for p in requested)
    steps = _sampling_trial(
        support_sorted, probabilities, (np.random.default_rng((seed, t)) for t in range(trials))
    )
    bucket_counts = [count for _, _, count in steps]
    sample_sizes = [size for _, size, _ in steps]
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
        hits = sum(1 for b in bucket_counts if b <= success_threshold)
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
    spectrum = _as_spectrum(f)
    k = spectrum.sparsity
    if k < 4:
        raise ValueError(f"need sparsity >= 4, got {k}")
    if trials < 1:
        raise ValueError("need at least one trial")
    if not 0 <= p <= 1:
        raise ValueError(f"probability must lie in [0, 1], got {p}")
    return _run_trials(spectrum, (float(p),), trials, seed)


def warmup_success_rate(
    f: TruthTable | FourierSpectrum, trials: int, seed: int
) -> TrialStats:
    """Fraction of trials where sampling at 2*sqrt(log2 k)/k^(1/4) buckets
    the support down to k/2; the probability is clamped to 1 at small k
    (recorded in the stats)."""
    spectrum = _as_spectrum(f)
    k = spectrum.sparsity
    if trials < 1:
        raise ValueError("need at least one trial")
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
    spectrum = _as_spectrum(f)
    k = spectrum.sparsity
    if trials < 1:
        raise ValueError("need at least one trial")
    delta = Fraction(delta)
    if not 0 < delta <= 1:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    achieved = folding_parameters(spectrum.support(), ell)
    if achieved.delta < delta:
        raise NotFoldingError(
            f"support achieves delta = {achieved.delta} at this exponent, below requested {delta}"
        )
    requested = _folding_probabilities(k, float(delta), float(achieved.ell))
    return _run_trials(spectrum, requested, trials, seed, k - delta * k / 6)


def check_calculus_inequality(d: int, p: Fraction | float) -> bool:
    """(1-p)^d <= 1 - p*d/2 for integer d >= 0 and p*d <= 1, evaluated in
    exact rational arithmetic."""
    if not isinstance(d, int) or d < 0:
        raise ValueError(f"d must be a non-negative integer, got {d!r}")
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if p * d > 1:
        raise ValueError(f"need p*d <= 1, got {p * d}")
    return (1 - p) ** d <= 1 - Fraction(1, 2) * p * d
