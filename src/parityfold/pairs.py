"""The pair kernel: the pairs (a, b), a before b, of distinct masks >= 0,
grouped by direction a ^ b in row blocks of at most BLOCK_ENTRIES = 2^16
int64 entries (nothing is sized 2^n), O(k^2 log k) numpy work.

Weighted sums are exact in int64 while S = sum w^2 < 2^63: a mask lies in
at most one pair per direction, so every |w_a w_b| and every partial sum
of one direction is at most S/2.  `int64_weights` checks S exactly.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

BLOCK_ENTRIES = 1 << 16


class WeightBoundError(ValueError):
    """The weights' squares sum to 2^63 or more, so int64 pair sums could wrap."""


def int64_weights(weights: Iterable[int]) -> np.ndarray:
    """The weights as int64, once sum w^2 < 2^63 is checked in Python integers."""
    weights = [int(w) for w in weights]  # numpy integers would wrap in w * w
    total = sum(w * w for w in weights)
    if total >= 1 << 63:
        raise WeightBoundError(f"sum of squared weights {total} >= 2^63")
    return np.array(weights, dtype=np.int64)


def xor_blocks(masks: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(rows, masks[rows, None] ^ masks, upper) per block of <= BLOCK_ENTRIES
    entries (or one row); upper marks the pairs rows[r] < j."""
    k = len(masks)
    step = max(1, BLOCK_ENTRIES // k)
    for lo in range(0, k, step):
        rows = np.arange(lo, min(lo + step, k))
        yield rows, masks[lo : lo + step, None] ^ masks, np.arange(k) > rows[:, None]


def _sum_by(keys: np.ndarray, values: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct keys (all >= 0) and per key its count, or its sum of values."""
    if values is None:
        return np.unique(keys, return_counts=True)
    order = np.argsort(keys)
    keys = keys[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    return keys[starts], np.add.reduceat(values[order], starts)


def direction_sums(
    masks: np.ndarray, weights: Iterable[int] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Sorted directions of the pairs of k >= 2 masks and, per direction, the
    number of pairs or, given one weight per mask, the exact sum of w_a * w_b."""
    w = None if weights is None else int64_weights(weights)
    found = [
        _sum_by(xor[upper], None if w is None else (w[rows, None] * w)[upper])
        for rows, xor, upper in xor_blocks(masks)
    ]
    directions, sums = map(np.concatenate, zip(*found))
    return _sum_by(directions, sums) if len(found) > 1 else (directions, sums)
