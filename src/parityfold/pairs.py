"""The pair kernel: the pairs (a, b), a before b, of k distinct masks >= 0,
grouped by direction a ^ b, and the WHT butterfly it shares with
restriction and the spectral transforms.

Per-direction sums take one of two routes, chosen by `dense_route` alone:

- Blocks: row blocks of at most BLOCK_ENTRIES = 2^16 int64 pair entries,
  O(k^2 log k) numpy work, nothing sized 2^n.
- Dense: XOR autocorrelations on (2^n, columns) int64 tables, where n is
  the bit length of the largest mask, O(n 2^n) work.  Over ordered pairs
  sum_{a^b=g} w_a w_b = WHT(WHT(w)^2)[g] / 2^n; it is halved for
  unordered pairs and g = 0 (the diagonal) is dropped.  It runs when
  n 2^n < k^2 / 2.

Weighted sums are exact in int64 on the blocks while S = sum w^2 < 2^63: a
mask lies in at most one pair per direction, so every |w_a w_b| and every
partial sum of one direction is at most S/2.  `_weights` checks S
exactly.  On the dense route Parseval bounds every butterfly partial sum
by 2^n S, so it also needs 2^n S < 2^63, checked in Python integers; above
that the blocks run instead.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

BLOCK_ENTRIES = 1 << 16


class WeightBoundError(ValueError):
    """The weights' squares sum to 2^63 or more, so int64 pair sums could wrap."""


def fwht_inplace(arr: np.ndarray) -> None:
    """Unnormalized WHT along axis 0 (length a power of two) of a
    C-contiguous array, so that every reshape is a view."""
    h = 1
    while h < len(arr):
        view = arr.reshape(len(arr) // (2 * h), 2, h, *arr.shape[1:])
        top = view[:, 0].copy()
        view[:, 0] += view[:, 1]
        view[:, 1] = top - view[:, 1]
        h <<= 1


def dense_route(n: int, k: int) -> bool:
    """Whether k masks below 2^n take the dense route: n 2^n < k^2 / 2."""
    return 2 * n << n < k * k


def _weights(weights: Iterable[int]) -> tuple[np.ndarray, int]:
    weights = [int(w) for w in weights]  # numpy integers would wrap in w * w
    total = sum(w * w for w in weights)
    if total >= 1 << 63:
        raise WeightBoundError(f"sum of squared weights {total} >= 2^63")
    return np.array(weights, dtype=np.int64), total


def _dense_bits(masks: np.ndarray, bound: int) -> int | None:
    """n, the bit length of the largest mask, when the masks take the dense
    route and 2^n * bound < 2^63; None when they take the blocks."""
    n = int(masks.max()).bit_length()
    return n if dense_route(n, len(masks)) and bound << n < 1 << 63 else None


def _table(n: int, *columns: tuple[np.ndarray, np.ndarray | int]) -> np.ndarray:
    """A (2^n, len(columns)) int64 table; column j holds values at rows."""
    table = np.zeros((1 << n, len(columns)), dtype=np.int64)
    for j, (rows, values) in enumerate(columns):
        table[rows, j] = values
    return table


def xor_blocks(masks: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(rows, masks[rows, None] ^ masks, upper) per block of <= BLOCK_ENTRIES
    entries (or one row); upper marks the pairs rows[r] < j."""
    k = len(masks)
    step = max(1, BLOCK_ENTRIES // k)
    for lo in range(0, k, step):
        rows = np.arange(lo, min(lo + step, k))
        yield rows, masks[lo : lo + step, None] ^ masks, np.arange(k) > rows[:, None]


def _sum_by(keys: np.ndarray, values: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct keys (all >= 0) and per key its count, or its sum of values.

    Sums sort one packed int64 array in place, key << w | position with
    w = len(keys).bit_length(), and read the order back from its low w
    bits; keys are directions below 2^24, so it fits in 63 bits for any
    array that fits in memory."""
    if values is None:
        return np.unique(keys, return_counts=True)
    w = len(keys).bit_length()
    packed = keys << w
    packed |= np.arange(len(keys))
    packed.sort()
    keys = packed >> w
    head = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=head[1:])
    starts = np.flatnonzero(head)
    return keys[starts], np.add.reduceat(values.take(packed & ((1 << w) - 1)), starts)


def direction_sums(
    masks: np.ndarray, weights: Iterable[int] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Sorted directions of the pairs of k >= 2 masks and, per direction, the
    number of pairs or, given one weight per mask, the exact sum of w_a * w_b."""
    k = len(masks)
    w, total = (None, k) if weights is None else _weights(weights)
    n = _dense_bits(masks, max(k, total))
    if n is not None:
        table = _table(n, (masks, 1)) if w is None else _table(n, (masks, 1), (masks, w))
        fwht_inplace(table)
        table *= table
        fwht_inplace(table)
        table >>= n + 1  # ordered pairs to unordered; both divisions are exact
        directions = np.flatnonzero(table[1:, 0]) + 1
        return directions, table[directions, -1]
    found = [
        _sum_by(xor[upper], None if w is None else (w[rows, None] * w)[upper])
        for rows, xor, upper in xor_blocks(masks)
    ]
    directions, sums = map(np.concatenate, zip(*found))
    return _sum_by(directions, sums) if len(found) > 1 else (directions, sums)


def heavy_partners(
    masks: np.ndarray, directions: np.ndarray, heavy: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per mask of the sorted distinct masks: how many partners b lie in a
    heavy direction (heavy[i] marks the realized directions[i]), and the
    index of the smallest such partner (0 when there is none)."""
    n = _dense_bits(masks, max(len(masks), len(directions)))
    if n is None:
        counts, first = [], []
        for rows, xor, _ in xor_blocks(masks):
            # every off-diagonal entry is a realized direction; the diagonal
            # (0, below every direction) lands on index 0 and is cleared
            hit = heavy[np.searchsorted(directions, xor)]
            hit[np.arange(len(rows)), rows] = False
            counts.append(hit.sum(axis=1))
            first.append(hit.argmax(axis=1))
        return np.concatenate(counts), np.concatenate(first)
    # counts are the XOR convolution of the support's and the heavy
    # directions' indicators, read at the support; partial sums stay within
    # 2^n * max(k, directions) by Cauchy-Schwarz and Parseval
    table = _table(n, (masks, 1), (directions[heavy], 1))
    fwht_inplace(table)
    product = table[:, 0] * table[:, 1]
    fwht_inplace(product)
    counts = product[masks] >> n
    # smallest partners: sorted column chunks of doubling width (within
    # BLOCK_ENTRIES entries); a row leaves once it finds one
    is_heavy = np.zeros(1 << n, dtype=bool)
    is_heavy[directions[heavy]] = True
    first = np.zeros(len(masks), dtype=np.int64)
    rows = np.flatnonzero(counts)
    lo, width = 0, 1
    while len(rows):
        xor = masks[rows, None] ^ masks[lo : lo + width]
        hit = is_heavy[xor]  # the diagonal's 0 is no direction
        found = hit.any(axis=1)
        first[rows[found]] = lo + hit[found].argmax(axis=1)
        rows, lo = rows[~found], lo + width
        width = min(2 * width, max(1, BLOCK_ENTRIES // max(1, len(rows))))
    return counts, first


def direction_pairs(
    masks: np.ndarray, directions: np.ndarray
) -> dict[int, tuple[tuple[int, int], ...]]:
    """The pairs (a, b), a before b, of each realized direction in the
    sorted array `directions`, in row-major order, keyed in direction order."""
    if not len(directions):
        return {}
    found = []
    for rows, xor, upper in xor_blocks(masks):
        at = np.searchsorted(directions, xor).clip(max=len(directions) - 1)
        keep = upper & (directions[at] == xor)
        r, j = np.nonzero(keep)
        found.append((xor[keep], masks[rows[r]], masks[j]))  # row-major
    g, a, b = map(np.concatenate, zip(*found))
    order = np.argsort(g, kind="stable")  # grouped by direction, row-major within
    g, flat = g[order], list(zip(a[order].tolist(), b[order].tolist()))
    starts = np.flatnonzero(np.diff(g, prepend=-1)).tolist()
    ends = starts[1:] + [len(flat)]
    return {int(g[s]): tuple(flat[s:e]) for s, e in zip(starts, ends)}
