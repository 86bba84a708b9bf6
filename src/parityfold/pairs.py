"""The pair kernel: the pairs (a, b), a before b, of k distinct masks >= 0,
grouped by direction a ^ b, and the WHT it shares with restriction and
the spectral transforms.

A pair list has one form, `direction_pairs`' three int64 arrays
(direction, a, b): a row per pair whose direction is asked for, grouped
by ascending direction and row-major within one.  It is the one owner
of the PAIR_LIST_GUARD refusal (`pair lists disabled for k > 4096`),
made before any pair is listed, whatever the directions asked for, so
fold's `pairs` block and the sign system refuse alike.

`fwht_inplace` is the library's one WHT.  Level h (a power of two) pairs
rows h apart, and its contiguous blocks are h * columns cells wide.  While they are at most RADIX_WIDTH = 64 cells wide, it takes
three levels at a time, one int64 `np.matmul` by the 8x8
Sylvester-Hadamard matrix (its 2x2 or 4x4 block for the last one or two
levels): the first nine levels of a one-column table such as a truth
table (all of it up to n = 9), the first six of a table of up to 8
columns and the first three of one of up to 64, such as small (2^b,
buckets) restriction tables.  Wider levels, and tables of more than 64
columns from the start, take the butterfly, a level at a time: there a
matmul's eight products per cell cost more than the numpy calls it saves.

Both are exact with no float and no BLAS.  numpy's integer matmul, like
the butterfly's + and -, is arithmetic mod 2^64, so either computes the
transform in Z/2^64, and every final value in [-2^63, 2^63) comes back
exact whatever the partial sums in between do.  A radix step's output is
the butterfly's value three levels later, so the bounds below on final
values hold for both.

Per-direction sums take one of two routes, chosen by `dense_route` alone:

- Blocks: `pair_blocks`, the one sparse pair listing, in blocks of whole
  rows of at most BLOCK_ENTRIES = 2^16 pairs.  A sum sorts all of a call's
  pair keys once, O(k^2 log k) numpy work, nothing sized 2^n.
- Dense: XOR autocorrelations on (2^n, columns) int64 tables, where n is
  the bit length of the largest mask, O(n 2^n) work.  Over ordered pairs
  sum_{a^b=g} w_a w_b = WHT(WHT(w)^2)[g] / 2^n; it is halved for
  unordered pairs and g = 0 (the diagonal) is dropped.  It runs when
  n 2^n < k^2 / 2.

`top_directions`, the kernel of a greedy round, takes a frontier of
segments.  Each dense-route segment takes the argmax of its own dense
counts.  The listed pairs of all the others are keyed segment << m |
direction, m the widest sparse segment's bit length, and counted at once:
one bincount into a (segments, 2^m) table while it has at most
BLOCK_ENTRIES cells, else one sort of the keys, as the blocks' sums do
(masks of 17 to 24 bits, or more than 2^16 / 2^m sparse segments).

Weighted sums are exact in int64 on the blocks while S = sum w^2 < 2^63: a
mask lies in at most one pair per direction, so every |w_a w_b| and every
partial sum of one direction is at most S/2.  `_weights` checks S
exactly.  On the dense route Parseval bounds every value of either
transform by 2^n S, so it also needs 2^n S < 2^63, checked in Python
integers; above that the blocks run instead.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

BLOCK_ENTRIES = 1 << 16
RADIX_WIDTH = 64
# pair lists, which hold up to k^2 / 2 rows, are refused above this k
PAIR_LIST_GUARD = 1 << 12
# the 8x8 Sylvester-Hadamard matrix, (-1)^<s, t>; its leading 2x2 and 4x4
# blocks are the smaller ones
_HADAMARD = np.array([[1 - 2 * ((s & t).bit_count() & 1) for t in range(8)] for s in range(8)], dtype=np.int64)


class WeightBoundError(ValueError):
    """The weights' squares sum to 2^63 or more, so int64 pair sums could wrap."""


def fwht_inplace(arr: np.ndarray) -> None:
    """Unnormalized WHT along axis 0 (length a power of two) of a
    C-contiguous int64 array, so that every reshape is a view: radix steps
    while a level's blocks are at most RADIX_WIDTH cells wide, butterflies
    after."""
    rows, width = len(arr), arr.size // len(arr)  # width: cells per row
    h = 1
    while h < rows and h * width <= RADIX_WIDTH:
        r = min(3, (rows // h).bit_length() - 1)  # the bits left, up to three
        view = arr.reshape(rows // (h << r), 1 << r, h * width)
        view[...] = np.matmul(_HADAMARD[: 1 << r, : 1 << r], view)
        h <<= r
    while h < rows:
        view = arr.reshape(rows // (2 * h), 2, h * width)
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


def pair_blocks(masks: np.ndarray, bounds: tuple | np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(a, b, masks[a] ^ masks[b]) for the index pairs a < b within each
    segment masks[bounds[i]:bounds[i + 1]], row-major, in blocks of whole rows
    of at most BLOCK_ENTRIES pairs (or one row)."""
    bounds = np.asarray(bounds)
    rows = np.arange(bounds[0], bounds[-1])
    later = bounds[1:].repeat(bounds[1:] - bounds[:-1]) - 1 - rows  # the partners after each mask
    ends = later.cumsum()
    lo = 0
    while lo < len(rows):
        hi = max(lo + 1, int(ends.searchsorted(ends[lo] - later[lo] + BLOCK_ENTRIES, "right")))
        n = later[lo:hi]
        a = rows[lo:hi].repeat(n)
        b = a + np.arange(1, len(a) + 1) - (n.cumsum() - n).repeat(n)
        yield a, b, masks.take(a) ^ masks.take(b)
        lo = hi


def _sum_by(keys: np.ndarray, values: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct keys (all >= 0), as int64, and per key its count, or
    its sum of values.  Both sort `keys` in place.

    Counts take any keys, such as segment << m | direction.  Sums take
    int64 keys packed as key << w | position, w = len(keys).bit_length(),
    where position indexes values: keys below 2^(63 - w), as directions
    below 2^24 are for any array that fits in memory.  They gather values
    BLOCK_ENTRIES keys at a time, so neither the unpacked keys nor the
    values in key order are ever whole arrays."""
    keys.sort()
    head = np.ones(len(keys), dtype=bool)
    if values is None:
        np.not_equal(keys[1:], keys[:-1], out=head[1:])
        starts = np.flatnonzero(head)
        return keys[starts].astype(np.int64), np.diff(starts, append=len(keys))
    w = len(keys).bit_length()
    # packed neighbours differ in their key exactly where their XOR reaches bit w
    np.greater_equal(keys[1:] ^ keys[:-1], 1 << w, out=head[1:])
    starts = np.flatnonzero(head)
    distinct = keys[starts] >> w
    sums = np.empty(len(starts), dtype=np.int64)
    for lo in range(0, len(starts), BLOCK_ENTRIES):
        first = starts[lo : lo + BLOCK_ENTRIES]
        end = starts[lo + BLOCK_ENTRIES] if lo + BLOCK_ENTRIES < len(starts) else len(keys)
        positions = keys[first[0] : end] & ((1 << w) - 1)
        sums[lo : lo + len(first)] = np.add.reduceat(values.take(positions), first - first[0])
    return distinct, sums


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
    # every pair's direction, written block by block into one array: int32
    # unless a mask has 32 bits or more (a spectrum's have at most 24);
    # weighted, int64 and packed with the pair's position, as _sum_by takes it
    wide = w is not None or masks.max() >= 1 << 31
    keys = np.empty(k * (k - 1) // 2, dtype=np.int64 if wide else np.int32)
    values = None if w is None else np.empty(len(keys), dtype=np.int64)
    lo = 0
    for a, b, xor in pair_blocks(masks, (0, k)):
        hi = lo + len(xor)
        keys[lo:hi] = xor
        if w is not None:
            keys[lo:hi] <<= len(keys).bit_length()
            keys[lo:hi] |= np.arange(lo, hi)
            np.multiply(w.take(a), w.take(b), out=values[lo:hi])
        lo = hi
    return _sum_by(keys, values)


def top_directions(masks: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Per segment masks[bounds[i]:bounds[i + 1]] of >= 2 sorted distinct
    masks below 2^24, the direction of the most pairs, the smallest on a
    tie.  Segments on the dense route take the argmax of their
    `direction_sums` counts; the rest count all their pairs at once, keyed
    segment << m | direction for m the widest of their bit lengths: one
    bincount into a (segments, 2^m) table when it has at most
    BLOCK_ENTRIES cells, else one sort of the keys."""
    sizes = bounds[1:] - bounds[:-1]
    bits = np.frexp(masks[bounds[1:] - 1])[1]
    dense = dense_route(bits, sizes)
    out = np.zeros(len(sizes), dtype=np.int64)
    for i in dense.nonzero()[0].tolist():
        directions, counts = direction_sums(masks[bounds[i] : bounds[i + 1]])
        out[i] = directions[np.argmax(counts)]
    if dense.all():
        return out
    sparse = (~dense).nonzero()[0]
    m = int(bits[sparse].max())
    seg = np.arange(len(sparse)).repeat(sizes[sparse])
    listed = pair_blocks(masks[(~dense).repeat(sizes)], np.concatenate(([0], sizes[sparse].cumsum())))
    keys = np.concatenate([seg.take(a) << m | xor for a, _, xor in listed])
    if len(sparse) << m <= BLOCK_ENTRIES:
        table = np.bincount(keys, minlength=len(sparse) << m).reshape(len(sparse), 1 << m)
        out[sparse] = table.argmax(axis=1)
        return out
    keys, counts = _sum_by(keys, None)
    # by segment, then the most pairs; the stable sort keeps the smallest
    # direction first, and each segment starts where it does in the sorted keys
    order = np.lexsort((-counts, keys >> m))
    out[sparse] = keys[order[(keys >> m).searchsorted(np.arange(len(sparse)))]] & (1 << m) - 1
    return out


def heavy_partners(
    masks: np.ndarray, directions: np.ndarray, heavy: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per mask of the sorted distinct masks: how many partners b lie in a
    heavy direction (heavy[i] marks the realized directions[i]), and the
    index of the smallest such partner (0 when there is none)."""
    n = _dense_bits(masks, max(len(masks), len(directions)))
    if n is None:
        k = len(masks)
        counts, first = np.zeros(k, dtype=np.int64), np.full(k, k)
        for a, b, xor in pair_blocks(masks, (0, k)):
            hit = heavy[directions.searchsorted(xor)]  # every pair's XOR is realized
            side, partner = np.concatenate((a[hit], b[hit])), np.concatenate((b[hit], a[hit]))
            counts += np.bincount(side, minlength=k)
            np.minimum.at(first, side, partner)
        return counts, np.where(counts > 0, first, 0)
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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A pair list: (direction, a, b) as three int64 arrays, a row per pair
    (a, b), a before b, of the sorted int64 masks whose direction a ^ b is
    in the sorted array `directions`; grouped by ascending direction,
    row-major within a direction.  Refused above PAIR_LIST_GUARD masks,
    whatever the directions."""
    if len(masks) > PAIR_LIST_GUARD:
        raise ValueError(f"pair lists disabled for k > {PAIR_LIST_GUARD}")
    found = [(np.empty(0, dtype=np.int64),) * 3]
    for a, b, xor in pair_blocks(masks, (0, len(masks))) if len(directions) else ():
        keep = directions[directions.searchsorted(xor).clip(max=len(directions) - 1)] == xor
        found.append((xor[keep], masks[a[keep]], masks[b[keep]]))  # row-major
    g, a, b = map(np.concatenate, zip(*found))
    order = np.argsort(g, kind="stable")
    return g[order], a[order], b[order]
