"""Bit-level linear algebra over F2 using int bitsets.

Vectors in F2^n are ints whose bit i is the coefficient of variable
x_{i+1}; n is capped at 24 so every mask fits comfortably in one word
and exhaustive checks over 2^n stay desk-scale.

`Echelon` is the one elimination kernel: reduced row-echelon rows, pivots
(leading bits, kept as one-bit masks) strictly decreasing, each row tagged
with the independent inserts summing to it (bit j: the j-th insert), so
tags are unique and a payload packed as one mask reads as
parity(tag & payload): constraint right-hand sides, or the sign
constraints a witness combines.  A label or an insert is one tagged
O(rank) pass; an independent insert adds a pass over the rows and an
O(rank log rank) re-sort.

`label_step` is the same elimination on a numpy array of labels, and
`labels` runs it once per row.  Folding in a nonzero label, or the
difference of two labels, keeps every label canonical for the grown
span, as neither has a bit at an existing pivot.  Given one row per
leading-axis slice, `label_step` steps every slice of a label matrix at
once: the Monte Carlo trials of an op fold their pivots in together.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

MAX_DIMENSION = 24


class DimensionMismatchError(ValueError):
    """A vector has bits set at positions >= n, or dimensions disagree."""


def check_vector(v: int, n: int) -> None:
    if not 0 <= n <= MAX_DIMENSION:
        raise DimensionMismatchError(f"dimension {n} outside [0, {MAX_DIMENSION}]")
    if v < 0 or v >> n:
        raise DimensionMismatchError(f"mask {v:#x} does not fit in {n} bits")


@dataclass(frozen=True)
class Gf2Basis:
    """Reduced row-echelon basis: leading bits strictly decreasing, and no
    row has a bit at another row's leading position."""

    n: int
    rows: tuple[int, ...]
    # (row, pivot, 0) per row, the layout of Echelon.rows
    entries: tuple[tuple[int, int, int], ...] = field(init=False, repr=False, compare=False)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def __post_init__(self) -> None:
        entries = []
        lead = 1 << self.n
        for row in self.rows:
            check_vector(row, self.n)
            if row == 0 or row >= lead:
                raise ValueError("basis rows must be nonzero with decreasing leading bits")
            lead = 1 << (row.bit_length() - 1)
            entries.append((row, lead, 0))
        object.__setattr__(self, "entries", tuple(entries))


class Echelon:
    """Tagged reduced row-echelon form: ``rows`` holds (row, pivot, tag)
    triples by decreasing pivot.  Vectors are not range checked, so
    systems may be wider than MAX_DIMENSION."""

    def __init__(self) -> None:
        self.rows: list[tuple[int, int, int]] = []
        self.inserted = 0

    def reduce_tagged(self, v: int) -> tuple[int, int]:
        """(label, tag): v plus the inserted vectors named by tag is label,
        the canonical representative of v modulo the row span."""
        tag = 0
        for row, pivot, row_tag in self.rows:
            if v & pivot:
                v ^= row
                tag ^= row_tag
        return v, tag

    def insert(self, v: int) -> int:
        """Insert v as vector number ``inserted``; 0 when it adds a row, else
        the nonzero tag of the inserts, v's own bit included, summing to 0."""
        red, tag = self.reduce_tagged(v)
        tag |= 1 << self.inserted
        self.inserted += 1
        if not red:
            return tag
        pivot = 1 << (red.bit_length() - 1)
        rows = [(r ^ red, p, t ^ tag) if r & pivot else (r, p, t) for r, p, t in self.rows]
        self.rows = sorted(rows + [(red, pivot, tag)], reverse=True)  # pivots are distinct
        return 0


def row_reduce(vectors: Iterable[int], n: int) -> Gf2Basis:
    """Reduced row-echelon basis of the span of ``vectors`` in F2^n."""
    echelon = Echelon()
    for v in vectors:
        check_vector(v, n)
        echelon.insert(v)
    return Gf2Basis(n, tuple(row for row, _, _ in echelon.rows))


def in_span(v: int, basis: Gf2Basis) -> bool:
    return coset_label(v, basis) == 0


def coset_label(v: int, basis: Gf2Basis) -> int:
    """Canonical representative of the coset span(basis) + v.

    Full reduction against a reduced echelon basis yields the unique
    minimal coset element, so labels of u and v agree exactly when
    u + v lies in the span.
    """
    check_vector(v, basis.n)
    # the rows are reduced, so clearing one pivot never sets another: one pass
    for row, pivot, _ in basis.entries:
        if v & pivot:
            v ^= row
    return v


def labels(masks: np.ndarray, rows: Iterable[tuple[int, int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """(labels, tags) of int64 masks against (row, pivot, tag) rows, as
    ``Echelon.reduce_tagged`` gives them elementwise; ``rows`` is
    ``Echelon.rows`` or ``Gf2Basis.entries`` and every tag must fit int64."""
    out = np.array(masks, dtype=np.int64)
    tags = np.zeros_like(out)
    for row, _, tag in rows:
        hit = label_step(out, row)
        if tag:
            tags ^= hit * tag
    return out, tags


def label_step(labels: np.ndarray, row: int | np.ndarray) -> np.ndarray:
    """XOR ``row`` into every int64 label that has its leading bit, in
    place; returns the hit per label as bools.

    ``row`` may also be an int64 array of rows, one per leading-axis slice
    of ``labels``, where row 0 means no step.  A label has a nonzero row's
    leading bit exactly when XOR-ing the row in makes it smaller, so the
    step is an elementwise minimum, exact in integers and free of any
    bit-length computation; a row 0 leaves every label as it is.
    """
    row = np.asarray(row, dtype=np.int64)
    stepped = labels ^ row.reshape(row.shape + (1,) * (labels.ndim - row.ndim))
    hit = stepped < labels
    np.minimum(labels, stepped, out=labels)
    return hit


def extend_basis(basis: Gf2Basis, v: int) -> Gf2Basis | None:
    """Basis of span(basis) + v, or None when v already lies in the span."""
    extended = row_reduce((*basis.rows, v), basis.n)
    return extended if extended.rank > basis.rank else None
