"""Bit-level linear algebra over F2 using int bitsets.

Vectors in F2^n are ints whose bit i is the coefficient of variable
x_{i+1}; n is capped at 24 so every mask fits comfortably in one word.
Truth tables, and so exhaustive checks over 2^n, stop at n = 20
(`spectral.MAX_TABLE_DIMENSION`).

`Echelon` is the one elimination kernel and the one basis type: reduced
row-echelon rows indexed by their pivots (leading bits, kept as one-bit
masks), with the mask of all pivots beside them, each row tagged with the
independent inserts summing to it (bit j: the j-th insert), so tags are
unique and a payload packed as one mask reads as parity(tag & payload):
constraint right-hand sides, or the sign constraints a witness combines.
No row has a bit at another row's pivot, so a label XORs in exactly the
rows whose pivots v has, one pass over the bits of v & pivots; an
independent insert also rewrites the rows that hold its new pivot, all
of them rows with higher pivots.  `rows` is the sorted view, (row,
pivot, tag) by decreasing pivot, built when it is read.  `row_reduce`
builds one from range-checked vectors, `coset_label` is its
`reduce_tagged` label, and `in_span` and `extend_basis` wrap that label.

`label_step` is the same elimination on a numpy array of labels, and
`labels` runs it once per row, XOR-ing the row's tag, or any payload in
its place, into the tag of each label it hits.  Folding in a nonzero
label, or the difference of two labels, keeps every label canonical for
the grown span, as neither has a bit at an existing pivot.  Given one
row per leading-axis slice, `label_step` steps every slice of a label
matrix at once: the Monte Carlo trials of an op fold their pivots in
together.

`Value` is the base of the library's plain value types.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

MAX_DIMENSION = 24


class DimensionMismatchError(ValueError):
    """A vector has bits set at positions >= n, or dimensions disagree."""


class Value:
    """The base of the library's plain value types: immutable, and made,
    compared, hashed and shown by the names in ``_fields``.

    ``__init__`` fills the instance ``__dict__`` from its positional
    arguments, one per field; a type that checks its arguments defines its
    own and ends by calling this one.  ``==`` compares the fields, arrays
    by ``np.array_equal``, and only between values of one type; ``hash``
    hashes the field tuple, so it raises TypeError where a field is an
    array or a dict.

    No value type of the library runs generated code when its class is
    made at import: the plain types subclass this one, whose methods are
    written out here, the records are ``typing.NamedTuple``s, and no
    module imports ``dataclasses``, whose frozen classes exec generated
    method source, about 0.7 ms each.
    """

    _fields: tuple[str, ...] = ()

    def __init__(self, *values) -> None:
        self.__dict__.update(zip(self._fields, values, strict=True))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} values are immutable")

    def _astuple(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(
            np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
            for a, b in zip(self._astuple(), other._astuple())
        )

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._astuple()))
        return f"{type(self).__name__}({fields})"


def check_vector(v: int, n: int) -> None:
    if not 0 <= n <= MAX_DIMENSION:
        raise DimensionMismatchError(f"dimension {n} outside [0, {MAX_DIMENSION}]")
    if v < 0 or v >> n:
        raise DimensionMismatchError(f"mask {v:#x} does not fit in {n} bits")


class Echelon:
    """Tagged reduced row-echelon form in F2^n: ``rows`` holds (row, pivot,
    tag) triples by decreasing pivot.  Inserts are not range checked, so
    systems may be wider than MAX_DIMENSION; `row_reduce` checks them."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.inserted = 0
        self._pivots = 0  # the OR of every row's pivot
        self._rows: dict[int, tuple[int, int]] = {}  # pivot -> (row, tag)

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> list[tuple[int, int, int]]:
        return [(row, pivot, tag) for pivot, (row, tag) in sorted(self._rows.items(), reverse=True)]

    def reduce_tagged(self, v: int) -> tuple[int, int]:
        """(label, tag): v plus the inserted vectors named by tag is label,
        the canonical representative of v modulo the row span."""
        tag = 0
        # the rows are reduced, so clearing one pivot never sets another:
        # the pivots to clear are the ones v has
        hit = v & self._pivots
        while hit:
            pivot = hit & -hit
            hit ^= pivot
            row, row_tag = self._rows[pivot]
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
        rows = self._rows
        above = self._pivots & -(pivot << 1)  # a row's bits are at most its pivot
        while above:
            p = above & -above
            above ^= p
            r, t = rows[p]
            if r & pivot:
                rows[p] = (r ^ red, t ^ tag)
        rows[pivot] = (red, tag)
        self._pivots |= pivot
        return 0


def row_reduce(vectors: Iterable[int], n: int) -> Echelon:
    """Reduced row-echelon basis of the span of ``vectors`` in F2^n."""
    echelon = Echelon(n)
    for v in vectors:
        check_vector(v, n)
        echelon.insert(v)
    return echelon


def in_span(v: int, basis: Echelon) -> bool:
    return coset_label(v, basis) == 0


def coset_label(v: int, basis: Echelon) -> int:
    """Canonical representative of the coset span(basis) + v: the unique
    minimal coset element, so labels of u and v agree exactly when u + v
    lies in the span."""
    check_vector(v, basis.n)
    return basis.reduce_tagged(v)[0]


def labels(masks: np.ndarray, rows: Iterable[tuple[int, int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """(labels, tags) of int64 masks against (row, pivot, tag) rows, as
    ``Echelon.reduce_tagged`` gives them elementwise; ``rows`` is
    ``Echelon.rows``, or its triples with each tag replaced by a payload,
    and every tag must fit int64."""
    out = np.array(masks, dtype=np.int64)
    tags = np.zeros_like(out)
    for row, _, tag in rows:
        hit = label_step(out, row)
        if tag:
            tags ^= hit * tag
    return out, tags


def label_step(labels: np.ndarray, row: int | np.ndarray) -> np.ndarray:
    """XOR ``row`` into every label that has its leading bit, in place;
    returns the hit per label as bools.  ``labels`` is a signed integer
    array, int64 or, for masks of at most MAX_DIMENSION bits, int32; rows
    are cast to its dtype.

    ``row`` may also be an array of rows, one per leading-axis slice of
    ``labels``, where row 0 means no step.  A label has a nonzero row's
    leading bit exactly when XOR-ing the row in makes it smaller, so the
    step is an elementwise minimum, exact in integers and free of any
    bit-length computation; a row 0 leaves every label as it is.
    """
    row = np.asarray(row, dtype=labels.dtype)
    stepped = labels ^ row.reshape(row.shape + (1,) * (labels.ndim - row.ndim))
    hit = stepped < labels
    np.minimum(labels, stepped, out=labels)
    return hit


def extend_basis(basis: Echelon, v: int) -> Echelon | None:
    """Basis of span(basis) + v, or None when v already lies in the span."""
    rows = (row for row, _, _ in basis.rows)
    return row_reduce((*rows, v), basis.n) if coset_label(v, basis) else None
