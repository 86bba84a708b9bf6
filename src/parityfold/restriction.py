"""Affine-subspace machinery: spectrum restriction and bucket complexity.

A constraint system {(g_i, b_i)} carves out the affine subspace
H = {x | <g_i, x> = b_i for all i}.  Restricting a spectrum to H groups
its support into cosets of span{g_i} ("buckets"); the restricted
spectrum keeps the ambient dimension and uses each bucket's canonical
coset label as its character, so recursive restriction stays in one
index space.

Restrictions label the support once with `gf2.labels`.  `restrict` gives
each echelon row its right-hand-side bit parity(tag & bits) as its tag, so
a mask's tag is its sign flip on H; sums are Python ints.
`restrict_frontier` restricts many spectra, each to all 2^b subspaces of
its batch, with one (2^b, buckets) table and one WHT along the tag axis
(`spectral.fwht_inplace`); `restrict_batch` is its one-spectrum form.
Its bucket keys come from `pairs._distinct`, so this module loads the
pair kernel; the builder imports it only when a build runs.

`bucket_complexity` partitions a support of k masks into the cosets of
span(Gamma).  Its `BucketReport` carries h, the masks that share a
bucket, and the identification bound k - ceil(h/2) on the bucket count
(singletons number k - h, shared buckets at most h/2), and refuses a
count above that bound when it is made.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

# bench/tracing.py binds coset_label and in_span here by name; they are otherwise unused
from .gf2 import MAX_DIMENSION, Echelon, Value, check_vector, coset_label, in_span, labels, row_reduce
from .pairs import _distinct
from .params import CheckFailedError
from .spectral import FourierSpectrum, fwht_inplace


class InconsistentConstraintsError(ValueError):
    """Some F2-combination of the constraints forces 0 = 1."""


class IdentificationBoundError(CheckFailedError):
    """A bucket count broke the identification bound: an implementation bug."""


def _eliminate(constraints: Iterable[tuple[int, int]], n: int) -> tuple[Echelon, int, bool]:
    """(echelon, bits, consistent) of (mask, bit) constraints, the masks
    inserted without range checks."""
    echelon, bits, consistent = Echelon(n), 0, True
    for i, (mask, bit) in enumerate(constraints):
        bits |= bit << i
        if tag := echelon.insert(mask):  # constraints whose masks sum to 0
            consistent &= not (tag & bits).bit_count() & 1
    return echelon, bits, consistent


def check_consistent(constraints: Iterable[tuple[int, int]]) -> None:
    """Refuse (mask, bit) constraints some F2-combination of which forces
    0 = 1.  The masks are not range checked: whether a system is
    consistent does not depend on the n its masks fit in."""
    if not _eliminate(constraints, 0)[2]:
        raise InconsistentConstraintsError("constraint system forces 0 = 1")


class AffineConstraintSystem(Value):
    """List of (mask, bit) parity constraints plus their elimination kernel.

    Bit i of ``bits`` is constraint i's right-hand side, so the value a
    reduction's combination of constraints takes on H is parity(tag & bits).
    Inconsistent systems can be constructed (e.g. loaded from a file) but
    raise as soon as they are used to restrict.  Its fields are n and the
    constraints, which fix the rest.
    """

    _fields = ("n", "constraints")

    def __init__(self, n: int, constraints: tuple[tuple[int, int], ...]) -> None:
        for mask, bit in constraints:
            check_vector(mask, n)
            if bit not in (0, 1):
                raise ValueError(f"constraint bit must be 0 or 1, got {bit!r}")
        super().__init__(n, constraints)
        echelon, bits, consistent = _eliminate(constraints, n)
        self.__dict__.update(echelon=echelon, bits=bits, consistent=consistent)

    @property
    def codimension(self) -> int:
        return self.echelon.rank

    def contains(self, x: int) -> bool:
        check_vector(x, self.n)
        return all((mask & x).bit_count() & 1 == bit for mask, bit in self.constraints)


def restrict(
    spectrum: FourierSpectrum, system: AffineConstraintSystem
) -> FourierSpectrum:
    """Spectrum of the restriction of f to the system's affine subspace.

    Each support element a contributes c_a * (-1)^<a - label(a), x> to its
    bucket's label; contributions that cancel exactly are dropped, so the
    output sparsity can be strictly below the bucket count.  The output
    agrees with f pointwise on the subspace.
    """
    if spectrum.n != system.n:
        raise ValueError(f"dimension mismatch: spectrum n={spectrum.n}, system n={system.n}")
    if not system.consistent:
        raise InconsistentConstraintsError("constraint system forces 0 = 1")
    # <mask - label, x> on H is the sum of the right-hand sides of the rows hit
    rows = [(row, pivot, (tag & system.bits).bit_count() & 1) for row, pivot, tag in system.echelon.rows]
    label, flip = labels(spectrum.masks, rows)
    out: dict[int, int] = {}
    for a, negate, c in zip(label.tolist(), flip.tolist(), spectrum.coefficients.tolist()):
        out[a] = out.get(a, 0) + (-c if negate else c)
    return FourierSpectrum(spectrum.n, {a: c for a, c in out.items() if c})


def restrict_batch(spectrum: FourierSpectrum, batch: tuple[int, ...]) -> list[FourierSpectrum]:
    """The restrictions of f to all 2^b affine subspaces a batch of b
    independent parities cuts out: child j is the restriction to
    {x | <batch[i], x> = bit i of j}, equal to ``restrict`` on that system."""
    echelon = row_reduce(batch, spectrum.n)
    if echelon.rank < len(batch):
        raise ValueError(f"batch {batch} is linearly dependent")
    masks, coeffs = spectrum.masks, spectrum.coefficients
    if sum(map(abs, coeffs.tolist())) >= 1 << 63:
        raise ValueError("sum of |c_a| >= 2^63 would overflow the int64 restriction table")
    # below that bound every c_a fits, so coeffs is an int64 array
    child, _, label, coeff = restrict_frontier(np.zeros_like(masks), *labels(masks, echelon.rows), coeffs, len(batch))
    bounds = child.searchsorted(np.arange((1 << len(batch)) + 1)).tolist()
    # each child's labels are sorted, below 2^n, and its coefficients nonzero
    return [FourierSpectrum._of_sorted(spectrum.n, label[lo:hi], coeff[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def restrict_frontier(
    nodes: np.ndarray, label: np.ndarray, tag: np.ndarray, coeffs: np.ndarray, width: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Spectra restricted each to the 2^width subspaces of its own batch:
    element e is c_a of spectrum nodes[e] with a's `gf2.labels` label and
    tag, and child j is where tag bit i's parity is bit i of j.  A WHT along
    the tag axis of cells [tag, (node, label)] is exact while each sum |c_a|
    < 2^63.  Returns (j, node, label, c) of nonzero coefficients, sorted.

    A spectrum whose batch is narrower, with tags below 2^b for some b <
    width, gets its 2^b children repeated 2^(width - b) times (child j is
    child j mod 2^b), so `build_pdt` restricts a frontier of mixed widths in
    one call at most 2^(widest - width) times the cells each node needs.  On
    the seed-0 pdt-build benchmark workload, 6 of the 15 deterministic
    builds mix widths, always 1 and 2, at 1.22-1.41 times the cells of one
    table per width; greedy-min-bucket on random n = 12, 14 and 16 mixes
    only those, at 1.09-1.30 times overall and up to 1.99 times on one
    frontier."""
    keys = nodes << MAX_DIMENSION | label
    buckets = _distinct(keys)
    table = np.zeros((1 << width, len(buckets)), dtype=np.int64)
    table[tag, buckets.searchsorted(keys)] = coeffs  # one c_a per cell: label and tag give back a
    fwht_inplace(table)
    child, bucket = table.nonzero()
    keys = buckets[bucket]
    return child, keys >> MAX_DIMENSION, keys & (1 << MAX_DIMENSION) - 1, table[child, bucket]


class BucketReport(Value):
    """Partition of a support set into cosets of span(Gamma), with h
    (``identified_count``), the support elements that share a bucket."""

    _fields = ("bucket_count", "buckets", "identified_count")

    def __init__(self, bucket_count: int, buckets: dict[int, tuple[int, ...]], identified_count: int) -> None:
        super().__init__(bucket_count, buckets, identified_count)
        if bucket_count > self.bound:
            raise IdentificationBoundError(
                f"{bucket_count} buckets exceed k - ceil(h/2) = {self.bound} "
                f"at k={self.support_size}, h={identified_count}"
            )

    @property
    def support_size(self) -> int:
        return sum(len(b) for b in self.buckets.values())

    @property
    def bound(self) -> int:
        """The identification bound k - ceil(h/2) on the bucket count."""
        return self.support_size - (self.identified_count + 1) // 2


def bucket_complexity(
    support: Iterable[int], gammas: Iterable[int], n: int
) -> BucketReport:
    support = list(support)
    for a in support:
        check_vector(a, n)
    # tags zeroed: those of more than 63 gammas would not fit int64
    rows = [(row, pivot, 0) for row, pivot, _ in row_reduce(gammas, n).rows]
    groups: dict[int, list[int]] = {}
    for a, label in zip(support, labels(np.array(support, dtype=np.int64), rows)[0].tolist()):
        groups.setdefault(label, []).append(a)
    buckets = {label: tuple(sorted(members)) for label, members in groups.items()}
    identified = sum(len(b) for b in buckets.values() if len(b) >= 2)
    return BucketReport(len(buckets), buckets, identified)
