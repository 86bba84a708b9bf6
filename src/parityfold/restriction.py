"""Affine-subspace machinery: spectrum restriction, bucket complexity,
and character identification.

A constraint system {(g_i, b_i)} carves out the affine subspace
H = {x | <g_i, x> = b_i for all i}.  Restricting a spectrum to H groups
its support into cosets of span{g_i} ("buckets"); the restricted
spectrum keeps the ambient dimension and uses each bucket's canonical
coset label as its character, so recursive restriction stays in one
index space.

Both restrictions label the support once with `gf2.labels` against an
`Echelon`.  `restrict`, the single-system path, gives each echelon row
its right-hand-side bit parity(tag & bits) in place of its tag, so the
tag a mask gets back is its sign flip on H; there are at most 24 rows,
whatever the number of constraints, and coefficients are summed as
Python ints.  `restrict_batch` restricts to all 2^b subspaces that b
independent parities cut out in one pass: c_a goes to cell [tag, bucket]
of a (2^b, buckets) int64 table, and one WHT along the tag axis gives
child j, the subspace where bit i of j is the value of batch[i].  It
needs sum |c_a| < 2^63, which bounds every cell and partial sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

# bench/tracing.py binds coset_label here by name; it is otherwise unused
from .gf2 import Echelon, check_vector, coset_label, in_span, labels, row_reduce
from .pairs import fwht_inplace
from .spectral import FourierSpectrum, json_int, json_of


class InconsistentConstraintsError(ValueError):
    """Some F2-combination of the constraints forces 0 = 1."""


class IdentificationBoundError(RuntimeError):
    """A bucket count broke the identification bound: an implementation bug."""


@dataclass(frozen=True)
class AffineConstraintSystem:
    """List of (mask, bit) parity constraints plus their elimination kernel.

    Bit i of ``bits`` is constraint i's right-hand side, so the value a
    reduction's combination of constraints takes on H is parity(tag & bits).
    Inconsistent systems can be constructed (e.g. loaded from a file) but
    raise as soon as they are used to restrict.
    """

    n: int
    constraints: tuple[tuple[int, int], ...]
    echelon: Echelon = field(init=False, repr=False, compare=False)
    bits: int = field(init=False, repr=False, compare=False)
    consistent: bool = field(init=False)

    def __post_init__(self) -> None:
        echelon = Echelon(self.n)
        bits = 0
        consistent = True
        for i, (mask, bit) in enumerate(self.constraints):
            check_vector(mask, self.n)
            if bit not in (0, 1):
                raise ValueError(f"constraint bit must be 0 or 1, got {bit!r}")
            bits |= bit << i
            if tag := echelon.insert(mask):  # constraints whose masks sum to 0
                consistent &= not (tag & bits).bit_count() & 1
        object.__setattr__(self, "echelon", echelon)
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "consistent", consistent)

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
    label, flip = labels(np.fromiter(spectrum.coeffs, dtype=np.int64, count=spectrum.sparsity), rows)
    out: dict[int, int] = {}
    for a, negate, c in zip(label.tolist(), flip.tolist(), spectrum.coeffs.values()):
        out[a] = out.get(a, 0) + (-c if negate else c)
    return FourierSpectrum(spectrum.n, {a: c for a, c in out.items() if c})


def _distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values (np.unique would import numpy.ma, ~10 ms, on first use)."""
    values = np.sort(values)
    keep = np.ones(len(values), dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def restrict_batch(spectrum: FourierSpectrum, batch: tuple[int, ...]) -> list[FourierSpectrum]:
    """The restrictions of f to all 2^b affine subspaces a batch of b
    independent parities cuts out: child j is the restriction to
    {x | <batch[i], x> = bit i of j}, equal to ``restrict`` on that system.
    Each (tag, bucket) cell of the table gets at most one c_a."""
    echelon = Echelon(spectrum.n)
    for g in batch:
        check_vector(g, spectrum.n)
        if echelon.insert(g):
            raise ValueError(f"batch {batch} is linearly dependent")
    if sum(map(abs, map(int, spectrum.coeffs.values()))) >= 1 << 63:
        raise ValueError("sum of |c_a| >= 2^63 would overflow the int64 restriction table")
    masks = np.fromiter(spectrum.coeffs, dtype=np.int64, count=spectrum.sparsity)
    coeffs = np.fromiter(spectrum.coeffs.values(), dtype=np.int64, count=spectrum.sparsity)
    label, tag = labels(masks, echelon.rows)
    keys = _distinct(label)
    table = np.zeros((1 << len(batch), len(keys)), dtype=np.int64)
    table[tag, np.searchsorted(keys, label)] = coeffs
    fwht_inplace(table)
    child, bucket = np.nonzero(table)  # by child, then by label
    out_masks = keys[bucket].tolist()
    out_coeffs = table[child, bucket].tolist()
    bounds = np.searchsorted(child, np.arange(len(table) + 1)).tolist()
    return [
        FourierSpectrum(spectrum.n, dict(zip(out_masks[lo:hi], out_coeffs[lo:hi])))
        for lo, hi in zip(bounds, bounds[1:])
    ]


@dataclass(frozen=True)
class BucketReport:
    """Partition of a support set into cosets of span(Gamma)."""

    bucket_count: int
    buckets: dict[int, tuple[int, ...]]
    identified_count: int

    @property
    def support_size(self) -> int:
        return sum(len(b) for b in self.buckets.values())

    def to_dict(self) -> dict:
        return {
            "bucket_count": self.bucket_count,
            "identified_count": self.identified_count,
            "buckets": {str(label): list(self.buckets[label]) for label in sorted(self.buckets)},
        }


def system_to_list(system: AffineConstraintSystem) -> list[dict]:
    return [{"mask": mask, "bit": bit} for mask, bit in system.constraints]


def system_from_list(data: list, n: int) -> AffineConstraintSystem:
    constraints = []
    for entry in json_of(data, list, "constraint system"):
        entry = json_of(entry, dict, "constraint")
        constraints.append((json_int(entry["mask"], "mask"), json_int(entry["bit"], "bit")))
    return AffineConstraintSystem(n, tuple(constraints))


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


def identified(beta: int, delta: int, gammas: Iterable[int], n: int) -> bool:
    """True when beta and delta land in the same coset of span(gammas)."""
    check_vector(beta, n)
    check_vector(delta, n)
    return in_span(beta ^ delta, row_reduce(gammas, n))


@dataclass(frozen=True)
class IdentificationBound:
    identified_count: int  # h: support elements sharing a bucket with another
    bound: int  # k - ceil(h/2)
    report: BucketReport  # the partition the bound was checked on

    @property
    def actual(self) -> int:
        """The bucket count."""
        return self.report.bucket_count


def identification_bound_check(
    support: Iterable[int], gammas: Iterable[int], n: int
) -> IdentificationBound:
    report = bucket_complexity(support, gammas, n)
    k = report.support_size
    h = report.identified_count
    bound = k - (h + 1) // 2
    # singleton buckets number k - h, shared buckets at most h/2
    if 2 * report.bucket_count > 2 * k - h:
        raise IdentificationBoundError(f"{report.bucket_count} buckets exceed k - h/2 at k={k}, h={h}")
    return IdentificationBound(h, bound, report)
