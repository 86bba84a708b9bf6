"""Folding-direction combinatorics over Fourier supports.

For a support S, each unordered pair {a, b} "folds" in the direction
a + b; the class of a direction g collects every support pair summing to
g.  Class sizes drive all the structural checks here: the pair condition
(every realized direction has at least two pairs), the three-fold
property (every support element participates in a class of size >= 3
once k > 4), the single-nontrivial-direction structure, and the sign
system that certifies some supports are not realizable by any +-1
function.

`direction_classes` counts the classes with the pair kernel of `pairs`,
in exact integers: an XOR autocorrelation of the support's indicator
through the WHT, O(n 2^n), on dense supports (n 2^n < k^2 / 2), and row
blocks of at most 2^16 int64 entries, O(k^2 log k), otherwise.  Every
other check reads class sizes from its profile.  `partners` counts heavy
partners as the XOR convolution of the support with the heavy directions
on dense supports and finds each smallest partner by a chunked scan that
stops once every mask has one; on sparse supports it binary-searches the
blocks, O(k^2 log D).  Sign constraints list only the pairs of size-2
classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

import numpy as np

from .families import addressing_support
from .gf2 import MAX_DIMENSION, Echelon
from .pairs import direction_pairs, direction_sums, heavy_partners
from .spectral import FourierSpectrum, is_plateaued

PAIR_LIST_GUARD = 1 << 12
# heavy_participants checks the delta*k/3 averaging bound from this k on
HEAVY_BOUND_MIN_K = 64


class SparsityTooSmallError(ValueError):
    pass


class ThreeFoldViolationError(RuntimeError):
    """A support element of a (claimed) Boolean spectrum with k > 4 has no
    class of size >= 3; for genuine Boolean inputs this is a bug."""

    def __init__(self, missing: list[int]):
        super().__init__(f"no size->=3 direction for masks {missing}")
        self.missing = missing


class SingleDirectionViolationError(RuntimeError):
    pass


class FoldingBoundError(RuntimeError):
    pass


class AddressingProfileError(RuntimeError):
    """A class of the addressing support breaks the profile's claims: a bug."""


@dataclass(frozen=True)
class FoldingProfile:
    n: int
    k: int
    classes: dict[int, int]
    # sorted support, sorted realized directions and their class sizes
    masks: np.ndarray = field(repr=False, compare=False)
    directions: np.ndarray = field(repr=False, compare=False)
    counts: np.ndarray = field(repr=False, compare=False)
    pairs: dict[int, tuple[tuple[int, int], ...]] | None = None

    @property
    def total_pairs(self) -> int:
        return sum(self.classes.values())

    @property
    def min_class_size(self) -> int:
        return min(self.classes.values())

    @property
    def max_class_size(self) -> int:
        return max(self.classes.values())

    def partners(self, threshold: int) -> tuple[np.ndarray, np.ndarray]:
        """Per mask: how many partners lie in classes of size >= threshold,
        and the index of the smallest such partner (0 when there is none)."""
        return heavy_partners(self.masks, self.directions, self.counts >= threshold)

    def folding_parameters(self, ell: Fraction | float | int) -> FoldingParameters:
        """Largest delta such that a delta fraction of support pairs lie in
        direction classes of size >= k^ell + 1.  Monotone non-increasing in ell."""
        ell = as_exponent(ell)
        threshold = heavy_class_threshold(self.k, ell)
        heavy = int(self.counts[self.counts >= threshold].sum())
        return FoldingParameters(ell, Fraction(heavy, math.comb(self.k, 2)), heavy, threshold)

    def heavy_participants(
        self, delta: Fraction | float | int, ell: Fraction | float | int
    ) -> frozenset[int]:
        """Support elements with >= delta*k/2 partners in heavy classes.

        When the support actually achieves the claimed (delta, ell) folding
        and k >= HEAVY_BOUND_MIN_K, the result is checked to contain at least
        delta*k/3 elements (a guaranteed averaging bound at large k).
        """
        k = self.k
        delta = Fraction(delta)
        params = self.folding_parameters(ell)
        counts, _ = self.partners(params.class_size_threshold)
        members = [a for a, c in zip(self.masks.tolist(), counts.tolist()) if 2 * c >= delta * k]
        if params.delta >= delta and k >= HEAVY_BOUND_MIN_K and 3 * len(members) < delta * k:
            raise FoldingBoundError(
                f"|U| = {len(members)} below delta*k/3 = {delta * k / 3} at k={k}"
            )
        return frozenset(members)

    def histogram(self) -> dict[int, int]:
        """class size -> number of directions of that size"""
        sizes, how_many = np.unique(self.counts, return_counts=True)
        return dict(zip(sizes.tolist(), how_many.tolist()))

    def to_dict(self) -> dict:
        out = {
            "n": self.n,
            "k": self.k,
            "direction_count": len(self.classes),
            "total_pairs": self.total_pairs,
            "min_class_size": self.min_class_size,
            "max_class_size": self.max_class_size,
            "histogram": {str(s): c for s, c in self.histogram().items()},
            "classes": {str(g): self.classes[g] for g in sorted(self.classes)},
        }
        if self.pairs is not None:
            out["pairs"] = {
                str(g): [list(p) for p in self.pairs[g]] for g in sorted(self.pairs)
            }
        return out


def direction_classes(
    support: Iterable[int], include_pairs: bool = False
) -> FoldingProfile:
    """Exact unordered-pair count per folding direction; include_pairs lists
    each direction's pairs (a, b), a < b, in row-major order of the support."""
    masks = np.array(sorted(set(support)), dtype=np.int64)
    k = len(masks)
    if k < 2:
        raise ValueError(f"need at least 2 support elements, got {k}")
    if masks[0] < 0:
        raise ValueError(f"masks must be non-negative, got {int(masks[0])}")
    directions, counts = direction_sums(masks)
    classes = dict(zip(directions.tolist(), counts.tolist()))
    pairs = _pair_lists(masks, directions) if include_pairs else None
    return FoldingProfile(int(masks[-1]).bit_length(), k, classes, masks, directions, counts, pairs)


def _pair_lists(
    masks: np.ndarray, directions: np.ndarray
) -> dict[int, tuple[tuple[int, int], ...]]:
    """`pairs.direction_pairs`, refused above PAIR_LIST_GUARD masks."""
    if len(masks) > PAIR_LIST_GUARD:
        raise ValueError(f"pair lists disabled for k > {PAIR_LIST_GUARD}")
    return direction_pairs(masks, directions)


@dataclass(frozen=True)
class PairCondition:
    ok: bool
    violation: int | None  # smallest direction with a single pair, if any


def check_pair_condition(support: Iterable[int]) -> PairCondition:
    """Every direction class must have >= 2 pairs; supports of +-1
    functions always pass."""
    profile = direction_classes(support)
    bad = sorted(g for g, count in profile.classes.items() if count < 2)
    return PairCondition(not bad, bad[0] if bad else None)


def _floor_root(x: int, b: int) -> int:
    """floor(x ** (1/b)) for x >= 0 and b >= 1, in integers only."""
    lo, hi = 0, 1 << -(-x.bit_length() // b)  # lo**b <= x < hi**b
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if mid**b <= x else (lo, mid)
    return lo


def float_fraction(x: float) -> Fraction:
    """The closest fraction to x with denominator <= 10^6, so 0.49 -> 49/100
    and 1e-4 -> 1/10000 rather than their binary expansions."""
    return Fraction(x).limit_denominator(10**6)


def as_exponent(ell: Fraction | float | int) -> Fraction:
    """Normalize an exponent in [0, 1] to an exact small rational; floats
    snap by `float_fraction`."""
    if isinstance(ell, float):
        ell = float_fraction(ell)
    ell = Fraction(ell)
    if ell < 0:
        raise ValueError(f"exponent must be >= 0, got {ell}")
    if ell > 1:
        # classes have at most k/2 pairs, so none reaches k^ell + 1 from ell = 1 on
        raise ValueError(f"exponent must be <= 1, got {ell}")
    if ell.denominator > 10_000:
        raise ValueError(f"exponent denominator {ell.denominator} too large")
    return ell


def heavy_class_threshold(k: int, ell: Fraction | float | int) -> int:
    """Smallest integer class size m with m >= k^ell + 1, computed exactly
    (ceil(k^ell) + 1); ties at exactly k^ell + 1 count as heavy."""
    ell = as_exponent(ell)
    power = k**ell.numerator
    root = _floor_root(power, ell.denominator)
    ceil_pow = root if root**ell.denominator == power else root + 1
    return ceil_pow + 1


@dataclass(frozen=True)
class FoldingParameters:
    ell: Fraction
    delta: Fraction  # maximal achievable fraction at this exponent
    heavy_pair_count: int
    class_size_threshold: int


def folding_parameters(support: Iterable[int], ell: Fraction | float | int) -> FoldingParameters:
    """`FoldingProfile.folding_parameters` of the support's profile."""
    return direction_classes(support).folding_parameters(ell)


def heavy_participants(
    support: Iterable[int], delta: Fraction | float | int, ell: Fraction | float | int
) -> frozenset[int]:
    """`FoldingProfile.heavy_participants` of the support's profile."""
    return direction_classes(support).heavy_participants(delta, ell)


def three_fold_witnesses(support: Iterable[int]) -> dict[int, int | None]:
    """For each support element, the smallest partner whose direction class
    has size >= 3, or None when no such partner exists (no sparsity gate)."""
    profile = direction_classes(support)
    masks = profile.masks.tolist()
    counts, first = profile.partners(3)
    return {
        a: masks[j] if c else None for a, c, j in zip(masks, counts.tolist(), first.tolist())
    }


def verify_three_fold(spectrum: FourierSpectrum) -> dict[int, int]:
    """Witness map alpha -> beta with |class(alpha+beta)| >= 3 for every
    support element; guaranteed to exist for +-1 functions with k > 4."""
    if spectrum.sparsity <= 4:
        raise SparsityTooSmallError(
            f"k = {spectrum.sparsity} <= 4; the three-fold guarantee needs k > 4"
        )
    witnesses = three_fold_witnesses(spectrum.support())
    missing = sorted(a for a, b in witnesses.items() if b is None)
    if missing:
        raise ThreeFoldViolationError(missing)
    return {a: b for a, b in witnesses.items() if b is not None}


@dataclass(frozen=True)
class SingleDirectionReport:
    n: int
    k: int
    positive_count: int
    negative_count: int
    plateaued: bool
    nontrivial_counts: dict[int, int]  # alpha -> #betas with class size >= 3
    single_direction: dict[int, tuple[int, int]]  # alpha -> (beta, class size)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "positive_count": self.positive_count,
            "negative_count": self.negative_count,
            "plateaued": self.plateaued,
            "nontrivial_counts": {
                str(a): c for a, c in sorted(self.nontrivial_counts.items())
            },
            "single_direction": {
                str(a): list(v) for a, v in sorted(self.single_direction.items())
            },
        }


def single_direction_structure(spectrum: FourierSpectrum) -> SingleDirectionReport:
    """Per-element count of nontrivial (size >= 3) directions.

    Whenever an element has exactly one nontrivial partner, that class must
    contain exactly k/2 pairs; a violation on a genuine +-1 spectrum is an
    implementation bug.  Sign counts and plateaued-ness are exposed for
    corpus-wide consistency checks.
    """
    profile = direction_classes(spectrum.support())
    k = profile.k
    masks = profile.masks.tolist()
    nontrivial, first = profile.partners(3)
    counts = dict(zip(masks, nontrivial.tolist()))
    single: dict[int, tuple[int, int]] = {}
    for a, c, j in zip(masks, nontrivial.tolist(), first.tolist()):
        if c == 1:
            size = profile.classes[a ^ masks[j]]
            if k % 2 or size != k // 2:
                raise SingleDirectionViolationError(
                    f"mask {a}: single nontrivial class has {size} pairs, expected k/2 = {k / 2}"
                )
            single[a] = (masks[j], size)
    return SingleDirectionReport(
        spectrum.n,
        k,
        sum(1 for c in spectrum.coeffs.values() if c > 0),
        sum(1 for c in spectrum.coeffs.values() if c < 0),
        is_plateaued(spectrum),
        counts,
        single,
    )


# ---------------------------------------------------------------------------
# sign feasibility
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SignConstraint:
    """A direction whose class has exactly two pairs {(a,b), (c,d)}: the
    correlation sum then forces sign(a)sign(b)sign(c)sign(d) = -1."""

    direction: int
    pair1: tuple[int, int]
    pair2: tuple[int, int]

    @property
    def members(self) -> tuple[int, int, int, int]:
        return (*self.pair1, *self.pair2)


@dataclass(frozen=True)
class SignFeasibilityResult:
    feasible: bool
    constraints: tuple[SignConstraint, ...]
    assignment: dict[int, int] | None  # mask -> +-1 satisfying all constraints
    witness: tuple[SignConstraint, ...] | None  # constraints XOR-ing to 0 = 1

    def to_dict(self) -> dict:
        out: dict = {
            "feasible": self.feasible,
            "constraint_count": len(self.constraints),
        }
        if self.assignment is not None:
            out["assignment"] = {str(a): s for a, s in sorted(self.assignment.items())}
        if self.witness is not None:
            out["witness"] = [
                {
                    "direction": c.direction,
                    "pairs": [list(c.pair1), list(c.pair2)],
                }
                for c in self.witness
            ]
        return out


def sign_constraints(support: Iterable[int]) -> tuple[SignConstraint, ...]:
    """One constraint per size-2 class, in direction order."""
    profile = direction_classes(support)
    listed = _pair_lists(profile.masks, profile.directions[profile.counts == 2])
    return tuple(SignConstraint(g, *pairs) for g, pairs in listed.items())


def sign_feasibility(support: Iterable[int]) -> SignFeasibilityResult:
    """Solve the parity system the size-2 direction classes impose on
    coefficient signs.

    Writing sign(a) = (-1)^{sigma_a}, each size-2 class contributes the F2
    equation sigma_a + sigma_b + sigma_c + sigma_d = 1.  Infeasibility
    certifies that the support is not the Fourier support of any +-1
    function (sound, not complete: larger classes impose magnitude-dependent
    constraints that are deliberately not modeled).
    """
    masks = sorted(set(support))
    index = {a: i for i, a in enumerate(masks)}
    if len(masks) < 2:
        return SignFeasibilityResult(True, (), {a: 1 for a in masks}, None)
    constraints = sign_constraints(masks)
    echelon = Echelon(len(masks))  # over variable masks; tags name constraints
    for ci, cons in enumerate(constraints):
        varmask = sum(1 << index[member] for member in cons.members)  # distinct members
        # a dependent insert names the constraints (this one included) whose
        # varmasks sum to 0; every rhs is 1, so their rhs is the count's parity
        if (combo := echelon.insert(varmask)).bit_count() & 1:
            witness = tuple(c for j, c in enumerate(constraints) if (combo >> j) & 1)
            return SignFeasibilityResult(False, constraints, None, witness)
    # RREF leaves each pivot variable only in its own row, so free variables
    # read +1 and each pivot reads its row's rhs, the parity of the row's tag
    negative = {pivot.bit_length() - 1 for _, pivot, tag in echelon.rows if tag.bit_count() & 1}
    assignment = {a: (-1 if i in negative else 1) for a, i in index.items()}
    return SignFeasibilityResult(True, constraints, assignment, None)


def counterexample_support(n: int) -> tuple[int, ...]:
    """A 2n-2 element support passing the pair condition whose sign system
    is infeasible, so it is not realizable by any +-1 function."""
    if not 5 <= n <= MAX_DIMENSION:
        raise ValueError(f"construction needs 5 <= n <= {MAX_DIMENSION}, got {n}")
    singletons = [1 << i for i in range(n)]
    triples = [1 | (1 << j) | (1 << (n - 1)) for j in range(1, n - 2 + 1)]
    return tuple(sorted(singletons + triples))


# ---------------------------------------------------------------------------
# addressing profile
# ---------------------------------------------------------------------------

SAME_TARGET_COUNT_NOTE = (
    "same-target class sizes are unordered-pair counts (k/2 per direction); "
    "counting ordered pairs doubles this to k"
)


@dataclass(frozen=True)
class AddressingFoldingReport:
    k: int
    sqrt_k: int
    same_target_direction_count: int  # directions within one target variable
    same_target_class_sizes: tuple[int, ...]
    same_target_pair_count: int
    cross_target_direction_count: int  # directions across two target variables
    cross_target_class_sizes: tuple[int, ...]
    cross_target_pair_count: int
    cross_target_pair_fraction: Fraction
    counting_note: str

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "sqrt_k": self.sqrt_k,
            "same_target": {
                "direction_count": self.same_target_direction_count,
                "class_sizes": list(self.same_target_class_sizes),
                "pair_count": self.same_target_pair_count,
            },
            "cross_target": {
                "direction_count": self.cross_target_direction_count,
                "class_sizes": list(self.cross_target_class_sizes),
                "pair_count": self.cross_target_pair_count,
                "pair_fraction": str(self.cross_target_pair_fraction),
            },
            "counting_note": self.counting_note,
        }


def addressing_folding_profile(k: int) -> AddressingFoldingReport:
    """Classify every folding direction of the addressing support.

    Same-target directions (both pair members select the same target bit)
    versus cross-target directions (two different target bits).  The
    cross-target classes all have exactly sqrt(k) pairs and carry
    (1 - o(1)) of all support pairs; same-target classes have k/2
    unordered pairs each (see counting_note for the ordered convention).
    """
    if k > 256:
        raise ValueError(f"desk-scale guard: k <= 256, got {k}")
    support, addr_bits = addressing_support(k)
    profile = direction_classes(support)
    same: dict[int, int] = {}
    cross: dict[int, int] = {}
    for g, count in profile.classes.items():
        target_part = g >> addr_bits
        bits = target_part.bit_count()
        if bits == 0:
            same[g] = count
        elif bits == 2:
            cross[g] = count
        else:
            raise AddressingProfileError(f"direction {g} touches {bits} target bits")
    sqrt_k = math.isqrt(k)
    if set(cross.values()) != {sqrt_k}:
        sizes = set(cross.values())
        raise AddressingProfileError(f"cross-target class sizes {sizes} != {{{sqrt_k}}}")
    total = math.comb(len(support), 2)
    return AddressingFoldingReport(
        k=k,
        sqrt_k=sqrt_k,
        same_target_direction_count=len(same),
        same_target_class_sizes=tuple(sorted(set(same.values()))),
        same_target_pair_count=sum(same.values()),
        cross_target_direction_count=len(cross),
        cross_target_class_sizes=tuple(sorted(set(cross.values()))),
        cross_target_pair_count=sum(cross.values()),
        cross_target_pair_fraction=Fraction(sum(cross.values()), total),
        counting_note=SAME_TARGET_COUNT_NOTE,
    )
