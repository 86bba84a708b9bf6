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
through the WHT, O(n 2^n), on dense supports (n 2^n < k^2 / 2), and one
sort of all pair directions, O(k^2 log k), otherwise.  A profile is its
arrays: every other check reads class sizes from its sorted `directions`
and `counts`.  `partners` counts heavy partners as the XOR convolution
of the support with the heavy directions on dense supports and finds
each smallest partner by a chunked scan that stops once every mask has
one; on sparse supports it binary-searches each pair's direction,
O(k^2 log D).

Pairs themselves are listed only by `pairs.direction_pairs`, as three
int64 arrays (direction, a, b) grouped by ascending direction, and only
for supports of at most `pairs.PAIR_LIST_GUARD` masks, which it alone
refuses above.  The sign system lists the size-2 directions, so a class's
two pairs are adjacent rows, and each constraint is the row
(direction, a, b, c, d).

A support is any iterable of masks.  A spectrum's `masks`, sorted int64
already, is used as it is, and the checks that take a spectrum pass
theirs; any other support is sorted once, by `_sorted_support`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, NamedTuple

import numpy as np

from .gf2 import MAX_DIMENSION, Echelon
from .pairs import direction_pairs, direction_sums, heavy_partners
from .params import CheckFailedError, as_exponent
from .spectral import FourierSpectrum, is_plateaued

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


class FoldingBoundError(CheckFailedError):
    """Fewer heavy participants than the delta*k/3 averaging bound guarantees."""


class FoldingProfile:
    """The direction classes of a support of k masks in n bits: the sorted
    support, the sorted realized directions and their class sizes, as
    arrays.  Profiles are immutable, and compare by their masks."""

    def __init__(self, n: int, k: int, masks: np.ndarray, directions: np.ndarray, counts: np.ndarray) -> None:
        self.__dict__.update(n=n, k=k, masks=masks, directions=directions, counts=counts)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to {name!r}: profiles are immutable")

    def __eq__(self, other: object) -> bool:  # the support determines the classes
        return isinstance(other, FoldingProfile) and np.array_equal(self.masks, other.masks)

    def __repr__(self) -> str:
        return f"FoldingProfile(n={self.n!r}, k={self.k!r})"

    @property
    def total_pairs(self) -> int:
        return int(self.counts.sum())

    @property
    def min_class_size(self) -> int:
        return int(self.counts.min())

    @property
    def max_class_size(self) -> int:
        return int(self.counts.max())

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
        # 2c >= delta*k for an integer c in [0, k) is c >= ceil(delta*k/2), clipped to [0, k]
        members = self.masks[counts >= min(max(math.ceil(delta * k / 2), 0), k)].tolist()
        if params.delta >= delta and k >= HEAVY_BOUND_MIN_K and 3 * len(members) < delta * k:
            raise FoldingBoundError(
                f"|U| = {len(members)} below delta*k/3 = {delta * k / 3} at k={k}"
            )
        return frozenset(members)

    def histogram(self) -> dict[int, int]:
        """class size -> number of directions of that size"""
        sizes, how_many = np.unique(self.counts, return_counts=True)
        return dict(zip(sizes.tolist(), how_many.tolist()))


def _sorted_support(support: Iterable[int]) -> np.ndarray:
    """The distinct masks of a support in ascending order, as int64; a
    strictly increasing int64 array, such as a spectrum's `masks`, is taken
    as it is."""
    if isinstance(support, np.ndarray) and support.dtype == np.int64 and support.ndim == 1:
        if not np.count_nonzero(support[1:] <= support[:-1]):
            return support
    return np.array(sorted(set(support)), dtype=np.int64)


def direction_classes(support: Iterable[int]) -> FoldingProfile:
    """Exact unordered-pair count per folding direction."""
    masks = _sorted_support(support)
    k = len(masks)
    if k < 2:
        raise ValueError(f"need at least 2 support elements, got {k}")
    if masks[0] < 0:
        raise ValueError(f"masks must be non-negative, got {int(masks[0])}")
    directions, counts = direction_sums(masks)
    return FoldingProfile(int(masks[-1]).bit_length(), k, masks, directions, counts)


class PairCondition(NamedTuple):
    ok: bool
    violation: int | None  # smallest direction with a single pair, if any


def check_pair_condition(support: Iterable[int]) -> PairCondition:
    """Every direction class must have >= 2 pairs; supports of +-1
    functions always pass."""
    profile = direction_classes(support)
    bad = profile.directions[profile.counts < 2]
    return PairCondition(not len(bad), int(bad[0]) if len(bad) else None)


def _floor_root(x: int, b: int) -> int:
    """floor(x ** (1/b)) for x >= 0 and b >= 1, in integers only."""
    lo, hi = 0, 1 << -(-x.bit_length() // b)  # lo**b <= x < hi**b
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if mid**b <= x else (lo, mid)
    return lo


def heavy_class_threshold(k: int, ell: Fraction | float | int) -> int:
    """Smallest integer class size m with m >= k^ell + 1, computed exactly
    (ceil(k^ell) + 1); ties at exactly k^ell + 1 count as heavy."""
    ell = as_exponent(ell)
    power = k**ell.numerator
    root = _floor_root(power, ell.denominator)
    ceil_pow = root if root**ell.denominator == power else root + 1
    return ceil_pow + 1


class FoldingParameters(NamedTuple):
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


def verify_three_fold(spectrum: FourierSpectrum) -> dict[int, int]:
    """Witness map alpha -> beta with |class(alpha+beta)| >= 3 for every
    support element; guaranteed to exist for +-1 functions with k > 4."""
    if spectrum.sparsity <= 4:
        raise SparsityTooSmallError(
            f"k = {spectrum.sparsity} <= 4; the three-fold guarantee needs k > 4"
        )
    profile = direction_classes(spectrum.masks)
    counts, first = profile.partners(3)
    if len(missing := profile.masks[counts == 0]):
        raise ThreeFoldViolationError(missing.tolist())  # sorted, as masks are
    return dict(zip(profile.masks.tolist(), profile.masks[first].tolist()))


class SingleDirectionReport(NamedTuple):
    n: int
    k: int
    positive_count: int
    negative_count: int
    plateaued: bool
    nontrivial_counts: dict[int, int]  # alpha -> #betas with class size >= 3
    single_direction: dict[int, tuple[int, int]]  # alpha -> (beta, class size)


def single_direction_structure(spectrum: FourierSpectrum) -> SingleDirectionReport:
    """Per-element count of nontrivial (size >= 3) directions.

    Whenever an element has exactly one nontrivial partner, that class must
    contain exactly k/2 pairs; a violation on a genuine +-1 spectrum is an
    implementation bug.  Sign counts and plateaued-ness are exposed for
    corpus-wide consistency checks.
    """
    profile = direction_classes(spectrum.masks)
    k = profile.k
    masks = profile.masks.tolist()
    nontrivial, first = profile.partners(3)
    counts = dict(zip(masks, nontrivial.tolist()))
    # partnerless masks look up their XOR with masks[0], which is in range
    sizes = profile.counts[profile.directions.searchsorted(profile.masks ^ profile.masks[first])]
    single: dict[int, tuple[int, int]] = {}
    for a, c, j, size in zip(masks, nontrivial.tolist(), first.tolist(), sizes.tolist()):
        if c == 1:
            if k % 2 or size != k // 2:
                raise SingleDirectionViolationError(
                    f"mask {a}: single nontrivial class has {size} pairs, expected k/2 = {k / 2}"
                )
            single[a] = (masks[j], size)
    return SingleDirectionReport(
        spectrum.n,
        k,
        int(np.count_nonzero(spectrum.coefficients > 0)),
        int(np.count_nonzero(spectrum.coefficients < 0)),
        is_plateaued(spectrum),
        counts,
        single,
    )


# ---------------------------------------------------------------------------
# sign feasibility
# ---------------------------------------------------------------------------


# a constraint (direction, a, b, c, d): the class of the direction has exactly
# the two pairs (a, b) and (c, d), so the correlation sum forces
# sign(a)sign(b)sign(c)sign(d) = -1
Constraint = tuple[int, int, int, int, int]


class SignFeasibilityResult(NamedTuple):
    feasible: bool
    constraints: tuple[Constraint, ...]  # one per size-2 class, in direction order
    assignment: dict[int, int] | None  # mask -> +-1 satisfying all constraints
    witness: tuple[Constraint, ...] | None  # constraints XOR-ing to 0 = 1


def sign_feasibility(support: Iterable[int]) -> SignFeasibilityResult:
    """Solve the parity system the size-2 direction classes impose on
    coefficient signs.

    Writing sign(a) = (-1)^{sigma_a}, each size-2 class contributes the F2
    equation sigma_a + sigma_b + sigma_c + sigma_d = 1.  Infeasibility
    certifies that the support is not the Fourier support of any +-1
    function (sound, not complete: larger classes impose magnitude-dependent
    constraints that are deliberately not modeled).
    """
    masks = _sorted_support(support)
    if len(masks) < 2:
        return SignFeasibilityResult(True, (), dict.fromkeys(masks.tolist(), 1), None)
    profile = direction_classes(masks)
    g, a, b = direction_pairs(masks, profile.directions[profile.counts == 2])
    members = np.column_stack((a[::2], b[::2], a[1::2], b[1::2]))  # a class's pairs are adjacent rows
    constraints = tuple(map(tuple, np.column_stack((g[::2], members)).tolist()))
    echelon = Echelon(len(masks))  # over variable masks; tags name constraints
    for ci, (w, x, y, z) in enumerate(masks.searchsorted(members).tolist()):
        varmask = 1 << w | 1 << x | 1 << y | 1 << z  # four distinct members
        # a dependent insert names the constraints (this one included) whose
        # varmasks sum to 0; every rhs is 1, so their rhs is the count's parity
        if (combo := echelon.insert(varmask)).bit_count() & 1:
            witness = tuple(c for j, c in enumerate(constraints) if (combo >> j) & 1)
            return SignFeasibilityResult(False, constraints, None, witness)
    # RREF leaves each pivot variable only in its own row, so free variables
    # read +1 and each pivot reads its row's rhs, the parity of the row's tag
    negative = {pivot.bit_length() - 1 for _, pivot, tag in echelon.rows if tag.bit_count() & 1}
    assignment = {a: (-1 if i in negative else 1) for i, a in enumerate(masks.tolist())}
    return SignFeasibilityResult(True, constraints, assignment, None)


def counterexample_support(n: int) -> tuple[int, ...]:
    """A 2n-2 element support passing the pair condition whose sign system
    is infeasible, so it is not realizable by any +-1 function."""
    if not 5 <= n <= MAX_DIMENSION:
        raise ValueError(f"construction needs 5 <= n <= {MAX_DIMENSION}, got {n}")
    singletons = [1 << i for i in range(n)]
    triples = [1 | (1 << j) | (1 << (n - 1)) for j in range(1, n - 2 + 1)]
    return tuple(sorted(singletons + triples))
