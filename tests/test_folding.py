import itertools
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from parityfold import folding, pairs, runner
from parityfold.cli import main
from parityfold.families import (
    addressing_support,
    gen_addressing,
    gen_inner_product,
    gen_modified_addressing,
    gen_random,
)
from parityfold.folding import (
    FoldingBoundError,
    SingleDirectionViolationError,
    SparsityTooSmallError,
    ThreeFoldViolationError,
    check_pair_condition,
    counterexample_support,
    direction_classes,
    folding_parameters,
    heavy_class_threshold,
    heavy_participants,
    sign_feasibility,
    single_direction_structure,
    verify_three_fold,
)
from parityfold.spectral import FourierSpectrum, wht


def naive_classes(support):
    """Oracle: enumerate all unordered pairs."""
    out = {}
    for a, b in itertools.combinations(sorted(support), 2):
        out[a ^ b] = out.get(a ^ b, 0) + 1
    return out


def naive_pairs(support):
    """Oracle: every direction's pairs (a, b), a < b, in row-major order."""
    out = {}
    for a, b in itertools.combinations(sorted(support), 2):
        out.setdefault(a ^ b, []).append((a, b))
    return {g: tuple(v) for g, v in out.items()}


def naive_constraints(support):
    """Oracle: a row (direction, a, b, c, d) per class of exactly two pairs
    (a, b) and (c, d), in direction order."""
    rows = []
    for g, listed in sorted(naive_pairs(support).items()):
        if len(listed) == 2:
            (a, b), (c, d) = listed
            rows.append((g, a, b, c, d))
    return tuple(rows)


def classes(profile):
    """direction -> class size, from the profile's arrays."""
    return dict(zip(profile.directions.tolist(), profile.counts.tolist()))


def listed_pairs(profile):
    """The pair list of every realized direction, as the naive_pairs dict."""
    g, a, b = pairs.direction_pairs(profile.masks, profile.directions)
    out = {}
    for direction, pair in zip(g.tolist(), zip(a.tolist(), b.tolist())):
        out.setdefault(direction, []).append(pair)
    return {direction: tuple(v) for direction, v in out.items()}


def naive_three_fold(support):
    """Oracle: smallest partner in a class of size >= 3, rescanning pairs."""
    masks = sorted(set(support))
    classes = naive_classes(masks)
    return {
        a: next((b for b in masks if b != a and classes[a ^ b] >= 3), None)
        for a in masks
    }


def naive_single_direction(spectrum):
    """Oracle: (nontrivial counts, single map) of single_direction_structure."""
    masks = sorted(spectrum.support())
    classes = naive_classes(masks)
    k = len(masks)
    counts, single = {}, {}
    for a in masks:
        partners = [b for b in masks if b != a and classes[a ^ b] >= 3]
        counts[a] = len(partners)
        if len(partners) == 1:
            size = classes[a ^ partners[0]]
            if k % 2 or size != k // 2:
                raise SingleDirectionViolationError(
                    f"mask {a}: single nontrivial class has {size} pairs, expected k/2 = {k / 2}"
                )
            single[a] = (partners[0], size)
    return counts, single


def naive_heavy(support, delta, ell):
    """Oracle: heavy participants, rescanning pairs, with the bound check."""
    masks = sorted(set(support))
    classes = naive_classes(masks)
    k = len(masks)
    threshold = heavy_class_threshold(k, ell)
    members = [
        a
        for a in masks
        if 2 * sum(1 for b in masks if b != a and classes[a ^ b] >= threshold) >= delta * k
    ]
    heavy = sum(c for c in classes.values() if c >= threshold)
    if Fraction(heavy, math.comb(k, 2)) >= delta and k >= 64 and 3 * len(members) < delta * k:
        raise FoldingBoundError(
            f"|U| = {len(members)} below delta*k/3 = {delta * k / 3} at k={k}"
        )
    return frozenset(members)


def outcome(fn, *args):
    try:
        return fn(*args)
    except (FoldingBoundError, SingleDirectionViolationError) as exc:
        return type(exc), str(exc)


def assert_kernel_matches_oracles(support, delta, ell):
    spectrum = FourierSpectrum(max(support).bit_length(), {m: 1 for m in support})
    profile = direction_classes(support)
    assert classes(profile) == naive_classes(support)
    assert listed_pairs(profile) == naive_pairs(support)
    counts, first = profile.partners(3)
    masks = profile.masks.tolist()
    witnesses = {a: masks[j] if c else None for a, c, j in zip(masks, counts.tolist(), first.tolist())}
    assert witnesses == naive_three_fold(support)
    report = outcome(single_direction_structure, spectrum)
    if isinstance(report, tuple):
        assert report == outcome(naive_single_direction, spectrum)
    else:
        expected = (report.nontrivial_counts, report.single_direction)
        assert expected == naive_single_direction(spectrum)
    assert outcome(heavy_participants, support, delta, ell) == outcome(
        naive_heavy, support, delta, ell
    )


@given(
    st.sets(st.integers(0, 255), min_size=2, max_size=80),
    st.sampled_from([Fraction(1, 100), Fraction(1, 9), Fraction(1, 3), Fraction(1)]),
    st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(1, 2)]),
    st.sampled_from([1, 64, pairs.BLOCK_ENTRIES]),
)
@settings(max_examples=60, deadline=None)
def test_kernel_matches_pair_loop_oracles(support, delta, ell, block_entries):
    # small block budgets split even tiny supports into many row blocks
    with mock.patch.object(pairs, "BLOCK_ENTRIES", block_entries):
        assert_kernel_matches_oracles(support, delta, ell)


@pytest.mark.parametrize(
    "support",
    [
        counterexample_support(24),  # masks at the n = 24 cap
        sorted(wht(gen_random(9, 1)).support()),  # k > 256: several row blocks
        sorted(wht(gen_modified_addressing(16)).support()),  # single directions
    ],
    ids=["counterexample-24", "random-9", "modified-addressing-16"],
)
def test_kernel_matches_pair_loop_oracles_fixed(support):
    assert_kernel_matches_oracles(support, Fraction(1, 9), Fraction(1, 4))


@pytest.mark.parametrize(
    "support",
    [
        addressing_support(16)[0],
        sorted(wht(gen_inner_product(3)).support()),  # k = 64: the averaging bound is checked
        sorted(wht(gen_modified_addressing(16)).support()),
        sorted(wht(gen_random(5, 3)).support()),
        counterexample_support(7),
    ],
    ids=["addressing-16", "inner-product-3", "modified-addressing-16", "random-5", "counterexample-7"],
)
def test_heavy_participants_matches_the_per_mask_fraction_rule(support):
    k = len(support)
    profile = direction_classes(support)
    for ell in (Fraction(0), Fraction(1, 4), Fraction(1, 2)):
        counts, _ = profile.partners(profile.folding_parameters(ell).class_size_threshold)
        # delta*k = 2c is a tie for the masks with c partners, 2c +- 1 is odd
        deltas = {Fraction(2 * c + d, k) for c in set(counts.tolist()) for d in (-1, 0, 1) if 2 * c + d > 0}
        for delta in sorted(deltas | {Fraction(1, 10**6)}):
            # naive_heavy is the per-mask rule 2c >= delta*k in Fractions
            assert outcome(heavy_participants, support, delta, ell) == outcome(naive_heavy, support, delta, ell)


@pytest.mark.parametrize(
    "support",
    [
        counterexample_support(5),
        counterexample_support(9),
        {m << 2 for m in counterexample_support(5)} | {1, 2},  # two strays below the rest
        {m << 2 for m in counterexample_support(9)} | {2, 1},
        (16, 8, 4, 2, 1),  # every class has one pair
        (1024, 7, 6, 5, 4, 3, 2, 1, 0, 2048),  # a subspace and two strays
    ],
    ids=["counterexample-5", "counterexample-9", "strays-5", "strays-9", "singletons", "subspace-strays"],
)
def test_verify_three_fold_matches_the_oracle_and_lists_missing_masks_sorted(support):
    witnesses = naive_three_fold(support)
    expected = [a for a, b in witnesses.items() if b is None]  # in mask order
    spectrum = FourierSpectrum(max(support).bit_length(), dict.fromkeys(support, 1))
    if not expected:
        assert verify_three_fold(spectrum) == witnesses
        return
    with pytest.raises(ThreeFoldViolationError) as raised:
        verify_three_fold(spectrum)
    assert raised.value.missing == sorted(expected) == expected
    assert all(type(a) is int for a in raised.value.missing)


def and2_support():
    return {0, 1, 2, 3}


def test_direction_classes_and2():
    profile = direction_classes(and2_support())
    assert classes(profile) == {1: 2, 2: 2, 3: 2}
    assert profile.total_pairs == 6
    # a profile compares by its support
    assert profile == direction_classes([3, 2, 1, 0])
    assert profile != direction_classes({0, 1, 2, 4})


def test_direction_classes_take_a_spectrum_masks_as_they_are():
    spectrum = wht(gen_random(6, 3))
    profile = direction_classes(spectrum.masks)
    assert profile.masks is spectrum.masks  # sorted int64 already: not sorted again
    # any other array is sorted and deduplicated first
    shuffled = np.concatenate((spectrum.masks[::-1], spectrum.masks[:3]))
    for support in (shuffled, shuffled.astype(np.int32), spectrum.masks.tolist()):
        again = direction_classes(support)
        assert classes(again) == classes(profile) and np.array_equal(again.masks, spectrum.masks)
    assert sign_feasibility(shuffled) == sign_feasibility(spectrum.masks) == sign_feasibility(set(spectrum.masks.tolist()))


def test_direction_classes_two_elements():
    profile = direction_classes({0b001, 0b110})
    assert classes(profile) == {0b111: 1}
    with pytest.raises(ValueError):
        direction_classes({-1, 1})


def test_direction_classes_addressing_cross_counts():
    # every cross-target direction of the 16-target addressing support has
    # exactly sqrt(16) = 4 pairs
    masks, addr_bits = addressing_support(16)
    profile = direction_classes(masks)
    for g, count in classes(profile).items():
        if (g >> addr_bits).bit_count() == 2:
            assert count == 4


@given(st.integers(2, 7), st.integers(0, 2**32))
@settings(max_examples=50, deadline=None)
def test_direction_classes_match_oracle_and_sum(n, seed):
    s = wht(gen_random(n, seed))
    if s.sparsity < 2:
        return
    profile = direction_classes(s.support())
    assert classes(profile) == naive_classes(s.support())
    assert listed_pairs(profile) == naive_pairs(s.support())
    assert profile.total_pairs == math.comb(s.sparsity, 2)


def test_pair_condition():
    assert check_pair_condition(and2_support()).ok
    # {000, 001, 010} as subsets of {x1,x2,x3}: masks {0, 4, 2}
    result = check_pair_condition({0, 4, 2})
    assert not result.ok
    assert result.violation == 2  # smallest of the three singleton directions
    assert check_pair_condition(counterexample_support(5)).ok


@given(st.integers(2, 7), st.integers(0, 2**32))
@settings(max_examples=50, deadline=None)
def test_pair_condition_holds_for_boolean_supports(n, seed):
    s = wht(gen_random(n, seed))
    if s.sparsity < 2:
        return
    assert check_pair_condition(s.support()).ok


def test_heavy_class_threshold_exact():
    assert heavy_class_threshold(4, 0) == 2
    assert heavy_class_threshold(16, Fraction(1, 2)) == 5
    assert heavy_class_threshold(64, Fraction(1, 2)) == 9
    assert heavy_class_threshold(8, Fraction(1, 2)) == 4  # ceil(sqrt 8) = 3
    assert heavy_class_threshold(64, 0.5) == 9  # float snaps to 1/2
    with pytest.raises(ValueError):
        heavy_class_threshold(4, -1)


def test_folding_parameters_boolean_at_zero():
    params = folding_parameters(and2_support(), 0)
    assert params.delta == 1


def test_folding_parameters_addressing_at_half():
    # only same-target directions qualify at exponent 1/2
    params = folding_parameters(addressing_support(64)[0], Fraction(1, 2))
    assert params.delta == Fraction(224, 2016) == Fraction(1, 9)
    params16 = folding_parameters(addressing_support(16)[0], Fraction(1, 2))
    assert params16.delta == Fraction(24, 120) == Fraction(1, 5)
    # vanishing fraction as k grows
    assert params.delta < params16.delta


@given(st.integers(3, 7), st.integers(0, 2**32))
@settings(max_examples=30, deadline=None)
def test_folding_delta_monotone_in_ell(n, seed):
    supp = wht(gen_random(n, seed)).support()
    if len(supp) < 2:
        return
    deltas = [
        folding_parameters(supp, ell).delta
        for ell in (0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1)
    ]
    assert all(a >= b for a, b in zip(deltas, deltas[1:]))


def test_heavy_participants_full_at_ell_zero():
    supp = wht(gen_inner_product(2)).support()
    assert heavy_participants(supp, 1, 0) == frozenset(supp)


def test_heavy_participants_empty_when_no_heavy_class():
    # all AND2 classes have size 2 < threshold 3 at ell = 1/2
    assert heavy_participants(and2_support(), Fraction(1, 100), Fraction(1, 2)) == frozenset()


def test_heavy_participants_addressing_bound_checked():
    supp = addressing_support(64)[0]
    # actual folding fraction at exponent 1/2 is 1/9; the averaging bound
    # |U| >= delta*k/3 is active because k = 64 meets the gate
    members = heavy_participants(supp, Fraction(1, 9), Fraction(1, 2))
    assert members == frozenset(supp)
    assert 3 * len(members) >= Fraction(1, 9) * 64


def test_three_fold_witnesses_and2_all_missing():
    # AND2's four masks fold in classes of two pairs: no partner in a class of three
    counts, _ = direction_classes(and2_support()).partners(3)
    assert counts.tolist() == [0, 0, 0, 0]


def test_verify_three_fold_gate():
    with pytest.raises(SparsityTooSmallError):
        verify_three_fold(wht(gen_random(2, 0)))


@pytest.mark.parametrize(
    "spectrum_factory",
    [
        lambda: wht(gen_addressing(16)),
        lambda: wht(gen_inner_product(2)),
        lambda: wht(gen_modified_addressing(4)),
    ],
)
def test_verify_three_fold_families(spectrum_factory):
    s = spectrum_factory()
    witnesses = verify_three_fold(s)
    assert set(witnesses) == s.support()
    sizes = classes(direction_classes(s.support()))
    for a, b in witnesses.items():
        assert sizes[a ^ b] >= 3


@given(st.integers(3, 8), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_three_fold_for_random_boolean(n, seed):
    s = wht(gen_random(n, seed))
    if s.sparsity <= 4:
        return
    assert set(verify_three_fold(s)) == s.support()


def test_single_direction_modified_addressing():
    s = wht(gen_modified_addressing(4))
    report = single_direction_structure(s)
    assert report.k == 10
    # z1 participates in exactly one nontrivial direction: toward z2, with
    # class size 5 = k/2
    assert report.nontrivial_counts[1] == 1
    assert report.single_direction[1] == (2, 5)
    assert report.single_direction[2] == (1, 5)


def test_single_direction_addressing_vacuous():
    report = single_direction_structure(wht(gen_addressing(16)))
    # every element participates in >= 2 nontrivial directions
    assert all(c >= 2 for c in report.nontrivial_counts.values())
    assert report.single_direction == {}


def test_single_direction_sign_counts():
    s = wht(gen_modified_addressing(4))
    report = single_direction_structure(s)
    assert report.positive_count + report.negative_count == report.k
    assert report.positive_count == sum(1 for c in s.coeffs.values() if c > 0)


@given(st.integers(3, 7), st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_plateaued_with_k_over_4_has_no_all_trivial_element(n, seed):
    s = wht(gen_random(n, seed))
    if s.sparsity <= 4:
        return
    report = single_direction_structure(s)
    assert all(c >= 1 for c in report.nontrivial_counts.values())


def test_sign_feasibility_and2():
    result = sign_feasibility(and2_support())
    assert result.feasible
    # actual AND2 signs satisfy every extracted constraint
    actual = {a: (1 if c > 0 else -1) for a, c in wht_and2().coeffs.items()}
    for _, a, b, c, d in result.constraints:
        assert actual[a] * actual[b] * actual[c] * actual[d] == -1
    # and so does the returned assignment
    for _, *members in result.constraints:
        prod = 1
        for m in members:
            prod *= result.assignment[m]
        assert prod == -1


def wht_and2():
    return FourierSpectrum(2, {0: 2, 1: 2, 2: 2, 3: -2})


@given(st.integers(2, 7), st.integers(0, 2**32))
@settings(max_examples=50, deadline=None)
def test_sign_feasibility_boolean_supports(n, seed):
    s = wht(gen_random(n, seed))
    result = sign_feasibility(s.support())
    assert result.feasible
    actual = {a: (1 if c > 0 else -1) for a, c in s.coeffs.items()}
    for _, *members in result.constraints:
        assert math.prod(actual[m] for m in members) == -1


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_counterexample_support(n):
    supp = counterexample_support(n)
    assert len(supp) == 2 * n - 2
    assert check_pair_condition(supp).ok
    result = sign_feasibility(supp)
    assert not result.feasible
    assert result.witness
    # the witness constraints XOR to the empty variable set with odd rhs
    member_multiset: dict[int, int] = {}
    for _, *members in result.witness:
        for m in members:
            member_multiset[m] = member_multiset.get(m, 0) ^ 1
    assert all(v == 0 for v in member_multiset.values())
    assert len(result.witness) % 2 == 1


def test_counterexample_n5_masks():
    assert counterexample_support(5) == (1, 2, 4, 8, 16, 19, 21, 25)
    assert max(counterexample_support(24)) < 1 << 24
    for n in (4, 25, 70):  # masks are capped at n <= 24
        with pytest.raises(ValueError):
            counterexample_support(n)


@pytest.mark.parametrize("k", [4, 16, 64])
def test_addressing_folding_profile(k):
    # in the fold report's classes, a direction of the addressing support
    # touches no target bit (a class of k/2 pairs) or two target bits (a
    # class of sqrt(k) pairs), and the two-target classes carry a fraction
    # (k - sqrt(k)) / (k - 1) >= 1 - 2/sqrt(k) of all pairs
    table = gen_addressing(k)
    spectrum = wht(table)
    result = runner.OPS["fold"][0](table, spectrum, runner.op_params("fold", {}, 0))
    addr_bits, sqrt_k = int(math.log2(k)) // 2, math.isqrt(k)
    sizes = {0: set(), 2: set()}
    cross = 0
    for direction, size in result["profile"]["classes"].items():
        touched = (int(direction) >> addr_bits).bit_count()
        assert touched in (0, 2), (direction, touched)
        sizes[touched].add(size)
        cross += size if touched == 2 else 0
    assert sizes == {0: {k // 2}, 2: {sqrt_k}}
    assert Fraction(cross, math.comb(k, 2)) == Fraction(k - sqrt_k, k - 1) >= 1 - Fraction(2, sqrt_k)


@pytest.mark.parametrize("x, expected", [(0.49, "49/100"), (0.3, "3/10"), (1e-4, "1/10000")])
def test_exponents_and_fractions_snap_floats_alike(x, expected):
    # a denominator limit of 1000 would read 1e-4 as 0
    assert folding.float_fraction(x) == Fraction(expected)
    assert folding.as_exponent(x) == runner.parse_fraction(x) == Fraction(expected)


def seed_sign_system(support):
    """Oracle: sign_feasibility's own inline RREF from before the shared
    elimination kernel, as (feasible, assignment, witness)."""
    masks = sorted(set(support))
    index = {a: i for i, a in enumerate(masks)}
    constraints = naive_constraints(masks)
    rows = []  # (varmask, rhs, combo), decreasing leads
    for ci, (_, *members) in enumerate(constraints):
        varmask = 0
        for member in members:
            varmask |= 1 << index[member]
        rhs, combo = 1, 1 << ci
        for r, rb, rc in rows:
            if (varmask >> (r.bit_length() - 1)) & 1:
                varmask ^= r
                rhs ^= rb
                combo ^= rc
        if varmask == 0:
            if rhs == 1:
                return False, None, tuple(constraints[j] for j in range(ci + 1) if (combo >> j) & 1)
            continue
        lead = varmask.bit_length() - 1
        rows = [
            (r ^ varmask, rb ^ rhs, rc ^ combo) if (r >> lead) & 1 else (r, rb, rc)
            for r, rb, rc in rows
        ]
        rows.append((varmask, rhs, combo))
        rows.sort(reverse=True)
    sigma = [0] * len(masks)
    for r, rb, _ in rows:
        sigma[r.bit_length() - 1] = rb
    return True, {a: (-1 if sigma[i] else 1) for a, i in index.items()}, None


def assert_sign_result_sound(result):
    if result.feasible:
        for _, *members in result.constraints:
            assert math.prod(result.assignment[m] for m in members) == -1
    else:
        # the witness's variable sets cancel while its odd count of rhs 1s sums to 1
        cancelled = set()
        for _, *members in result.witness:
            cancelled ^= set(members)
        assert not cancelled and len(result.witness) % 2 == 1


def sparse_support(data, n):
    """Sums of a few base vectors, so size-2 classes and dependent sign
    constraints come up at every n."""
    base = data.draw(st.lists(st.integers(1, (1 << n) - 1), min_size=2, max_size=6))
    picks = st.lists(st.booleans(), min_size=len(base), max_size=len(base))
    support = set()
    for _ in range(data.draw(st.integers(2, 24))):
        acc = 0
        for b, p in zip(base, data.draw(picks)):
            acc ^= b if p else 0
        support.add(acc)
    return support


@given(st.one_of(st.integers(3, 6), st.just(24)), st.data())
@settings(max_examples=150, deadline=None)
def test_sign_feasibility_matches_seed_rref(n, data):
    support = sparse_support(data, n)
    if len(support) < 2:
        return
    result = sign_feasibility(support)
    assert result.constraints == naive_constraints(support)
    assert (result.feasible, result.assignment, result.witness) == seed_sign_system(support)
    assert_sign_result_sound(result)


@pytest.mark.parametrize("n", range(5, 25))
def test_counterexample_sign_system_matches_seed_rref(n):
    support = counterexample_support(n)
    result = sign_feasibility(support)
    assert result.constraints == naive_constraints(support)
    assert (result.feasible, result.assignment, result.witness) == seed_sign_system(support)


@given(st.sets(st.integers(0, 63), min_size=2, max_size=10))
@example(set(counterexample_support(5)))  # k = 8, infeasible
@example({0, 1, 2, 3})
@settings(max_examples=150, deadline=None)
def test_sign_feasibility_matches_all_sign_vectors(support):
    result = sign_feasibility(support)
    masks = sorted(support)
    feasible = False
    for signs in itertools.product((1, -1), repeat=len(masks)):
        sign = dict(zip(masks, signs))
        feasible |= all(math.prod(sign[m] for m in members) == -1 for _, *members in result.constraints)
    assert result.feasible == feasible
    assert_sign_result_sound(result)


def test_floor_root_matches_brute_force():
    for b in range(1, 8):
        r = 0
        for x in range(3000):
            while (r + 1) ** b <= x:
                r += 1
            assert folding._floor_root(x, b) == r, (x, b)
    assert folding._floor_root(64**9999, 10000) == 63
    assert folding._floor_root(7**10000, 10000) == 7


def test_fold_ell_near_one_needs_no_float_root(capsys):
    assert heavy_class_threshold(64, Fraction(9999, 10000)) == 65
    assert main(["fold", "inner-product:m=3", "--ell", "9999/10000"]) == 0
    assert "class threshold 65" in capsys.readouterr().out


@pytest.mark.parametrize("ell", ["100000", "10001/10000", "1/1"])
def test_exponents_above_one_are_refused(capsys, ell):
    # no class reaches k^ell + 1 >= k + 1 pairs, and k**numerator could take
    # unbounded time; ell = 1 itself stays accepted
    if ell == "1/1":
        assert heavy_class_threshold(16, 1) == 17
        assert main(["fold", "addressing:k=16", "--ell", ell]) == 0
        return
    with pytest.raises(ValueError, match="exponent must be <= 1"):
        heavy_class_threshold(16, Fraction(ell))
    assert main(["fold", "addressing:k=16", "--ell", ell]) == 2
    assert capsys.readouterr().err.startswith("error: exponent must be <= 1")


def test_pair_lists_are_refused_above_the_guard():
    # the classes are counted; only the ops that list pairs refuse
    support = range(pairs.PAIR_LIST_GUARD + 1)
    assert direction_classes(support).k == pairs.PAIR_LIST_GUARD + 1
    with pytest.raises(ValueError, match="pair lists disabled"):
        sign_feasibility(support)
    spectrum = FourierSpectrum(13, dict.fromkeys(support, 1))
    with pytest.raises(ValueError, match="pair lists disabled"):
        runner.OPS["fold"][0](None, spectrum, runner.op_params("fold", {"pairs": True}, 0))


def test_fold_op_builds_one_profile(monkeypatch):
    spectrum = wht(gen_addressing(16))
    ell, delta = Fraction(1, 2), Fraction(1, 4)
    expected_params = folding_parameters(spectrum.support(), ell)
    expected_members = heavy_participants(spectrum.support(), delta, ell)
    calls = []
    real = folding.direction_classes

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(folding, "direction_classes", counting)
    out = runner.OPS["fold"][0](None, spectrum, runner.op_params("fold", {"ell": "1/2", "delta": "1/4"}, 0))
    assert len(calls) == 1
    assert out["delta"] == str(expected_params.delta)
    assert out["class_size_threshold"] == expected_params.class_size_threshold
    assert out["heavy_participants"] == sorted(expected_members)
