"""The pair kernel's routes against pair-loop oracles and each other, at
the exact int64 bound, and in whole reports: XOR autocorrelations through
the WHT (dense) and row blocks of pair XORs for the per-direction sums,
and dense tables, a bincount table and one sort of pair keys for a
frontier's top directions."""

import contextlib
import functools
import itertools
import math
import operator
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parityfold import pairs, runner
from parityfold.folding import direction_classes
from parityfold.pairs import WeightBoundError, direction_sums
from parityfold.spectral import FourierSpectrum, verify_titsworth

ROUTES = ["dense", "blocks", "chosen"]


def butterfly_wht(arr):
    """Oracle: the radix-2 butterfly, one level at a time, as the library
    ran it before its radix-8 steps."""
    h = 1
    while h < len(arr):
        view = arr.reshape(len(arr) // (2 * h), 2, h, *arr.shape[1:])
        top = view[:, 0].copy()
        view[:, 0] += view[:, 1]
        view[:, 1] = top - view[:, 1]
        h <<= 1


def python_wht(values, n):
    """Oracle: sum_x (-1)^<a, x> v_x for every a, in Python ints (object arrays)."""
    signs = [[1 - 2 * ((a & x).bit_count() & 1) for x in range(1 << n)] for a in range(1 << n)]
    return np.array(signs, dtype=object) @ values.astype(object)


def wrapped(values):
    """Python ints taken mod 2^64 into [-2^63, 2^63), as int64 arithmetic leaves them."""
    return np.array([(v + (1 << 63)) % (1 << 64) - (1 << 63) for v in values.ravel().tolist()],
                    dtype=np.int64).reshape(values.shape)


@pytest.mark.parametrize("columns", [1, 2, 3, 8, 17, 600])
def test_fwht_matches_a_python_int_oracle(columns):
    # 600 columns is a wide (2^b, buckets) restriction table, all butterflies;
    # full-range entries wrap, and the transform is exact mod 2^64
    rng = np.random.default_rng(columns)
    for n in range(8):
        shape = (1 << n,) if columns == 1 else (1 << n, columns)
        bounded = rng.integers(-(2**63 >> n), 2**63 >> n, size=shape, dtype=np.int64)
        full = rng.integers(-(2**63), 2**63, size=shape, dtype=np.int64)
        for values in (bounded, full):
            got = values.copy()
            pairs.fwht_inplace(got)
            expected = python_wht(values, n)
            if values is bounded:  # every final value fits int64
                assert got.tolist() == expected.tolist()
            assert np.array_equal(got, wrapped(expected))


@pytest.mark.parametrize("columns", [1, 3, 64, 65])
def test_fwht_matches_the_butterfly_on_boolean_tables(columns):
    rng = np.random.default_rng(columns)
    for n in range(21 if columns == 1 else 11):
        shape = (1 << n,) if columns == 1 else (1 << n, columns)
        table = 1 - 2 * rng.integers(0, 2, size=shape, dtype=np.int64)
        got, expected = table.copy(), table.copy()
        pairs.fwht_inplace(got)
        butterfly_wht(expected)
        assert np.array_equal(got, expected), n


def test_fwht_is_exact_when_partial_sums_wrap():
    # the radix step's dot products reach 1.5 y (n = 2) and 7 z (n = 3),
    # beyond 2^63, while every final value fits int64
    y, z = 2**62 - 2, (2**63 - 1) // 6
    for values in ([y, y, y, -y], [z] * 7 + [-z]):
        arr = np.array(values, dtype=np.int64)
        n = len(values).bit_length() - 1
        expected = python_wht(arr, n).tolist()
        assert max(map(abs, expected)) < 2**63 <= max(itertools.accumulate(values))
        pairs.fwht_inplace(arr)
        assert arr.tolist() == expected


def forced(route):
    """The route choice forced each way (elementwise, as dense_route answers
    for arrays of segments), or left to dense_route."""
    if route == "chosen":
        return contextlib.nullcontext()
    return mock.patch.object(pairs, "dense_route", lambda n, k: np.full(np.shape(k), route == "dense"))


def naive_sums(masks, weights=None):
    """Oracle: per direction, the number of pairs or the sum of w_a w_b."""
    weights = [1] * len(masks) if weights is None else weights
    out = {}
    for (a, wa), (b, wb) in itertools.combinations(zip(masks, weights), 2):
        out[a ^ b] = out.get(a ^ b, 0) + wa * wb
    return dict(sorted(out.items()))


def naive_partners(masks, threshold):
    """Oracle: per sorted mask, its partners in classes of size >= threshold
    and the index of the smallest one (0 when none)."""
    masks = sorted(masks)
    classes = naive_sums(masks)
    counts, first = [], []
    for a in masks:
        hits = [j for j, b in enumerate(masks) if b != a and classes[a ^ b] >= threshold]
        counts.append(len(hits))
        first.append(hits[0] if hits else 0)
    return counts, first


def naive_titsworth(spectrum):
    """Oracle: directions whose unordered pair sum of c_a c_b is nonzero."""
    masks = list(spectrum.coeffs)
    sums = naive_sums(masks, [spectrum.coeffs[a] for a in masks])
    return [g for g, total in sums.items() if total]


# dense_route picks the dense route from k = 7 at n = 3 up to k = 97 at n = 9
supports = st.integers(1, 9).flatmap(
    lambda n: st.lists(st.integers(0, (1 << n) - 1), min_size=2, max_size=min(1 << n, 160), unique=True)
)
weight_values = st.sampled_from([-(2**20), -1, 1, 2**20]) | st.integers(-(2**20), 2**20)


@pytest.mark.parametrize("route", ROUTES)
@given(st.data())
@settings(max_examples=60, deadline=None)
def test_direction_sums_match_pair_loop(route, data):
    masks = data.draw(supports)
    weights = data.draw(st.lists(weight_values, min_size=len(masks), max_size=len(masks)))
    array = np.array(masks, dtype=np.int64)
    with forced(route):
        directions, counts = direction_sums(array)
        assert dict(zip(directions.tolist(), counts.tolist())) == naive_sums(masks)
        directions, sums = direction_sums(array, weights)
        assert dict(zip(directions.tolist(), sums.tolist())) == naive_sums(masks, weights)


@given(st.lists(st.integers(0, 2**24 - 1) | st.integers(2**31 - 3, 2**40), min_size=2, max_size=40, unique=True), st.data())
@settings(max_examples=60, deadline=None)
def test_block_direction_sums_are_int64_and_exact_on_wide_masks(masks, data):
    # the blocks keep their keys in int32 while every mask is below 2^31;
    # wider masks, which no spectrum has but a support list may, stay exact
    weights = data.draw(st.lists(weight_values, min_size=len(masks), max_size=len(masks)))
    array = np.array(masks, dtype=np.int64)
    with forced("blocks"):
        directions, counts = direction_sums(array)
        assert directions.dtype == counts.dtype == np.int64
        assert dict(zip(directions.tolist(), counts.tolist())) == naive_sums(masks)
        directions, sums = direction_sums(array, weights)
        assert directions.dtype == sums.dtype == np.int64
        assert dict(zip(directions.tolist(), sums.tolist())) == naive_sums(masks, weights)


@pytest.mark.parametrize("route", ROUTES)
@given(supports, st.sampled_from([1, 2, 3, 5, 9]), st.sampled_from([1, 7, pairs.BLOCK_ENTRIES]))
@settings(max_examples=60, deadline=None)
def test_partners_match_pair_loop(route, masks, threshold, block_entries):
    # small block budgets split the first-partner scan into many chunks
    with forced(route), mock.patch.object(pairs, "BLOCK_ENTRIES", block_entries):
        counts, first = direction_classes(masks).partners(threshold)
    assert (counts.tolist(), first.tolist()) == naive_partners(masks, threshold)


@pytest.mark.parametrize("route", ROUTES)
@given(st.data())
@settings(max_examples=60, deadline=None)
def test_titsworth_matches_pair_loop(route, data):
    masks = data.draw(supports)
    # equal magnitudes let pair products cancel
    values = st.sampled_from([-3, -1, 1, 3]) | st.integers(-(2**30), 2**30).filter(bool)
    coeffs = {a: data.draw(values) for a in masks}
    spectrum = FourierSpectrum(max(masks).bit_length(), coeffs)
    with forced(route):
        assert verify_titsworth(spectrum) == naive_titsworth(spectrum)


def test_dense_route_is_taken_for_dense_supports_only():
    assert pairs.dense_route(10, 1024) and pairs.dense_route(8, 256)
    # addressing k = 64 has n = 11: the blocks are cheaper
    assert not pairs.dense_route(11, 64)
    assert not pairs.dense_route(2, 4)  # n 2^n = k^2 / 2 is not below it


def test_dense_route_up_to_the_exact_int64_bound(monkeypatch):
    monkeypatch.setattr(pairs, "dense_route", lambda n, k: True)
    calls = []
    real = pairs.fwht_inplace
    monkeypatch.setattr(pairs, "fwht_inplace", lambda arr: calls.append(1) or real(arr))
    # n = 2 and sum c^2 = 2^61 - 1: 2^n sum c^2 = 2^63 - 4, the largest
    # product below 2^63 (k >= 2 distinct masks means n >= 1, so it is even)
    below = FourierSpectrum(2, {0: 1518500249, 1: 54777, 2: 315, 3: 114})
    assert sum(c * c for c in below.coeffs.values()) == 2**61 - 1
    assert verify_titsworth(below) == naive_titsworth(below) == [1, 2, 3]
    masks = np.arange(4, dtype=np.int64)
    weights = list(below.coeffs.values())
    directions, sums = direction_sums(masks, weights)
    assert dict(zip(directions.tolist(), sums.tolist())) == naive_sums(range(4), weights)
    assert calls
    # 2^n sum c^2 = 2^63 exactly: the blocks run
    calls.clear()
    at = FourierSpectrum(2, {0: 2**30, 3: -(2**30)})
    assert verify_titsworth(at) == naive_titsworth(at) == [3]
    directions, sums = direction_sums(masks, [2**30, 2**30, 0, 0])
    assert dict(zip(directions.tolist(), sums.tolist())) == naive_sums(range(4), [2**30, 2**30, 0, 0])
    assert not calls
    with pytest.raises(WeightBoundError):  # sum c^2 = 2^63
        verify_titsworth(FourierSpectrum(1, {0: 2**31, 1: 2**31}))
    with pytest.raises(WeightBoundError):
        direction_sums(masks, [2**31, 2**31, 1, 0])


def test_weighted_sums_over_many_blocks_match_a_dict_sum():
    # k = 600 at 24 bits takes the blocks: its 179,700 pairs are listed in
    # three blocks of whole rows and summed by one sort
    rng = np.random.default_rng(5)
    masks = np.unique(rng.integers(0, 1 << 24, 620))[:600]
    weights = rng.integers(-(2**20), 2**20, len(masks)).tolist()
    assert not pairs.dense_route(24, len(masks)) and math.comb(len(masks), 2) > 2 * pairs.BLOCK_ENTRIES
    expected = {}
    for (a, wa), (b, wb) in itertools.combinations(zip(masks.tolist(), weights), 2):
        expected[a ^ b] = expected.get(a ^ b, 0) + wa * wb
    directions, sums = direction_sums(masks, weights)
    assert directions.tolist() == sorted(expected)
    assert dict(zip(directions.tolist(), sums.tolist())) == expected


@pytest.mark.parametrize("block_entries", [1, 2, 7])
@given(st.data())
@settings(max_examples=30, deadline=None)
def test_weighted_block_sums_gather_across_chunks(block_entries, data):
    # _sum_by gathers the values of block_entries directions at a time, so
    # directions of several pairs fall on both sides of a chunk boundary
    masks = data.draw(supports)
    weights = data.draw(st.lists(weight_values, min_size=len(masks), max_size=len(masks)))
    with forced("blocks"), mock.patch.object(pairs, "BLOCK_ENTRIES", block_entries):
        directions, sums = direction_sums(np.array(masks, dtype=np.int64), weights)
    assert dict(zip(directions.tolist(), sums.tolist())) == naive_sums(masks, weights)


@given(st.lists(st.integers(0, 9), max_size=6), st.sampled_from([1, 7, pairs.BLOCK_ENTRIES]))
@settings(max_examples=60, deadline=None)
def test_pair_blocks_list_each_segments_combinations(sizes, block_entries):
    bounds = np.cumsum([0, *sizes])
    masks = np.arange(bounds[-1]) ** 2
    with mock.patch.object(pairs, "BLOCK_ENTRIES", block_entries):
        blocks = [[part.tolist() for part in block] for block in pairs.pair_blocks(masks, bounds)]
    listed = [pair for block in blocks for pair in zip(*block)]
    expected = [(a, b, int(masks[a] ^ masks[b]))
                for lo, hi in itertools.pairwise(bounds.tolist()) for a, b in itertools.combinations(range(lo, hi), 2)]
    assert listed == expected  # row-major
    for (a, _, _), (after, _, _) in itertools.pairwise([block for block in blocks if block[0]]):
        assert a[-1] != after[0]  # whole rows
    assert all(len(a) <= block_entries or len(set(a)) == 1 for a, _, _ in blocks)


def naive_top(segment):
    """Oracle: the direction of the most pairs, the smallest on a tie."""
    counts = naive_sums(segment)
    return min(counts, key=lambda g: (-counts[g], g))


def coset(basis, offset):
    """offset + span(basis), sorted: every direction of the span holds k/2
    pairs, so they all tie."""
    span = {0}
    for g in basis:
        span |= {a ^ g for a in span}
    return sorted(a ^ offset for a in span)


cosets = st.integers(1, 9).flatmap(
    lambda n: st.builds(coset, st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=6), st.integers(0, (1 << n) - 1))
)
# all but at most a quarter of the masks below 2^n: dense_route picks them
# for every n here, so one frontier holds dense segments of several widths
full_supports = st.integers(4, 7).flatmap(
    lambda n: st.sets(st.integers(0, (1 << n) - 1), max_size=1 << n - 2).map(lambda gone: sorted(set(range(1 << n)) - gone))
)
# masks of up to 24 bits: their (segments, 2^24) count table is past the
# bound, so their pair keys are sorted; forced dense, they would take
# tables of 2^24 rows, so the dense runs leave them out
wide_supports = st.lists(st.integers(0, (1 << 24) - 1), min_size=2, max_size=40, unique=True).map(sorted)


@pytest.mark.parametrize("route", ROUTES)
@given(st.data(), st.sampled_from([1, 7, pairs.BLOCK_ENTRIES]))
@settings(max_examples=60, deadline=None)
def test_top_directions_match_pair_loop(route, data, block_entries):
    # small block budgets split one segment's rows and sort every sparse
    # frontier; at the default one, chosen routes reach the dense counts,
    # the bincount table and (with wide masks) the sort
    kinds = supports.map(sorted) | cosets | full_supports
    segments = data.draw(st.lists(kinds if route == "dense" else kinds | wide_supports, min_size=1, max_size=5))
    masks = np.array([a for segment in segments for a in segment], dtype=np.int64)
    bounds = np.cumsum([0, *map(len, segments)])
    with (forced(route), mock.patch.object(pairs, "BLOCK_ENTRIES", block_entries),
          mock.patch.object(np, "bincount", wraps=np.bincount) as tables):
        top = pairs.top_directions(masks, bounds)
    assert top.tolist() == [naive_top(segment) for segment in segments]
    assert all(call.kwargs["minlength"] <= block_entries for call in tables.call_args_list)


def fold_verify_ops():
    verify = [{"op": "verify", "check": check}
              for check in ("pair-condition", "three-fold", "single-direction", "sign-feasibility")]
    return [{"op": "fold", "ell": "1/2"}, {"op": "fold", "ell": "1/2", "delta": "1/10"},
            *verify, {"op": "analyze"}, {"op": "pdt", "strategy": "greedy-min-bucket"}]


@pytest.mark.parametrize("function", [{"family": "inner-product", "m": 4},
                                      {"family": "random", "n": 9, "seed": 7}])
def test_reports_are_byte_identical_on_both_routes(function):
    # at BLOCK_ENTRIES = 1 every greedy round sorts its sparse pair keys
    config = {"seed": 0, "functions": [function], "analyses": fold_verify_ops()}
    reports = []
    for route, block_entries in [("dense", pairs.BLOCK_ENTRIES), ("blocks", pairs.BLOCK_ENTRIES),
                                 ("blocks", 1), ("chosen", 1)]:
        with forced(route), mock.patch.object(pairs, "BLOCK_ENTRIES", block_entries):
            reports.append(runner.run_experiment(config).to_json())
    assert reports[1:] == reports[:1] * 3


def test_sign_constraints_list_only_size_two_classes(monkeypatch):
    # inner product on 8 variables has every class of size k/2 = 128, so no
    # pair is listed at all
    listed = []
    real = pairs.direction_pairs
    monkeypatch.setattr("parityfold.folding.direction_pairs",
                        lambda masks, directions: listed.append(len(directions)) or real(masks, directions))
    config = {"functions": [{"family": "inner-product", "m": 4}],
              "analyses": [{"op": "verify", "check": "sign-feasibility"}]}
    result = runner.run_experiment(config).results[0]["analyses"][0]["result"]
    assert result["passed"] and result["detail"]["constraint_count"] == 0
    assert listed == [0]
    listing = pairs.direction_pairs(np.arange(0, 64, 3), np.array([], np.int64))
    assert [(x.dtype, len(x)) for x in listing] == [(np.int64, 0)] * 3


def spanned(data, bits):
    """Sums of a few base vectors of up to `bits` bits: supports with
    classes of several pairs."""
    base = data.draw(st.lists(st.integers(1, (1 << bits) - 1), min_size=2, max_size=5))
    picks = st.lists(st.booleans(), min_size=len(base), max_size=len(base))
    return {functools.reduce(operator.xor, itertools.compress(base, data.draw(picks)), 0)
            for _ in range(data.draw(st.integers(2, 24)))}


@pytest.mark.parametrize("block_entries", [1, 7, pairs.BLOCK_ENTRIES])
@given(st.data())
@settings(max_examples=60, deadline=None)
def test_direction_pairs_match_a_pair_loop(block_entries, data):
    # 24-bit masks, spans with classes of several pairs, unrealized
    # directions and empty direction lists; every block bound splits rows
    if data.draw(st.booleans()):
        support = data.draw(st.sets(st.integers(0, (1 << 24) - 1), min_size=2, max_size=40))
    else:
        support = spanned(data, data.draw(st.sampled_from([4, 24])))
    if len(support) < 2:
        return
    masks = np.array(sorted(support), dtype=np.int64)
    realized = sorted({a ^ b for a, b in itertools.combinations(masks.tolist(), 2)})
    chosen = {*data.draw(st.lists(st.sampled_from(realized))),
              *data.draw(st.lists(st.integers(1, (1 << 24) - 1), max_size=3))}
    expected = sorted(((a ^ b, a, b) for a, b in itertools.combinations(masks.tolist(), 2) if a ^ b in chosen),
                      key=lambda row: row[0])  # stable: row-major within a direction
    with mock.patch.object(pairs, "BLOCK_ENTRIES", block_entries):
        listing = pairs.direction_pairs(masks, np.array(sorted(chosen), dtype=np.int64))
    assert all(x.dtype == np.int64 for x in listing)
    assert list(zip(*(x.tolist() for x in listing))) == expected


def test_direction_pairs_are_refused_above_the_guard_whatever_the_directions():
    none = np.array([], dtype=np.int64)
    at_guard = np.arange(pairs.PAIR_LIST_GUARD, dtype=np.int64)
    assert all(len(x) == 0 for x in pairs.direction_pairs(at_guard, none))
    g, a, b = pairs.direction_pairs(at_guard, np.array([pairs.PAIR_LIST_GUARD - 1]))
    assert len(g) == pairs.PAIR_LIST_GUARD // 2 and (a ^ b).tolist() == g.tolist()
    over = np.arange(pairs.PAIR_LIST_GUARD + 1, dtype=np.int64)
    for directions in (none, np.array([1], dtype=np.int64)):
        with pytest.raises(ValueError, match=r"^pair lists disabled for k > 4096$"):
            pairs.direction_pairs(over, directions)
