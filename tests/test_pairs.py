"""The pair kernel's two routes: XOR autocorrelations through the WHT
(dense) and row blocks of pair XORs, against pair-loop oracles and each
other, at the exact int64 bound, and in whole reports."""

import contextlib
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parityfold import pairs, runner
from parityfold.folding import direction_classes
from parityfold.pairs import WeightBoundError, direction_sums
from parityfold.spectral import FourierSpectrum, verify_titsworth

ROUTES = ["dense", "blocks", "chosen"]


def forced(route):
    """The route choice forced each way, or left to dense_route."""
    if route == "chosen":
        return contextlib.nullcontext()
    return mock.patch.object(pairs, "dense_route", lambda n, k: route == "dense")


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
    # k = 600 at 24 bits takes the blocks, 109 rows each, so the per-block
    # sums are summed again across blocks
    rng = np.random.default_rng(5)
    masks = np.unique(rng.integers(0, 1 << 24, 620))[:600]
    weights = rng.integers(-(2**20), 2**20, len(masks)).tolist()
    assert not pairs.dense_route(24, len(masks)) and len(masks) > pairs.BLOCK_ENTRIES // len(masks)
    expected = {}
    for (a, wa), (b, wb) in itertools.combinations(zip(masks.tolist(), weights), 2):
        expected[a ^ b] = expected.get(a ^ b, 0) + wa * wb
    directions, sums = direction_sums(masks, weights)
    assert directions.tolist() == sorted(expected)
    assert dict(zip(directions.tolist(), sums.tolist())) == expected


def fold_verify_ops():
    verify = [{"op": "verify", "check": check}
              for check in ("pair-condition", "three-fold", "single-direction", "sign-feasibility")]
    return [{"op": "fold", "ell": "1/2"}, {"op": "fold", "ell": "1/2", "delta": "1/10"},
            *verify, {"op": "analyze"}, {"op": "pdt", "strategy": "greedy-min-bucket"}]


@pytest.mark.parametrize("function", [{"family": "inner-product", "m": 4},
                                      {"family": "random", "n": 9, "seed": 7}])
def test_reports_are_byte_identical_on_both_routes(function, monkeypatch):
    config = {"seed": 0, "functions": [function], "analyses": fold_verify_ops()}
    reports = {}
    for dense in (True, False):
        monkeypatch.setattr(pairs, "dense_route", lambda n, k: dense)
        reports[dense] = runner.run_experiment(config).to_json()
    assert reports[True] == reports[False]


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
    assert pairs.direction_pairs(np.arange(0, 64, 3), np.array([], np.int64)) == {}
