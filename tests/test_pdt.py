import functools
import json
import math
import operator
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parityfold import builder, pdt, restriction, runner
from parityfold import trials as mc
from parityfold.cli import main
from parityfold.families import (
    gen_addressing,
    gen_conjunction,
    gen_inner_product,
    gen_parity,
    gen_random,
)
from parityfold.gf2 import DimensionMismatchError, coset_label, extend_basis, row_reduce
from parityfold.folding import counterexample_support
from parityfold.builder import _select_frontier
from parityfold.pdt import (
    DegenerateInputError,
    NotFoldingError,
    ParityDecisionTree,
    ResampleCapExceededError,
    build_pdt,
    estimate_bucket_reduction,
    folding_sampling_trial,
    sample_parity,
    verify_tree,
    warmup_success_rate,
)
from parityfold.pairs import dense_route
from parityfold.params import STRATEGIES, BuildConfig, SeedRangeError, check_sampling
from parityfold.restriction import bucket_complexity, restrict_batch
from parityfold.runner import canonical_json
from parityfold.spectral import FourierSpectrum, TruthTable, wht


def and2():
    return gen_conjunction(0b11, 2)


def leaf(value):
    return {"leaf": value}


def node(query, pos, neg):
    return {"query": query, "pos": pos, "neg": neg}


def tree_of(n, root):
    return ParityDecisionTree.from_dict({"n": n, "root": root})


def fold_rows(masks, union):
    """(kept batch, union size, bucket count) of each row of a fold, from
    the step, size and count arrays of pdt._fold_unions."""
    steps, sizes, counts = pdt._fold_unions(masks, union)
    k = len(masks)
    kept = [tuple(masks[row[row < k]].tolist()) for row in steps]
    return list(zip(kept, sizes.tolist(), counts.tolist()))


def one_step(support, probabilities, rng):
    """One sampling step from rng, as a build attempt takes it: one row
    drawn, then folded."""
    masks = np.array(support, dtype=np.int64)
    (step,) = fold_rows(masks, pdt._draw(np.empty((1, len(masks)), dtype=bool), probabilities, rng))
    return step


def test_evaluate_single_leaf():
    tree = tree_of(3, leaf(1))
    assert all(tree.evaluate(x) == 1 for x in range(8))
    assert tree.depth() == 0


def test_evaluate_single_query():
    tree = tree_of(2, node(0b01, leaf(1), leaf(-1)))
    assert tree.evaluate(0b10) == 1  # x1 = 0 so the parity is +1
    assert tree.evaluate(0b01) == -1
    assert tree.depth() == 1


def test_verify_tree():
    result = build_pdt(and2(), BuildConfig(seed=1))
    assert verify_tree(result.tree, and2())
    assert result.tree.evaluate(0b11) == -1
    assert not verify_tree(tree_of(2, leaf(1)), and2())


def test_verify_tree_guards():
    with pytest.raises(ValueError):
        verify_tree(tree_of(3, leaf(1)), and2())


def random_trees(n):
    """Trees at dimension n whose queries come from a pool of at most three
    masks and their XOR, so repeated and linearly dependent queries are
    common; at n = 0 only a bare leaf exists."""
    leaves = st.sampled_from([1, -1]).map(leaf)
    if n == 0:
        return leaves
    masks = st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=3)
    return masks.flatmap(lambda pool: st.recursive(
        leaves,
        lambda sub: st.builds(node, st.sampled_from(sorted({*pool, pool[0] ^ pool[-1]} - {0})), sub, sub),
        max_leaves=24,
    ))


def evaluate_dict(root, x):
    """Oracle: a tree's value at x, walking its dict form."""
    while "leaf" not in root:
        root = root["neg"] if (root["query"] & x).bit_count() & 1 else root["pos"]
    return root["leaf"]


@st.composite
def trees_and_tables(draw):
    n = draw(st.integers(0, 6))
    root = draw(random_trees(n))
    values = np.array([evaluate_dict(root, x) for x in range(1 << n)], dtype=np.int8)
    flip = draw(st.none() | st.integers(0, (1 << n) - 1))
    if flip is not None:
        values[flip] = -values[flip]
    return tree_of(n, root), TruthTable(n, values), flip is None


@given(trees_and_tables())
@settings(max_examples=300, deadline=None)
def test_verify_tree_matches_evaluate(case):
    tree, table, oracle = case
    assert all(tree.evaluate(x) == table.values[x] for x in range(1 << tree.n)) == oracle
    # chunks of 3 inputs exercise several chunks and a short last one
    for chunk in (pdt._VERIFY_CHUNK, 3):
        with mock.patch.object(pdt, "_VERIFY_CHUNK", chunk):
            assert verify_tree(tree, table) == oracle


def test_verify_tree_checks_every_chunk():
    # at n = 17 the inputs with x17 = 1 all lie past the first chunk
    tree = tree_of(17, node(1 << 16, leaf(1), leaf(-1)))
    table = gen_parity(1 << 16, 17)
    assert verify_tree(tree, table)
    values = table.values.copy()
    values[-1] = -values[-1]
    assert not verify_tree(tree, TruthTable(17, values))


def decision_list(depth, n):
    """A decision list of the given depth computing parity(mask=1, n), built
    in a loop: queries alternate x1 and x1 + xn, the pos leaf of level i is
    (-1)^i, and the inputs with x1 = 1, xn = 0 run to the bottom leaf."""
    root = leaf(-1)
    for i in reversed(range(depth)):
        root = node(1 if i % 2 == 0 else 1 | 1 << (n - 1), leaf(-1 if i % 2 else 1), root)
    return tree_of(n, root)


@pytest.mark.parametrize("n", [2, 12])
@pytest.mark.parametrize("depth", [900, 5000])
def test_verify_tree_deep_decision_list(n, depth):
    # 5000 levels exceed the default recursion limit: the check has no recursion
    tree, table = decision_list(depth, n), gen_parity(1, n)
    assert verify_tree(tree, table)
    assert not verify_tree(tree, TruthTable(n, -table.values))
    assert not verify_tree(tree, gen_parity(1 << (n - 1), n))


def complete_tree(batch, table):
    """The complete tree of depth n that asks batch[i] at level i, for a
    batch of rank n, and the leaf values of the table: x's leaf lies where
    the branch bits <batch[i], x> lead."""
    n = len(batch)
    leaves = [None] * (1 << n)
    for x in range(1 << n):
        leaves[sum(((g & x).bit_count() & 1) << i for i, g in enumerate(batch))] = leaf(int(table.values[x]))
    level = leaves  # level i's nodes by their branch bits, bit j taken at level j
    for i in reversed(range(n)):
        level = [node(batch[i], level[path], level[path | 1 << i]) for path in range(1 << i)]
    return tree_of(n, level[0])


def agrees(tree, table):
    return all(tree.evaluate(x) == table.values[x] for x in range(1 << tree.n))


@given(st.integers(1, 7), st.data())
@settings(max_examples=40, deadline=None)
def test_verify_tree_matches_evaluate_on_complete_trees(n, data):
    # a full-rank batch: the unit vectors, mixed by random row additions
    batch = [1 << i for i in range(n)]
    for i, j in data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12)):
        if i != j:
            batch[i] ^= batch[j]
    assert row_reduce(batch, n).rank == n
    table = gen_random(n, data.draw(st.integers(0, 2**32)))
    tree = complete_tree(batch, table)
    assert tree.depth() == n and len(tree.values) == 1 << n
    flip = data.draw(st.none() | st.integers(0, (1 << n) - 1))
    if flip is not None:  # every leaf is on the last level
        values = table.values.copy()
        values[flip] = -values[flip]
        table = TruthTable(n, values)
    for chunk in (pdt._VERIFY_CHUNK, 3):
        with mock.patch.object(pdt, "_VERIFY_CHUNK", chunk):
            assert verify_tree(tree, table) == agrees(tree, table) == (flip is None)


@pytest.mark.parametrize("n", [0, 3])
def test_verify_tree_matches_evaluate_on_a_single_leaf(n):
    for value in (1, -1):
        tree = tree_of(n, leaf(value))
        assert verify_tree(tree, TruthTable(n, np.full(1 << n, value))) and agrees(tree, TruthTable(n, np.full(1 << n, value)))
        wrong = np.full(1 << n, value)
        wrong[-1] = -value
        assert not verify_tree(tree, TruthTable(n, wrong)) and not agrees(tree, TruthTable(n, wrong))


def test_verify_tree_matches_evaluate_across_two_chunks():
    # at n = 17 the inputs with x17 = 1 fill the second chunk, whose leaves
    # lie two or three levels down, and the first chunk's at two
    n, high = 17, 1 << 16
    tree = tree_of(n, node(high, node(1, leaf(1), leaf(-1)), node(3, node(high | 2, leaf(-1), leaf(1)), leaf(1))))
    values = np.array([tree.evaluate(x) for x in range(1 << n)], dtype=np.int8)
    assert 2 * pdt._VERIFY_CHUNK == 1 << n
    assert verify_tree(tree, TruthTable(n, values))
    for x in (0, high - 1, high, (1 << n) - 4, (1 << n) - 1):  # x17 = 1, x1 = x2 = 0 runs three levels
        wrong = values.copy()
        wrong[x] = -wrong[x]
        assert not verify_tree(tree, TruthTable(n, wrong))


def test_verify_tree_keeps_early_arrivals_on_their_leaves():
    # in chunks of 3 inputs some reach a leaf while fewer than half of their
    # chunk have, and walk on with the rest: each stays on its own leaf,
    # whose value differs from leaf 0's
    tree = tree_of(4, node(
        7,
        node(5, leaf(1), node(2, node(1, leaf(-1), leaf(1)), leaf(-1))),
        node(5, node(10, node(11, leaf(1), leaf(-1)), node(7, leaf(1), leaf(1))), node(12, node(4, leaf(1), leaf(-1)), node(15, leaf(-1), leaf(1)))),
    ))
    values = np.array([tree.evaluate(x) for x in range(16)], dtype=np.int8)
    with mock.patch.object(pdt, "_VERIFY_CHUNK", 3):
        assert verify_tree(tree, TruthTable(4, values))
        for x in range(16):
            wrong = values.copy()
            wrong[x] = -wrong[x]
            assert not verify_tree(tree, TruthTable(4, wrong))


@pytest.mark.parametrize("strategy", ["greedy-min-bucket", "sampling"])
def test_verify_tree_finds_a_table_wrong_only_at_a_last_level_leaf(strategy):
    table = gen_random(8, 3)
    tree = build_pdt(table, BuildConfig(strategy=strategy)).tree
    assert verify_tree(tree, table) and agrees(tree, table)

    def leaf_depth(x):
        state, d = 0, 0
        while state >= 0:
            state, d = int(tree.child[2 * state + ((int(tree.query[state]) & x).bit_count() & 1)]), d + 1
        return d

    bottom = [x for x in range(1 << 8) if leaf_depth(x) == tree.depth()]
    assert bottom and len(bottom) < 1 << 8  # leaves on other levels too
    for x in bottom[:: max(1, len(bottom) // 4)]:
        values = table.values.copy()
        values[x] = -values[x]
        assert not verify_tree(tree, TruthTable(8, values)) and not agrees(tree, TruthTable(8, values))
    # a decision list, wrong only at its bottom leaf (x1 = 1, xn = 0)
    tree, values = decision_list(40, 6), gen_parity(1, 6).values.copy()
    values[1] = -values[1]
    assert not verify_tree(tree, TruthTable(6, values)) and not agrees(tree, TruthTable(6, values))


@pytest.mark.parametrize("depth", [900, 5000])
def test_deep_tree_walks_have_no_recursion(depth):
    # 5000 levels exceed the default recursion limit
    tree = decision_list(depth, 12)
    assert tree.depth() == depth
    paths = tree.paths()
    assert [len(path) for path in paths] == list(range(1, depth + 1)) + [depth]
    assert paths[-1] == tuple(1 if i % 2 == 0 else 1 | 1 << 11 for i in range(depth))
    encoded = canonical_json(tree.to_dict())
    assert canonical_json(ParityDecisionTree.from_dict(tree.to_dict()).to_dict()) == encoded
    assert ParityDecisionTree.from_dict(tree.to_dict()) == tree
    assert tree != decision_list(depth - 1, 12)


def test_tree_walks_visit_pos_before_neg():
    tree = tree_of(3, node(1, node(2, leaf(1), node(4, leaf(1), leaf(-1))), leaf(-1)))
    assert tree.depth() == 3
    assert tree.paths() == [(1, 2), (1, 2, 4), (1, 2, 4), (1,)]
    assert json.dumps(tree.to_dict()) == (
        '{"n": 3, "root": {"query": 1, "pos": {"query": 2, "pos": {"leaf": 1}, '
        '"neg": {"query": 4, "pos": {"leaf": 1}, "neg": {"leaf": -1}}}, "neg": {"leaf": -1}}}'
    )
    assert ParityDecisionTree.from_dict(tree.to_dict()) == tree


def test_cli_verifies_a_deep_tree_file(tmp_path, capsys):
    encoded = {"leaf": -1}
    for i in reversed(range(900)):
        encoded = {"query": 1 if i % 2 == 0 else 3, "pos": {"leaf": -1 if i % 2 else 1}, "neg": encoded}
    path = tmp_path / "tree.json"
    path.write_text(json.dumps({"n": 2, "root": encoded}))
    assert main(["pdt", "verify", str(path), "parity:mask=1,n=2"]) == 0
    assert main(["pdt", "verify", str(path), "parity:mask=2,n=2"]) == 1
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("query", [4, 2**32, 2**70])
def test_out_of_range_queries_are_refused(tmp_path, capsys, query):
    data = {"n": 2, "root": {"query": query, "pos": {"leaf": 1}, "neg": {"leaf": -1}}}
    with pytest.raises(DimensionMismatchError):
        ParityDecisionTree.from_dict(data)
    with pytest.raises(DimensionMismatchError):
        tree_of(2, node(1, leaf(1), node(query, leaf(-1), leaf(1))))
    if query < 1 << 32:  # an array-built tree holds queries as uint32
        arrays = [(1, query), (~0, 1, ~1, ~2), (1, -1, 1)]
        tree = ParityDecisionTree(2, *(np.array(a, dtype=t) for a, t in zip(arrays, (np.uint32, np.int32, np.int8))))
        with pytest.raises(DimensionMismatchError):
            verify_tree(tree, gen_inner_product(1))
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(data))
    assert main(["pdt", "verify", str(path), "inner-product:m=1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "does not fit in 2 bits" in err


def naive_greedy_batch(spectrum, epsilon):
    """Oracle: greedy-min-bucket's batch, counting label pairs in Python."""
    support_sorted = sorted(spectrum.coeffs)
    target = (1 - epsilon) * len(support_sorted)
    labels, batch, bcount = support_sorted, [], len(support_sorted)
    while bcount > 1 and bcount > target:
        classes = {}
        for i, a in enumerate(labels):
            for b in labels[i + 1 :]:
                classes[a ^ b] = classes.get(a ^ b, 0) + 1
        batch.append(max(classes.items(), key=lambda kv: (kv[1], -kv[0]))[0])
        basis = row_reduce(batch, spectrum.n)
        labels = sorted({coset_label(a, basis) for a in support_sorted})
        bcount = len(labels)
    return tuple(batch), bcount


def select(spectra, cfg):
    """(batch, bucket count) per node of one deterministic frontier of the
    spectra (all of one n), after checking each mask's label and tag: the
    mask is its label plus the batch members its tag names, batch[0] on the
    tag's top bit."""
    n = spectra[0].n
    supports = [sorted(s.coeffs) for s in spectra]
    masks = np.array([a for support in supports for a in support], dtype=np.int64)
    coeffs = np.array([s.coeffs[a] for s, support in zip(spectra, supports) for a in support], dtype=np.int64)
    bounds = np.cumsum([0] + [len(support) for support in supports])
    keys, _, tag, picked = _select_frontier(masks, coeffs, bounds, cfg, None, n)
    label = keys & (1 << 24) - 1
    for lo, hi, (batch, *_) in zip(bounds, bounds[1:], picked):
        basis = row_reduce(batch, n)
        for a, lab, t in zip(masks[lo:hi].tolist(), label[lo:hi].tolist(), tag[lo:hi].tolist()):
            named = [g for i, g in enumerate(batch) if t >> (len(batch) - 1 - i) & 1]
            assert lab == coset_label(a, basis) == functools.reduce(operator.xor, named, a)
    return [(batch, bcount) for batch, bcount, *_ in picked]


def assert_greedy_matches_oracle(spectrum, epsilon):
    cfg = BuildConfig(strategy="greedy-min-bucket", epsilon=epsilon)
    assert select([spectrum], cfg) == [naive_greedy_batch(spectrum, cfg.epsilon)]


@given(
    st.sets(st.integers(0, 255), min_size=2, max_size=60),
    st.sampled_from([Fraction(1, 2), Fraction(9, 10)]),
)
@settings(max_examples=40, deadline=None)
def test_greedy_batch_matches_pair_loop_oracle(support, epsilon):
    assert_greedy_matches_oracle(FourierSpectrum(8, {m: 1 for m in support}), epsilon)


def test_greedy_batch_matches_pair_loop_oracle_at_mask_cap():
    support = counterexample_support(24)
    assert_greedy_matches_oracle(FourierSpectrum(24, {m: 1 for m in support}), Fraction(9, 10))


@given(st.sets(st.integers(0, 255), min_size=2, max_size=40), st.sampled_from([Fraction(1, 2**70), Fraction(2**70 - 1, 2**70)]))
@settings(max_examples=20, deadline=None)
def test_greedy_batch_matches_pair_loop_oracle_past_int64_epsilon(support, epsilon):
    # (1 - epsilon) k, rounded down, in Python ints: the denominator times k
    # would wrap int64
    assert_greedy_matches_oracle(FourierSpectrum(8, {m: 1 for m in support}), epsilon)


def naive_max_coefficient_direction(spectrum):
    """Oracle: the max-coefficient pair scan, one Python loop over all pairs."""
    items = sorted(spectrum.coeffs.items())
    best_key = None
    best_dir = 0
    for i, (a, ca) in enumerate(items):
        for b, cb in items[i + 1 :]:
            key = (abs(ca * cb), -(a ^ b), -a)
            if best_key is None or key > best_key:
                best_key = key
                best_dir = a ^ b
    return best_dir


def assert_max_coefficient_matches_oracle(spectrum):
    ((batch, bcount),) = select([spectrum], BuildConfig(strategy="max-coefficient"))
    assert batch == (naive_max_coefficient_direction(spectrum),)
    assert bcount == bucket_complexity(spectrum.coeffs, batch, spectrum.n).bucket_count


@given(
    st.dictionaries(
        st.integers(0, 255),
        # few magnitudes force ties on |c_a c_b| (2 * 2 == 4 * 1); the wide
        # range reaches sum c^2 >= 2^63
        st.sampled_from([-4, -2, -1, 1, 2, 4]) | st.integers(-(2**40), 2**40).filter(bool),
        min_size=2,
        max_size=60,
    )
)
@settings(max_examples=80, deadline=None)
def test_max_coefficient_matches_pair_loop_oracle(coeffs):
    assert_max_coefficient_matches_oracle(FourierSpectrum(8, coeffs))


def test_max_coefficient_with_a_unique_top_weight_pairs_it_with_the_second_weight():
    # 9 * 3 is the heaviest product, and 12 ^ 1 = 13 its smallest direction;
    # the lighter pairs (1, 3) and (7, 6) have the smaller directions 2 and 1
    spectrum = FourierSpectrum(4, {12: 9, 1: 3, 3: -3, 7: -1, 6: 1})
    ((batch, _),) = select([spectrum], BuildConfig(strategy="max-coefficient"))
    assert batch == (13,) == (naive_max_coefficient_direction(spectrum),)
    assert_max_coefficient_matches_oracle(spectrum)


def test_max_coefficient_matches_pair_loop_oracle_at_mask_cap():
    support = counterexample_support(24)
    coeffs = {m: (-1) ** i * (1 + i % 3) for i, m in enumerate(support)}
    assert_max_coefficient_matches_oracle(FourierSpectrum(24, coeffs))
    # a unique top weight on the largest mask, then a top class of two
    assert_max_coefficient_matches_oracle(FourierSpectrum(24, {**coeffs, support[-1]: 5}))
    assert_max_coefficient_matches_oracle(
        FourierSpectrum(24, {**coeffs, support[0]: 5, support[-1]: -5})
    )


def test_max_coefficient_ties_go_to_the_smallest_direction():
    # the heaviest pairs (0,5), (0,6) and (5,6) all weigh 4; the last one
    # has the smallest direction, and the lighter (0,1) has a smaller one still
    spectrum = FourierSpectrum(3, {0: 2, 1: 1, 5: -2, 6: 2})
    ((batch, _),) = select([spectrum], BuildConfig(strategy="max-coefficient"))
    assert batch == (3,) == (naive_max_coefficient_direction(spectrum),)


SMALL_SUPPORTS = st.dictionaries(
    st.integers(0, 255), st.sampled_from([-4, -2, -1, 1, 2, 4]), min_size=2, max_size=40
)


@given(
    st.lists(SMALL_SUPPORTS, max_size=4),
    st.dictionaries(st.integers(0, 31), st.sampled_from([-2, -1, 1, 2]), min_size=20, max_size=32),
    st.data(),
)
@settings(max_examples=30, deadline=None)
def test_frontier_selection_matches_the_per_node_oracles(supports, dense, data):
    # one frontier of 2-6 supports at n = 24: mixed sizes, one node on the
    # dense route and one with masks at the 24-bit cap
    assert dense_route(max(dense).bit_length(), len(dense))
    cap = {m: (-1) ** i * (1 + i % 3) for i, m in enumerate(counterexample_support(24))}
    spectra = [FourierSpectrum(24, coeffs) for coeffs in [*supports, dense, cap]]
    spectra = data.draw(st.permutations(spectra))
    for epsilon in (Fraction(1, 2), Fraction(9, 10)):
        cfg = BuildConfig(strategy="greedy-min-bucket", epsilon=epsilon)
        assert select(spectra, cfg) == [naive_greedy_batch(s, epsilon) for s in spectra]
    expected = [(naive_max_coefficient_direction(s),) for s in spectra]
    assert [batch for batch, _ in select(spectra, BuildConfig(strategy="max-coefficient"))] == expected


def test_tree_json_roundtrip():
    result = build_pdt(gen_addressing(4), BuildConfig(seed=3))
    data = result.tree.to_dict()
    assert ParityDecisionTree.from_dict(data) == result.tree


def test_sample_parity_extremes():
    rng = np.random.default_rng(0)
    assert sample_parity([1, 2, 3], 0.0, rng) == []
    assert sample_parity([3, 1, 2], 1.0, rng) == [1, 2, 3]


def test_sample_parity_deterministic():
    supp = sorted(wht(gen_addressing(16)).coeffs)
    a = sample_parity(supp, 1 / 8, np.random.default_rng(42))
    b = sample_parity(supp, 1 / 8, np.random.default_rng(42))
    assert a == b
    assert set(a) <= set(supp)


def test_sample_parity_sorts_a_numpy_array_like_a_list():
    supp = sorted(wht(gen_inner_product(3)).coeffs)
    shuffled = np.random.default_rng(7).permutation(supp)
    a = sample_parity(shuffled, 0.4, np.random.default_rng(3))
    b = sample_parity(shuffled.tolist(), 0.4, np.random.default_rng(3))
    assert a == b == sample_parity(supp, 0.4, np.random.default_rng(3))
    assert type(a) is list and all(type(m) is int for m in a)
    assert shuffled.tolist() != supp  # the caller's array is not sorted in place


def test_build_constant():
    t = TruthTable(3, np.ones(8))
    result = build_pdt(t)
    assert result.tree == tree_of(3, leaf(1))
    assert result.depth() == 0


def test_build_single_character():
    t = gen_parity(0b101, 3)
    result = build_pdt(t)
    assert result.depth() == 1
    assert result.tree.to_dict()["root"] == node(0b101, leaf(1), leaf(-1))
    assert verify_tree(result.tree, t)


def test_build_degenerate():
    with pytest.raises(DegenerateInputError):
        build_pdt(FourierSpectrum(3, {}))


def test_build_accepts_coefficients_up_to_two_to_the_n():
    for n in (3, 24):
        full = 1 << n
        assert build_pdt(FourierSpectrum(n, {5: full})).tree == tree_of(n, node(5, leaf(1), leaf(-1)))
        assert build_pdt(FourierSpectrum(n, {0: -full})).tree == tree_of(n, leaf(-1))
        # rejected up front, before any restriction
        for coeffs in ({5: full + 1, 6: 1}, {5: 1, 6: -full - 1}, {5: np.int64(-(1 << 63)), 6: 1}):
            with pytest.raises(DegenerateInputError, match="> 2\\^n"):
                build_pdt(FourierSpectrum(n, coeffs))


def test_build_resample_cap():
    cfg = BuildConfig(strategy="sampling", probability=1e-12, resample_cap=2, seed=0)
    with pytest.raises(ResampleCapExceededError):
        build_pdt(and2(), cfg)


RESAMPLE_CAP_ARGS = ["build", "random:n=6,seed=1", "--resample-cap", "1", "--epsilon", "99/100"]


def test_cli_pdt_build_resample_cap_is_a_failed_build(capsys):
    assert main(["--seed", "1", "pdt", *RESAMPLE_CAP_ARGS]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: no batch met") and "Traceback" not in err


def test_cli_experiment_resample_cap_is_a_failed_build(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "seed": 1,
        "functions": [{"family": "random", "n": 6, "seed": 1}],
        "analyses": [{"op": "pdt", "resample_cap": 1, "epsilon": "99/100"}],
    }))
    assert main(["experiment", str(config), "-o", str(tmp_path / "r.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: no batch met") and "Traceback" not in err


NON_INTEGER_TREES = {
    "n-float": {"n": 1.5, "root": {"leaf": 1}},
    "n-bool": {"n": True, "root": {"leaf": 1}},
    "leaf-float": {"n": 1, "root": {"leaf": 1.7}},
    "leaf-bool": {"n": 1, "root": {"leaf": True}},
    "query-float": {"n": 1, "root": {"query": 1.0, "pos": {"leaf": 1}, "neg": {"leaf": -1}}},
    "query-bool": {"n": 1, "root": {"query": True, "pos": {"leaf": 1}, "neg": {"leaf": -1}}},
}


@pytest.mark.parametrize("name", sorted(NON_INTEGER_TREES))
def test_tree_from_dict_needs_json_integers(name):
    with pytest.raises(ValueError, match="must be an integer"):
        ParityDecisionTree.from_dict(NON_INTEGER_TREES[name])


@pytest.mark.parametrize("name", sorted(NON_INTEGER_TREES))
def test_cli_rejects_non_integer_tree_files(tmp_path, capsys, name):
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(NON_INTEGER_TREES[name]))
    assert main(["pdt", "depth", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "must be an integer" in err


@pytest.mark.parametrize("strategy", ["sampling", "folding-sampling", "max-coefficient", "greedy-min-bucket"])
def test_build_strategies_sound_on_small_corpus(strategy):
    for table in [and2(), gen_addressing(4), gen_inner_product(2), gen_random(5, 7)]:
        cfg = BuildConfig(strategy=strategy, seed=11)
        result = build_pdt(table, cfg)
        assert verify_tree(result.tree, table)


def test_build_folding_sampling_with_parameters():
    cfg = BuildConfig(
        strategy="folding-sampling", seed=5, delta=Fraction(1), ell=Fraction(0)
    )
    result = build_pdt(gen_inner_product(2), cfg)
    assert verify_tree(result.tree, gen_inner_product(2))


def test_path_queries_linearly_independent():
    for seed in (0, 1, 2):
        result = build_pdt(gen_addressing(16), BuildConfig(seed=seed))
        for path in result.tree.paths():
            assert row_reduce(path, result.tree.n).rank == len(path)


def test_build_deterministic():
    cfg = BuildConfig(seed=9)
    a = build_pdt(gen_addressing(16), cfg)
    b = build_pdt(gen_addressing(16), cfg)
    assert a.tree == b.tree
    assert a.log == b.log
    c = build_pdt(gen_addressing(16), BuildConfig(seed=10))
    assert c.tree != a.tree or c.log != a.log


def test_build_log_progress_invariants():
    cfg = BuildConfig(seed=4)
    result = build_pdt(gen_addressing(16), cfg)
    for record in result.log:
        k = record.sparsity_before
        assert record.max_child_sparsity <= record.bucket_count
        if record.target_met:
            assert record.bucket_count <= (1 - cfg.epsilon) * k
        else:
            assert record.bucket_count <= k - 1
        assert len(record.batch) >= 1
        assert record.resamples >= 1


@pytest.mark.parametrize("m,strategy", [(5, "sampling"), (6, "sampling"), (5, "max-coefficient")])
def test_build_inner_product_at_scale(m, strategy):
    table = gen_inner_product(m)
    result = build_pdt(table, BuildConfig(strategy=strategy, seed=0))
    assert verify_tree(result.tree, table)
    if (m, strategy) == (5, "sampling"):
        assert result.depth() == 10


def test_build_addressing64_sound_within_depth_budget():
    table = gen_addressing(64)
    result = build_pdt(table, BuildConfig(seed=0))
    assert verify_tree(result.tree, table)
    assert result.depth() <= 4 * math.isqrt(64)


def test_build_log_jsonl(tmp_path):
    # pdt build --log writes the result block's node records, one JSON object a line
    log = tmp_path / "build.jsonl"
    assert main(["--seed", "2", "--json", "pdt", "build", "addressing:k=4", "--log", str(log)]) == 0
    block = runner.run_experiment({"seed": 2, "functions": [{"family": "addressing", "k": 4}],
                                   "analyses": [{"op": "pdt"}]}).results[0]["analyses"][0]["result"]
    records = [json.loads(line) for line in log.read_text().splitlines()]
    assert records == block["node_records"] != []
    assert log.read_text() == "".join(json.dumps(r, sort_keys=True) + "\n" for r in block["node_records"])


def test_config_validation():
    with pytest.raises(ValueError):
        BuildConfig(strategy="magic")
    with pytest.raises(ValueError):
        BuildConfig(probability=0.0)
    with pytest.raises(ValueError):
        BuildConfig(resample_cap=0)
    with pytest.raises(ValueError):
        BuildConfig(epsilon=Fraction(1))
    # folding-sampling parameters: delta in (0, 1], ell an exponent in [0, 1]
    for bad in ({"delta": 0}, {"delta": Fraction(5)}, {"ell": 100000}, {"ell": Fraction(-1, 2)}):
        with pytest.raises(ValueError):
            BuildConfig(strategy="folding-sampling", **bad)
    config = BuildConfig(strategy="folding-sampling", delta=1, ell=0.5)
    assert (config.delta, config.ell) == (1, Fraction(1, 2))


def test_estimate_bucket_reduction_p0_mean_exactly_one():
    stats = estimate_bucket_reduction(gen_inner_product(2), 0.0, 5, 0)
    assert stats.mean_bucket_fraction == 1
    assert stats.bucket_counts == (16,) * 5


def test_estimate_bucket_reduction_p1_minimal():
    s = wht(gen_addressing(16))
    stats1 = estimate_bucket_reduction(s, 1.0, 3, 0)
    stats0 = estimate_bucket_reduction(s, 0.0, 3, 0)
    # at p=1 the whole support is spanned: one bucket per coset of span(S)
    full = row_reduce(sorted(s.coeffs), s.n)
    expected = len({coset_label(a, full) for a in s.coeffs})
    assert set(stats1.bucket_counts) == {expected}
    assert stats1.mean_bucket_fraction <= stats0.mean_bucket_fraction


def test_estimate_bucket_reduction_guards():
    with pytest.raises(ValueError):
        estimate_bucket_reduction(gen_inner_product(2), 0.5, 0, 0)
    with pytest.raises(ValueError):
        estimate_bucket_reduction(gen_parity(1, 2), 0.5, 1, 0)  # k = 1 < 4


def test_trial_determinism():
    a = estimate_bucket_reduction(gen_inner_product(3), 1 / 8, 20, 123)
    b = estimate_bucket_reduction(gen_inner_product(3), 1 / 8, 20, 123)
    assert a == b
    c = estimate_bucket_reduction(gen_inner_product(3), 1 / 8, 20, 124)
    assert c.bucket_counts != a.bucket_counts


def test_warmup_clamps_and_succeeds_on_full_support():
    # k = 16: the formula gives p = 2*sqrt(4)/2 = 2, clamped to 1; the full
    # span of the inner-product support is everything, so one bucket remains
    stats = warmup_success_rate(gen_inner_product(2), 10, 1)
    assert stats.clamped
    assert stats.probabilities == (1.0,)
    assert stats.success_fraction == 1
    assert set(stats.bucket_counts) == {1}


def test_warmup_guards():
    with pytest.raises(ValueError):
        warmup_success_rate(gen_inner_product(2), 0, 1)


def test_folding_sampling_trial_ip4():
    stats = folding_sampling_trial(gen_inner_product(2), 1, 0, 10, 3)
    assert stats.clamped  # the second-phase formula far exceeds 1 at k = 16
    assert stats.success_threshold == Fraction(40, 3)  # 16 - 16/6
    assert stats.success_fraction == 1


def test_folding_sampling_trial_rejects_non_folding():
    with pytest.raises(NotFoldingError):
        folding_sampling_trial(gen_addressing(16), 1, Fraction(1, 2), 5, 0)
    with pytest.raises(ValueError):
        folding_sampling_trial(gen_inner_product(2), 1, 0, 0, 0)


def test_calculus_inequality_examples():
    # (1-p)^d <= 1 - p*d/2 in exact rationals, which the analysis uses for p*d <= 1
    for d, p in ((0, Fraction(1, 3)), (1, Fraction(1)), (10, Fraction(1, 10))):  # (1, 1): 0 <= 1/2
        assert (1 - p) ** d <= 1 - p * d / 2
    assert (1 - Fraction(1, 2)) ** 10 > 1 - Fraction(1, 2) * 10 / 2  # p*d = 5 > 1: it fails


@given(st.integers(0, 60), st.data())
@settings(max_examples=80, deadline=None)
def test_calculus_inequality_property(d, data):
    denom = data.draw(st.integers(max(1, d), 4 * max(1, d)))
    p = Fraction(1, denom) if d else data.draw(st.fractions(0, 1))
    assert (1 - p) ** d <= 1 - p * d / 2


@given(st.integers(1, 10), st.data())
@settings(max_examples=80, deadline=None)
def test_sampling_trial_basis_is_row_reduce_of_batch(n, data):
    support = sorted(data.draw(st.sets(st.integers(0, (1 << n) - 1), min_size=1, max_size=14)))
    probs = tuple(data.draw(st.lists(st.sampled_from([0.0, 0.3, 0.5, 1.0]), min_size=1, max_size=2)))
    seed = data.draw(st.integers(0, 2**32 - 1))
    batch, size, bcount = one_step(support, probs, np.random.default_rng(seed))
    replay = np.random.default_rng(seed)
    union = set()
    for p in probs:
        union.update(sample_parity(support, p, replay))
    sampled = sorted(union)
    # oracle: grow the basis one extend_basis per sampled parity, in sorted order
    kept, basis = [], row_reduce((), n)
    for v in sampled:
        extended = extend_basis(basis, v)
        if extended is not None:
            kept.append(v)
            basis = extended
    assert batch == tuple(kept)
    assert size == len(union)
    rows = [row for row, _, _ in basis.rows]
    assert rows == [row for row, _, _ in row_reduce(batch, n).rows]
    assert basis.rank == len(batch)
    assert rows == [row for row, _, _ in row_reduce(sampled, n).rows]
    assert bcount == len({coset_label(a, basis) for a in support})


@pytest.mark.parametrize("seed", range(4))
def test_build_attempt_and_mc_trial_are_the_same_step(seed):
    # one resample attempt of a build and trial 0 of a Monte Carlo run, from
    # the same generator state, draw the same batch and bucket count
    spectrum = wht(gen_addressing(16))
    p = 0.3
    cfg = BuildConfig(strategy="sampling", probability=p, resample_cap=1, epsilon=Fraction(1, 100))
    try:
        masks = np.array(sorted(spectrum.coeffs), dtype=np.int64)
        bounds = np.array([0, len(masks)])
        ((batch, bcount, *_),) = _select_frontier(masks, masks, bounds, cfg, np.random.default_rng((seed, 0)), spectrum.n)[3]
    except ResampleCapExceededError as exc:  # the attempt made no progress
        batch, bcount = exc.best_batch, exc.best_bucket_count
    stats = estimate_bucket_reduction(spectrum, p, 1, seed)
    step = one_step(sorted(spectrum.coeffs), (p,), np.random.default_rng((seed, 0)))
    assert batch
    assert (batch, bcount) == (step[0], step[2])
    assert (stats.sample_sizes, stats.bucket_counts) == ((step[1],), (bcount,))


@given(st.integers(1, 10), st.data())
@settings(max_examples=60, deadline=None)
def test_trial_rows_equal_one_generator_calls(n, data):
    # row t of a many-row fold is the step generator t alone draws and folds
    support = sorted(data.draw(st.sets(st.integers(0, (1 << n) - 1), min_size=1, max_size=40)))
    probs = tuple(data.draw(st.lists(st.sampled_from([0.0, 0.1, 0.3, 1.0]), min_size=1, max_size=2)))
    seeds = data.draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6))
    union = np.empty((len(seeds), len(support)), dtype=bool)
    for row, s in zip(union, seeds):
        pdt._draw(row, probs, np.random.default_rng(s))
    rows = fold_rows(np.array(support, dtype=np.int64), union)
    assert rows == [one_step(support, probs, np.random.default_rng(s)) for s in seeds]


@pytest.mark.parametrize("cells", [1, 40, 100])
def test_trials_spanning_several_chunks_match_per_trial_calls(monkeypatch, cells):
    spectrum = wht(gen_inner_product(2))  # k = 16: 2 trials per 40 cells, 5 per 100
    support = sorted(spectrum.coeffs)
    single = [one_step(support, (0.2,), np.random.default_rng((9, t))) for t in range(13)]
    monkeypatch.setattr(mc, "_TRIAL_CHUNK_CELLS", cells)
    stats = estimate_bucket_reduction(spectrum, 0.2, 13, 9)
    assert stats.bucket_counts == tuple(count for _, _, count in single)
    assert stats.sample_sizes == tuple(size for _, size, _ in single)


def test_sampling_trial_skips_mask_zero():
    # mask 0 is in every span: it is drawn and counted in the union, never kept
    support = [0, 0b001, 0b010, 0b011, 0b100]
    assert one_step(support, (1.0,), np.random.default_rng(0)) == ((0b001, 0b010, 0b100), 5, 1)
    assert one_step([0, 5], (1.0,), np.random.default_rng(0)) == ((5,), 2, 1)
    assert one_step([0, 5], (0.0,), np.random.default_rng(0)) == ((), 0, 2)


@pytest.mark.parametrize("bad", [-0.1, 1.5, math.nan])
@pytest.mark.parametrize("phases", [(None,), (None, 0.3), (0.3, None)])
@pytest.mark.parametrize("generators", [1, 3])
def test_sampling_trial_refuses_a_probability_outside_the_unit_interval(bad, phases, generators):
    # the draw refuses before it draws: no generator moves, not even for a
    # valid phase before the bad one
    probabilities = tuple(bad if p is None else p for p in phases)
    union = np.ones((generators, 3), dtype=bool)
    for t, row in enumerate(union):
        rng = np.random.default_rng(t)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match=r"probability must lie in \[0, 1\], got"):
            pdt._draw(row, probabilities, rng)
        assert rng.bit_generator.state == before
    assert union.all()


def drawn_trial_stats(spectrum, requested, trials, seed, threshold):
    # oracle: the TrialStats of trials drawn one (seed, t) generator each,
    # with Fraction success comparisons
    support = sorted(spectrum.coeffs)
    k = len(support)
    probabilities = tuple(min(1.0, p) for p in requested)
    steps = [one_step(support, probabilities, np.random.default_rng((seed, t))) for t in range(trials)]
    counts = [count for _, _, count in steps]
    fractions = [b / k for b in counts]
    mean_f = sum(fractions) / trials
    half = 0.0
    if trials >= 2:
        var = sum((x - mean_f) ** 2 for x in fractions) / (trials - 1)
        half = 1.96 * math.sqrt(var / trials)
    return mc.TrialStats(
        trials=trials,
        k=k,
        probabilities=probabilities,
        requested=requested,
        clamped=probabilities != requested,
        bucket_counts=tuple(counts),
        sample_sizes=tuple(size for _, size, _ in steps),
        mean_bucket_fraction=Fraction(sum(counts), trials * k),
        ci95=(mean_f - half, mean_f + half),
        success_threshold=threshold,
        success_fraction=None if threshold is None else Fraction(sum(b <= threshold for b in counts), trials),
    )


@given(st.integers(1, 8), st.data())
@settings(max_examples=60, deadline=None)
def test_certain_union_equals_the_drawn_trials(n, data):
    # a phase at 1, or every phase at 0, marks the same union from any
    # generator, so the folded row repeated must be what each (seed, t)
    # generator draws; a chunk size of 1 or 40 cells spans several chunks
    spectrum = wht(gen_random(n, data.draw(st.integers(0, 2**16))))
    phases = data.draw(
        st.lists(st.sampled_from([0.0, 0.3, 1.0]), min_size=1, max_size=3).filter(
            lambda ps: 1.0 in ps or not any(ps)
        )
    )
    requested = tuple(data.draw(st.sampled_from([p, 1.5, 7.0])) if p == 1.0 else p for p in phases)
    trials = data.draw(st.integers(1, 13))
    seed = data.draw(st.integers(0, 2**32 - 1))
    k = spectrum.sparsity
    threshold = data.draw(st.sampled_from([None, Fraction(k, 2), k - Fraction(k, 6), Fraction(1, 3)]))
    with mock.patch.object(mc, "_TRIAL_CHUNK_CELLS", data.draw(st.sampled_from([1, 40, 2**16]))):
        expected = drawn_trial_stats(spectrum, requested, trials, seed, threshold)
        assert mc._run_trials(spectrum, requested, trials, seed, threshold) == expected


def test_certain_union_seeds_no_generator(monkeypatch):
    # at k = 16 the warm-up clamps to p = 1 and theorem 2 clamps its second
    # phase, so neither op needs a generator
    def refuse(*args, **kwargs):
        raise AssertionError("a certain union seeded a generator")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    monkeypatch.setattr(mc, "_trial_states", refuse)
    warmup = warmup_success_rate(gen_inner_product(2), 50, 0)
    folding = folding_sampling_trial(gen_inner_product(2), 1, 0, 50, 0)
    assert warmup.probabilities == (1.0,) and folding.probabilities[1] == 1.0
    assert warmup.bucket_counts == folding.bucket_counts == (1,) * 50
    assert warmup.sample_sizes == folding.sample_sizes == (16,) * 50
    with pytest.raises(AssertionError, match="seeded a generator"):
        estimate_bucket_reduction(gen_inner_product(2), 0.3, 5, 0)


@pytest.mark.parametrize("m, kind, p", [
    (2, "warmup", None), (5, "warmup", None), (2, "theorem-2", None), (2, "theorem-1", 0.0), (2, "theorem-1", 1.0),
])
@pytest.mark.parametrize("seed", [0, 2**40 + 3])
def test_certain_unions_fold_nothing(monkeypatch, m, kind, p, seed):
    # the warm-up clamps to p = 1 at k = 16 and k = 1,024, theorem 2 at
    # delta = 1, ell = 0 clamps its second phase, and theorem 1 is certain
    # at p = 0 and p = 1: each run is the drawn trials' stats, in closed
    # form, with no fold, no trial state and no generator
    f = gen_inner_product(m)
    spectrum = wht(f)
    k, trials = spectrum.sparsity, 20
    if kind == "warmup":
        requested, threshold = (2 * math.sqrt(math.log2(k)) / k**0.25,), Fraction(k, 2)
        run = functools.partial(warmup_success_rate, f, trials, seed)
    elif kind == "theorem-2":
        requested, threshold = pdt._folding_probabilities(k, 1.0, 0.0), k - Fraction(k, 6)
        run = functools.partial(folding_sampling_trial, f, 1, 0, trials, seed)
    else:
        requested, threshold = (p,), None
        run = functools.partial(estimate_bucket_reduction, f, p, trials, seed)
    expected = drawn_trial_stats(spectrum, requested, trials, seed, threshold)

    def refuse(*args, **kwargs):
        raise AssertionError("a certain union folded, hashed or seeded")

    monkeypatch.setattr(mc, "_fold_unions", refuse)
    monkeypatch.setattr(mc, "_trial_states", refuse)
    monkeypatch.setattr(np.random, "default_rng", refuse)
    assert run() == expected


SEED_EDGES = [0, 2**32 - 1, 2**32, 2**64 - 1, 2**64]
SEEDS = st.one_of(st.sampled_from(SEED_EDGES), st.integers(0, 2**96 - 1))


@given(SEEDS, st.integers(1, 120), st.sampled_from([1, 40, 2**16]), st.lists(st.integers(0, 2**32 - 1), max_size=5))
@settings(max_examples=40, deadline=None)
def test_trial_states_are_numpys_seeded_states(seed, trials, cells, numbers):
    # numpy is the oracle: trial t's state is default_rng((seed, t))'s, for
    # seeds of one to three words, any trial numbers, and the chunks of a
    # run (1 and 40 cells hold 1 and 2 trials of k = 16)
    def numpys(t):
        return [np.random.default_rng((seed, int(i))).bit_generator.state for i in t]

    trial_states, seen = mc._trial_states, []
    t = np.array(numbers, dtype=np.uint32)
    assert trial_states(seed, t) == numpys(t)

    def spy(seed, t):
        seen.append(trial_states(seed, t))
        return seen[-1]

    with mock.patch.object(mc, "_trial_states", spy), mock.patch.object(mc, "_TRIAL_CHUNK_CELLS", cells):
        mc._run_trials(wht(gen_inner_product(2)), (0.3,), trials, seed)
    assert [state for chunk in seen for state in chunk] == numpys(range(trials))
    assert len(seen) == -(-trials // max(1, cells // 17))


@given(st.integers(1, 8), st.data())
@settings(max_examples=60, deadline=None)
def test_uncertain_trials_equal_per_trial_generators(n, data):
    # theorem 1 (one phase), the warm-up (one phase, success at k/2) and
    # theorem 2 (two phases, success at k - k/6) below p = 1 draw every
    # trial; the shared generator must replay default_rng((seed, t)) per trial
    spectrum = wht(gen_random(n, data.draw(st.integers(0, 2**16))))
    k = spectrum.sparsity
    kind = data.draw(st.sampled_from(["theorem-1", "warmup", "theorem-2"]))
    phases = 2 if kind == "theorem-2" else 1
    requested = tuple(data.draw(st.lists(st.sampled_from([0.05, 0.3, 0.7, 0.99]), min_size=phases, max_size=phases)))
    threshold = {"theorem-1": None, "warmup": Fraction(k, 2), "theorem-2": k - Fraction(k, 6)}[kind]
    trials = data.draw(st.integers(1, 13))
    seed = data.draw(SEEDS)
    with mock.patch.object(mc, "_TRIAL_CHUNK_CELLS", data.draw(st.sampled_from([1, 40, 2**16]))):
        expected = drawn_trial_stats(spectrum, requested, trials, seed, threshold)
        assert mc._run_trials(spectrum, requested, trials, seed, threshold) == expected


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_fold_unions_is_exact_on_24_bit_masks(data):
    # the fold's int32 labels hold every mask of MAX_DIMENSION = 24 bits;
    # oracle: the sorted walk of each union with the scalar Echelon kernel
    top = 1 << 23
    masks = sorted(data.draw(st.sets(st.integers(0, 2 * top - 1) | st.integers(top, 2 * top - 1), min_size=1, max_size=30)))
    rows = data.draw(st.integers(1, 5))
    marks = data.draw(st.lists(st.booleans(), min_size=rows * len(masks), max_size=rows * len(masks)))
    union = np.array(marks, dtype=bool).reshape(rows, len(masks))
    expected = []
    for row in union.tolist():
        basis = row_reduce((), 24)
        kept = tuple(m for m, marked in zip(masks, row) if marked and basis.insert(m) == 0)
        expected.append((kept, sum(row), len({coset_label(a, basis) for a in masks})))
    assert fold_rows(np.array(masks, dtype=np.int64), union) == expected


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_certain_union_closed_form_is_the_fold_of_a_certain_row(data):
    # on supports of up to 24-bit masks, mask 0 among them, a run at p = 1
    # reports what the fold of an all-True row gives, and one at p = 0
    # what the fold of an all-False row gives, in every trial
    top = 1 << 23
    masks = sorted(data.draw(st.sets(
        st.just(0) | st.integers(0, 2 * top - 1) | st.integers(top, 2 * top - 1), min_size=1, max_size=30
    )))
    spectrum = FourierSpectrum(24, dict.fromkeys(masks, 1))
    trials, seed = data.draw(st.integers(1, 13)), data.draw(st.integers(0, 2**32 - 1))
    for p in (1.0, 0.0):
        stats = mc._run_trials(spectrum, (p,), trials, seed)
        ((_, size, count),) = fold_rows(np.array(masks, dtype=np.int64), np.full((1, len(masks)), p == 1.0))
        assert (stats.sample_sizes, stats.bucket_counts) == ((size,) * trials, (count,) * trials)


MC_RUNS = {
    "theorem-1": lambda spectrum, trials, seed: estimate_bucket_reduction(spectrum, 0.3, trials, seed),
    "warmup": lambda spectrum, trials, seed: warmup_success_rate(spectrum, trials, seed),
    "theorem-2": lambda spectrum, trials, seed: folding_sampling_trial(spectrum, 1, 0, trials, seed),
}


@pytest.mark.parametrize("kind", sorted(MC_RUNS))
def test_mc_refuses_what_the_seeding_does_not_number(monkeypatch, kind):
    # t is one 32-bit entropy word and numpy refuses a negative seed; both
    # are refused up front, before any trial runs; at k = 16 the warm-up
    # and theorem 2 are certain unions, which would be repeated trials times
    def never(*args):
        raise AssertionError("trials ran")

    monkeypatch.setattr(mc, "_run_trials", never)
    spectrum = wht(gen_inner_product(2))
    with pytest.raises(SeedRangeError, match="seed must be >= 0, got -1"):
        MC_RUNS[kind](spectrum, 5, -1)
    with pytest.raises(SeedRangeError, match=r"at most 2\^32 trials"):
        MC_RUNS[kind](spectrum, 2**32 + 1, 0)
    with pytest.raises(ValueError, match="need at least one trial"):
        MC_RUNS[kind](spectrum, 0, 0)


@pytest.mark.parametrize("params, message", [
    ({"seed": -1}, "seed must be >= 0"),
    ({"trials": 0}, "need at least one trial"),
    ({"trials": 2**32 + 1}, r"at most 2\^32 trials"),
    ({"p": Fraction(3, 2)}, r"probability must lie in \[0, 1\]"),
    ({"p": -0.1}, r"probability must lie in \[0, 1\]"),
    ({"delta": 0}, r"delta must lie in \(0, 1\]"),
    ({"delta": Fraction(6, 5)}, r"delta must lie in \(0, 1\]"),
    ({"ell": 2}, "exponent must be <= 1"),
    ({"ell": -0.5}, "exponent must be >= 0"),
])
def test_check_sampling_refuses_each_value_out_of_range(params, message):
    with pytest.raises(ValueError, match=message):
        check_sampling(**params)


def test_check_sampling_accepts_the_edges_and_returns_exact_delta_and_ell():
    assert check_sampling(0) == (None, None)
    assert check_sampling(0, 1, 0, 1, 0) == (1, 0)
    assert check_sampling(0, 2**32, 1, 0.5, 0.5) == (Fraction(1, 2), Fraction(1, 2))


def test_deterministic_builds_seed_no_generator(monkeypatch):
    # max-coefficient and greedy-min-bucket never draw, so they make no generator
    def refuse(*args, **kwargs):
        raise AssertionError("a deterministic build seeded a generator")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    for strategy in ("max-coefficient", "greedy-min-bucket"):
        result = build_pdt(gen_addressing(16), BuildConfig(strategy=strategy))
        assert verify_tree(result.tree, gen_addressing(16))
    with pytest.raises(AssertionError, match="seeded a generator"):
        build_pdt(gen_addressing(16), BuildConfig(strategy="sampling"))


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_build_config_refuses_a_negative_seed(strategy):
    with pytest.raises(SeedRangeError, match="seed must be >= 0, got -1"):
        BuildConfig(strategy=strategy, seed=-1)


@pytest.mark.parametrize("phases", [(1.0,), (0.3, 1.0)])
def test_build_attempt_draws_k_uniforms_per_phase_when_certain(phases):
    # a build shares one generator across its attempts, so an attempt at a
    # certain union still advances it by one random(k) per phase
    support = sorted(wht(gen_addressing(16)).coeffs)
    rng, fresh = np.random.default_rng(11), np.random.default_rng(11)
    _, size, _ = one_step(support, phases, rng)
    for _ in phases:
        fresh.random(len(support))
    assert rng.bit_generator.state == fresh.bit_generator.state
    assert size == len(support)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_draw_takes_one_random_k_per_phase_from_the_first_phase_on(data):
    # the first phase writes the row in place and each later one is ORed
    # in: whatever stale marks the row held, it ends as the union of
    # sample_parity replays from the same seed, and the generator ends where
    # one random(k) per phase leaves it, so writing the first phase skips
    # no draw
    support = sorted(data.draw(st.sets(st.integers(0, (1 << 24) - 1), min_size=1, max_size=40)))
    phases = tuple(data.draw(st.lists(st.sampled_from([0.0, 0.3, 0.7, 1.0]), min_size=1, max_size=3)))
    seed = data.draw(st.integers(0, 2**32 - 1))
    row = np.array(data.draw(st.lists(st.booleans(), min_size=len(support), max_size=len(support))), dtype=bool)
    rng, replay, counted = (np.random.default_rng(seed) for _ in range(3))
    pdt._draw(row, phases, rng)
    union = set()
    for p in phases:
        union.update(sample_parity(support, p, replay))
        counted.random(len(support))
    assert [m for m, marked in zip(support, row.tolist()) if marked] == sorted(union)
    assert rng.bit_generator.state == replay.bit_generator.state == counted.bit_generator.state


BAD_TREES = {
    "leaf-two": {"n": 2, "root": node(1, leaf(1), leaf(2))},
    "leaf-zero": {"n": 2, "root": leaf(0)},
    "query-zero": {"n": 2, "root": node(0, leaf(1), leaf(-1))},
    "query-negative": {"n": 2, "root": node(1, leaf(1), node(-3, leaf(1), leaf(-1)))},
    "no-pos": {"n": 2, "root": {"query": 1, "neg": leaf(-1)}},
    "no-neg": {"n": 2, "root": node(1, leaf(1), {"query": 2, "pos": leaf(1)})},
    # a leaf-only tree has no query to check n through
    "leaf-only-n-negative": {"n": -5, "root": leaf(1)},
    "leaf-only-n-25": {"n": 25, "root": leaf(1)},
}


@pytest.mark.parametrize("name", sorted(BAD_TREES))
def test_tree_from_dict_refuses_what_no_tree_has(tmp_path, capsys, name):
    with pytest.raises(ValueError):
        ParityDecisionTree.from_dict(BAD_TREES[name])
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(BAD_TREES[name]))
    assert main(["pdt", "depth", str(path)]) == 2
    assert main(["pdt", "verify", str(path), "parity:mask=1,n=2"]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 2 and "Traceback" not in err


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_build_refuses_a_restriction_with_no_support(strategy):
    # f = (1 + chi_1) / 2 is 0 where x1 = 1: both children of the query x1
    # are signed characters only for a +-1 function
    with pytest.raises(DegenerateInputError, match="no support"):
        build_pdt(FourierSpectrum(1, {0: 1, 1: 1}), BuildConfig(strategy=strategy))


def test_greedy_build_restricts_once_per_frontier(monkeypatch):
    # each frontier's batches, whatever their widths, make every child in
    # one restrict_frontier call as wide as the widest
    selected, calls = [], []

    def selecting(*args):
        out = select_frontier(*args)
        selected.append([len(p[0]) for p in out[3]])
        return out

    def counting(keys, buckets, tag, coeffs, width):
        calls.append((width, int(keys.max() >> 24) + 1))
        return restrict_frontier(keys, buckets, tag, coeffs, width)

    select_frontier, restrict_frontier = builder._select_frontier, restriction.restrict_frontier
    monkeypatch.setattr(builder, "_select_frontier", selecting)
    monkeypatch.setattr(restriction, "restrict_frontier", counting)
    table = gen_random(12, 0)
    result = build_pdt(table, BuildConfig(strategy="greedy-min-bucket"))
    assert verify_tree(result.tree, table)
    assert calls == [(max(widths), len(widths)) for widths in selected]
    assert any(len(set(widths)) > 1 for widths in selected)  # a frontier mixes widths
    assert sum(nodes for _, nodes in calls) == len(result.log)
    assert len(calls) < len(result.log)


@given(st.lists(SMALL_SUPPORTS, min_size=1, max_size=5), st.sampled_from(["max-coefficient", "greedy-min-bucket"]))
@settings(max_examples=60, deadline=None)
def test_restriction_takes_the_sorted_keys_of_selection(supports, strategy):
    # the buckets a deterministic selection hands over are the sorted
    # distinct keys of its masks, so restriction returns what its own sort gave
    spectra = [FourierSpectrum(8, coeffs) for coeffs in supports]
    masks = np.concatenate([s.masks for s in spectra])
    coeffs = np.concatenate([s.coefficients for s in spectra])
    bounds = np.cumsum([0] + [s.sparsity for s in spectra])
    keys, buckets, tag, picked = _select_frontier(masks, coeffs, bounds, BuildConfig(strategy=strategy), None, 8)
    assert np.array_equal(keys >> 24, np.arange(len(spectra)).repeat(np.diff(bounds)))
    assert np.array_equal(buckets, np.unique(keys))
    wide = max(len(p[0]) for p in picked)
    given_keys = restriction.restrict_frontier(keys, buckets, tag, coeffs, wide)
    own_sort = restriction.restrict_frontier(keys, np.unique(keys), tag, coeffs, wide)
    assert all(np.array_equal(a, b) for a, b in zip(given_keys, own_sort))


@pytest.mark.parametrize("strategy", ["max-coefficient", "greedy-min-bucket"])
def test_a_deterministic_build_sorts_its_keys_once_per_round(monkeypatch, strategy):
    # _distinct runs once per selection round (a frontier's widest batch
    # has one query per round) and never inside restriction
    sorts, widths = [], []

    def counting(where):
        def sort(values):
            sorts.append(where)
            return distinct(values)
        return sort

    def restricting(keys, buckets, tag, coeffs, width):
        widths.append(width)
        return restrict_frontier(keys, buckets, tag, coeffs, width)

    distinct, restrict_frontier = builder._distinct, restriction.restrict_frontier
    monkeypatch.setattr(builder, "_distinct", counting("builder"))
    monkeypatch.setattr(restriction, "_distinct", counting("restriction"))
    monkeypatch.setattr(restriction, "restrict_frontier", restricting)
    table = gen_random(10, 2)
    assert verify_tree(build_pdt(table, BuildConfig(strategy=strategy)).tree, table)
    assert sorts == ["builder"] * sum(widths)
    assert len(widths) > 1


def replay_sampling_build(spectrum, config, log):
    """Rebuild the log of a sampling build depth first, one node at a time,
    with restrict_batch and one step per logged resample from a
    single generator: the draws of a build, in the order it makes them."""
    rng = np.random.default_rng(config.seed)
    records = {r.node_id: r for r in log}
    stack, node_id = [(spectrum, 0)], 0
    while stack:
        spec, at = stack.pop()
        node_id, here = node_id + 1, node_id
        if spec.sparsity == 1:
            continue
        record = records.pop(here)
        support = sorted(spec.coeffs)
        steps = [one_step(support, record.probabilities, rng) for _ in range(record.resamples)]
        best = steps[-1] if record.target_met else min((s for s in steps if s[0]), key=lambda s: s[2])
        assert (record.batch, record.bucket_count, record.depth) == (best[0], best[2], at)
        assert record.sparsity_before == spec.sparsity
        children = restrict_batch(spec, record.batch)
        assert record.max_child_sparsity == max(c.sparsity for c in children)
        b = len(record.batch)
        # child j is reached by the branch bits of batch[0], batch[1], ...
        order = sorted(range(1 << b), key=lambda j: [j >> i & 1 for i in range(b)])
        stack += [(children[j], at + b) for j in reversed(order)]
    assert not records


@pytest.mark.parametrize("strategy", ["sampling", "folding-sampling"])
@pytest.mark.parametrize("name,table", [("ip3", gen_inner_product(3)), ("ad16", gen_addressing(16)), ("random6", gen_random(6, 2))])
def test_sampling_build_draws_as_a_depth_first_replay(strategy, name, table):
    for seed in range(3):
        config = BuildConfig(strategy=strategy, seed=seed)
        replay_sampling_build(wht(table), config, build_pdt(table, config).log)
