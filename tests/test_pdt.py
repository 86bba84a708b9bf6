import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parityfold import pdt
from parityfold.cli import main
from parityfold.families import (
    gen_addressing,
    gen_conjunction,
    gen_inner_product,
    gen_parity,
    gen_random,
)
from parityfold.gf2 import coset_label, extend_basis, row_reduce
from parityfold.folding import counterexample_support
from parityfold.pdt import (
    BuildConfig,
    DegenerateInputError,
    Leaf,
    Node,
    NotFoldingError,
    ParityDecisionTree,
    ResampleCapExceededError,
    build_pdt,
    check_calculus_inequality,
    estimate_bucket_reduction,
    folding_sampling_trial,
    sample_parity,
    verify_tree,
    warmup_success_rate,
    _sampling_trial,
    _select_batch,
)
from parityfold.restriction import bucket_complexity
from parityfold.spectral import FourierSpectrum, TruthTable, wht


def and2():
    return gen_conjunction(0b11, 2)


def test_evaluate_single_leaf():
    tree = ParityDecisionTree(3, Leaf(1))
    assert all(tree.evaluate(x) == 1 for x in range(8))
    assert tree.depth() == 0


def test_evaluate_single_query():
    tree = ParityDecisionTree(2, Node(0b01, Leaf(1), Leaf(-1)))
    assert tree.evaluate(0b10) == 1  # x1 = 0 so the parity is +1
    assert tree.evaluate(0b01) == -1
    assert tree.depth() == 1


def test_verify_tree():
    result = build_pdt(and2(), BuildConfig(seed=1))
    assert verify_tree(result.tree, and2())
    assert result.tree.evaluate(0b11) == -1
    assert not verify_tree(ParityDecisionTree(2, Leaf(1)), and2())


def test_verify_tree_guards():
    with pytest.raises(ValueError):
        verify_tree(ParityDecisionTree(3, Leaf(1)), and2())


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


def assert_greedy_matches_oracle(spectrum, epsilon):
    cfg = BuildConfig(strategy="greedy-min-bucket", epsilon=epsilon)
    batch, bcount, *_ = _select_batch(spectrum, cfg, np.random.default_rng(0))
    assert (batch, bcount) == naive_greedy_batch(spectrum, cfg.epsilon)


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
    cfg = BuildConfig(strategy="max-coefficient")
    batch, bcount, *_ = _select_batch(spectrum, cfg, None)
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
    batch, *_ = _select_batch(spectrum, BuildConfig(strategy="max-coefficient"), None)
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
    batch, *_ = _select_batch(spectrum, BuildConfig(strategy="max-coefficient"), None)
    assert batch == (3,) == (naive_max_coefficient_direction(spectrum),)


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
    assert result.tree.root == Leaf(1)
    assert result.depth() == 0


def test_build_single_character():
    t = gen_parity(0b101, 3)
    result = build_pdt(t)
    assert result.depth() == 1
    assert isinstance(result.tree.root, Node)
    assert result.tree.root.query == 0b101
    assert verify_tree(result.tree, t)


def test_build_degenerate():
    with pytest.raises(DegenerateInputError):
        build_pdt(FourierSpectrum(3, {}))


def test_build_accepts_coefficients_up_to_two_to_the_n():
    for n in (3, 24):
        full = 1 << n
        assert build_pdt(FourierSpectrum(n, {5: full})).tree.root == Node(5, Leaf(1), Leaf(-1))
        assert build_pdt(FourierSpectrum(n, {0: -full})).tree.root == Leaf(-1)
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


def test_build_log_jsonl():
    result = build_pdt(gen_addressing(4), BuildConfig(seed=2))
    lines = result.log_jsonl().splitlines()
    assert len(lines) == len(result.log)
    assert all(line.startswith("{") for line in lines)


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
    assert check_calculus_inequality(0, Fraction(1, 3))
    assert check_calculus_inequality(1, Fraction(1))  # 0 <= 1/2
    assert check_calculus_inequality(10, Fraction(1, 10))
    with pytest.raises(ValueError):
        check_calculus_inequality(10, Fraction(1, 2))  # p*d = 5 > 1
    with pytest.raises(ValueError):
        check_calculus_inequality(-1, Fraction(1, 2))


@given(st.integers(0, 60), st.data())
@settings(max_examples=80, deadline=None)
def test_calculus_inequality_property(d, data):
    denom = data.draw(st.integers(max(1, d), 4 * max(1, d)))
    p = Fraction(1, denom) if d else data.draw(st.fractions(0, 1))
    assert check_calculus_inequality(d, p)


@given(st.integers(1, 10), st.data())
@settings(max_examples=80, deadline=None)
def test_sampling_trial_basis_is_row_reduce_of_batch(n, data):
    support = sorted(data.draw(st.sets(st.integers(0, (1 << n) - 1), min_size=1, max_size=14)))
    probs = tuple(data.draw(st.lists(st.sampled_from([0.0, 0.3, 0.5, 1.0]), min_size=1, max_size=2)))
    seed = data.draw(st.integers(0, 2**32 - 1))
    ((batch, size, bcount),) = _sampling_trial(support, probs, [np.random.default_rng(seed)])
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
    assert basis == row_reduce(batch, n)
    assert basis.rank == len(batch)
    assert basis == row_reduce(sampled, n)
    assert bcount == len({coset_label(a, basis) for a in support})


@pytest.mark.parametrize("seed", range(4))
def test_build_attempt_and_mc_trial_are_the_same_step(seed):
    # one resample attempt of a build and trial 0 of a Monte Carlo run, from
    # the same generator state, draw the same batch and bucket count
    spectrum = wht(gen_addressing(16))
    p = 0.3
    cfg = BuildConfig(strategy="sampling", probability=p, resample_cap=1, epsilon=Fraction(1, 100))
    try:
        batch, bcount, *_ = _select_batch(spectrum, cfg, np.random.default_rng((seed, 0)))
    except ResampleCapExceededError as exc:  # the attempt made no progress
        batch, bcount = exc.best_batch, exc.best_bucket_count
    stats = estimate_bucket_reduction(spectrum, p, 1, seed)
    (step,) = _sampling_trial(sorted(spectrum.coeffs), (p,), [np.random.default_rng((seed, 0))])
    assert batch
    assert (batch, bcount) == (step[0], step[2])
    assert (stats.sample_sizes, stats.bucket_counts) == ((step[1],), (bcount,))


@given(st.integers(1, 10), st.data())
@settings(max_examples=60, deadline=None)
def test_trial_rows_equal_one_generator_calls(n, data):
    # row t of a many-generator call is the step generator t alone draws
    support = sorted(data.draw(st.sets(st.integers(0, (1 << n) - 1), min_size=1, max_size=40)))
    probs = tuple(data.draw(st.lists(st.sampled_from([0.0, 0.1, 0.3, 1.0]), min_size=1, max_size=2)))
    seeds = data.draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6))
    rows = _sampling_trial(support, probs, [np.random.default_rng(s) for s in seeds])
    assert rows == [_sampling_trial(support, probs, [np.random.default_rng(s)])[0] for s in seeds]


@pytest.mark.parametrize("cells", [1, 40, 100])
def test_trials_spanning_several_chunks_match_per_trial_calls(monkeypatch, cells):
    spectrum = wht(gen_inner_product(2))  # k = 16: 2 trials per 40 cells, 5 per 100
    support = sorted(spectrum.coeffs)
    single = [
        _sampling_trial(support, (0.2,), [np.random.default_rng((9, t))])[0] for t in range(13)
    ]
    monkeypatch.setattr(pdt, "_TRIAL_CHUNK_CELLS", cells)
    stats = estimate_bucket_reduction(spectrum, 0.2, 13, 9)
    assert stats.bucket_counts == tuple(count for _, _, count in single)
    assert stats.sample_sizes == tuple(size for _, size, _ in single)
    assert _sampling_trial(support, (0.2,), (np.random.default_rng((9, t)) for t in range(13))) == single


def test_sampling_trial_skips_mask_zero():
    # mask 0 is in every span: it is drawn and counted in the union, never kept
    support = [0, 0b001, 0b010, 0b011, 0b100]
    ((batch, size, bcount),) = _sampling_trial(support, (1.0,), [np.random.default_rng(0)])
    assert (batch, size, bcount) == ((0b001, 0b010, 0b100), 5, 1)
    ((batch, size, bcount),) = _sampling_trial([0, 5], (1.0,), [np.random.default_rng(0)])
    assert (batch, size, bcount) == ((5,), 2, 1)
    ((batch, size, bcount),) = _sampling_trial([0, 5], (0.0,), [np.random.default_rng(0)])
    assert (batch, size, bcount) == ((), 0, 2)


@pytest.mark.parametrize("bad", [-0.1, 1.5, math.nan])
@pytest.mark.parametrize("phases", [(None,), (None, 0.3), (0.3, None)])
@pytest.mark.parametrize("generators", [1, 3])
def test_sampling_trial_refuses_a_probability_outside_the_unit_interval(bad, phases, generators):
    probabilities = tuple(bad if p is None else p for p in phases)
    rngs = [np.random.default_rng(t) for t in range(generators)]
    with pytest.raises(ValueError, match=r"probability must lie in \[0, 1\], got"):
        _sampling_trial([1, 2, 3], probabilities, rngs)
