"""Acceptance suite: one test per criterion, each printing a PASS line at
its stated tolerance (exact identities are zero-tolerance integer checks;
Monte Carlo surrogates use the declared seeds and thresholds).

Run with ``pytest -v tests/test_acceptance.py`` (add -s for the lines).
"""

import json
import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from parityfold.families import (
    gen_addressing,
    gen_conjunction,
    gen_inner_product,
    gen_junta,
    gen_modified_addressing,
    gen_parity,
    gen_random,
)
from parityfold.folding import (
    check_pair_condition,
    counterexample_support,
    direction_classes,
    sign_feasibility,
    single_direction_structure,
    verify_three_fold,
)
from parityfold.pdt import (
    BuildConfig,
    build_pdt,
    estimate_bucket_reduction,
    verify_tree,
    warmup_success_rate,
)
from parityfold.restriction import (
    AffineConstraintSystem,
    bucket_complexity,
    restrict,
)
from parityfold.runner import tree_summary
from parityfold.spectral import (
    inverse_wht,
    verify_parseval,
    verify_titsworth,
    wht,
)

RANDOM_CORPUS_SIZE = 1000


def record(num: int, message: str) -> None:
    print(f"[criterion {num:2d}] PASS: {message}")


def random_corpus():
    for i in range(RANDOM_CORPUS_SIZE):
        n = 2 + (i % 7)  # n in {2..8}
        yield gen_random(n, 1000 + i)


def named_corpus():
    """Boolean corpus used by the structural criteria."""
    return [
        ("and2", gen_conjunction(0b11, 2)),
        ("addressing16", gen_addressing(16)),
        ("addressing64", gen_addressing(64)),
        ("modified4", gen_modified_addressing(4)),
        ("modified16", gen_modified_addressing(16)),
        ("ip4", gen_inner_product(2)),
        ("ip6", gen_inner_product(3)),
        ("parity", gen_parity(0b1011, 5)),
        ("junta", gen_junta(gen_inner_product(2), [0b00011, 0b00110, 0b01100, 0b11000], 5)),
    ]


def test_criterion_01_exact_identities():
    started = time.monotonic()
    for table in random_corpus():
        s = wht(table)
        assert verify_parseval(s)
        assert verify_titsworth(s) == []
    elapsed = time.monotonic() - started
    assert elapsed < 30, f"identities took {elapsed:.1f}s, budget 30s"
    record(1, f"parseval + titsworth exact on {RANDOM_CORPUS_SIZE} random tables "
              f"(n in 2..8) in {elapsed:.1f}s")


def test_criterion_02_wht_roundtrip():
    for table in random_corpus():
        assert inverse_wht(wht(table)) == table
    record(2, f"inverse_wht(wht(t)) == t exactly on {RANDOM_CORPUS_SIZE} random tables")


def test_criterion_03_addressing_profile():
    for k in (4, 16, 64):
        profile = direction_classes(wht(gen_addressing(k)).masks)
        addr_bits, sqrt_k = int(math.log2(k)) // 2, math.isqrt(k)
        touched = np.bitwise_count(profile.directions >> addr_bits)  # target bits per direction
        assert set(touched.tolist()) == {0, 2}, k
        cross = profile.counts[touched == 2]
        assert set(cross.tolist()) == {sqrt_k}, k
        assert Fraction(int(cross.sum()), profile.total_pairs) >= 1 - Fraction(2, sqrt_k), k
        # same-target classes count unordered pairs: k/2 each (k ordered)
        assert set(profile.counts[touched == 0].tolist()) == {k // 2}, k
    record(3, "cross-target classes = sqrt(k) exactly and carry >= 1 - 2/sqrt(k) "
              "of all pairs for k in {4, 16, 64}")


def test_criterion_04_three_fold():
    checked = 0
    for name, table in named_corpus():
        s = wht(table)
        if s.sparsity <= 4:
            continue
        witnesses = verify_three_fold(s)
        assert set(witnesses) == s.support(), name
        checked += 1
    randoms = 0
    i = 0
    while randoms < 100:
        table = gen_random(2 + (i % 7), 5000 + i)
        i += 1
        s = wht(table)
        if s.sparsity <= 4:
            continue
        assert set(verify_three_fold(s)) == s.support()
        randoms += 1
    # boundary: the sparsity-4 conjunction has no witness at all, so the
    # k > 4 hypothesis is tight at desk scale
    and2 = wht(gen_conjunction(0b11, 2))
    assert not direction_classes(and2.masks).partners(3)[0].any()
    record(4, f"every support element has a size->=3 direction on {checked} corpus "
              f"functions and {randoms} random tables; k = 4 boundary confirmed")


def test_criterion_05_single_direction():
    for k, expected_half in ((4, 5), (16, 17), (64, 65)):
        s = wht(gen_modified_addressing(k))
        assert s.sparsity == 2 * k + 2
        report = single_direction_structure(s)
        assert report.nontrivial_counts[1] == 1, k  # z1 selector
        assert report.single_direction[1] == (2, expected_half), k
    record(5, "selector element folds nontrivially in exactly one direction with "
              "class size k'/2 in {5, 17, 65}")


def test_criterion_06_counterexample_and_feasibility():
    for n in (5, 6, 7, 8):
        support = counterexample_support(n)
        assert check_pair_condition(support).ok, n
        result = sign_feasibility(support)
        assert not result.feasible, n
        assert result.witness, n
    for name, table in named_corpus():
        result = sign_feasibility(wht(table).support())
        assert result.feasible, name
    record(6, "constructed supports pass the pair condition yet are sign-infeasible "
              "(n in 5..8); every corpus spectrum is feasible")


def test_criterion_07_pdt_soundness_and_depth():
    started = time.monotonic()
    cases = [("addressing64", gen_addressing(64), 64), ("ip8", gen_inner_product(4), 256)]
    for name, table, k in cases:
        budget = 4 * math.isqrt(k)
        for seed in range(20):
            result = build_pdt(table, BuildConfig(strategy="sampling", seed=seed))
            assert verify_tree(result.tree, table), (name, seed)
            d = result.depth()
            if d > budget:
                print(f"    DEPTH TRACE {name} seed {seed}: depth {d} > {budget}")
                for rec in tree_summary(table, result)["node_records"]:
                    print(f"      {json.dumps(rec, sort_keys=True)}")
                pytest.fail(f"{name} seed {seed}: depth {d} exceeds 4*sqrt(k) = {budget}")
    elapsed = time.monotonic() - started
    assert elapsed < 120, f"builds took {elapsed:.1f}s, budget 120s"
    record(7, f"40 seeded builds verified exhaustively, depth within 4*sqrt(k), "
              f"{elapsed:.1f}s")


def test_criterion_08_bucket_reduction_surrogate():
    started = time.monotonic()
    stats = estimate_bucket_reduction(gen_inner_product(4), 1 / 32, 200, 20240601)
    mean = float(stats.mean_bucket_fraction)
    assert mean < 0.995, mean
    assert stats.ci95[1] < 1.0, stats.ci95
    elapsed = time.monotonic() - started
    assert elapsed < 60, f"{elapsed:.1f}s, budget 60s"
    record(8, f"k=256, p=1/32, 200 trials: mean buckets/k = {mean:.4f} < 0.995, "
              f"CI95 upper {stats.ci95[1]:.4f} < 1.0")


def test_criterion_09_warmup_surrogate():
    started = time.monotonic()
    stats = warmup_success_rate(gen_inner_product(4), 200, 20240602)
    k = stats.k
    threshold = 1 - k ** (-1 / 3) - 0.1
    assert float(stats.success_fraction) >= threshold, (stats.success_fraction, threshold)
    elapsed = time.monotonic() - started
    assert elapsed < 60, f"{elapsed:.1f}s, budget 60s"
    record(9, f"success fraction {float(stats.success_fraction):.3f} >= "
              f"{threshold:.3f} at k=256 (p clamped: {stats.clamped})")


def test_criterion_10_rational_inequality_sweep():
    points = 0
    for d in range(101):
        for j in range(101):
            p = Fraction(j, 100)
            if p * d > 1:
                continue
            assert (1 - p) ** d <= 1 - p * d / 2, (d, p)
            points += 1
    record(10, f"(1-p)^d <= 1 - pd/2 at all {points} exact-rational grid points")


def test_criterion_11_restriction_bounds():
    rng = np.random.default_rng(777)
    total = 0
    for name, table in named_corpus():
        s = wht(table)
        k = s.sparsity
        n = s.n
        for _ in range(100):
            count = int(rng.integers(1, 4))
            masks = [int(rng.integers(1, 1 << n)) for _ in range(count)]
            anchor = int(rng.integers(0, 1 << n))
            system = AffineConstraintSystem(
                n, tuple((m, (m & anchor).bit_count() & 1) for m in masks)
            )
            out = restrict(s, system)
            report = bucket_complexity(s.support(), masks, n)
            h = report.identified_count
            assert out.sparsity <= report.bucket_count, name
            assert 2 * report.bucket_count <= 2 * k - h, name
            total += 1
    record(11, f"sparsity(restrict) <= buckets <= k - h/2 on {total} "
               "(function, constraint-set) cases")


def test_criterion_12_byte_reproducible_reports(tmp_path):
    commands = [
        [sys.executable, "-m", "parityfold.cli", "--json", "--seed", "9",
         "mc", "theorem-1", "inner-product:m=3", "--p", "1/16", "--trials", "50"],
        [sys.executable, "-m", "parityfold.cli", "--json", "--seed", "4",
         "pdt", "build", "addressing:k=16"],
    ]
    for argv in commands:
        first = subprocess.run(argv, capture_output=True)
        second = subprocess.run(argv, capture_output=True)
        assert first.returncode == 0 and second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout  # non-empty JSON
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "seed": 3,
        "functions": [{"family": "inner-product", "m": 2}],
        "analyses": [{"op": "analyze"}, {"op": "pdt"}, {"op": "mc", "kind": "warmup", "trials": 25}],
    }))
    reports = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        run = subprocess.run(
            [sys.executable, "-m", "parityfold.cli", "experiment", str(config),
             "-o", str(out)],
            capture_output=True,
        )
        assert run.returncode == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    record(12, "seeded mc / pdt / experiment commands byte-reproduce their JSON reports")
