"""Every config under experiments/ runs through the CLI twice: the two
reports are equal bytes, the library's own verdicts in them hold, and the
facts that the config's note states are checked on its report."""

import json
import math
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from parityfold.cli import main
from parityfold.runner import run_experiment

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "experiments").glob("*.json"))


def by_function(report: dict) -> dict:
    """function label -> its op results, in the config's order; no two
    entries share a label."""
    results = {block["function"]: [a["result"] for a in block["analyses"]] for block in report["results"]}
    assert len(results) == len(report["results"]), "two function entries share a label"
    return results


def check_spectral_identities(results: dict) -> None:
    (and2,) = results["conjunction(mask=3,n=2)"]
    assert and2["sparsity"] == 4 and Fraction(and2["l1"]) ** 2 == 4 and and2["plateaued"]
    randoms = [label for label in results if label.startswith("random(n=6,")]
    assert len(randoms) == 5


def check_restriction_and_buckets(results: dict) -> None:
    for label, analyses in results.items():
        for result in analyses:
            block = result["restrict"]
            assert block["restricted_sparsity"] <= block["bucket_report"]["bucket_count"] <= block["identification_bound"], label
    x1, span11, *_ = results["conjunction(mask=3,n=6)"]
    # x1 = 1 leaves the character of x2; 0 and 1 share a bucket of span{01}, 0 and 2 do not
    assert x1["restrict"]["restricted_support"] == [2]
    assert x1["restrict"]["bucket_report"]["buckets"] == {"0": [0, 1], "2": [2, 3]}
    block = span11["restrict"]
    h = block["identified_count"]
    assert block["bucket_report"]["bucket_count"] == block["identification_bound"] == 4 - math.ceil(h / 2) == 2


def check_folding_structure(results: dict) -> None:
    for k in (16, 64):
        fold = results[f"addressing(k={k})"][0]
        addr_bits, sqrt_k = int(math.log2(k)) // 2, math.isqrt(k)
        sizes = {}
        for direction, size in fold["profile"]["classes"].items():
            sizes.setdefault((int(direction) >> addr_bits).bit_count(), set()).add(size)
        # a direction touches no target bit or two, and two-target classes have sqrt(k) pairs
        assert sizes == {0: {k // 2}, 2: {sqrt_k}}, k
    single = results["modified-addressing(k=4)"][5]["report"]
    assert single["k"] == 10 and single["single_direction"]["1"] == [2, single["k"] // 2]


def check_parity_sampling_monte_carlo(results: dict) -> None:
    (_, nothing_drawn, *_) = results["inner-product(m=4)"]
    assert nothing_drawn["stats"]["probabilities"] == [0.0]
    assert Fraction(nothing_drawn["stats"]["mean_bucket_fraction"]) == 1


def check_parity_decision_trees(results: dict) -> None:
    trees = results["addressing(k=64)"]
    assert [tree["seed"] for tree in trees[:10]] == list(range(10))
    assert all(tree["depth"] <= 4 * math.isqrt(64) for tree in trees)
    assert [tree["strategy"] for tree in trees[9:]] == ["sampling", "folding-sampling", "max-coefficient", "greedy-min-bucket"]


def check_non_realizable_supports(results: dict) -> None:
    for n in (5, 9):
        fold, pair, three, sign = results[f"counterexample(n={n})"]
        assert fold["profile"]["k"] == 2 * n - 2 and pair["passed"] and three["passed"]
        assert not sign["passed"] and not sign["detail"]["feasible"]
        # an odd number of constraints with right-hand side 1 whose masks cancel: 0 = 1
        witness = sign["detail"]["witness"]
        members = Counter(mask for constraint in witness for pair in constraint["pairs"] for mask in pair)
        assert len(witness) % 2 == 1 and all(count % 2 == 0 for count in members.values())
    fold, *checks = results["support(k=16,n=6,sha256=6d4183421b63)"]
    assert all(check["passed"] for check in checks) and "assignment" in checks[-1]["detail"]
    config03 = json.loads((CONFIGS[0].parent / "03_folding_structure.json").read_text())
    function = by_function(run_experiment(config03).to_dict())["addressing(k=16)"][0]
    assert fold["profile"]["classes"] == function["profile"]["classes"]


# config stem -> the facts its note states, checked on its report
CHECKS = {
    "01_spectral_identities": check_spectral_identities,
    "02_restriction_and_buckets": check_restriction_and_buckets,
    "03_folding_structure": check_folding_structure,
    "04_parity_sampling_monte_carlo": check_parity_sampling_monte_carlo,
    "05_parity_decision_trees": check_parity_decision_trees,
    "06_non_realizable_supports": check_non_realizable_supports,
}

# op -> the library's own verdict on its result block
VERDICTS = {
    "analyze": lambda result: result["parseval"] and not result["titsworth_violations"],
    "verify": lambda result: result["passed"],
    "pdt": lambda result: result["verified"],
}


def test_every_config_is_checked():
    assert [config.stem for config in CONFIGS] == list(CHECKS)


@pytest.mark.parametrize("config", CONFIGS, ids=[config.name for config in CONFIGS])
def test_config_runs(tmp_path, config):
    written = []
    for name in ("first.json", "second.json"):
        assert main(["experiment", str(config), "-o", str(tmp_path / name)]) == 0
        written.append((tmp_path / name).read_bytes())
    assert written[0] == written[1]
    report = json.loads(written[0])
    assert report["config"]["note"] == json.loads(config.read_text())["note"]  # echoed, read by nothing
    for block, entry in zip(report["results"], report["config"]["functions"]):
        if "support" in entry or entry.get("family") == "counterexample":
            continue  # a support's verdicts are findings, which its config's check states
        for analysis in block["analyses"]:
            verdict = VERDICTS.get(analysis["op"], lambda result: True)
            assert verdict(analysis["result"]), (block["function"], analysis["op"])
    CHECKS[config.stem](by_function(report))
