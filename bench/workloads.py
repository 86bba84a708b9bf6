"""The benchmark's three workloads, generated from a workload seed.

A workload is a list of experiment configs ("groups").  The runner's
config format is a cross product of functions and analyses, so a
workload that mixes ops of very different cost needs more than one
config.  One op is one cell of a group: a config with one function and
one analysis, which is exactly one block of the group's report.

Everything here is stdlib only, so that generating the configs can be
timed as part of set-up without importing numpy first.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

MAX_N = 20

# The paper's sampling schedule p = 1/(2 sqrt k) draws a batch whose rank,
# and so the number of children restricted, changes tenfold between
# builder seeds.  Builds meant to measure restriction at a steady cost use
# this probability, which saturates the batch rank on inner-product m=4;
# the paper's schedule runs on the small functions, where its spread costs
# little time.
SATURATED_PROBABILITY = "1/4"

# Op mixes are shaped so that each latency percentile lands inside a run
# of ops of similar cost, never on a step between two costs: about the
# middle third of a workload's ops cost about the same (p50), and so do
# its six dearest ones (p90).

WHY = {
    "pdt-build": "PDT builds with all four strategies; affine restriction of every child does most of the work",
    "fold-verify": "fold, structural verify and analyze ops; O(k^2) folding-direction loops dominate, restriction never runs",
    "mc-trials": "seeded Monte Carlo bucket trials; GF(2) row reduction and coset labels dominate, no restriction",
}

IP4 = {"family": "inner-product", "m": 4}
IP5 = {"family": "inner-product", "m": 5}
AD16 = {"family": "addressing", "k": 16}
AD64 = {"family": "addressing", "k": 64}
MA64 = {"family": "modified-addressing", "k": 64}


def _seed(rng: random.Random) -> int:
    return rng.randrange(1 << 30)


def _random(n: int, rng: random.Random) -> dict:
    return {"family": "random", "n": n, "seed": _seed(rng)}


def _config(seed: int, functions: list[dict], analyses: list[dict]) -> dict:
    return {"seed": seed, "max_n": MAX_N, "functions": functions, "analyses": analyses}


def _pdt(strategy: str, **params) -> dict:
    return {"op": "pdt", "strategy": strategy, **params}


def _pdt_build(rng: random.Random) -> list[dict]:
    saturated = [_pdt("sampling", probability=SATURATED_PROBABILITY, seed=_seed(rng)) for _ in range(6)]
    deterministic = [_pdt("max-coefficient"), _pdt("greedy-min-bucket")]
    paper = [_pdt("sampling", seed=_seed(rng)), _pdt("folding-sampling", seed=_seed(rng))]
    return [
        _config(_seed(rng), [IP4], saturated),  # p90
        _config(_seed(rng), [_random(8, rng) for _ in range(8)], deterministic[1:]),  # p50
        _config(_seed(rng), [IP4, AD64, MA64], deterministic),
        # under either sampling schedule this takes 1.7-2.6 s per build
        _config(_seed(rng), [IP5], deterministic[1:]),
        _config(_seed(rng), [AD16, _random(6, rng)], paper),
    ]


def _fold_verify(rng: random.Random) -> list[dict]:
    def verify(check: str) -> dict:
        return {"op": "verify", "check": check}

    # the six p90 ops run on five distinct random tables, whose costs
    # differ by up to a fifth, so that the percentile does not follow one
    # table's cost from seed to seed
    return [
        _config(_seed(rng), [IP5, _random(10, rng), _random(10, rng)], [verify("three-fold")]),  # p90
        _config(_seed(rng), [_random(10, rng) for _ in range(3)], [verify("pair-condition")]),  # p90
        _config(_seed(rng), [_random(9, rng) for _ in range(6)],
                [{"op": "fold", "ell": "1/2"}, verify("single-direction")]),  # p50
        _config(_seed(rng), [IP4, MA64, AD64],
                [{"op": "fold", "ell": "1/2", "delta": "1/10"}, verify("three-fold"),
                 verify("sign-feasibility"), {"op": "analyze"}]),
    ]


def _mc_trials(rng: random.Random) -> list[dict]:
    # theorem-2 at delta=1, ell=0 holds for every Boolean support by the
    # pair condition, so no op is refused
    def mc(kind: str, **params) -> dict:
        return {"op": "mc", "kind": kind, "trials": 60, **params}

    theorem_1 = mc("theorem-1", p="1/32")
    return [
        _config(_seed(rng), [IP5, _random(10, rng)],
                [theorem_1] + [mc("warmup", seed=_seed(rng)) for _ in range(3)]),  # p90
        _config(_seed(rng), [IP4], [mc("warmup", seed=_seed(rng)) for _ in range(8)]),  # p50
        _config(_seed(rng), [AD64, MA64, AD16], [theorem_1, mc("warmup"), mc("theorem-2", delta=1, ell=0)]),
    ]


GENERATORS = {
    "pdt-build": _pdt_build,
    "fold-verify": _fold_verify,
    "mc-trials": _mc_trials,
}


@dataclass(frozen=True)
class Op:
    """One cell (function fi, analysis ai) of group gi."""

    gi: int
    fi: int
    ai: int
    config: dict

    @property
    def key(self) -> str:
        return f"g{self.gi}.f{self.fi}.a{self.ai}"

    @property
    def analysis(self) -> dict:
        return self.config["analyses"][0]


def groups(workload: str, seed: int) -> list[dict]:
    return GENERATORS[workload](random.Random(f"{workload}/{seed}"))


def ops(configs: list[dict], seed: int) -> list[Op]:
    """Every cell of every group, in an order fixed by the seed."""
    out = [
        Op(gi, fi, ai, _config(cfg["seed"], [function], [analysis]))
        for gi, cfg in enumerate(configs)
        for fi, function in enumerate(cfg["functions"])
        for ai, analysis in enumerate(cfg["analyses"])
    ]
    random.Random(f"order/{seed}").shuffle(out)
    return out


def warmup_op(configs: list[dict]) -> Op:
    """The last group's first cell, a cheap op in every workload."""
    gi = len(configs) - 1
    cfg = configs[gi]
    return Op(gi, 0, 0, _config(cfg["seed"], cfg["functions"][:1], cfg["analyses"][:1]))
