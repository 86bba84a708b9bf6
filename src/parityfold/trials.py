"""Seeded Monte Carlo bucket experiments: theorem 1's bucket reduction
(`estimate_bucket_reduction`), the warm-up (`warmup_success_rate`) and
theorem 2's two-phase folding sampling (`folding_sampling_trial`), each
summarized in a `TrialStats`.

`_run_trials` sets one generator to each trial's state from
`_trial_states`, draws the trial's union with `pdt._draw`, and
`pdt._fold_unions` folds every drawn union.  A certain union folds
nothing: every trial reports size k and bucket count 1 when a phase is
1, size 0 and count k when every phase is 0.

Callers reach the three entry points as `pdt.<name>`
(`pdt.TRACED_NAMES`), so a build never compiles this module, and this
module imports neither the builder nor the pair kernel: a warm-up or
theorem-1 run loads only `pdt` beside it.  `folding_sampling_trial`
imports `folding` when it runs and calls `folding.folding_parameters`
through the module attribute, so a wrapper set there
(bench/tracing.py's) sees every call.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .params import check_sampling
from .pdt import NotFoldingError, _as_spectrum, _draw, _fold_unions, _folding_probabilities
from .spectral import FourierSpectrum, TruthTable


class TrialStats(NamedTuple):
    trials: int
    k: int
    probabilities: tuple[float, ...]  # used per phase, after clamping
    requested: tuple[float, ...]  # formula values before clamping
    clamped: bool
    bucket_counts: tuple[int, ...]
    sample_sizes: tuple[int, ...]
    mean_bucket_fraction: Fraction
    ci95: tuple[float, float]  # normal-approximation CI for the mean of B/k
    success_threshold: Fraction | None = None  # success means B <= threshold
    success_fraction: Fraction | None = None


# label cells per chunk of trials in _run_trials, so its memory is O(k)
# for any number of trials
_TRIAL_CHUNK_CELLS = 2**16


def _trial_states(seed: int, t: np.ndarray) -> list[dict]:
    """The PCG64 ``bit_generator.state`` of ``default_rng((seed, t))`` for
    each trial number in the uint32 array t.

    numpy's SeedSequence hashes the entropy words (seed's 32-bit words,
    little endian, 0 as [0], then t's one word) into a pool of four
    uint32 words, and the pool out to eight, which PCG64 reads as four
    uint64: state s, then increment.  Only t's word differs between
    trials, so the hashing runs in uint32 arrays over all of t at once
    (wrapping as numpy's uint32 arithmetic does; the hash constants stay
    Python ints), and PCG64's two-step seeding in Python ints.  Needs
    seed >= 0.
    """
    word = (1 << 32) - 1
    words = [seed >> i & word for i in range(0, max(seed.bit_length(), 1), 32)]

    def hasher(h: int, mult: int):
        """numpy's running hash: each call moves the constant h to h * mult."""

        def step(value: np.ndarray) -> np.ndarray:
            nonlocal h
            value = value ^ h
            h = h * mult & word
            value = value * h
            return value ^ value >> 16

        return step

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        r = x * 0xCA01F9DD - y * 0x4973F715
        return r ^ r >> 16

    entropy = [np.full(len(t), w, dtype=np.uint32) for w in words] + [t]
    entropy += [np.zeros_like(t)] * (4 - len(entropy))
    hashmix = hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(w) for w in entropy[:4]]
    for src in range(4):  # each pool word into every other
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in entropy[4:]:  # words past the pool, into every pool word
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    out = hasher(0x8B51F9DD, 0x58F38DED)
    state = [out(pool[i % 4]).astype(np.uint64) for i in range(8)]
    halves = [(state[i] | state[i + 1] << 32).tolist() for i in range(0, 8, 2)]
    states = []
    for s_hi, s_lo, inc_hi, inc_lo in zip(*halves):
        # two LCG steps from state 0, adding s between them
        inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & (1 << 128) - 1
        s = ((inc + (s_hi << 64 | s_lo)) * 0x2360ED051FC65DA44385DF649FCCF645 + inc) & (1 << 128) - 1
        states.append({"bit_generator": "PCG64", "state": {"state": s, "inc": inc}, "has_uint32": 0, "uinteger": 0})
    return states


def _run_trials(
    spectrum: FourierSpectrum,
    requested: tuple[float, ...],
    trials: int,
    seed: int,
    success_threshold: Fraction | None = None,
) -> TrialStats:
    """Independent seeded trials of the sampling step at the requested
    probabilities, each clamped to 1; trial t's generator depends only on
    (seed, t), so results are identical under any execution order.  It is
    in the state of ``default_rng((seed, t))``.  One loop takes the trials
    in chunks of about _TRIAL_CHUNK_CELLS label cells: `_trial_states`
    computes the chunk's states in one vectorized pass, one generator is
    set to each in turn and `_draw`s that trial's row, and `_fold_unions`
    folds the chunk.

    The union is certain when some clamped phase is exactly 1 or every
    phase is 0: ``rng.random(k)`` lies in [0, 1), so every generator
    marks the whole support, or none of it.  Then no generator is seeded
    and nothing is folded: the step each (seed, t) generator would have
    drawn is known in closed form.  With a phase at 1 every member is
    marked and span(S) holds S, so each trial has sample size k and
    bucket count 1; with every phase at 0 nothing is marked and the k
    masks are distinct, so each has size 0 and count k.  At desk scale
    that covers the warm-up at k <= 1,897 and theorem 2 at delta = 1 and
    ell <= 1/2 for every n <= 20 (its second phase clamps to 1).  Every
    uncertain union is drawn from its (seed, t) state.  Its callers make
    `check_sampling`'s checks first.
    """
    masks = spectrum.masks
    k = len(masks)
    probabilities = tuple(min(1.0, p) for p in requested)
    marked = 1.0 in probabilities
    if marked or not any(probabilities):
        sample_sizes, bucket_counts = [k if marked else 0] * trials, [1 if marked else k] * trials
    else:
        rng = np.random.Generator(np.random.PCG64(0))
        union = np.empty((max(1, _TRIAL_CHUNK_CELLS // (k + 1)), k), dtype=bool)
        sample_sizes, bucket_counts = [], []
        for lo in range(0, trials, len(union)):
            states = _trial_states(seed, np.arange(lo, min(lo + len(union), trials), dtype=np.uint32))
            for row, state in zip(union, states):
                rng.bit_generator.state = state
                _draw(row, probabilities, rng)
            _, sizes, counts = _fold_unions(masks, union[: len(states)])
            sample_sizes += sizes.tolist()
            bucket_counts += counts.tolist()
    mean = Fraction(sum(bucket_counts), trials * k)
    fractions = [b / k for b in bucket_counts]
    mean_f = sum(fractions) / trials
    if trials >= 2:
        var = sum((x - mean_f) ** 2 for x in fractions) / (trials - 1)
        half = 1.96 * math.sqrt(var / trials)
    else:
        half = 0.0
    success_fraction = None
    if success_threshold is not None:
        cut = math.floor(success_threshold)  # b <= threshold for an integer b
        hits = sum(1 for b in bucket_counts if b <= cut)
        success_fraction = Fraction(hits, trials)
    return TrialStats(
        trials=trials,
        k=k,
        probabilities=probabilities,
        requested=requested,
        clamped=probabilities != requested,
        bucket_counts=tuple(bucket_counts),
        sample_sizes=tuple(sample_sizes),
        mean_bucket_fraction=mean,
        ci95=(mean_f - half, mean_f + half),
        success_threshold=success_threshold,
        success_fraction=success_fraction,
    )


def estimate_bucket_reduction(
    f: TruthTable | FourierSpectrum, p: float, trials: int, seed: int
) -> TrialStats:
    """Monte Carlo estimate of E[buckets/k] under one-phase parity sampling
    at probability p."""
    check_sampling(seed, trials, p=p)
    spectrum = _as_spectrum(f)
    k = spectrum.sparsity
    if k < 4:
        raise ValueError(f"need sparsity >= 4, got {k}")
    return _run_trials(spectrum, (float(p),), trials, seed)


def warmup_success_rate(
    f: TruthTable | FourierSpectrum, trials: int, seed: int
) -> TrialStats:
    """Fraction of trials where sampling at 2*sqrt(log2 k)/k^(1/4) buckets
    the support down to k/2; the probability is clamped to 1 at small k
    (recorded in the stats)."""
    check_sampling(seed, trials)
    spectrum = _as_spectrum(f)
    k = spectrum.sparsity
    if k < 2:
        raise ValueError(f"need sparsity >= 2, got {k}")
    requested = 2 * math.sqrt(math.log2(k)) / k**0.25
    return _run_trials(spectrum, (requested,), trials, seed, Fraction(k, 2))


def folding_sampling_trial(
    f: TruthTable | FourierSpectrum,
    delta: Fraction | float,
    ell: Fraction | float,
    trials: int,
    seed: int,
) -> TrialStats:
    """Two-phase sampling experiment for supports with the (delta, ell)
    folding property; success means buckets <= k - delta*k/6.

    The input must actually achieve delta at exponent ell (checked via
    folding_parameters); both phase probabilities are clamped to 1 when the
    formulas exceed it at desk scale.
    """
    from . import folding

    delta, ell = check_sampling(seed, trials, delta=delta, ell=ell)
    spectrum = _as_spectrum(f)
    k = spectrum.sparsity
    achieved = folding.folding_parameters(spectrum.masks, ell)
    if achieved.delta < delta:
        raise NotFoldingError(
            f"support achieves delta = {achieved.delta} at this exponent, below requested {delta}"
        )
    requested = _folding_probabilities(k, float(delta), float(achieved.ell))
    return _run_trials(spectrum, requested, trials, seed, k - delta * k / 6)
