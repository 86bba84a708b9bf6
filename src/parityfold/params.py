"""Run parameters that need no function, and the errors a failed bound raises.

This is the layer that the runner's op table, `runner.op_params` and the
CLI's parser read when they are imported: the strategies a build picks
from (`STRATEGIES`, the drawing ones `SAMPLING`), a build's parameters
(`BuildConfig`), and `check_sampling`, which holds each range check of a
sampling run's seed, trials, p, delta and ell.  Exponents snap to small
exact rationals here (`as_exponent`).  None of it imports the builder
(`pdt`) or restriction, so a run of fold, verify and analyze ops loads
neither.

`CheckFailedError` is the base of the errors a bound raises when it
fails to hold (`folding.FoldingBoundError`,
`restriction.IdentificationBoundError` and
`pdt.ResampleCapExceededError`); the CLI maps it to exit 1 without
importing the modules that raise it.
"""

from __future__ import annotations

from fractions import Fraction

from .gf2 import Value

STRATEGIES = ("sampling", "folding-sampling", "max-coefficient", "greedy-min-bucket")
SAMPLING = STRATEGIES[:2]  # the strategies that draw


class CheckFailedError(RuntimeError):
    """A bound the computation relies on failed to hold: exit 1 in the CLI."""


class SeedRangeError(ValueError):
    """A seed below 0, or more trials than a 32-bit trial index t numbers."""


def float_fraction(x: float) -> Fraction:
    """The closest fraction to x with denominator <= 10^6, so 0.49 -> 49/100
    and 1e-4 -> 1/10000 rather than their binary expansions."""
    return Fraction(x).limit_denominator(10**6)


def as_exponent(ell: Fraction | float | int) -> Fraction:
    """Normalize an exponent in [0, 1] to an exact small rational; floats
    snap by `float_fraction`."""
    if isinstance(ell, float):
        ell = float_fraction(ell)
    ell = Fraction(ell)
    if ell < 0:
        raise ValueError(f"exponent must be >= 0, got {ell}")
    if ell > 1:
        # classes have at most k/2 pairs, so none reaches k^ell + 1 from ell = 1 on
        raise ValueError(f"exponent must be <= 1, got {ell}")
    if ell.denominator > 10_000:
        raise ValueError(f"exponent denominator {ell.denominator} too large")
    return ell


def check_sampling(
    seed: int | None = None, trials: int | None = None, p: Fraction | float | None = None,
    delta: Fraction | float | None = None, ell: Fraction | float | None = None,
) -> tuple[Fraction | None, Fraction | None]:
    """The checks of a seeded sampling run that do not depend on the
    function, each made on what is given: seed >= 0, trials in [1, 2^32]
    (trial t's seed is (seed, t), with t one 32-bit word), p in [0, 1],
    delta in (0, 1] and ell an exponent (`as_exponent`).  A seed or trial
    count that the seeding does not number is a SeedRangeError.  Returns
    delta and ell exact, or None where not given."""
    if seed is not None and seed < 0:
        raise SeedRangeError(f"seed must be >= 0, got {seed}")
    if trials is not None and trials < 1:
        raise ValueError("need at least one trial")
    if trials is not None and trials > 1 << 32:
        raise SeedRangeError(f"at most 2^32 trials, got {trials}")
    if p is not None and not 0 <= p <= 1:
        raise ValueError(f"probability must lie in [0, 1], got {p}")
    delta = None if delta is None else Fraction(delta)
    if delta is not None and not 0 < delta <= 1:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    return delta, None if ell is None else as_exponent(ell)


class BuildConfig(Value):
    """A build's parameters, checked when made.  The class attributes are
    the defaults."""

    _fields = ("strategy", "probability", "resample_cap", "epsilon", "seed", "delta", "ell")

    strategy = "sampling"
    probability = None  # overrides the per-node formula
    resample_cap = 64
    epsilon = Fraction(1, 2)  # progress requirement per batch
    seed = 0
    delta = None  # folding-sampling parameters
    ell = None

    def __init__(
        self, strategy: str = strategy, probability: Fraction | float | None = probability,
        resample_cap: int = resample_cap, epsilon: Fraction = epsilon, seed: int = seed,
        delta: Fraction | None = delta, ell: Fraction | None = ell,
    ) -> None:
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}; pick from {STRATEGIES}")
        if probability is not None and not 0 < probability <= 1:
            raise ValueError(f"probability must lie in (0, 1], got {probability}")
        if resample_cap < 1:
            raise ValueError("resample cap must be >= 1")
        delta, ell = check_sampling(seed, delta=delta, ell=ell)
        epsilon = Fraction(epsilon)
        if not 0 < epsilon < 1:
            raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
        # a parameter the strategy would not read is refused
        if probability is not None and strategy not in SAMPLING:
            raise ValueError(f"strategy {strategy} draws nothing, so it takes no probability")
        if (delta, ell) != (None, None):
            if strategy != "folding-sampling":
                raise ValueError(f"delta and ell are folding-sampling's; strategy {strategy} takes neither")
            if None in (delta, ell):
                raise ValueError("folding-sampling takes delta and ell together, or neither")
            if probability is not None:
                raise ValueError("a probability replaces the delta and ell schedule; give one or the other")
        super().__init__(strategy, probability, resample_cap, epsilon, seed, delta, ell)
