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

from dataclasses import dataclass
from fractions import Fraction

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


@dataclass(frozen=True)
class BuildConfig:
    strategy: str = "sampling"
    probability: Fraction | float | None = None  # overrides the per-node formula
    resample_cap: int = 64
    epsilon: Fraction = Fraction(1, 2)  # progress requirement per batch
    seed: int = 0
    delta: Fraction | None = None  # folding-sampling parameters
    ell: Fraction | None = None

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}; pick from {STRATEGIES}")
        if self.probability is not None and not 0 < self.probability <= 1:
            raise ValueError(f"probability must lie in (0, 1], got {self.probability}")
        if self.resample_cap < 1:
            raise ValueError("resample cap must be >= 1")
        delta, ell = check_sampling(self.seed, delta=self.delta, ell=self.ell)
        eps = Fraction(self.epsilon)
        if not 0 < eps < 1:
            raise ValueError(f"epsilon must lie in (0, 1), got {eps}")
        object.__setattr__(self, "epsilon", eps)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "ell", ell)
        # a parameter the strategy would not read is refused
        if self.probability is not None and self.strategy not in SAMPLING:
            raise ValueError(f"strategy {self.strategy} draws nothing, so it takes no probability")
        if (self.delta, self.ell) != (None, None):
            if self.strategy != "folding-sampling":
                raise ValueError(f"delta and ell are folding-sampling's; strategy {self.strategy} takes neither")
            if None in (self.delta, self.ell):
                raise ValueError("folding-sampling takes delta and ell together, or neither")
            if self.probability is not None:
                raise ValueError("a probability replaces the delta and ell schedule; give one or the other")
