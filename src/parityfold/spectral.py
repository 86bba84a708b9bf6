"""Exact Boolean-function representations and Walsh-Hadamard analysis.

A function f : F2^n -> {-1, +1} is held either as a dense truth table or
as a sparse spectrum of scaled-integer coefficients c_a = fhat(a) * 2^n.
Every coefficient of a +-1 function is an integral multiple of 1/2^n, so
the scaled form is lossless and all identities below are exact integer
equations (zero tolerance).

Titsworth sums run on the pair kernel of `pairs`, exact in int64 for any
spectrum with sum c_a^2 < 2^63 (Parseval spectra have 4^n <= 2^48), and
raise WeightBoundError above it.  `inverse_wht` refuses |c_a| > 2^n before
its int64 transform.  File readers take integers only as JSON integers
(`json_int`): a bool or a float is an error, never a truncated int.

Truth-table index convention: bit i of the index is variable x_{i+1}.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from .gf2 import MAX_DIMENSION, check_vector
from .pairs import direction_sums


class NotBooleanValuedError(ValueError):
    """The spectrum does not evaluate to +-1 everywhere."""


class AlphaNotInSupportError(ValueError):
    pass


class BetaNotInSupportError(ValueError):
    pass


def parity(mask: int, x: int) -> int:
    """<mask, x> over F2."""
    return (mask & x).bit_count() & 1


def character(mask: int, x: int) -> int:
    """chi_mask(x) = (-1)^<mask, x>."""
    return -1 if parity(mask, x) else 1


def parity_of(masked: np.ndarray) -> np.ndarray:
    """Vectorized popcount parity of a uint32/uint64 array."""
    return (np.bitwise_count(masked) & 1).astype(np.int8)


@dataclass(frozen=True)
class TruthTable:
    n: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if not 0 <= self.n <= MAX_DIMENSION:
            raise ValueError(f"dimension {self.n} outside [0, {MAX_DIMENSION}]")
        # validate before the int8 cast, which would wrap 255 to -1
        vals = np.asarray(self.values)
        if vals.shape != (1 << self.n,):
            raise ValueError(f"expected {1 << self.n} entries, got {vals.shape}")
        if not np.all((vals == 1) | (vals == -1)):
            raise ValueError("truth table entries must be +-1")
        vals = vals.astype(np.int8, copy=False)
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TruthTable)
            and self.n == other.n
            and np.array_equal(self.values, other.values)
        )

    def evaluate(self, x: int) -> int:
        check_vector(x, self.n)
        return int(self.values[x])

    def negate(self) -> "TruthTable":
        return TruthTable(self.n, -self.values)

    def shift(self, y: int) -> "TruthTable":
        """The input-translated function x -> f(x + y)."""
        check_vector(y, self.n)
        idx = np.arange(1 << self.n) ^ y
        return TruthTable(self.n, self.values[idx])


@dataclass(frozen=True)
class FourierSpectrum:
    """Sparse exact spectrum: coeffs maps mask a -> c_a with fhat(a) = c_a / 2^n.

    Only nonzero integer coefficients are stored.
    """

    n: int
    coeffs: dict[int, int]

    def __post_init__(self) -> None:
        if not 0 <= self.n <= MAX_DIMENSION:
            raise ValueError(f"dimension {self.n} outside [0, {MAX_DIMENSION}]")
        for mask, c in self.coeffs.items():
            check_vector(mask, self.n)
            if c == 0:
                raise ValueError(f"zero coefficient stored at mask {mask}")
            if not isinstance(c, (int, np.integer)):
                raise ValueError(f"non-integer coefficient at mask {mask}: {c!r}")

    def __getitem__(self, mask: int) -> int:
        return self.coeffs.get(mask, 0)

    def support(self) -> set[int]:
        return set(self.coeffs)

    @property
    def sparsity(self) -> int:
        return len(self.coeffs)

    def evaluate_scaled(self, x: int) -> int:
        """2^n * f(x) as an exact integer character sum."""
        check_vector(x, self.n)
        return sum(c * character(mask, x) for mask, c in self.coeffs.items())

    def evaluate(self, x: int) -> int:
        scaled = self.evaluate_scaled(x)
        full = 1 << self.n
        if scaled == full:
            return 1
        if scaled == -full:
            return -1
        raise NotBooleanValuedError(f"evaluation at {x} is {scaled}/{full}, not +-1")


def fwht_inplace(arr: np.ndarray) -> None:
    """Unnormalized WHT along axis 0 (length a power of two) of a
    C-contiguous array, so that every reshape is a view."""
    h = 1
    while h < len(arr):
        view = arr.reshape(len(arr) // (2 * h), 2, h, *arr.shape[1:])
        top = view[:, 0].copy()
        view[:, 0] += view[:, 1]
        view[:, 1] = top - view[:, 1]
        h <<= 1


def wht(table: TruthTable) -> FourierSpectrum:
    """Exact Walsh-Hadamard transform, c_a = sum_x f(x) chi_a(x)."""
    arr = table.values.astype(np.int64)
    fwht_inplace(arr)
    coeffs = {int(mask): int(arr[mask]) for mask in np.nonzero(arr)[0]}
    return FourierSpectrum(table.n, coeffs)


def inverse_wht(spectrum: FourierSpectrum) -> TruthTable:
    """Inverse transform; raises NotBooleanValuedError unless every point is +-1."""
    full = 1 << spectrum.n
    arr = np.zeros(full, dtype=np.int64)
    for mask, c in spectrum.coeffs.items():
        # no +-1 function has |c| > 2^n; within it every sum fits int64
        if abs(int(c)) > full:
            raise NotBooleanValuedError(f"|c| = {abs(int(c))} > 2^n at mask {mask}")
        arr[mask] = c
    fwht_inplace(arr)
    if not np.all(np.abs(arr) == full):
        bad = int(np.flatnonzero(np.abs(arr) != full)[0])
        raise NotBooleanValuedError(
            f"spectrum evaluates to {int(arr[bad])}/{full} at x={bad}"
        )
    return TruthTable(spectrum.n, (arr // full).astype(np.int8))


def verify_parseval(spectrum: FourierSpectrum) -> bool:
    """sum c_a^2 == 4^n, the exact scaled form of sum fhat^2 = 1."""
    return sum(c * c for c in spectrum.coeffs.values()) == 1 << (2 * spectrum.n)


def verify_titsworth(spectrum: FourierSpectrum) -> list[int]:
    """Directions g != 0 where sum over ordered pairs a1+a2=g of c_a1*c_a2 != 0.

    Only directions of the sumset S+S can be nonzero, and each ordered sum
    is twice the unordered one that the pair kernel computes exactly; it
    raises WeightBoundError once sum c_a^2 >= 2^63.  Empty list == the
    correlation condition holds exactly; spectra of +-1 functions always pass.
    """
    if spectrum.sparsity <= 1:
        return []
    masks = np.fromiter(spectrum.coeffs, dtype=np.int64)
    directions, sums = direction_sums(masks, spectrum.coeffs.values())
    return directions[sums != 0].tolist()


def is_plateaued(spectrum: FourierSpectrum) -> bool:
    return len({abs(c) for c in spectrum.coeffs.values()}) <= 1


def spectral_l1(spectrum: FourierSpectrum) -> Fraction:
    """Exact sum of |fhat(a)|; squares to at most the sparsity for +-1 functions."""
    return Fraction(sum(abs(c) for c in spectrum.coeffs.values()), 1 << spectrum.n)


def normalize_signs(table: TruthTable, alpha: int, beta: int) -> TruthTable:
    """A function +-f(x + y) with the same coefficient magnitudes as f and
    both the alpha and beta coefficients strictly positive.

    When a translation is required, the smallest y with chi_{alpha+beta}(y)
    = -1 is used, making the output deterministic.
    """
    if alpha == beta:
        raise ValueError("alpha and beta must be distinct")
    spectrum = wht(table)
    ca = spectrum[alpha]
    cb = spectrum[beta]
    if ca == 0:
        raise AlphaNotInSupportError(f"mask {alpha} not in support")
    if cb == 0:
        raise BetaNotInSupportError(f"mask {beta} not in support")
    if ca * cb > 0:
        return table if ca > 0 else table.negate()
    diff = alpha ^ beta
    y = diff & -diff  # lowest set bit: smallest y with odd overlap
    shifted = table.shift(y)
    # shifted coefficient at alpha is ca * chi_alpha(y)
    if ca * character(alpha, y) > 0:
        return shifted
    return shifted.negate()


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def json_int(value, what: str) -> int:
    """A JSON integer read from a file; bools and floats (1.0 too) are refused."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def json_of(value, kind: type, what: str):
    """A JSON object (kind dict) or array (kind list) read from a file."""
    if not isinstance(value, kind):
        expected = "an object" if kind is dict else "an array"
        raise ValueError(f"{what} must be {expected}, got {type(value).__name__}")
    return value


def read_json(path: str | Path):
    """The JSON value in a file; nesting too deep to parse is a ValueError."""
    text = Path(path).read_text()
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to parse") from None


def table_to_dict(table: TruthTable) -> dict:
    return {"n": table.n, "values": [int(v) for v in table.values]}


def table_from_dict(data: dict) -> TruthTable:
    values = json_of(json_of(data, dict, "truth table")["values"], list, "values")
    # np.array would read JSON true/false as 1/0
    if any(isinstance(v, bool) for v in values):
        raise ValueError("truth table entries must be +-1, not booleans")
    return TruthTable(json_int(data["n"], "n"), np.array(values))


def spectrum_to_dict(spectrum: FourierSpectrum) -> dict:
    coeffs = [
        {"mask": mask, "num": spectrum.coeffs[mask]} for mask in sorted(spectrum.coeffs)
    ]
    return {"n": spectrum.n, "coeffs": coeffs}


def spectrum_from_dict(data: dict) -> FourierSpectrum:
    n = json_int(json_of(data, dict, "spectrum")["n"], "n")
    coeffs: dict[int, int] = {}
    for entry in json_of(data["coeffs"], list, "coeffs"):
        mask = json_int(json_of(entry, dict, "coefficient")["mask"], "mask")
        num = json_int(entry["num"], f"coefficient at mask {mask}")
        if num == 0:
            raise ValueError(f"coefficient at mask {mask} must be a nonzero integer")
        check_vector(mask, n)
        if mask in coeffs:
            raise ValueError(f"duplicate mask {mask}")
        coeffs[mask] = num
    return FourierSpectrum(n, coeffs)


def load_function(path: str | Path):
    """Load a truth-table or spectrum JSON file, sniffing by keys."""
    data = json_of(read_json(path), dict, str(path))
    if "values" in data:
        return table_from_dict(data)
    if "coeffs" in data:
        return spectrum_from_dict(data)
    raise ValueError(f"{path}: neither a truth-table nor a spectrum file")
