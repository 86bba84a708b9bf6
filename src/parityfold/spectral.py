"""Exact Boolean-function representations and Walsh-Hadamard analysis.

A function f : F2^n -> {-1, +1} is held either as a dense truth table,
n <= MAX_TABLE_DIMENSION (20, the one cap on a table, which TruthTable
enforces), or as a sparse spectrum of scaled-integer coefficients
c_a = fhat(a) * 2^n, n <= gf2.MAX_DIMENSION (24).
Every coefficient of a +-1 function is an integral multiple of 1/2^n, so
the scaled form is lossless and all identities below are exact integer
equations (zero tolerance).

`fwht_inplace` is the library's one WHT, for `wht` and `inverse_wht`
here, restriction's (2^b, buckets) tables and the pair kernel's dense
route.  Level h (a power of two) pairs rows h apart, and its contiguous
blocks are h * columns cells wide.  While they are at most RADIX_WIDTH =
64 cells wide, it takes three levels at a time, one int64 `np.matmul` by
the 8x8 Sylvester-Hadamard matrix (its 2x2 or 4x4 block for the last one
or two levels): the first nine levels of a one-column table such as a
truth table (all of it up to n = 9), the first six of a table of up to 8
columns and the first three of one of up to 64, such as small (2^b,
buckets) restriction tables.  Wider levels, and tables of more than 64
columns from the start, take the butterfly, a level at a time: there a
matmul's eight products per cell cost more than the numpy calls it saves.
Both are exact with no float and no BLAS.  numpy's integer matmul, like
the butterfly's + and -, is arithmetic mod 2^64, so either computes the
transform in Z/2^64, and every final value in [-2^63, 2^63) comes back
exact whatever the partial sums in between do.  A radix step's output is
the butterfly's value three levels later, so a bound on final values
(the pair kernel's, from Parseval) holds for both.

Titsworth sums run on the pair kernel of `pairs`, exact in int64 for any
spectrum with sum c_a^2 < 2^63 (Parseval spectra have 4^n <= 2^48), and
raise WeightBoundError above it.  On dense spectra they are one XOR
autocorrelation of the coefficients, WHT(WHT(c)^2) / 2^n: WHT(c) is
2^n f, so this is the transform of 4^n f^2, which vanishes off 0 when
f^2 = 1.  `verify_titsworth` imports `pairs` when it runs, so a run with
no pair work (Monte Carlo warm-up and theorem-1 trials, `verify
parseval`) never compiles the pair kernel.
`inverse_wht` refuses |c_a| > 2^n before its int64 transform.  File
readers take integers only as JSON integers (`json_int`): a bool or a
float is an error, never a truncated int.  `read_json`, the reader of
every input file (configs with their function and support entries,
table, spectrum and tree files, `--restrict` systems), names the file in
each refusal, a syntax error by line and column, and refuses a key
repeated in one object, which `json.loads` would otherwise settle
silently by keeping the last value.

`read_keys` is the one reader of a JSON object's keys, for the whole
library: configs, analyses, function entries and the function files
here.  It takes a table of the keys the object may hold, each with a
parser and a default, refuses a missing required key and then a key the
table does not name, each in one wording that names the object and the
key, and parses each value once.  A spectrum file's coefficient entries
pass one inline test each; only an entry that fails it is read by
`read_keys`, for its message.

A spectrum has one form, its support sorted once into read-only arrays,
and every analysis reads those; sums that must be exact beyond int64
(Parseval, l1, the pair kernel's weight bound) take them as Python ints
through `tolist`.  `wht` fills the arrays straight from `flatnonzero` of
the transform with no check per entry: they are in range and nonzero by
construction.  The public constructor checks a dict's entries by
`json_int`'s rule, an int or a numpy integer and never a bool, with one
inline test, building an error message only for the first entry that
fails it, and copies them into the arrays.

A `FourierSupport` is a support with no coefficients: n and one sorted,
read-only `masks` array, which `support_from_dict` reads from a support
entry.  The ops that read only the masks take it in place of a spectrum.

Truth-table index convention: bit i of the index is variable x_{i+1}.
"""

from __future__ import annotations

import json
from functools import cached_property
from fractions import Fraction
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .gf2 import MAX_DIMENSION, Value, check_vector

MAX_TABLE_DIMENSION = 20  # a truth table's n, and the runner's max_n, at most this
RADIX_WIDTH = 64
# the 8x8 Sylvester-Hadamard matrix, (-1)^<s, t>; its leading 2x2 and 4x4
# blocks are the smaller ones
_HADAMARD = np.array([[1 - 2 * ((s & t).bit_count() & 1) for t in range(8)] for s in range(8)], dtype=np.int64)


class NotBooleanValuedError(ValueError):
    """The spectrum does not evaluate to +-1 everywhere."""


def parity(mask: int, x: int) -> int:
    """<mask, x> over F2."""
    return (mask & x).bit_count() & 1


def character(mask: int, x: int) -> int:
    """chi_mask(x) = (-1)^<mask, x>."""
    return -1 if parity(mask, x) else 1


class TruthTable(Value):
    """The 2^n values of a +-1 function, one read-only int8 array."""

    _fields = ("n", "values")

    def __init__(self, n: int, values: np.ndarray) -> None:
        if not 0 <= n <= MAX_TABLE_DIMENSION:
            raise ValueError(f"dimension {n} outside [0, {MAX_TABLE_DIMENSION}]")
        # validate before the int8 cast, which would wrap 255 to -1
        vals = np.asarray(values)
        if vals.shape != (1 << n,):
            raise ValueError(f"expected {1 << n} entries, got {vals.shape}")
        if not np.all((vals == 1) | (vals == -1)):
            raise ValueError("truth table entries must be +-1")
        # always a copy: the caller's array, and views of it, stay theirs
        super().__init__(n, _read_only(vals.astype(np.int8)))

    @classmethod
    def _of_signs(cls, n: int, values: np.ndarray) -> TruthTable:
        """The table of 2^n int8 values, each +-1, taken as they are: no
        check per entry, for a generator's own array, which the table
        keeps, read-only."""
        table = object.__new__(cls)
        Value.__init__(table, n, _read_only(values))
        return table

    def evaluate(self, x: int) -> int:
        check_vector(x, self.n)
        return int(self.values[x])


def _is_integer(value) -> bool:
    """`json_int`'s rule for a spectrum entry: an int or a numpy integer, never a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_entry(mask, c, n: int) -> None:
    """The typed error for one spectrum entry, its mask checked first;
    returns when the entry is valid."""
    if not _is_integer(mask):
        raise ValueError(f"mask {mask!r} must be an integer")
    check_vector(int(mask), n)
    if not _is_integer(c):
        raise ValueError(f"non-integer coefficient at mask {mask}: {c!r}")
    if c == 0:
        raise ValueError(f"zero coefficient stored at mask {mask}")


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class FourierSpectrum(Value):
    """Sparse exact spectrum: the nonzero c_a, with fhat(a) = c_a / 2^n.

    Its state is `n` and two read-only arrays in ascending mask order,
    `masks` (int64) and `coefficients` (int64, or Python ints in an object
    array when one does not fit int64); `coeffs` is their read-only dict
    view, made on first use.
    """

    _fields = ("n", "masks", "coefficients")

    def __init__(self, n: int, coeffs: dict[int, int]) -> None:
        if not 0 <= n <= MAX_DIMENSION:
            raise ValueError(f"dimension {n} outside [0, {MAX_DIMENSION}]")
        # one inline test per entry, passed by nonzero Python ints in range;
        # only numpy integers and bad entries pay for `_check_entry`
        for mask, c in coeffs.items():
            if type(mask) is not int or type(c) is not int or mask < 0 or mask >> n or not c:
                _check_entry(mask, c, n)
        keys = sorted(coeffs)
        values = [int(coeffs[a]) for a in keys]  # int() first: no unsafe numpy cast
        try:
            coefficients = np.array(values, dtype=np.int64)
        except OverflowError:  # exact Python ints beyond int64
            coefficients = np.array(values, dtype=object)
        masks = np.array(keys, dtype=np.int64)
        super().__init__(n, _read_only(masks), _read_only(coefficients))

    @classmethod
    def _of_sorted(cls, n: int, masks: np.ndarray, coefficients: np.ndarray) -> FourierSpectrum:
        """The spectrum of int64 masks in ascending order, each below 2^n,
        and their nonzero int64 coefficients, taken as they are: no check
        per entry."""
        spectrum = object.__new__(cls)
        Value.__init__(spectrum, n, _read_only(masks), _read_only(coefficients))
        return spectrum

    def __repr__(self) -> str:
        return f"FourierSpectrum(n={self.n!r}, coeffs={dict(self.coeffs)!r})"

    @cached_property
    def coeffs(self) -> MappingProxyType[int, int]:
        """mask -> c_a as Python ints, in ascending mask order, read-only."""
        return MappingProxyType(dict(zip(self.masks.tolist(), self.coefficients.tolist())))

    def __getitem__(self, mask: int) -> int:
        return self.coeffs.get(mask, 0)

    def support(self) -> set[int]:
        return set(self.masks.tolist())

    @property
    def sparsity(self) -> int:
        return len(self.masks)

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
    C-contiguous int64 array, so that every reshape is a view: radix steps
    while a level's blocks are at most RADIX_WIDTH cells wide, butterflies
    after."""
    rows, width = len(arr), arr.size // len(arr)  # width: cells per row
    h = 1
    while h < rows and h * width <= RADIX_WIDTH:
        r = min(3, (rows // h).bit_length() - 1)  # the bits left, up to three
        view = arr.reshape(rows // (h << r), 1 << r, h * width)
        view[...] = np.matmul(_HADAMARD[: 1 << r, : 1 << r], view)
        h <<= r
    while h < rows:
        view = arr.reshape(rows // (2 * h), 2, h * width)
        top = view[:, 0].copy()
        view[:, 0] += view[:, 1]
        view[:, 1] = top - view[:, 1]
        h <<= 1


def wht(table: TruthTable) -> FourierSpectrum:
    """Exact Walsh-Hadamard transform, c_a = sum_x f(x) chi_a(x)."""
    arr = table.values.astype(np.int64)
    fwht_inplace(arr)
    masks = np.flatnonzero(arr)
    return FourierSpectrum._of_sorted(table.n, masks, arr[masks])


def inverse_wht(spectrum: FourierSpectrum) -> TruthTable:
    """Inverse transform; raises NotBooleanValuedError unless every point is +-1."""
    if spectrum.n > MAX_TABLE_DIMENSION:  # before 2^n entries
        raise ValueError(f"dimension {spectrum.n} outside [0, {MAX_TABLE_DIMENSION}]")
    full = 1 << spectrum.n
    coefficients = spectrum.coefficients
    # no +-1 function has |c| > 2^n; within it every sum fits int64.  The
    # comparisons are exact, where abs would wrap -2^63
    outside = (coefficients > full) | (coefficients < -full)
    if outside.any():
        bad = int(np.flatnonzero(outside)[0])  # the first, in ascending mask order
        raise NotBooleanValuedError(f"|c| = {abs(int(coefficients[bad]))} > 2^n at mask {spectrum.masks[bad]}")
    arr = np.zeros(full, dtype=np.int64)
    arr[spectrum.masks] = coefficients
    fwht_inplace(arr)
    if not np.all(np.abs(arr) == full):
        bad = int(np.flatnonzero(np.abs(arr) != full)[0])
        raise NotBooleanValuedError(
            f"spectrum evaluates to {int(arr[bad])}/{full} at x={bad}"
        )
    return TruthTable(spectrum.n, (arr // full).astype(np.int8))


def verify_parseval(spectrum: FourierSpectrum) -> bool:
    """sum c_a^2 == 4^n, the exact scaled form of sum fhat^2 = 1."""
    return sum(c * c for c in spectrum.coefficients.tolist()) == 1 << (2 * spectrum.n)


def verify_titsworth(spectrum: FourierSpectrum) -> list[int]:
    """Directions g != 0 where sum over ordered pairs a1+a2=g of c_a1*c_a2 != 0.

    Only directions of the sumset S+S can be nonzero, and each ordered sum
    is twice the unordered one that the pair kernel computes exactly; it
    raises WeightBoundError once sum c_a^2 >= 2^63.  Empty list == the
    correlation condition holds exactly; spectra of +-1 functions always pass.
    """
    from . import pairs

    if spectrum.sparsity <= 1:
        return []
    directions, sums = pairs.direction_sums(spectrum.masks, spectrum.coefficients.tolist())
    return directions[sums != 0].tolist()


def is_plateaued(spectrum: FourierSpectrum) -> bool:
    return len(set(map(abs, spectrum.coefficients.tolist()))) <= 1


def spectral_l1(spectrum: FourierSpectrum) -> Fraction:
    """Exact sum of |fhat(a)|; squares to at most the sparsity for +-1 functions."""
    return Fraction(sum(map(abs, spectrum.coefficients.tolist())), 1 << spectrum.n)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def json_int(value, what: str) -> int:
    """A JSON integer read from a file; bools and floats (1.0 too) are refused."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


_JSON_KINDS = {dict: "an object", list: "an array", str: "a string", bool: "true or false"}


def json_of(value, kind: type, what: str):
    """A JSON object, array, string or bool (kind dict, list, str or bool)
    read from a file; kind object takes any value."""
    if not isinstance(value, kind):
        raise ValueError(f"{what} must be {_JSON_KINDS[kind]}, got {type(value).__name__}")
    return value


REQUIRED = object()  # the default of a key that its object cannot go without


def _parse(parse, value, what: str):
    """One value, by its parser in a table of `read_keys`."""
    if not callable(parse):  # the choices (a table's keys)
        if json_of(value, str, what) not in parse:
            raise ValueError(f"unknown {what} {value!r}; pick from {', '.join(parse)}")
        return value
    return json_of(value, parse, what) if isinstance(parse, type) else parse(value, what)


def read_keys(owner: str, given, declared: dict) -> dict:
    """The values of the JSON object ``given``, by ``declared``: key ->
    (parser, default).  A parser is a function (value, name) -> value, the
    JSON type (dict, list, str, bool, or object for any value) that the
    value must have, or the choices (a table's keys), one of which the
    value must name.  A default is a value, None (the key is left out
    unless given) or REQUIRED.

    ``given`` must be an object; then a missing REQUIRED key is refused,
    then a key that ``declared`` does not name, each as a ValueError that
    names ``owner`` and the key.  Each value is parsed once, its errors
    named "owner key", and the defaults are filled in, in the order of
    ``declared``.
    """
    json_of(given, dict, owner)
    if missing := [key for key, (_, default) in declared.items() if default is REQUIRED and key not in given]:
        raise ValueError(f"{owner}: missing parameter {missing[0]!r}")
    if not given.keys() <= declared.keys():
        key = next(key for key in given if key not in declared)
        raise ValueError(f"{owner}: unknown parameter {key!r}; {owner} reads {', '.join(declared) or 'none'}")
    values = {}
    for key, (parse, default) in declared.items():
        if key in given:
            values[key] = _parse(parse, given[key], f"{owner} {key}")
        elif default is not None:
            values[key] = default
    return values


def read_json(path: str | Path):
    """The JSON value in a file.  Every input file is read here, and this
    is the one place that catches a JSON syntax error: it (by line and
    column), nesting too deep to parse and a key repeated in one object
    are each a ValueError that names the file."""
    text = Path(path).read_text()

    def unique(items: list) -> dict:
        value = dict(items)
        if len(value) < len(items):  # name the first key seen twice
            seen = set()
            for key, _ in items:
                if key in seen:
                    raise ValueError(f"{path}: key {key!r} repeated in one JSON object")
                seen.add(key)
        return value

    try:
        return json.loads(text, object_pairs_hook=unique)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to parse") from None


def table_to_dict(table: TruthTable) -> dict:
    return {"n": table.n, "values": table.values.tolist()}


def table_from_dict(data: dict) -> TruthTable:
    n, values = read_keys("truth table", data, {"n": (json_int, REQUIRED), "values": (list, REQUIRED)}).values()
    # np.array would read JSON true/false as 1/0 and 1.0 as 1
    if set(map(type, values)) - {int}:
        bad = next(v for v in values if type(v) is not int)
        raise ValueError(f"truth table entries must be the JSON integers +-1, not floats or booleans; got {bad!r}")
    return TruthTable(n, np.array(values))


def _coefficient(entry, n: int) -> tuple[int, int]:
    """(mask, num) of a coefficient entry that `spectrum_from_dict`'s inline
    test did not pass, read by `read_keys` and checked for its typed error."""
    mask, num = read_keys("coefficient", entry, {"mask": (object, REQUIRED), "num": (object, REQUIRED)}).values()
    _check_entry(mask, num, n)
    return int(mask), num


def spectrum_from_dict(data: dict) -> FourierSpectrum:
    n, entries = read_keys("spectrum", data, {"n": (json_int, REQUIRED), "coeffs": (list, REQUIRED)}).values()
    coeffs: dict[int, int] = {}
    for entry in entries:
        # one inline test, passed by {"mask": m, "num": c} with a Python int
        # m; FourierSpectrum checks m and c as it checks every entry
        if type(entry) is dict and len(entry) == 2 and type(mask := entry.get("mask")) is int and "num" in entry:
            num = entry["num"]
        else:
            mask, num = _coefficient(entry, n)
        if mask in coeffs:
            raise ValueError(f"duplicate mask {mask}")
        coeffs[mask] = num
    return FourierSpectrum(n, coeffs)


class FourierSupport(Value):
    """A Fourier support S with no coefficients: n and its masks, sorted
    once into one read-only int64 array.  An op that reads only a
    spectrum's masks reads a support as it reads a spectrum, through
    `n`, `masks` and `sparsity`."""

    _fields = ("n", "masks")

    @property
    def sparsity(self) -> int:
        return len(self.masks)


def support_from_dict(data: dict) -> FourierSupport:
    """A support entry {"support": [m_1, ..., m_k], "n": N}: N <=
    MAX_DIMENSION and k >= 1 distinct masks, each a JSON integer (by
    `json_int`'s rule) below 2^N."""
    masks, n = read_keys("support entry", data, {"support": (list, REQUIRED), "n": (json_int, REQUIRED)}).values()
    if not masks:
        raise ValueError("support entry: the support is empty")
    for mask in masks:  # check_vector checks n first
        check_vector(json_int(mask, "support entry mask"), n)
    ordered = np.sort(np.array(masks, dtype=np.int64))
    if len(repeated := ordered[1:][ordered[1:] == ordered[:-1]]):
        raise ValueError(f"support entry: duplicate mask {repeated[0]}")
    return FourierSupport(n, _read_only(ordered))


def load_function(path: str | Path):
    """Load a truth-table or spectrum JSON file, sniffing by keys."""
    data = json_of(read_json(path), dict, str(path))
    if "values" in data:
        return table_from_dict(data)
    if "coeffs" in data:
        return spectrum_from_dict(data)
    raise ValueError(f"{path}: neither a truth-table nor a spectrum file")
