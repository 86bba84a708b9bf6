"""Generators for the Boolean-function corpus.

Variable layout conventions (fixed for file interop):
  - addressing on k targets: the (log k)/2 address bits occupy the lowest
    index positions, the sqrt(k) target bits follow; address value v
    selects target bit v (addresses are numbered from the all-zero
    address upward).
  - the modified ("if-else") variant prepends its two selector bits at
    positions 0 and 1.
  - inner product on 2m variables pairs bits (0,1), (2,3), ...

A corpus entry's params, and a junta's inner entry, are read once, by
`read_function` through `spectral.read_keys` (the one reader of a JSON
object's keys) against the family table, into a FunctionSpec whose
parsed values `build_function` builds from.  Each family's n function in
`FAMILIES` is its one check: it makes every check that needs no table,
before any table is built, and the public generator calls the same
function rather than a copy of it.  Only the table cap, 2^n entries
against MAX_TABLE_DIMENSION, waits for the generator (`_size`), so that a
config's smaller max_n speaks first; for the same reason the mask checks
of parity, conjunction and junta, whose words name gf2's wider cap on n,
run only where n is within the table cap.  The refusals here are
InvalidFamilyParameterErrors, and gf2's DimensionMismatchErrors for a
mask that does not fit.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .gf2 import check_vector, row_reduce
from .spectral import MAX_TABLE_DIMENSION, REQUIRED, TruthTable, json_int, json_of, read_keys


class InvalidFamilyParameterError(ValueError):
    pass


def _check_addressing_k(k: int) -> tuple[int, int]:
    if k < 4 or k & (k - 1) or int(math.log2(k)) % 2:
        raise InvalidFamilyParameterError(f"k must be an even power of 2 >= 4, got {k}")
    addr_bits = int(math.log2(k)) // 2
    sqrt_k = math.isqrt(k)
    return addr_bits, sqrt_k


def _dimension(n: int, what: str, cap: float = math.inf) -> int:
    """n, once it lies in [0, cap]; the refusal names the table cap, which
    the n functions leave to max_n and `_size`."""
    if not 0 <= n <= cap:
        raise InvalidFamilyParameterError(f"{what}: n = {n} outside [0, {MAX_TABLE_DIMENSION}]")
    return n


def _size(n: int, what: str) -> int:
    """2^n, the entries of a table on n variables, once n is within the
    table cap."""
    return 1 << _dimension(n, what, MAX_TABLE_DIMENSION)  # before 2^n entries are made


def addressing_support(k: int) -> tuple[tuple[int, ...], int]:
    """Symbolic support {M union {y_a}}: every subset of the address bits
    joined with exactly one target bit.  Returns (masks, addr_bits)."""
    addr_bits, sqrt_k = _check_addressing_k(k)
    masks = [
        m | (1 << (addr_bits + a)) for a in range(sqrt_k) for m in range(1 << addr_bits)
    ]
    return tuple(sorted(masks)), addr_bits


def _signs(bits: np.ndarray) -> np.ndarray:
    """(-1)^b as int8 for an array of bits b in {0, 1}: a generated
    table's values."""
    signs = bits.astype(np.int8)
    signs *= -2
    signs += 1
    return signs


def _selected_targets(addr_bits: int, sqrt_k: int) -> np.ndarray:
    """The addressing bit at every input of addr_bits + sqrt_k variables:
    target bit v where the address is v, one row per value of the target
    bits and one column per address."""
    targets = np.arange(1 << sqrt_k, dtype=np.uint32)
    return (targets[:, None] >> np.arange(1 << addr_bits, dtype=np.uint32)) & 1


def gen_addressing(k: int) -> TruthTable:
    """Address bits select which target bit's sign is output."""
    addr_bits, sqrt_k = _check_addressing_k(k)
    n = addr_bits + sqrt_k
    _size(n, f"addressing k={k}")  # the cap, before 2^n entries
    return TruthTable._of_signs(n, _signs(_selected_targets(addr_bits, sqrt_k).ravel()))


# modified addressing's values at (z1, z2) = 00, 10, 01, 11: the sign of z1
# where the addressing core is +1 (row 0) and of z2 where it is -1 (row 1)
_SELECTOR_SIGNS = np.array([[1, -1, 1, -1], [1, 1, -1, -1]], dtype=np.int8)


def gen_modified_addressing(k: int) -> TruthTable:
    """Output the sign of selector bit z1 where the addressing core is +1
    and of z2 where it is -1."""
    addr_bits, sqrt_k = _check_addressing_k(k)
    n = 2 + addr_bits + sqrt_k
    _size(n, f"modified-addressing k={k}")  # the cap, before 2^n entries
    return TruthTable._of_signs(n, _SELECTOR_SIGNS[_selected_targets(addr_bits, sqrt_k).ravel()].ravel())


def gen_inner_product(m: int) -> TruthTable:
    """Bent function on 2m variables: sign of sum of products of bit pairs."""
    n = _inner_product_dimension(m)
    idx = np.arange(_size(n, f"inner-product m={m}"), dtype=np.uint32)
    # bit 2i of x & x >> 1 is the product of bits 2i and 2i + 1
    return TruthTable._of_signs(n, _signs(np.bitwise_count(idx & (idx >> 1) & 0x55555555) & 1))


def gen_parity(mask: int, n: int) -> TruthTable:
    idx = np.arange(_size(_mask_dimension(mask, n), "parity"), dtype=np.uint32)
    return TruthTable._of_signs(n, _signs(np.bitwise_count(idx & mask) & 1))


def gen_conjunction(mask: int, n: int) -> TruthTable:
    """-1 exactly where all variables in mask are set."""
    idx = np.arange(_size(_mask_dimension(mask, n), "conjunction"), dtype=np.uint32)
    return TruthTable._of_signs(n, _signs((idx & mask) == mask))


def gen_junta(inner: TruthTable, masks: Sequence[int], n: int) -> TruthTable:
    """Embed inner through the parities <mask_i, x>: f(x) = inner(l_1(x), ...).

    The masks must be one per inner variable and linearly independent, so
    the sparsity of the result equals the inner sparsity.
    """
    idx = np.arange(_size(_junta_dimension(inner, masks, n), "junta"), dtype=np.uint32)
    inner_index = np.zeros(len(idx), dtype=np.intp)
    for i, mask in enumerate(masks):
        inner_index |= (np.bitwise_count(idx & mask) & 1).astype(np.intp) << i
    return TruthTable._of_signs(n, inner.values[inner_index])  # inner's values are +-1 int8


def gen_random(n: int, seed: int) -> TruthTable:
    size = _size(_random_dimension(n, seed), "random")
    rng = np.random.default_rng(seed)
    return TruthTable._of_signs(n, _signs(rng.integers(0, 2, size=size, dtype=np.int64)))


class FunctionSpec(NamedTuple):
    """A family, its params as `read_function` parsed them and the n of
    its table, e.g. FunctionSpec("addressing", {"k": 16}, 6)."""

    family: str
    params: dict
    n: int


def _inner(value, what: str) -> FunctionSpec:
    """A junta's inner entry {"family": name, "params": {...}}."""
    return read_function(*read_keys(what, value, {"family": (object, REQUIRED), "params": (dict, REQUIRED)}).values())


# the n functions: each takes a family's params by name, as its generator
# does, and returns the n of its table after every check that needs no table


def _inner_product_dimension(m: int) -> int:
    if m < 1:
        raise InvalidFamilyParameterError(f"m must be >= 1, got {m}")
    return 2 * m


def _mask_dimension(mask: int, n: int) -> int:
    if n <= MAX_TABLE_DIMENSION:  # above it, max_n or `_size` refuses n first
        check_vector(mask, n)
    return n


def _junta_dimension(inner: FunctionSpec | TruthTable, masks: Sequence[int], n: int) -> int:
    # before the inner table is built: one mask per inner variable, and
    # the masks independent in n
    if len(masks) > n:
        raise InvalidFamilyParameterError(f"{len(masks)} masks cannot be independent in n = {n}")
    if inner.n != len(masks):
        raise InvalidFamilyParameterError(f"need {inner.n} embedding masks, got {len(masks)}")
    if n <= MAX_TABLE_DIMENSION and row_reduce(masks, n).rank != len(masks):  # as in _mask_dimension
        raise InvalidFamilyParameterError("embedding masks must be linearly independent")
    return n


def _random_dimension(n: int, seed: int) -> int:
    # numpy's generator refuses a negative seed only as the table is drawn
    if seed < 0:
        raise InvalidFamilyParameterError(f"random: seed must be >= 0, got {seed}")
    return _dimension(n, "random")


INT = (json_int, REQUIRED)  # a family's integer param

# family -> (generator, {param: (parser, REQUIRED)}, its n function), the
# params read by `read_keys`.  The n function is the family's one check; it
# runs as the entry is read, and the generator runs it again.
FAMILIES = {
    "addressing": (gen_addressing, {"k": INT}, lambda k: sum(_check_addressing_k(k))),
    "modified-addressing": (gen_modified_addressing, {"k": INT}, lambda k: 2 + sum(_check_addressing_k(k))),
    "inner-product": (gen_inner_product, {"m": INT}, _inner_product_dimension),
    "parity": (gen_parity, {"mask": INT, "n": INT}, _mask_dimension),
    "conjunction": (gen_conjunction, {"mask": INT, "n": INT}, _mask_dimension),
    "junta": (lambda inner, masks, n: gen_junta(build_function(inner), masks, n), {
        "inner": (_inner, REQUIRED),
        "masks": (lambda value, what: [json_int(mask, "mask") for mask in json_of(value, list, what)], REQUIRED),
        "n": INT,
    }, _junta_dimension),
    "random": (gen_random, {"n": INT, "seed": INT}, _random_dimension),
}


def read_function(family: str, params: dict) -> FunctionSpec:
    """A family's params, read once by `read_keys` against FAMILIES after
    an unknown family is refused, and the n of its table from them: every
    check that needs no table."""
    if not isinstance(family, str) or family not in FAMILIES:
        raise InvalidFamilyParameterError(f"unknown family {family!r}")
    try:
        values = read_keys(family, params, FAMILIES[family][1])
    except ValueError as exc:
        raise InvalidFamilyParameterError(str(exc)) from None
    return FunctionSpec(family, values, FAMILIES[family][2](**values))


def build_function(spec: FunctionSpec) -> TruthTable:
    """The table of a function `read_function` read, from its parsed params."""
    return FAMILIES[spec.family][0](**spec.params)
