import json
import re
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from parityfold import families, pairs
from parityfold.cli import main
from parityfold.gf2 import DimensionMismatchError
from parityfold.pairs import WeightBoundError
from parityfold.spectral import (
    MAX_TABLE_DIMENSION,
    FourierSpectrum,
    NotBooleanValuedError,
    TruthTable,
    character,
    fwht_inplace,
    inverse_wht,
    is_plateaued,
    json_int,
    load_function,
    spectral_l1,
    spectrum_from_dict,
    table_from_dict,
    table_to_dict,
    verify_parseval,
    verify_titsworth,
    wht,
)


def naive_wht(table):
    """Oracle: c_a = sum_x f(x) chi_a(x) by direct double loop."""
    size = 1 << table.n
    return {
        a: sum(int(table.values[x]) * character(a, x) for x in range(size))
        for a in range(size)
    }


def naive_titsworth_violations(spectrum):
    """Oracle: ordered-pair correlation sums over all 2^n directions."""
    out = []
    for g in range(1, 1 << spectrum.n):
        total = sum(
            c1 * spectrum[a1 ^ g] for a1, c1 in spectrum.coeffs.items()
        )
        if total != 0:
            out.append(g)
    return out


def and2():
    # f = -1 exactly at x = (1, 1), i.e. index 3
    return TruthTable(2, np.array([1, 1, 1, -1]))


def random_table(n, seed):
    rng = np.random.default_rng(seed)
    return TruthTable(n, 1 - 2 * rng.integers(0, 2, size=1 << n, dtype=np.int64))


def test_wht_constant():
    for n in (0, 1, 3):
        t = TruthTable(n, np.ones(1 << n))
        assert wht(t).coeffs == {0: 1 << n}


def test_wht_single_character():
    # chi with mask {x1,x2} on n=3
    t = TruthTable(3, np.array([character(0b011, x) for x in range(8)]))
    s = wht(t)
    assert s.coeffs == {0b011: 8}
    assert s.sparsity == 1


def test_wht_and2_matches_hand_transform():
    # hand 4-point transform: {00: 2, 10: 2, 01: 2, 11: -2}
    s = wht(and2())
    assert s.coeffs == {0: 2, 1: 2, 2: 2, 3: -2}
    assert s.coeffs == {a: c for a, c in naive_wht(and2()).items() if c}


@given(st.integers(1, 7), st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_wht_matches_naive_oracle(n, seed):
    t = random_table(n, seed)
    assert wht(t).coeffs == {a: c for a, c in naive_wht(t).items() if c}


@given(st.integers(0, 10), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
# above RADIX_ROWS rows, an odd and an even number of constant-geometry
# passes in int32 forward and in int64 back
@example(11, 1)
@example(12, 2)
@example(13, 3)
@example(14, 4)
def test_roundtrip(n, seed):
    t = random_table(n, seed)
    assert inverse_wht(wht(t)) == t


@pytest.mark.parametrize("kind", ["constant", "negated character", "random"])
def test_wht_in_int32_equals_the_int64_transform_at_the_table_cap(kind):
    # wht transforms its +-1 table in int32, exact because every partial
    # sum is within 2^n <= 2^20, and returns int64 coefficients, which
    # reach +-2^20 on a constant and on a character
    n, mask = MAX_TABLE_DIMENSION, 1 << 19 | 0b1011
    x = np.arange(1 << n)
    values = {
        "constant": np.ones(1 << n, dtype=np.int8),
        "negated character": np.where(np.bitwise_count(x & mask) & 1, 1, -1),
        "random": random_table(n, 20).values,
    }[kind]
    t = TruthTable(n, values)
    s = wht(t)
    arr = t.values.astype(np.int64)
    fwht_inplace(arr)
    assert s.coefficients.dtype == np.int64
    assert np.array_equal(s.masks, np.flatnonzero(arr))
    assert np.array_equal(s.coefficients, arr[s.masks])
    if kind == "constant":
        assert dict(s.coeffs) == {0: 1 << n}
    if kind == "negated character":
        assert dict(s.coeffs) == {mask: -(1 << n)}


def test_inverse_wht_rejects_non_boolean():
    with pytest.raises(NotBooleanValuedError):
        inverse_wht(FourierSpectrum(2, {0: 2}))  # evaluates to 1/2 everywhere


def test_inverse_wht_rejects_coefficients_above_2_to_the_n():
    # in int64 these two wrap to an evaluation of exactly +-2 everywhere
    wrapping = FourierSpectrum(1, {0: -(2**63), 1: -(2**63) + 2})
    with pytest.raises(NotBooleanValuedError, match="> 2\\^n"):
        inverse_wht(wrapping)
    with pytest.raises(NotBooleanValuedError, match="> 2\\^n"):
        inverse_wht(FourierSpectrum(2, {0: 5}))
    with pytest.raises(NotBooleanValuedError, match="> 2\\^n"):  # abs would wrap in int64
        inverse_wht(FourierSpectrum(1, {0: np.int64(-(2**63)), 1: 2}))


def test_cli_rejects_wrapping_spectrum_file(tmp_path, capsys):
    path = tmp_path / "s.json"
    coeffs = [{"mask": 0, "num": -(2**63)}, {"mask": 1, "num": -(2**63) + 2}]
    path.write_text(json.dumps({"n": 1, "coeffs": coeffs}))
    assert main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_inverse_wht_constant():
    assert inverse_wht(FourierSpectrum(3, {0: 8})) == TruthTable(3, np.ones(8))


def test_parseval():
    assert verify_parseval(wht(and2()))  # 4+4+4+4 = 16 = 4^2
    assert not verify_parseval(FourierSpectrum(2, {0: 2}))


def test_titsworth_and2_clean():
    assert verify_titsworth(wht(and2())) == []


def test_titsworth_violation():
    # f = 1/2 + 1/2 chi_{x1} is not +-1; direction x1 carries 2 * (1/4)
    s = FourierSpectrum(2, {0: 2, 1: 2})
    assert verify_titsworth(s) == [1]
    assert naive_titsworth_violations(s) == [1]


def test_titsworth_single_character():
    assert verify_titsworth(FourierSpectrum(3, {0b011: 8})) == []


@given(st.integers(1, 6), st.integers(0, 2**32))
@settings(max_examples=30, deadline=None)
def test_titsworth_matches_oracle_on_perturbed_spectra(n, seed):
    rng = np.random.default_rng(seed)
    s = wht(random_table(n, seed))
    coeffs = dict(s.coeffs)
    # random integer perturbation usually breaks the correlation condition
    mask = int(rng.integers(0, 1 << n))
    coeffs[mask] = coeffs.get(mask, 0) + int(rng.integers(1, 4))
    coeffs = {a: c for a, c in coeffs.items() if c}
    perturbed = FourierSpectrum(n, coeffs)
    assert verify_titsworth(perturbed) == naive_titsworth_violations(perturbed)


BLOCK_BUDGETS = [1, 64, pairs.BLOCK_ENTRIES]


@given(
    st.integers(1, 5).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.dictionaries(
                st.integers(0, (1 << n) - 1),
                # equal magnitudes let pair products cancel
                st.sampled_from([-(2**30), -1, 1, 2**30])
                | st.integers(-(2**30), 2**30).filter(bool),
                max_size=1 << n,
            ),
        )
    ),
    st.sampled_from(BLOCK_BUDGETS),
)
@example((3, {m: 2**30 for m in range(8)}), pairs.BLOCK_ENTRIES)  # sum c^2 = 2^63
@settings(max_examples=100, deadline=None)
def test_titsworth_matches_oracle_on_large_coefficients(spectrum, block_entries):
    s = FourierSpectrum(*spectrum)
    with mock.patch.object(pairs, "BLOCK_ENTRIES", block_entries):
        if sum(c * c for c in s.coeffs.values()) >= 2**63 and s.sparsity > 1:
            with pytest.raises(WeightBoundError):
                verify_titsworth(s)
        else:
            assert verify_titsworth(s) == naive_titsworth_violations(s)


@pytest.mark.parametrize("block_entries", BLOCK_BUDGETS)
def test_titsworth_weight_bound(block_entries):
    with mock.patch.object(pairs, "BLOCK_ENTRIES", block_entries):
        # sum c^2 = 2^63 - 2^32 + 1: the product 2^62 - 2^31 is still exact
        below = FourierSpectrum(1, {0: 2**31, 1: 2**31 - 1})
        assert verify_titsworth(below) == naive_titsworth_violations(below) == [1]
        cancel = FourierSpectrum(2, {0: 2**30, 1: 2**30, 2: 2**30, 3: -(2**30)})
        assert verify_titsworth(cancel) == naive_titsworth_violations(cancel) == []
        # direction 1 sums to (2^60 - 1) - 2^60 = -1, but 2^60 - 1 rounds to
        # 2^60 in float64, where the violation would vanish in any order
        odd = FourierSpectrum(2, {0: 2**30 - 1, 1: 2**30 + 1, 2: 2**30, 3: -(2**30)})
        assert verify_titsworth(odd) == naive_titsworth_violations(odd) == [1, 2, 3]
        with pytest.raises(WeightBoundError):
            verify_titsworth(FourierSpectrum(1, {0: 2**31, 1: 2**31}))  # sum c^2 = 2^63
        with pytest.raises(WeightBoundError):  # c^2 summed in int64 would wrap
            verify_titsworth(FourierSpectrum(1, {0: np.int64(2**31), 1: np.int64(2**31)}))


def test_is_plateaued():
    assert is_plateaued(wht(and2()))
    assert not is_plateaued(FourierSpectrum(3, {0: 4, 1: 2, 2: 2, 3: 2}))


@given(st.integers(2, 8), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_plateaued_boolean_sparsity_is_power_of_four(n, seed):
    # equal coefficient magnitudes force |c| = 2^n / sqrt(k), so k must be
    # an even power of 2 whenever k > 1
    s = wht(random_table(n, seed))
    if not is_plateaued(s) or s.sparsity == 1:
        return
    k = s.sparsity
    assert k & (k - 1) == 0 and (k.bit_length() - 1) % 2 == 0
    c = abs(next(iter(s.coeffs.values())))
    assert c * c * k == 1 << (2 * n)


def test_spectrum_constructor_rejects_zero_and_non_integer_coefficients():
    # why every stored coefficient is a nonzero multiple of 1/2^n
    with pytest.raises(ValueError):
        FourierSpectrum(2, {0: 0})
    with pytest.raises(ValueError):
        FourierSpectrum(2, {0: 1.5})


def test_spectrum_constructor_rejects_masks_outside_n_bits():
    with pytest.raises(DimensionMismatchError, match="mask -0x1 does not fit in 2 bits"):
        FourierSpectrum(2, {-1: 2})
    with pytest.raises(DimensionMismatchError, match="mask 0x4 does not fit in 2 bits"):
        FourierSpectrum(2, {4: 2})
    with pytest.raises(ValueError, match="mask 1.0 must be an integer"):
        FourierSpectrum(2, {1.0: 2})


@pytest.mark.parametrize("coeffs,error,message", [
    ({0: 2, 1: 0, 7: 2, 2: 1.5}, ValueError, "zero coefficient stored at mask 1"),
    ({0: 2, 7: 2, 1: 0, 2: 1.5}, DimensionMismatchError, "mask 0x7 does not fit in 2 bits"),
    ({0: 2, 2: 1.5, 1: 0, 7: 2}, ValueError, "non-integer coefficient at mask 2: 1.5"),
    ({3: 0, 0: 0}, ValueError, "zero coefficient stored at mask 3"),
    # within one entry the mask is checked first
    ({0: 2, 4: 0, 1: 0}, DimensionMismatchError, "mask 0x4 does not fit in 2 bits"),
    ({5: 1.5}, DimensionMismatchError, "mask 0x5 does not fit in 2 bits"),
])
def test_spectrum_constructor_reports_the_first_bad_entry(coeffs, error, message):
    with pytest.raises(error) as info:
        FourierSpectrum(2, coeffs)
    assert str(info.value) == message


@pytest.mark.parametrize("coeffs,message", [
    ({True: 4}, "mask True must be an integer"),
    ({1: True}, "non-integer coefficient at mask 1: True"),
    ({1.0: 2}, "mask 1.0 must be an integer"),
    ({"1": 2}, "mask '1' must be an integer"),
    ({np.bool_(True): 2}, "mask "),
    ({1: np.float64(2.0)}, "non-integer coefficient at mask 1: "),
])
def test_spectrum_entries_are_integers_and_never_bools(coeffs, message):
    # json_int's rule: an int or a numpy integer, never a bool; the arrays
    # copy entries into int64, where True and 1.0 would pass as 1
    with pytest.raises(ValueError) as info:
        FourierSpectrum(2, coeffs)
    assert type(info.value) is ValueError and str(info.value).startswith(message)


def test_spectrum_constructor_accepts_numpy_integers_and_no_coefficients():
    s = FourierSpectrum(2, {0: np.int64(2), 3: np.int32(-2), 1: 2})
    assert s.sparsity == 3
    assert FourierSpectrum(3, {}).sparsity == 0


@given(st.integers(0, 10), st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_wht_dict_matches_a_per_mask_reference(n, seed):
    # the reference indexes one numpy scalar per nonzero entry; wht must
    # give the same Python ints in the same (ascending) key order
    t = random_table(n, seed)
    arr = t.values.astype(np.int64)
    fwht_inplace(arr)
    reference = {int(mask): int(arr[mask]) for mask in np.nonzero(arr)[0]}
    coeffs = wht(t).coeffs
    assert list(coeffs.items()) == list(reference.items())
    assert all(type(mask) is int and type(c) is int for mask, c in coeffs.items())


NAMED_TABLES = [
    families.gen_inner_product(3),
    families.gen_addressing(16),
    families.gen_modified_addressing(16),
    families.gen_parity(0b1011, 5),
    families.gen_conjunction(0b111, 4),
]


def tables():
    random_tables = st.builds(random_table, st.integers(0, 10), st.integers(0, 2**32))
    return random_tables | st.sampled_from(NAMED_TABLES)


@given(tables(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_wht_arrays_match_the_validating_constructor(t, rnd):
    s = wht(t)
    assert s.masks.dtype == np.int64 and s.masks.tolist() == sorted(s.coeffs)
    assert s.coefficients.dtype == np.int64
    assert s.coefficients.tolist() == [s.coeffs[a] for a in sorted(s.coeffs)]
    checked = FourierSpectrum(t.n, dict(s.coeffs))
    assert checked == s
    items = list(s.coeffs.items())
    rnd.shuffle(items)
    shuffled = FourierSpectrum(t.n, dict(items))
    for built in (checked, shuffled):
        assert np.array_equal(built.masks, s.masks) and built.masks.dtype == np.int64
        assert np.array_equal(built.coefficients, s.coefficients) and built.coefficients.dtype == np.int64
    for built in (s, shuffled):
        for arr in (built.masks, built.coefficients):
            if len(arr):
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 1
            assert not arr.flags.writeable


def test_spectrum_arrays_keep_numpy_and_big_coefficients_exact():
    s = FourierSpectrum(3, {5: np.uint64(2**64 - 1), 1: np.int8(-3), 0: 2**70})
    assert s.masks.tolist() == [0, 1, 5]
    assert s.coefficients.tolist() == [2**70, -3, 2**64 - 1]  # no int64 wrap
    assert all(type(c) is int for c in s.coefficients.tolist())
    small = FourierSpectrum(2, {3: np.int32(-2), 0: np.int64(-(2**63))})
    assert small.coefficients.dtype == np.int64 and small.coefficients.tolist() == [-(2**63), -2]
    assert FourierSpectrum(2, {}).masks.dtype == np.int64


def test_a_spectrum_copies_its_dict_once():
    # a zero and a mask wider than n added afterwards reach no form
    d = {0: 4}
    s = FourierSpectrum(2, d)
    d[1] = 0
    d[5] = 7
    assert s.masks.tolist() == [0] and s.coefficients.tolist() == [4]
    assert s.coeffs == {0: 4} and s == FourierSpectrum(2, {0: 4})
    # nor does an entry added after the arrays have been read
    d = {0: 4}
    s = FourierSpectrum(2, d)
    assert s.masks.tolist() == [0]
    d[3] = 2
    assert s.masks.tolist() == [0] and s.coefficients.tolist() == [4]
    assert s.coeffs == {0: 4} and s == FourierSpectrum(2, {0: 4})


def test_the_dict_view_is_read_only():
    # a write to the view would change repr, s[3] and evaluation but not
    # the arrays or ==
    s = FourierSpectrum(2, {0: 4})
    with pytest.raises(TypeError):
        s.coeffs[3] = 2
    assert repr(s) == "FourierSpectrum(n=2, coeffs={0: 4})"
    assert s[3] == 0 and s.evaluate_scaled(0) == 4


@given(st.integers(0, 6), st.integers(0, 2**32))
@settings(max_examples=30, deadline=None)
def test_a_dict_built_spectrum_equals_the_wht_spectrum(n, seed):
    t = random_table(n, seed)
    # numpy integers in descending mask order, as a caller might hold them
    reference = {np.int64(a): np.int64(c) for a, c in reversed(naive_wht(t).items()) if c}
    assert FourierSpectrum(n, reference) == wht(t)


def test_spectra_with_equal_values_are_equal_in_either_coefficient_array():
    s = FourierSpectrum(2, {0: 2, 1: 2, 2: 2, 3: -2})
    wide = FourierSpectrum._of_sorted(2, s.masks.copy(), s.coefficients.astype(object))
    assert wide.coefficients.dtype == object and s.coefficients.dtype == np.int64
    assert wide == s and s == wide
    assert wide != FourierSpectrum(2, {0: 2, 1: 2, 2: 2, 3: 2})
    big = FourierSpectrum(1, {1: 2**70})
    assert big == FourierSpectrum(1, {1: 2**70}) and big != FourierSpectrum(1, {1: 2**70 + 1})
    assert big != FourierSpectrum(1, {0: 2**70}) and big != FourierSpectrum(2, {1: 2**70})


def test_coeffs_of_numpy_integers_are_python_ints_in_ascending_order():
    s = FourierSpectrum(3, {np.int64(5): np.int32(-3), np.uint8(1): np.int64(2), 0: np.int16(4)})
    assert list(s.coeffs.items()) == [(0, 4), (1, 2), (5, -3)]
    assert all(type(a) is int and type(c) is int for a, c in s.coeffs.items())
    assert repr(s) == "FourierSpectrum(n=3, coeffs={0: 4, 1: 2, 5: -3})"
    assert s[5] == -3 and s[2] == 0


def test_spectral_l1():
    assert spectral_l1(wht(and2())) == 2
    assert spectral_l1(FourierSpectrum(3, {0: 8})) == 1
    s = wht(and2())
    assert spectral_l1(s) ** 2 <= s.sparsity  # tight here: 4 == 4


@given(st.integers(1, 8), st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_l1_bound_for_boolean_spectra(n, seed):
    s = wht(random_table(n, seed))
    assert spectral_l1(s) ** 2 <= s.sparsity


# coefficients whose sums, squares and absolute values reach past int64:
# -2^63, whose np.abs wraps, values near +-2^63, and values past it, which
# make an object array
EDGE_COEFFICIENTS = st.sampled_from([2**63 - 1, 2**63, 2**62, 3 * 2**31, 2**32, 2**64]).flatmap(lambda c: st.sampled_from([c, -c]))
WIDE_COEFFICIENTS = st.integers(-3, 3).filter(bool) | st.integers(-(2**64), 2**64).filter(bool) | EDGE_COEFFICIENTS


@given(st.integers(0, 6), st.data())
@settings(max_examples=300, deadline=None)
def test_coefficient_sums_match_their_python_int_forms(n, data):
    # from k = 1 to k = 2^n: one |c| for all (plateaued), one |c| and some
    # smaller values between -|c| and |c|, or one c each
    masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=1 << n, unique=True))
    top = data.draw(WIDE_COEFFICIENTS)
    kind = data.draw(st.sampled_from(["plateau", "between", "free"]))
    if kind == "free":
        coeffs = {m: data.draw(WIDE_COEFFICIENTS) for m in masks}
    else:
        choices = [top, -top] + ([top // 2 or 1] if kind == "between" else [])
        coeffs = {m: data.draw(st.sampled_from(choices)) for m in masks}
    spectrum = FourierSpectrum(n, coeffs)
    values = list(coeffs.values())
    assert verify_parseval(spectrum) == (sum(c * c for c in values) == 4**n)
    assert spectral_l1(spectrum) == Fraction(sum(map(abs, values)), 2**n)
    assert is_plateaued(spectrum) == (len(set(map(abs, values))) <= 1)


def test_coefficient_sums_that_would_wrap_int64_stay_exact():
    # int64 coefficients whose sums cross 2^63 take Python ints: in int64
    # 2^64 + 4 would wrap to 4 = 4^1, and 2^63 + 1 to -2^63 + 1
    assert FourierSpectrum(1, {0: 2, 1: 2**32}).coefficients.dtype == np.int64
    assert not verify_parseval(FourierSpectrum(1, {0: 2, 1: 2**32}))
    assert spectral_l1(FourierSpectrum(1, {0: 1, 1: 2**63 - 1})) == 2**62
    # -2^63 fits int64, and np.abs would keep it negative
    assert spectral_l1(FourierSpectrum(0, {0: -(2**63)})) == 2**63
    assert is_plateaued(FourierSpectrum(0, {0: -(2**63)}))
    assert not is_plateaued(FourierSpectrum(1, {0: -(2**63), 1: 2**63 - 1}))
    assert is_plateaued(FourierSpectrum(2, {0: 2**62, 1: -(2**62), 3: 2**62}))
    assert spectral_l1(FourierSpectrum(3, {})) == 0 and is_plateaued(FourierSpectrum(3, {}))
    assert not verify_parseval(FourierSpectrum(3, {}))


def test_evaluate_agreement():
    t = and2()
    s = wht(t)
    for x in range(4):
        assert t.evaluate(x) == s.evaluate(x)
    assert t.evaluate(0b11) == -1
    assert s.evaluate(0b11) == -1


def test_evaluate_character():
    t = TruthTable(2, np.array([character(0b01, x) for x in range(4)]))
    assert t.evaluate(0b01) == -1


def test_table_file_roundtrip(tmp_path):
    t = and2()
    path = tmp_path / "f.json"
    path.write_text(json.dumps(table_to_dict(t)))
    assert load_function(path) == t


def test_spectrum_file_roundtrip(tmp_path):
    s = wht(and2())
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"n": s.n, "coeffs": [{"mask": m, "num": c} for m, c in s.coeffs.items()]}))
    loaded = load_function(path)
    assert loaded == s


def test_spectrum_loader_rejects_bad_entries():
    with pytest.raises(ValueError):
        spectrum_from_dict({"n": 2, "coeffs": [{"mask": 0, "num": 0}]})
    with pytest.raises(ValueError):
        spectrum_from_dict({"n": 2, "coeffs": [{"mask": 4, "num": 1}]})
    with pytest.raises(ValueError):
        spectrum_from_dict({"n": 2, "coeffs": [{"mask": 0, "num": 1.5}]})
    with pytest.raises(ValueError):
        spectrum_from_dict(
            {"n": 2, "coeffs": [{"mask": 0, "num": 1}, {"mask": 0, "num": 2}]}
        )


def test_table_validation():
    with pytest.raises(ValueError):
        TruthTable(2, np.array([1, 1, 1]))
    with pytest.raises(ValueError):
        TruthTable(1, np.array([1, 2]))
    with pytest.raises(ValueError):
        table_from_dict({"n": 1, "values": [1, 0]})


def test_a_truth_table_is_capped_at_n_20():
    # MAX_TABLE_DIMENSION is the one cap on a table; a spectrum's n goes to 24
    assert MAX_TABLE_DIMENSION == 20
    assert TruthTable(20, np.ones(1 << 20, np.int8)).n == 20
    with pytest.raises(ValueError, match=r"^dimension 21 outside \[0, 20\]$"):
        TruthTable(21, np.ones(1 << 21, np.int8))
    with pytest.raises(ValueError, match=r"^dimension 21 outside \[0, 20\]$"):
        inverse_wht(FourierSpectrum(21, {0: 1 << 21}))  # before its 2^21 entries


@pytest.mark.parametrize(
    "values", [[255, 1], [1, 257], [1.5, 1], [1, "1"], [None, 1], [10**30, -1], [-129, 1]]
)
def test_table_values_are_validated_before_the_int8_cast(values):
    # 255 and 257 wrap to -1 and 1 in int8
    with pytest.raises(ValueError):
        TruthTable(1, np.array(values))
    with pytest.raises(ValueError):
        table_from_dict({"n": 1, "values": values})


def test_a_truth_table_copies_the_callers_array():
    a = np.ones(4, np.int8)
    v = a[:]
    t = TruthTable(2, a)
    assert a.flags.writeable  # the caller's array stays theirs
    v[0] = 5
    assert a[0] == 5
    assert t.values.tolist() == [1, 1, 1, 1] and not t.values.flags.writeable
    assert wht(t).coeffs == {0: 4}


def test_cli_rejects_out_of_range_table_file(tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"n": 1, "values": [255, 1]}))
    assert main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("values", [[True, 1], [1, False], [-1, True]])
def test_table_from_dict_rejects_json_booleans(values):
    # np.array would read true as 1 and false as 0
    with pytest.raises(ValueError, match="booleans"):
        table_from_dict({"n": 1, "values": values})


@pytest.mark.parametrize("text", ["1.0", "-1.0", "1e0", "true"])
def test_table_files_refuse_floats_and_booleans(tmp_path, capsys, text):
    # np.array would read 1.0 and 1e0 as 1, and true as 1
    path = tmp_path / "f.json"
    path.write_text('{"n": 1, "values": [' + text + ', -1]}')
    value = json.loads(text)
    message = f"truth table entries must be the JSON integers +-1, not floats or booleans; got {value!r}"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        table_from_dict(json.loads(path.read_text()))
    assert main(["analyze", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_cli_rejects_boolean_table_file(tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text('{"n": 1, "values": [true, 1]}')
    assert main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


NON_INTEGER_FILES = {
    "table-n-float": {"n": 1.5, "values": [1, -1]},
    "table-n-bool": {"n": True, "values": [1, -1]},
    "table-n-integral-float": {"n": 1.0, "values": [1, -1]},
    "spectrum-n-float": {"n": 1.5, "coeffs": [{"mask": 0, "num": 2}]},
    "spectrum-n-bool": {"n": True, "coeffs": [{"mask": 0, "num": 2}]},
    "spectrum-mask-bool": {"n": 1, "coeffs": [{"mask": True, "num": 2}]},
    "spectrum-mask-float": {"n": 1, "coeffs": [{"mask": 1.0, "num": 2}]},
}


def test_json_int():
    assert json_int(3, "x") == 3
    for value in (True, False, 1.0, 1.5, "1", None):
        with pytest.raises(ValueError, match="x must be an integer"):
            json_int(value, "x")


@pytest.mark.parametrize("name", sorted(NON_INTEGER_FILES))
def test_function_files_need_json_integers(name):
    data = NON_INTEGER_FILES[name]
    reader = table_from_dict if "values" in data else spectrum_from_dict
    with pytest.raises(ValueError, match="must be an integer"):
        reader(data)


@pytest.mark.parametrize("name", sorted(NON_INTEGER_FILES))
def test_cli_rejects_non_integer_function_files(tmp_path, capsys, name):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(NON_INTEGER_FILES[name]))
    assert main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "must be an integer" in err
