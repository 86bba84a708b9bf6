import json
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from parityfold import families, runner
from parityfold.families import (
    FunctionSpec,
    InvalidFamilyParameterError,
    addressing_support,
    build_function,
    gen_addressing,
    gen_conjunction,
    gen_inner_product,
    gen_junta,
    gen_modified_addressing,
    gen_parity,
    gen_random,
    read_function,
)
from parityfold.gf2 import DimensionMismatchError, row_reduce
from parityfold.spectral import TruthTable, is_plateaued, verify_parseval, verify_titsworth, wht


def test_addressing_k4_spectrum():
    # layout: x1 at bit 0, targets at bits 1 and 2, coefficients +-1/2
    t = gen_addressing(4)
    assert t.n == 3
    s = wht(t)
    assert s.coeffs == {0b010: 4, 0b011: 4, 0b100: 4, 0b101: -4}
    assert s.support() == set(addressing_support(4)[0])


@pytest.mark.parametrize("k", [4, 16, 64])
def test_addressing_sparsity_and_support_form(k):
    s = wht(gen_addressing(k))
    masks, addr_bits = addressing_support(k)
    assert s.sparsity == k
    assert s.support() == set(masks)
    # every support element touches exactly one target bit
    assert all((m >> addr_bits).bit_count() == 1 for m in masks)


def test_addressing_guards():
    for k in (2, 8, 12, 32):
        with pytest.raises(InvalidFamilyParameterError):
            gen_addressing(k)
    with pytest.raises(InvalidFamilyParameterError):
        gen_addressing(1024)  # n = 5 + 32 exceeds the table cap


def test_modified_addressing_k4_spectrum():
    t = gen_modified_addressing(4)
    assert t.n == 5
    s = wht(t)
    assert s.coeffs == {
        1: 16,
        2: 16,
        9: 8,
        13: 8,
        17: 8,
        21: -8,
        10: -8,
        14: -8,
        18: -8,
        22: 8,
    }


@pytest.mark.parametrize("k,expected", [(4, 10), (16, 34)])
def test_modified_addressing_sparsity(k, expected):
    assert wht(gen_modified_addressing(k)).sparsity == expected


def test_inner_product():
    s = wht(gen_inner_product(2))  # 4 variables
    assert s.sparsity == 16
    assert is_plateaued(s)
    assert {abs(c) for c in s.coeffs.values()} == {4}  # |fhat| = 1/4


def test_inner_product_m4_full_support():
    s = wht(gen_inner_product(4))
    assert s.sparsity == 256
    assert is_plateaued(s)


def test_parity():
    s = wht(gen_parity(0b101, 3))
    assert s.coeffs == {0b101: 8}


def test_conjunction_is_and2():
    t = gen_conjunction(0b11, 2)
    assert list(t.values) == [1, 1, 1, -1]


def test_junta_preserves_sparsity():
    inner = gen_conjunction(0b11, 2)
    embedded = gen_junta(inner, [0b0101, 0b0011], 4)
    assert wht(embedded).sparsity == wht(inner).sparsity
    # embedding through single-variable parities reproduces the inner function
    direct = gen_junta(inner, [0b01, 0b10], 2)
    assert direct == inner


def test_junta_guards():
    inner = gen_conjunction(0b11, 2)
    with pytest.raises(InvalidFamilyParameterError):
        gen_junta(inner, [0b01], 4)
    with pytest.raises(InvalidFamilyParameterError):
        gen_junta(inner, [0b011, 0b011], 4)  # dependent masks


def test_random_deterministic_and_boolean():
    a = gen_random(6, 123)
    b = gen_random(6, 123)
    assert a == b
    assert gen_random(6, 124) != a
    s = wht(a)
    assert verify_parseval(s)
    assert verify_titsworth(s) == []


@pytest.mark.parametrize("n", [-1, 25, 40])
def test_random_refuses_a_dimension_beyond_the_cap_before_drawing(n):
    with pytest.raises(InvalidFamilyParameterError):
        gen_random(n, 0)


@pytest.mark.parametrize("generate, what", [
    (lambda: gen_addressing(1024), "addressing k=1024: n = 37"),
    (lambda: gen_modified_addressing(256), "modified-addressing k=256: n = 22"),
    (lambda: gen_inner_product(11), "inner-product m=11: n = 22"),
    (lambda: gen_parity(1, 21), "parity: n = 21"),
    (lambda: gen_conjunction(1, 21), "conjunction: n = 21"),
    (lambda: gen_junta(gen_parity(1, 1), [1], 21), "junta: n = 21"),
    (lambda: gen_random(21, 0), "random: n = 21"),
])
def test_every_generator_refuses_a_table_above_the_cap(generate, what):
    # the one table cap, spectral.MAX_TABLE_DIMENSION, refused before the
    # 2^n inputs are made, whatever the family (masks still go to n = 24)
    with pytest.raises(InvalidFamilyParameterError, match=rf"^{what} outside \[0, 20\]$"):
        generate()


def test_generated_tables_pass_exact_identities():
    for table in [
        gen_addressing(16),
        gen_modified_addressing(4),
        gen_inner_product(3),
        gen_parity(0b11, 4),
        gen_conjunction(0b111, 4),
    ]:
        s = wht(table)
        assert verify_parseval(s)
        assert verify_titsworth(s) == []


def test_build_function_specs():
    assert build_function(read_function("addressing", {"k": 4})) == gen_addressing(4)
    assert build_function(read_function("random", {"n": 4, "seed": 9})) == gen_random(4, 9)
    junta = build_function(
        read_function(
            "junta",
            {
                "inner": {"family": "conjunction", "params": {"mask": 3, "n": 2}},
                "masks": [1, 2],
                "n": 2,
            },
        )
    )
    assert junta == gen_conjunction(0b11, 2)
    with pytest.raises(InvalidFamilyParameterError):
        build_function(read_function("nope", {}))


@pytest.mark.parametrize("family,params", [
    ("parity", {"mask": -1, "n": 2}),  # once an OverflowError from np.uint64
    ("conjunction", {"mask": 4, "n": 2}),  # a mask beyond n
    ("parity", {"mask": [1], "n": 2}),
    ("parity", {"mask": 1, "n": 2.0}),
    ("addressing", {"k": "16"}),
    ("random", {"n": True, "seed": 0}),
    ("junta", {"inner": 5, "masks": [1], "n": 1}),
    ("junta", {"inner": {"family": "parity", "params": {"mask": 1, "n": 1}}, "masks": 1, "n": 1}),
])
def test_build_function_refuses_malformed_parameters(family, params):
    # parameters arrive from config files: integers only, masks within n
    with pytest.raises(ValueError):
        build_function(read_function(family, params))


@pytest.mark.parametrize("masks, n, inner_n", [
    ([1, 2], 4, 23),  # the inner states more variables than there are masks
    ([1, 2, 4], 2, 3),  # more masks than can be independent in n
])
def test_junta_checks_its_masks_before_building_the_inner_table(monkeypatch, masks, n, inner_n):
    calls = []
    monkeypatch.setattr(families, "gen_random", lambda *args: calls.append(args))
    inner = {"family": "random", "params": {"n": inner_n, "seed": 0}}
    with pytest.raises(InvalidFamilyParameterError):
        build_function(read_function("junta", {"inner": inner, "masks": masks, "n": n}))
    assert calls == []


@pytest.mark.parametrize("inner, generator", [
    ({"family": "addressing", "params": {"k": 256}}, "gen_addressing"),  # n = 4 + 16
    ({"family": "modified-addressing", "params": {"k": 16}}, "gen_modified_addressing"),  # n = 2 + 2 + 4
    ({"family": "inner-product", "params": {"m": 2}}, "gen_inner_product"),  # n = 4
])
def test_junta_derives_the_inner_dimension_before_building_the_inner_table(monkeypatch, inner, generator):
    calls = []
    monkeypatch.setattr(families, generator, lambda *args: calls.append(args))
    with pytest.raises(InvalidFamilyParameterError, match="embedding masks, got 2"):
        build_function(read_function("junta", {"inner": inner, "masks": [1, 2], "n": 4}))
    assert calls == []


def test_junta_accepts_derived_inner_dimensions_that_fit():
    inner = {"family": "addressing", "params": {"k": 4}}  # n = 1 + 2
    junta = build_function(read_function("junta", {"inner": inner, "masks": [1, 2, 4], "n": 3}))
    assert junta == gen_addressing(4)


def test_labels():
    assert read_function("addressing", {"k": 16}) == FunctionSpec("addressing", {"k": 16}, 6)
    assert runner.check_function({"family": "addressing", "k": 16}, 20)[0] == "addressing(k=16)"


def _address_sign(x: int, addr_bits: int) -> int:
    """(-1)^(target bit v of x), v the value of x's low addr_bits bits."""
    return -1 if x >> (addr_bits + (x & ((1 << addr_bits) - 1))) & 1 else 1


def _sign(bit: int) -> int:
    return -1 if bit & 1 else 1


# family -> f(x) of its parsed params, one input at a time, from the
# definitions in the families module docstring
ORACLES = {
    "addressing": lambda x, k: _address_sign(x, k.bit_length() // 2),
    "modified-addressing": lambda x, k: _sign(x >> (1 if _address_sign(x >> 2, k.bit_length() // 2) < 0 else 0)),
    "inner-product": lambda x, m: _sign(sum(x >> (2 * i) & x >> (2 * i + 1) for i in range(m))),
    "parity": lambda x, mask, n: _sign((x & mask).bit_count()),
    "conjunction": lambda x, mask, n: -1 if x & mask == mask else 1,
}


@st.composite
def family_entries(draw):
    """(family, params) of a corpus entry with at most 10 variables."""
    family = draw(st.sampled_from([*ORACLES, "random", "junta"]))
    if family == "addressing":
        return family, {"k": draw(st.sampled_from([4, 16, 64]))}
    if family == "modified-addressing":
        return family, {"k": draw(st.sampled_from([4, 16]))}
    if family == "inner-product":
        return family, {"m": draw(st.integers(1, 5))}
    n = draw(st.integers(0, 10))
    if family in ("parity", "conjunction"):
        return family, {"mask": draw(st.integers(0, (1 << n) - 1)), "n": n}
    if family == "random":
        return family, {"n": n, "seed": draw(st.integers(0, 2**32))}
    inner_n = draw(st.integers(0, n))
    masks = draw(st.lists(st.integers(1, max(1, (1 << n) - 1)), min_size=inner_n, max_size=inner_n))
    assume(row_reduce(masks, n).rank == inner_n)
    inner = {"family": "random", "params": {"n": inner_n, "seed": draw(st.integers(0, 99))}}
    return family, {"inner": inner, "masks": masks, "n": n}


def naive_table(family, params):
    """The values of an entry's table, from its family's definition."""
    if family == "random":  # the seeded stream, one draw of 2^n bits
        bits = np.random.default_rng(params["seed"]).integers(0, 2, size=1 << params["n"], dtype=np.int64)
        return [_sign(int(b)) for b in bits]
    if family == "junta":
        inner = naive_table(params["inner"]["family"], params["inner"]["params"])
        return [inner[sum(((x & mask).bit_count() & 1) << i for i, mask in enumerate(params["masks"]))]
                for x in range(1 << params["n"])]
    n = read_function(family, params).n
    return [ORACLES[family](x, **params) for x in range(1 << n)]


@settings(max_examples=80, deadline=None)
@given(family_entries())
def test_every_family_builds_its_validated_table(entry):
    # generators hand their own int8 signs to the table unchecked; each
    # must be what the checking constructor accepts, and the definition
    family, params = entry
    table = build_function(read_function(family, params))
    values = table.values
    assert values.dtype == np.int8 and values.shape == (1 << table.n,) and not values.flags.writeable
    assert np.all((values == 1) | (values == -1))
    assert TruthTable(table.n, values) == table
    assert values.tolist() == naive_table(family, params)


def test_a_negative_random_seed_is_refused_before_any_table_is_built(tmp_path, monkeypatch, capsys):
    # numpy's generator refuses it too, but only as the table is drawn,
    # after the config's earlier functions ran, in words that name no key
    from parityfold.cli import USAGE_ERROR, main

    def never(*args):
        raise AssertionError("a function was built")

    monkeypatch.setattr(runner, "build_function", never)
    message = "random: seed must be >= 0, got -1"
    with pytest.raises(InvalidFamilyParameterError, match=message):
        read_function("random", {"n": 3, "seed": -1})
    config = {"functions": [{"family": "addressing", "k": 16}, {"family": "random", "n": 3, "seed": -1}],
              "analyses": [{"op": "analyze"}]}
    with pytest.raises(InvalidFamilyParameterError, match=message):
        runner.run_experiment(config)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    for argv in (["experiment", str(path)], ["gen", "random", "n=3", "seed=-1"], ["--seed", "-1", "gen", "random", "n=3"]):
        assert main(argv) == USAGE_ERROR
        out, err = capsys.readouterr()
        assert out == "" and message in err


JUNTA_INNER = {"family": "random", "params": {"n": 2, "seed": 0}}

# entries that were refused only as their own table was built, after the
# config's earlier functions: each with its refusal, the generator call that
# refuses it in the same words, and its command-line form (a junta has none)
TABLE_FREE_REFUSALS = {
    "random-negative-n": ({"family": "random", "n": -3, "seed": 1}, InvalidFamilyParameterError,
                          "random: n = -3 outside [0, 20]", lambda: gen_random(-3, 1), "random:n=-3,seed=1"),
    "parity-mask-beyond-n": ({"family": "parity", "mask": 8, "n": 3}, DimensionMismatchError,
                             "mask 0x8 does not fit in 3 bits", lambda: gen_parity(8, 3), "parity:mask=8,n=3"),
    "conjunction-negative-n": ({"family": "conjunction", "mask": 1, "n": -1}, DimensionMismatchError,
                               "dimension -1 outside [0, 24]", lambda: gen_conjunction(1, -1), "conjunction:mask=1,n=-1"),
    "inner-product-m-0": ({"family": "inner-product", "m": 0}, InvalidFamilyParameterError,
                          "m must be >= 1, got 0", lambda: gen_inner_product(0), "inner-product:m=0"),
    "junta-dependent-masks": ({"family": "junta", "inner": JUNTA_INNER, "masks": [1, 1], "n": 4},
                              InvalidFamilyParameterError, "embedding masks must be linearly independent",
                              lambda: gen_junta(gen_random(2, 0), [1, 1], 4), None),
    "junta-mask-beyond-n": ({"family": "junta", "inner": JUNTA_INNER, "masks": [1, 32], "n": 4},
                            DimensionMismatchError, "mask 0x20 does not fit in 4 bits",
                            lambda: gen_junta(gen_random(2, 0), [1, 32], 4), None),
}


@pytest.mark.parametrize("case", sorted(TABLE_FREE_REFUSALS))
def test_every_family_check_comes_before_any_table_is_built(monkeypatch, capsys, case):
    # the n function of each family in FAMILIES is its one check, and the
    # generator runs the same function
    from parityfold.cli import USAGE_ERROR, main

    entry, error, message, generate, expression = TABLE_FREE_REFUSALS[case]
    built, build = [], runner.build_function
    monkeypatch.setattr(runner, "build_function", lambda spec: built.append(spec.family) or build(spec))
    config = {"functions": [{"family": "addressing", "k": 16}, entry], "analyses": [{"op": "analyze"}]}
    with pytest.raises(ValueError) as refused:
        runner.run_experiment(config)
    assert (type(refused.value), str(refused.value), built) == (error, message, [])
    with pytest.raises(ValueError) as generated:
        generate()
    assert (type(generated.value), str(generated.value)) == (error, message)
    if expression:
        assert main(["analyze", expression]) == USAGE_ERROR
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert built == []


def test_gen_random_refuses_a_negative_seed_as_its_n_function_does():
    # numpy refused it too, in words that name no key
    with pytest.raises(InvalidFamilyParameterError, match="^random: seed must be >= 0, got -1$"):
        gen_random(3, -1)
