import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

from parityfold import families, runner
from parityfold.cli import USAGE_ERROR, main
from parityfold.spectral import REQUIRED, json_int, read_keys

DECLARED = {
    "k": (json_int, REQUIRED),
    "ell": (lambda value, what: Fraction(value), Fraction(1, 2)),
    "tag": (str, None),
    "pick": ({"a": 1, "b": 2}, "a"),
}


def test_read_keys_parses_what_is_given_and_fills_the_defaults():
    assert read_keys("op", {"k": 3}, DECLARED) == {"k": 3, "ell": Fraction(1, 2), "pick": "a"}
    values = read_keys("op", {"pick": "b", "tag": "t", "ell": "1/4", "k": 0}, DECLARED)
    assert values == {"k": 0, "ell": Fraction(1, 4), "tag": "t", "pick": "b"}
    assert list(values) == list(DECLARED)  # in the order of the table


@pytest.mark.parametrize("given, message", [
    ([("k", 3)], "op must be an object, got list"),
    ({}, "op: missing parameter 'k'"),
    ({"kk": 3}, "op: missing parameter 'k'"),  # a missing key before a stray one
    ({"k": 3, "kk": 3}, "op: unknown parameter 'kk'; op reads k, ell, tag, pick"),
    ({"k": "3", "kk": 3}, "op: unknown parameter 'kk'"),  # a stray key before a bad value
    ({"k": "3"}, "op k must be an integer, got '3'"),
    ({"k": 3, "tag": 5}, "op tag must be a string, got int"),
    ({"k": 3, "pick": "c"}, "unknown op pick 'c'; pick from a, b"),
])
def test_read_keys_refusals(given, message):
    with pytest.raises(ValueError) as refused:
        read_keys("op", given, DECLARED)
    assert str(refused.value).startswith(message)


def test_read_keys_names_none_for_an_object_without_keys():
    with pytest.raises(ValueError, match=r"^analyze: unknown parameter 'x'; analyze reads none$"):
        read_keys("analyze", {"x": 1}, {})


ENTRY = {"family": "addressing", "k": 16}
INNER = {"family": "inner-product", "params": {"m": 1}}
TABLE = {"n": 1, "values": [1, -1]}
SPECTRUM = {"n": 1, "coeffs": [{"mask": 1, "num": 2}]}


def config(functions=(ENTRY,), analyses=({"op": "analyze"},)):
    return {"functions": list(functions), "analyses": list(analyses)}


def junta(inner):
    return {"family": "junta", "n": 2, "masks": [1, 2], "inner": inner}


def restrict(constraint):
    return config(analyses=[{"op": "analyze", "restrict": [constraint]}])


# every keyed object that the library reads: (command, input, owner, key)
# for one stray key and then for one missing key.  An experiment reads a
# config, gen junta its key=value params, analyze a function file and pdt
# depth a tree file.
REFUSALS = {
    "config": (
        ("experiment", {**config(), "analysis": [{"op": "analyze"}]}, "config", "analysis"),
        ("experiment", {"analyses": [{"op": "analyze"}]}, "config", "functions"),
    ),
    "analysis": (
        ("experiment", config(analyses=[{"op": "fold", "elll": 1}]), "fold", "elll"),
        ("experiment", config(analyses=[{"op": "verify"}]), "verify", "check"),
    ),
    "family-entry": (
        ("experiment", config([{**ENTRY, "kk": 64}]), "addressing", "kk"),
        ("experiment", config([{"family": "parity", "n": 3}]), "parity", "mask"),
    ),
    "junta-inner": (
        ("experiment", config([junta({**INNER, "n": 2})]), "junta inner", "n"),
        ("experiment", config([junta({"family": "inner-product"})]), "junta inner", "params"),
    ),
    "junta-inner-params": (
        ("experiment", config([junta({"family": "inner-product", "params": {"m": 1, "n": 2}})]), "inner-product", "n"),
        ("experiment", config([junta({"family": "inner-product", "params": {}})]), "inner-product", "m"),
    ),
    "path-entry": (
        ("experiment", config([{"path": "f.json", "seed": 3}]), "path entry", "seed"),
        ("experiment", config([{"pth": "f.json"}]), "path entry", "path"),
    ),
    "constraint": (
        ("experiment", restrict({"mask": 1, "bit": 0, "bits": 1}), "analyze restrict constraint", "bits"),
        ("experiment", restrict({"bit": 1}), "analyze restrict constraint", "mask"),
    ),
    "gen-junta": (
        ("gen junta", ["masks=1,2", "n=2", "foo=1"], "gen junta", "foo"),
        ("gen junta", ["masks=1,2"], "gen junta", "n"),
    ),
    "table-file": (
        ("analyze", {**TABLE, "seed": 0}, "truth table", "seed"),
        ("analyze", {"values": [1, -1]}, "truth table", "n"),
    ),
    "spectrum-file": (
        ("analyze", {**SPECTRUM, "seed": 0}, "spectrum", "seed"),
        ("analyze", {"coeffs": SPECTRUM["coeffs"]}, "spectrum", "n"),
    ),
    "coefficient": (
        ("analyze", {"n": 1, "coeffs": [{"mask": 1, "num": 2, "den": 1}]}, "coefficient", "den"),
        ("analyze", {"n": 2, "coeffs": [{"mask": 1, "num": 2}, {"mask": 0, "nm": 4}]}, "coefficient", "num"),
    ),
    "tree-file": (
        ("pdt depth", {"n": 2, "root": {"leaf": 1}, "rot": 5}, "tree", "rot"),
        ("pdt depth", {"root": {"leaf": 1}}, "tree", "n"),
    ),
    "tree-node": (  # a leaf that also carries a query, and a node without neg
        ("pdt depth", {"n": 2, "root": {"leaf": 1, "query": 3, "pos": {"leaf": 1}}}, "tree leaf", "query"),
        ("pdt depth", {"n": 2, "root": {"query": 3, "pos": {"leaf": 1}}}, "tree node", "neg"),
    ),
}


def run(tmp_path, command, given):
    """(exit code, stdout, stderr) of command on its input."""
    if command == "gen junta":
        inner = tmp_path / "inner.json"
        inner.write_text(json.dumps({"n": 2, "values": [1, 1, 1, -1]}))
        argv = ["gen", "junta", *given, "--inner", str(inner)]
    else:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(given))
        argv = [*command.split(), str(path)]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("refusal", ["stray", "missing"])
@pytest.mark.parametrize("case", list(REFUSALS))
def test_every_keyed_object_refuses_a_stray_and_a_missing_key(tmp_path, monkeypatch, case, refusal):
    command, given, owner, key = REFUSALS[case][refusal == "missing"]

    def never(*args):
        raise AssertionError("a function was built")

    monkeypatch.setattr(runner, "build_function", never)
    code, out, err = run(tmp_path, command, given)
    assert (code, out) == (USAGE_ERROR, "")
    if refusal == "stray":
        assert err.startswith(f"error: {owner}: unknown parameter {key!r}; {owner} reads ")
    else:
        assert err == f"error: {owner}: missing parameter {key!r}\n"


def test_each_object_of_a_config_is_read_once(tmp_path, monkeypatch):
    # check_function reads a family entry's params, and the runner builds the
    # table from what it read: a junta reads its inner entry and params once too
    owners = []

    def counted(owner, given, declared):
        owners.append(owner)
        return read_keys(owner, given, declared)

    monkeypatch.setattr(families, "read_keys", counted)
    monkeypatch.setattr(runner, "read_keys", counted)
    (tmp_path / "t.json").write_text(json.dumps(TABLE))
    inner = {"family": "conjunction", "params": {"mask": 3, "n": 2}}
    report = runner.run_experiment(config([ENTRY, junta(inner), {"path": "t.json"}]), tmp_path)
    assert sorted(owners) == sorted(["config", "analyze", "addressing", "junta", "junta inner", "conjunction", "path entry"])
    assert [block["function"] for block in report.results] == [
        "addressing(k=16)", f"junta(inner={inner},masks=[1, 2],n=2)", "t.json"
    ]
