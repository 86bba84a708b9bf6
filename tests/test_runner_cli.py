import csv
import enum
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parityfold import families, folding, pdt, restriction, runner, spectral
from parityfold.cli import CHECK_FAILED, USAGE_ERROR, main
from parityfold.families import gen_inner_product
from parityfold.params import STRATEGIES, CheckFailedError
from parityfold.runner import ConfigError, load_config, run_experiment
from parityfold.spectral import wht


def make_config(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


BASIC_CONFIG = {
    "seed": 7,
    "functions": [
        {"family": "addressing", "k": 16},
        {"family": "random", "n": 5, "seed": 3},
    ],
    "analyses": [
        {"op": "analyze"},
        {"op": "verify", "check": "pair-condition"},
        {"op": "verify", "check": "sign-feasibility"},
        {"op": "pdt", "strategy": "sampling"},
        {"op": "mc", "kind": "warmup", "trials": 20},
    ],
}


def test_run_experiment_basic():
    report = run_experiment(BASIC_CONFIG)
    assert len(report.results) == 2
    add_block = report.results[0]
    assert add_block["function"] == "addressing(k=16)"
    ops = [a["op"] for a in add_block["analyses"]]
    assert ops == ["analyze", "verify", "verify", "pdt", "mc"]
    assert add_block["analyses"][0]["result"]["sparsity"] == 16
    assert add_block["analyses"][3]["result"]["verified"]


def test_run_experiment_deterministic():
    a = run_experiment(BASIC_CONFIG).to_json()
    b = run_experiment(BASIC_CONFIG).to_json()
    assert a == b


def test_run_experiment_empty_corpus():
    report = run_experiment({"functions": [], "analyses": [{"op": "analyze"}]})
    assert report.results == []


def test_run_experiment_guards():
    with pytest.raises(ConfigError):
        run_experiment({"functions": [{"family": "random", "n": 21, "seed": 0}],
                        "analyses": []})
    with pytest.raises(ConfigError):
        run_experiment({"functions": [{"oops": 1}], "analyses": []})
    for analysis in ({"op": "nope"}, {"op": []}, {"op": "fold", "ell": float("inf")}):
        with pytest.raises(ConfigError):
            run_experiment({"functions": [{"family": "random", "n": 3, "seed": 0}],
                            "analyses": [analysis]})


def test_load_config_reports_line(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "functions": [,]\n}\n')
    with pytest.raises(ConfigError, match="line 2"):
        load_config(path)


def test_report_csv():
    report = run_experiment(
        {"functions": [{"family": "addressing", "k": 4}], "analyses": [{"op": "analyze"}]}
    )
    csv_text = report.to_csv()
    lines = csv_text.splitlines()
    assert lines[0] == "function,op,field,value"
    assert any("sparsity,4" in line for line in lines)


def test_report_csv_rows_read_as_four_fields_whatever_the_label(tmp_path):
    # a family label such as random(n=4,seed=1) and a path with a comma are
    # quoted; a label without one is written as it is
    (tmp_path / "f,g.json").write_text(json.dumps({"n": 2, "values": [1, -1, -1, 1]}))
    config = {"functions": [{"family": "random", "n": 4, "seed": 1}, {"path": "f,g.json"},
                            {"family": "addressing", "k": 4}],
              "analyses": [{"op": "analyze"}, {"op": "verify", "check": "sign-feasibility"}]}
    csv_path = tmp_path / "summary.csv"
    assert run_cli("--csv", str(csv_path), "experiment", str(make_config(tmp_path, config)),
                   "-o", str(tmp_path / "r.json")) == 0
    text = csv_path.read_text()
    assert text == run_experiment(config, tmp_path).to_csv() and "\r" not in text
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["function", "op", "field", "value"]
    assert {len(row) for row in rows} == {4}
    assert {row[0] for row in rows[1:]} == {"random(n=4,seed=1)", "f,g.json", "addressing(k=4)"}
    assert '"random(n=4,seed=1)",analyze,sparsity,' in text
    assert "\naddressing(k=4),analyze,sparsity,4\n" in text  # no comma: unquoted


def run_cli(*argv):
    return main(list(argv))


def test_cli_analyze_family(capsys):
    assert run_cli("analyze", "addressing:k=16") == 0
    out = capsys.readouterr().out
    assert "sparsity k = 16" in out


def test_cli_analyze_json(capsys):
    assert run_cli("--json", "analyze", "inner-product:m=2") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["analyze"]["sparsity"] == 16
    assert payload["analyze"]["plateaued"] is True


def test_cli_gen_and_file_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "f.json"
    assert run_cli("gen", "addressing", "k=16", "-o", str(out_path)) == 0
    assert run_cli("analyze", str(out_path)) == 0
    assert "sparsity k = 16" in capsys.readouterr().out


def test_cli_gen_refuses_a_dimension_beyond_max_n(tmp_path, capsys):
    out_path = tmp_path / "f.json"
    assert run_cli("gen", "random", "n=22", "--max-n", "4", "-o", str(out_path)) == USAGE_ERROR
    err = capsys.readouterr().err
    assert err == "error: random(n=22,seed=0): n = 22 exceeds max_n = 4\n"
    assert not out_path.exists()
    inner_path = tmp_path / "inner.json"
    assert run_cli("gen", "conjunction", "mask=3", "n=2", "-o", str(inner_path)) == 0
    capsys.readouterr()
    assert run_cli("gen", "junta", "masks=3,5", "n=22", "--max-n", "4", "--inner", str(inner_path),
                   "-o", str(out_path)) == USAGE_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: junta(") and err.endswith("n = 22 exceeds max_n = 4\n")
    assert not out_path.exists()


@pytest.mark.parametrize("argv,digest", [
    (["random", "n=6"], "c47acb3732325789408264a0f4d079d0c299d266e842f5578fc9e6dd3fbac4ba"),
    (["random", "n=5", "seed=3", "--max-n", "5"], "77aff74bc3a074b520fe057853d61c1e5adfd264c62885f080eba46efe5e5fcc"),
    (["addressing", "k=16"], "bb0791edc71a3736baa7c8e3ebf6ff6df1c0b7f7d082864ae5a21fae8749a3e4"),
    (["parity", "mask=5", "n=3"], "fef6ff4fc63f105e6dd673ee19edf2d11f445eeda918def9d9edb18c02812445"),
    (["inner-product", "m=2"], "d63311e48c836e68da85e0d28066969d35c1f8f064ea48832bd0b9f268cfd539"),
])
def test_cli_gen_bytes(capsys, argv, digest):
    assert run_cli("gen", *argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


JUNTA_INNER = {"family": "inner-product", "params": {"m": 1}}
MISSING_PARAMETERS = [
    ({"family": "addressing", "K": 16}, "addressing", "k"),
    ({"family": "modified-addressing"}, "modified-addressing", "k"),
    ({"family": "inner-product"}, "inner-product", "m"),
    ({"family": "parity", "n": 3}, "parity", "mask"),
    ({"family": "parity", "mask": 1}, "parity", "n"),
    ({"family": "conjunction", "n": 3}, "conjunction", "mask"),
    ({"family": "conjunction", "mask": 1}, "conjunction", "n"),
    ({"family": "random", "n": 6}, "random", "seed"),
    ({"family": "random", "seed": 1}, "random", "n"),
    ({"family": "junta", "n": 4, "masks": [1, 2]}, "junta", "inner"),
    ({"family": "junta", "n": 4, "inner": JUNTA_INNER}, "junta", "masks"),
    ({"family": "junta", "masks": [1, 2], "inner": JUNTA_INNER}, "junta", "n"),
    ({"family": "junta", "n": 4, "masks": [1, 2], "inner": {"params": {"m": 1}}}, "junta inner", "family"),
    ({"family": "junta", "n": 4, "masks": [1, 2], "inner": {"family": "inner-product"}}, "junta inner", "params"),
    ({"family": "junta", "n": 4, "masks": [1, 2], "inner": {"family": "inner-product", "params": {}}},
     "inner-product", "m"),
]


@pytest.mark.parametrize("entry,family,parameter", MISSING_PARAMETERS)
def test_a_missing_family_parameter_is_named(tmp_path, capsys, entry, family, parameter):
    message = f"{family}: missing parameter {parameter!r}"
    config = {"functions": [entry], "analyses": [{"op": "analyze"}]}
    with pytest.raises(families.InvalidFamilyParameterError) as raised:
        run_experiment(config)
    assert str(raised.value) == message
    assert run_cli("experiment", str(make_config(tmp_path, config))) == USAGE_ERROR
    assert capsys.readouterr().err == f"error: {message}\n"
    params = {key: value for key, value in entry.items() if key != "family"}
    if all(type(value) is int for value in params.values()):  # an inline expression
        inline = f"{entry['family']}:" + ",".join(f"{key}={value}" for key, value in params.items())
        assert run_cli("fold", inline) == USAGE_ERROR
        assert capsys.readouterr().err == f"error: {message}\n"


# family entries that give a key their family does not read, and the words
# of each refusal; an inner entry and its params are read like an entry
UNREAD = {
    "addressing": ({"family": "addressing", "k": 16, "kk": 64}, "addressing: unknown parameter 'kk'; addressing reads k"),
    "inner-product": ({"family": "inner-product", "m": 2, "n": 9}, "inner-product: unknown parameter 'n'; inner-product reads m"),
    "parity": ({"family": "parity", "mask": 3, "n": 2, "seed": 5}, "parity: unknown parameter 'seed'; parity reads mask, n"),
    "junta-inner": ({"family": "junta", "n": 2, "masks": [1, 2], "inner": {**JUNTA_INNER, "n": 2}},
                    "junta inner: unknown parameter 'n'; junta inner reads family, params"),
    "junta-inner-params": ({"family": "junta", "n": 2, "masks": [1, 2],
                            "inner": {"family": "inner-product", "params": {"m": 1, "n": 2}}},
                           "inner-product: unknown parameter 'n'; inner-product reads m"),
    "non-string-family": ({"family": ["addressing"], "k": 16}, "unknown family ['addressing']"),
}


@pytest.mark.parametrize("case", sorted(UNREAD))
def test_a_key_the_family_does_not_read_is_refused_before_any_function_is_built(tmp_path, monkeypatch, capsys, case):
    entry, message = UNREAD[case]

    def never(*args):
        raise AssertionError("a function was built")

    monkeypatch.setattr(runner, "build_function", never)
    # the bad entry comes last, after one that would build
    config = {"functions": [{"family": "addressing", "k": 16}, entry], "analyses": [{"op": "analyze"}]}
    with pytest.raises(families.InvalidFamilyParameterError) as raised:
        run_experiment(config)
    assert str(raised.value) == message
    assert run_cli("experiment", str(make_config(tmp_path, config))) == USAGE_ERROR
    assert capsys.readouterr().err == f"error: {message}\n"
    params = {key: value for key, value in entry.items() if key != "family"}
    if type(entry["family"]) is str and all(type(value) is int for value in params.values()):  # inline and gen
        items = [f"{key}={value}" for key, value in params.items()]
        for argv in (["analyze", f"{entry['family']}:" + ",".join(items)], ["gen", entry["family"], *items]):
            assert run_cli(*argv) == USAGE_ERROR
            assert capsys.readouterr() == ("", f"error: {message}\n")


def test_gen_junta_reads_only_masks_and_n(tmp_path, capsys):
    inner = tmp_path / "inner.json"
    assert run_cli("gen", "conjunction", "mask=3", "n=2", "-o", str(inner)) == 0
    assert run_cli("gen", "junta", "masks=3,5", "n=4", "--inner", str(inner)) == 0
    capsys.readouterr()
    assert run_cli("gen", "junta", "masks=3,5", "n=4", "foo=1", "--inner", str(inner)) == USAGE_ERROR
    assert capsys.readouterr() == ("", "error: gen junta: unknown parameter 'foo'; gen junta reads masks, n\n")


def test_a_path_entry_reads_only_path(tmp_path, monkeypatch, capsys):
    assert run_cli("gen", "addressing", "k=16", "-o", str(tmp_path / "f.json")) == 0
    good = {"functions": [{"path": "f.json"}], "analyses": [{"op": "analyze"}]}
    assert run_cli("experiment", str(make_config(tmp_path, good))) == 0
    capsys.readouterr()

    def never(*args):
        raise AssertionError("a function was built")

    monkeypatch.setattr(runner, "build_function", never)
    monkeypatch.setattr(runner, "load_function", never)
    # the stray keys of a family entry beside the path, in the last entry
    stray = {"path": "f.json", "family": "addressing", "k": 16, "seed": 3}
    config = {"functions": [{"family": "addressing", "k": 16}, stray], "analyses": [{"op": "analyze"}]}
    message = "path entry: unknown parameter 'family'; path entry reads path"
    with pytest.raises(ConfigError) as raised:
        run_experiment(config, tmp_path)
    assert str(raised.value) == message
    assert run_cli("experiment", str(make_config(tmp_path, config))) == USAGE_ERROR
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_cli_verify_exit_codes(capsys):
    assert run_cli("verify", "three-fold", "addressing:k=16") == 0
    assert run_cli("verify", "pair-condition", "counterexample:n=5") == 0
    assert run_cli("verify", "sign-feasibility", "counterexample:n=5") == 1  # an infeasible sign system
    assert run_cli("verify", "pair-condition", "counterexample:n=70") == 2  # beyond the mask cap
    # a sparsity-4 function fails the three-fold precondition -> usage error
    assert run_cli("verify", "three-fold", "conjunction:mask=3,n=2") == 2
    with pytest.raises(SystemExit) as exc:
        run_cli("verify", "pair-condition")  # missing function
    assert exc.value.code == USAGE_ERROR
    capsys.readouterr()


@pytest.mark.parametrize("argv,message", [
    (["verify", "three-fold", "addressing:k=16", "--n", "5"], "unrecognized arguments: --n 5"),
    (["verify", "sign-feasibility", "addressing:k=16", "--n", "5"], "unrecognized arguments: --n 5"),
    (["verify", "counterexample", "addressing:k=16", "--n", "5"], "argument check: invalid choice: 'counterexample'"),
    (["verify", "counterexample", "addressing:k=16"], "argument check: invalid choice: 'counterexample'"),
], ids=["three-fold-n", "sign-feasibility-n", "counterexample-function", "counterexample-function-no-n"])
def test_cli_verify_refuses_input_it_does_not_read(capsys, argv, message):
    for json_flag in ([], ["--json"]):
        with pytest.raises(SystemExit) as exc:
            run_cli(*json_flag, *argv)
        assert exc.value.code == USAGE_ERROR
        out, err = capsys.readouterr()
        assert out == "" and f"error: {message}" in err


# the --json payload of the deleted `verify counterexample --n 5`, recorded
# before it was deleted
COUNTEREXAMPLE_5 = {
    "check": "counterexample", "n": 5, "pair_condition": True, "passed": True,
    "sign_feasibility": {"constraint_count": 12, "feasible": False, "witness": [
        {"direction": 3, "pairs": [[1, 2], [16, 19]]},
        {"direction": 5, "pairs": [[1, 4], [16, 21]]},
        {"direction": 6, "pairs": [[2, 4], [19, 21]]},
    ]},
    "support": [1, 2, 4, 8, 16, 19, 21, 25],
}


def test_the_counterexample_runs_through_the_op_table(capsys):
    assert runner.check_function({"family": "counterexample", "n": 5}, 20)[1].masks.tolist() == COUNTEREXAMPLE_5["support"]
    assert run_cli("--json", "verify", "pair-condition", "counterexample:n=5") == 0
    assert json.loads(capsys.readouterr().out)["verify"] == {"check": "pair-condition", "passed": True, "violation": None}
    assert run_cli("--json", "verify", "sign-feasibility", "counterexample:n=5") == 1
    result = json.loads(capsys.readouterr().out)["verify"]
    assert result["passed"] is False
    assert runner.canonical_json(result["detail"]) == runner.canonical_json(COUNTEREXAMPLE_5["sign_feasibility"])


@pytest.mark.parametrize("argv", [["verify", "pair-condition"], ["analyze"]], ids=["verify", "analyze"])
def test_a_missing_function_is_an_argparse_error(capsys, argv):
    for json_flag in ([], ["--json"]):
        with pytest.raises(SystemExit) as exc:
            run_cli(*json_flag, *argv)
        assert exc.value.code == USAGE_ERROR
        out, err = capsys.readouterr()
        assert out == "" and "the following arguments are required: function" in err


def test_cli_fold(capsys):
    assert run_cli("fold", "addressing:k=16", "--ell", "1/2") == 0
    out = capsys.readouterr().out
    assert "delta at ell = 1/2: 1/5" in out


def test_cli_pdt_build_verify_depth(tmp_path, capsys):
    tree_path = tmp_path / "tree.json"
    assert (
        run_cli("--seed", "3", "pdt", "build", "addressing:k=16", "-o", str(tree_path))
        == 0
    )
    assert tree_path.exists()
    assert run_cli("pdt", "verify", str(tree_path), "addressing:k=16") == 0
    assert run_cli("pdt", "verify", str(tree_path), "addressing:k=4") == 2  # dim mismatch
    assert run_cli("pdt", "depth", str(tree_path)) == 0
    capsys.readouterr()


def test_cli_pdt_detects_wrong_function(tmp_path, capsys):
    tree_path = tmp_path / "tree.json"
    run_cli("--seed", "3", "pdt", "build", "random:n=4,seed=1", "-o", str(tree_path))
    assert run_cli("pdt", "verify", str(tree_path), "random:n=4,seed=2") == 1
    capsys.readouterr()


def test_cli_mc_theorem1(capsys):
    assert (
        run_cli("--seed", "5", "mc", "theorem-1", "inner-product:m=3", "--p", "1/16",
                "--trials", "20")
        == 0
    )
    out = capsys.readouterr().out
    assert "mean buckets/k" in out
    assert run_cli("mc", "theorem-1", "inner-product:m=2") == 2  # missing --p
    capsys.readouterr()


CSV_HEADER = (
    "trials,k,probabilities,clamped,mean_bucket_fraction,ci95_low,ci95_high,"
    "success_threshold,success_fraction\n"
)


@pytest.mark.parametrize(
    "args, row",
    [
        (
            ["theorem-1", "inner-product:m=3", "--p", "1/16", "--trials", "25"],
            "25,64,0.0625,False,0.133125,0.07718035287744979,0.1890696471225502,,\n",
        ),
        (
            ["theorem-2", "inner-product:m=3", "--delta", "1/2", "--ell", "0", "--trials", "10"],
            "10,64,0.44145532940573085;1.0,True,0.015625,0.015625,0.015625,176/3,1\n",
        ),
    ],
    ids=["theorem-1", "theorem-2"],
)
def test_cli_mc_csv_bytes(tmp_path, capsys, args, row):
    csv_path = tmp_path / "mc.csv"
    assert run_cli("--seed", "3", "--csv", str(csv_path), "mc", *args) == 0
    assert csv_path.read_bytes() == (CSV_HEADER + row).encode()
    capsys.readouterr()


@pytest.mark.parametrize(
    "args",
    [
        ["mc", "theorem-1", "inner-product:m=2", "--p", "1/4"],
        ["mc", "warmup", "inner-product:m=2"],
        ["mc", "theorem-2", "inner-product:m=2", "--delta", "1", "--ell", "0"],
        ["pdt", "build", "inner-product:m=2", "--strategy", "greedy-min-bucket"],
    ],
    ids=["theorem-1", "warmup", "theorem-2", "greedy-build"],
)
def test_cli_refuses_a_negative_seed(capsys, args):
    # the warm-up and theorem 2 at k = 16 and a greedy build draw nothing,
    # so only the library's own check refuses their seed
    assert run_cli("--seed", "-1", *args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: seed must be >= 0, got -1") and "Traceback" not in err


def test_experiment_refuses_a_negative_mc_seed(tmp_path, capsys):
    config = {"functions": [{"family": "inner-product", "m": 2}],
              "analyses": [{"op": "mc", "kind": "warmup", "trials": 5, "seed": -1}]}
    out = tmp_path / "report.json"
    assert run_cli("experiment", str(make_config(tmp_path, config)), "-o", str(out)) == 2
    assert "error: seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_cli_mc_theorem2_rejects_non_folding(capsys):
    code = run_cli(
        "mc", "theorem-2", "addressing:k=16", "--delta", "1", "--ell", "1/2"
    )
    assert code == 2
    capsys.readouterr()


def test_cli_max_n_guard(capsys):
    assert run_cli("--max-n", "4", "analyze", "addressing:k=16") == 2
    capsys.readouterr()


ZERO_PARITY = {"family": "parity", "mask": 0, "n": 0}


def cli_exit(argv, capsys):
    """(exit code, stderr) of main(argv), an argparse refusal included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


@pytest.mark.parametrize("max_n", [-1, 21, True, "20"])
def test_a_max_n_outside_0_to_20_is_refused_before_any_function_is_built(monkeypatch, tmp_path, capsys, max_n):
    def refuse(*args):
        raise RuntimeError("built a function")

    monkeypatch.setattr(runner, "build_function", refuse)
    config = {"max_n": max_n, "functions": [ZERO_PARITY], "analyses": [{"op": "analyze"}]}
    with pytest.raises(ConfigError, match=r"^config max_n must (lie in \[0, 20\]|be an integer), got"):
        run_experiment(config)
    assert cli_exit(["experiment", str(make_config(tmp_path, config))], capsys)[0] == USAGE_ERROR
    flag = json.dumps(max_n) if isinstance(max_n, str) else str(max_n).lower()
    for argv in (["--max-n", flag, "analyze", "parity:mask=0,n=0"], ["analyze", "parity:mask=0,n=0", "--max-n", flag]):
        code, err = cli_exit(argv, capsys)
        assert code == USAGE_ERROR
        if isinstance(max_n, (bool, str)):  # not an int: argparse refuses it
            assert "argument --max-n: invalid int value" in err
        else:
            assert err == f"error: max_n must lie in [0, 20], got {max_n}\n"


@pytest.mark.parametrize("max_n", [0, 20])
def test_a_max_n_from_0_to_20_is_read(tmp_path, capsys, max_n):
    config = {"max_n": max_n, "functions": [ZERO_PARITY], "analyses": [{"op": "analyze"}]}
    assert run_experiment(config).results[0]["n"] == 0
    assert cli_exit(["experiment", str(make_config(tmp_path, config))], capsys)[0] == 0
    assert cli_exit(["--max-n", str(max_n), "analyze", "parity:mask=0,n=0"], capsys)[0] == 0
    assert cli_exit(["analyze", "parity:mask=0,n=0", "--max-n", str(max_n)], capsys)[0] == 0


@pytest.mark.parametrize("flag_first", [True, False], ids=["flag-before", "flag-after"])
def test_cli_experiment_runs_with_the_smaller_of_the_flag_and_the_config_max_n(tmp_path, capsys, flag_first):
    def argv(config, cap):
        path = str(make_config(tmp_path, config))
        return ["--max-n", cap, "experiment", path] if flag_first else ["experiment", path, "--max-n", cap]

    capped = {"max_n": 20, "functions": [{"family": "random", "n": 6, "seed": 1}], "analyses": [{"op": "analyze"}]}
    assert cli_exit(argv(capped, "4"), capsys) == (USAGE_ERROR, "error: random(n=6,seed=1): n = 6 exceeds max_n = 4\n")
    # the report echoes the cap that applied, the flag's or the config's
    out = tmp_path / "report.json"
    for stated, echoed in (({"max_n": 20}, 8), ({"max_n": 4}, 4), ({}, 8)):
        config = {"functions": [ZERO_PARITY], "analyses": [{"op": "analyze"}], **stated}
        assert cli_exit(argv(config, "8") + ["-o", str(out)], capsys)[0] == 0
        assert json.loads(out.read_text())["config"]["max_n"] == echoed
    # a bad config value keeps the config reader's message
    code, err = cli_exit(argv({**capped, "max_n": 21}, "4"), capsys)
    assert (code, err) == (USAGE_ERROR, "error: config max_n must lie in [0, 20], got 21\n")


def test_cli_max_n_guard_comes_before_inverting_a_spectrum_file(tmp_path, monkeypatch, capsys):
    # inverse_wht allocates 2^n entries, so a refused file must not reach it
    def refuse(spectrum):
        raise RuntimeError("inverted a spectrum above max_n")

    monkeypatch.setattr(spectral, "inverse_wht", refuse)
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"n": 21, "coeffs": [{"mask": 0, "num": 1 << 21}]}))
    assert main(["analyze", str(path)]) == USAGE_ERROR
    assert "exceeds max_n" in capsys.readouterr().err


@pytest.mark.parametrize("entry, generator", [
    ({"family": "random", "n": 23, "seed": 0}, "gen_random"),
    ({"family": "parity", "mask": 1, "n": 21}, "gen_parity"),
    ({"family": "conjunction", "mask": 1, "n": 21}, "gen_conjunction"),
    ({"family": "junta", "inner": {"family": "parity", "params": {"mask": 1, "n": 1}},
      "masks": [1], "n": 21}, "gen_junta"),
])
def test_max_n_guard_comes_before_building_a_family_table(monkeypatch, entry, generator):
    # the generators allocate 2^n entries, so a refused entry must not reach them
    def refuse(*args):
        raise RuntimeError(f"{generator} ran above max_n")

    monkeypatch.setattr(families, generator, refuse)
    with pytest.raises(runner.ConfigError, match=r"n = 2[13] exceeds max_n = 20"):
        runner.run_experiment({"functions": [entry], "analyses": []})


@pytest.mark.parametrize("entry, n", [
    ({"family": "inner-product", "m": 10}, 20),
    ({"family": "addressing", "k": 256}, 20),
    ({"family": "modified-addressing", "k": 64}, 13),
])
def test_max_n_guard_comes_before_building_a_derived_dimension_table(monkeypatch, entry, n):
    # these families imply n instead of stating it; the guard derives it
    def refuse(*args):
        raise RuntimeError(f"{entry['family']} ran above max_n")

    for generator in ("gen_inner_product", "gen_addressing", "gen_modified_addressing"):
        monkeypatch.setattr(families, generator, refuse)
    with pytest.raises(runner.ConfigError, match=rf"n = {n} exceeds max_n = 8"):
        runner.run_experiment({"max_n": 8, "functions": [entry], "analyses": []})


@pytest.mark.parametrize("n", [1.5, True, "4"])
def test_a_stated_non_integer_n_is_named_n(n):
    with pytest.raises(ValueError, match=r"^random n must be an integer"):
        runner.run_experiment({"functions": [{"family": "random", "n": n, "seed": 0}], "analyses": []})


FOLDING_BUILD = ["pdt", "build", "addressing:k=16", "--strategy", "folding-sampling"]
MISFIT_JUNTA = {"family": "junta", "n": 4, "masks": [1, 2],
                "inner": {"family": "random", "params": {"n": 23, "seed": 0}}}


@pytest.mark.parametrize("argv", [
    FOLDING_BUILD + ["--delta", "1/5", "--ell", "100000"],  # once an OverflowError
    FOLDING_BUILD + ["--delta", "0", "--ell", "1/2"],  # once a ZeroDivisionError
    FOLDING_BUILD + ["--delta", "5", "--ell", "1/2"],  # once accepted
    ["experiment", "junta.json"],
    ["analyze", "addressing:k=16", "--csv", "x.csv"],
    ["--csv", "x.csv", "fold", "addressing:k=16"],
    ["--csv", "x.csv", "verify", "parseval", "addressing:k=16"],
    ["pdt", "build", "addressing:k=16", "--csv", "x.csv"],
    ["--csv", "x.csv", "gen", "parity", "mask=1", "n=2"],
], ids=["ell", "delta-0", "delta-5", "misfit-junta", "csv-analyze", "csv-fold", "csv-verify",
        "csv-pdt", "csv-gen"])
def test_cli_out_of_range_inputs_are_usage_errors(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "junta.json").write_text(json.dumps({"functions": [MISFIT_JUNTA], "analyses": []}))
    assert main(argv) == USAGE_ERROR
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "x.csv").exists()


def test_cli_experiment_byte_reproducible(tmp_path):
    config = make_config(tmp_path, BASIC_CONFIG)
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert run_cli("experiment", str(config), "-o", str(out1)) == 0
    assert run_cli("experiment", str(config), "-o", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_experiment_csv(tmp_path):
    config = make_config(
        tmp_path,
        {"functions": [{"family": "addressing", "k": 4}], "analyses": [{"op": "analyze"}]},
    )
    csv_path = tmp_path / "summary.csv"
    assert run_cli("--csv", str(csv_path), "experiment", str(config), "-o",
                   str(tmp_path / "r.json")) == 0
    assert csv_path.read_text().startswith("function,op,field,value")


def test_cli_analyze_with_constraint_file(tmp_path, capsys):
    system_path = tmp_path / "system.json"
    system_path.write_text(json.dumps([{"mask": 1, "bit": 1}]))
    code = run_cli(
        "--json", "analyze", "conjunction:mask=3,n=2", "--restrict", str(system_path)
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)["analyze"]["restrict"]
    # fixing x1 = 1 collapses the conjunction to a single character
    assert payload["restricted_sparsity"] == 1
    assert payload["restricted_support"] == [2]
    assert payload["bucket_report"]["bucket_count"] == 2


def test_cli_gen_junta(tmp_path, capsys):
    inner_path = tmp_path / "inner.json"
    out_path = tmp_path / "junta.json"
    assert run_cli("gen", "conjunction", "mask=3", "n=2", "-o", str(inner_path)) == 0
    assert (
        run_cli("gen", "junta", "masks=3,5", "n=4", "--inner", str(inner_path),
                "-o", str(out_path)) == 0
    )
    assert run_cli("--json", "analyze", str(out_path)) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["analyze"]["sparsity"] == 4


def test_cli_fold_pairs_materialized(capsys):
    assert run_cli("--json", "fold", "conjunction:mask=3,n=2", "--pairs") == 0
    payload = json.loads(capsys.readouterr().out)
    profile = payload["fold"]["profile"]
    assert profile["classes"] == {"1": 2, "2": 2, "3": 2}
    assert profile["pairs"]["3"] == [[0, 3], [1, 2]]


def test_cli_subprocess_entrypoint(tmp_path):
    # exercise the installed console path end to end
    result = subprocess.run(
        [sys.executable, "-m", "parityfold.cli", "--json", "analyze", "addressing:k=4"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["analyze"]["sparsity"] == 4


def test_cli_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 2


# Golden CLI outputs, recorded before the subcommands ran through the
# runner's op table.  Each case runs its commands in a fresh directory
# holding the fixtures below, once in text mode and once with --json; the
# digest covers every exit code, every stdout and every file left in the
# directory.  The analyze "granular" field was dropped from those
# recordings, the one intended difference.  analyze-restrict was
# re-recorded when restriction became an analyze param: its --json block
# moved from the top level to analyze.restrict, and its text line names
# the constraint count, not the file.  The two modified-addressing cases
# were recorded before pair lists became arrays.  experiment was
# re-recorded when its CSV rows took csv quoting: the random(n=5,seed=3)
# rows quote their label, and no other byte moved.  verify-counterexample
# was re-recorded when the counterexample became a support entry: it runs
# verify pair-condition and verify sign-feasibility on counterexample:n=5
# in place of the deleted verify counterexample --n 5.  error-missing-function
# is argparse's own exit since verify took FUNCTION as a positional; its
# stdout stays empty and its digest did not move.
GOLDEN_FIXTURES = {
    "system.json": json.dumps([{"mask": 3, "bit": 1}, {"mask": 12, "bit": 0}]),
    "spectrum.json": json.dumps(
        {"n": 4, "coeffs": [{"mask": m, "num": c} for m, c in sorted(wht(gen_inner_product(2)).coeffs.items())]}
    ),
    "config.json": json.dumps(BASIC_CONFIG),
}

BUILD = ["--seed", "3", "pdt", "build", "addressing:k=16", "-o", "tree.json", "--log", "build.jsonl"]
MC = ["--seed", "3", "--csv", "mc.csv", "mc"]

GOLDEN_CASES = {
    "analyze": [["analyze", "addressing:k=16"]],
    "analyze-restrict": [["analyze", "addressing:k=16", "--restrict", "system.json"]],
    "analyze-spectrum-file": [["analyze", "spectrum.json"]],
    "fold-delta": [["fold", "addressing:k=16", "--delta", "1/5"]],
    "fold-pairs": [["fold", "conjunction:mask=3,n=2", "--pairs"]],
    "fold-pairs-modified-addressing": [["fold", "modified-addressing:k=4", "--pairs"]],
    **{
        f"verify-{check}": [["verify", check, "addressing:k=16"]]
        for check in ("pair-condition", "three-fold", "single-direction",
                      "sign-feasibility", "titsworth", "parseval")
    },
    "verify-sign-feasibility-modified-addressing": [["verify", "sign-feasibility", "modified-addressing:k=4"]],
    "verify-counterexample": [["verify", "pair-condition", "counterexample:n=5"],
                              ["verify", "sign-feasibility", "counterexample:n=5"]],
    **{
        f"pdt-build-{strategy}": [BUILD + ["--strategy", strategy]]
        for strategy in ("sampling", "folding-sampling", "max-coefficient", "greedy-min-bucket")
    },
    "pdt-build-folding-delta": [BUILD + ["--strategy", "folding-sampling",
                                         "--delta", "1/5", "--ell", "1/2"]],
    "pdt-verify": [BUILD, ["pdt", "verify", "tree.json", "addressing:k=16"],
                   ["pdt", "verify", "tree.json", "random:n=6,seed=1"]],
    "pdt-depth": [BUILD, ["pdt", "depth", "tree.json"]],
    "mc-theorem-1": [MC + ["theorem-1", "inner-product:m=3", "--p", "1/16", "--trials", "25"]],
    "mc-warmup": [MC + ["warmup", "inner-product:m=3", "--trials", "25"]],
    "mc-theorem-2": [MC + ["theorem-2", "inner-product:m=3", "--delta", "1/2", "--ell", "0",
                           "--trials", "10"]],
    "gen-junta": [["gen", "conjunction", "mask=3", "n=2", "-o", "inner.json"],
                  ["gen", "junta", "masks=3,5", "n=4", "--inner", "inner.json", "-o", "junta.json"],
                  ["analyze", "junta.json"]],
    "experiment": [["--csv", "summary.csv", "experiment", "config.json", "-o", "report.json"]],
    "error-missing-p": [["mc", "theorem-1", "inner-product:m=2"]],
    "error-not-folding": [["mc", "theorem-2", "addressing:k=16", "--delta", "1", "--ell", "1/2"]],
    "error-max-n": [["--max-n", "4", "analyze", "addressing:k=16"]],
    "error-sparsity-too-small": [["verify", "three-fold", "conjunction:mask=3,n=2"]],
    "error-missing-function": [["verify", "pair-condition"]],
}


def golden_record(directory, argvs, json_mode):
    """Exit codes, stdouts and written files of argvs run in directory."""
    for name, text in GOLDEN_FIXTURES.items():
        (directory / name).write_text(text)
    runs = []
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = main((["--json"] if json_mode else []) + argv)
                except SystemExit as exc:  # argparse refused the command line
                    code = exc.code
                    assert code == USAGE_ERROR and ": error: " in err.getvalue()
                else:
                    assert code != USAGE_ERROR or err.getvalue().startswith("error: ")
            runs.append([code, out.getvalue()])
    finally:
        os.chdir(cwd)
    files = {p.name: p.read_text() for p in sorted(directory.iterdir())}
    return {"runs": runs, "files": files}


def golden_digest(record):
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()


# case: (exit codes, digest in text mode, digest with --json)
GOLDEN = {
    "analyze": ((0,), "a70a77d06ae1feb4d30a8a0d2d630467355af382484344f855d2914a11d9ec07", "e79e9d1b27997aee0babbdef859eadd318c043a6c50aefe72918c41793473af8"),
    "analyze-restrict": ((0,), "8b2fff50fc027b021b4dab88b9cb93156217d754ed1d69388ede39fab55601a3", "406388fa0e5d5606e0e6a06450649d875915fb0d36d7f5991e84ef17f2293a4f"),
    "analyze-spectrum-file": ((0,), "59b9c05b07a34c00b7625c69114cb82a3600fc27f6c8248e384d746f511d99f5", "02baf4e553eb9753cd6e7f5cdd7e57062b2ecb9d7566d5a286603a119da9bb03"),
    "fold-delta": ((0,), "ffe902c4c498709b64607eb01d2fa3fd5fc20034073622b886e42276c5683967", "92bac784d2d6e9ac18c218c0e8dc9fc5367ce7fba8e44d4f4b7627f38ef0238b"),
    "fold-pairs": ((0,), "1e0bf3b7102790d9fc53608ead99aacce2a268acaa64d42fc0ab94a6796d0076", "85c01a09b7365206718fe9f0849a56241a8da92cf5dcbd0cc704b911f345320d"),
    "fold-pairs-modified-addressing": ((0,), "a57ff718dd504eed82bf5234b8b3b3722a8b29980981677ffc199c7665b71301", "4f9286f682bc00927d3c100a1dfde79511363b50e9e0d41633b2aed1db525d59"),
    "verify-pair-condition": ((0,), "87ed0fc19907b2cc067ede949ad8db36efaf77c140d05e36a80647501181ac7c", "8204726ebb5d960ab828fab08ed126913bcabbc5faa6b6c3390cc3603080b03c"),
    "verify-three-fold": ((0,), "d8162a01e00fc054278496d239e7b449f881e96d5cca7b227e987e945b7c19be", "d44fb2e749279e172357abdbd994d12d589c2baf6ef8b92e035ed37eff7fd3ef"),
    "verify-single-direction": ((0,), "1143b5f000e8d43a2fa108ca7606fbdb55591819115a9525dff9c7eb86e329ce", "686fed2b906713464dbf5fbf9760458e68861f868e8e86863f7981fca0bdb5b2"),
    "verify-sign-feasibility": ((0,), "c37a24ce70ea1753bd0ec592f46db75e89369fe7f79c4899b20abcd0b750b10b", "5ae1269d4147eb98899b45e33ee8f335e8dc64d8134a3add2efedf2240fe9418"),
    "verify-titsworth": ((0,), "11558296fcb20e1cca9db2ab8673b80e58e3b4558d5e50896680157eb03d3e17", "66b26ea92db31d29fa2ef929a1377b62371525ccea5ae906e5bebade4f689dcc"),
    "verify-parseval": ((0,), "b942813525f4fa3d75197d5f73f91b5571488bf0a8b2bdd135d72cc499042bba", "410fa0e47a63f72d916f4e3c8eea3a0fa4f65d7bcf9217395a7fc8b955b0b582"),
    "verify-sign-feasibility-modified-addressing": ((0,), "272e60987b4b9125771b4b0fe3ba1b18cefa5ed7e725ab1a64534d869cb1ccac", "756b7bd35d98e45482261663b0643f1b6db5e760cca62ed95122ef44a6d1c9c4"),
    "verify-counterexample": ((0, 1), "b5ffdabf81569901ba15c19c17663bf10d63338053eb482823dd517a5279b47e", "e2ce20d7c29d39478d848dee4585aa24750c245c8d9d26ee8486f0d8a77cb9d6"),
    "pdt-build-sampling": ((0,), "9b01b21d0cf4a7d5653f4ff482edf42af7abc7953cca4bc6e0ca8d3a807e4ec9", "ee2d79ce3d6cb9ef3c2e245fe65f4246e6c66578f318b75640ba28d757a1c827"),
    "pdt-build-folding-sampling": ((0,), "03bd57daa0d504a76ea62f2edebbf99ba7572e44df88df8176c06f378a839dcd", "cef19693de3699ca1f098d05d94dd3fc60750d73429c727ed7ab5a3df877a5d0"),
    "pdt-build-max-coefficient": ((0,), "d0ae089d52e5ddecbf7e77ff997b3bc6cd802004659dc51bd8207de224e0c10c", "7d587cf2c6ce345332589d04a19721b27a482ef3044cd6b47e65a5d7d8eae2c7"),
    "pdt-build-greedy-min-bucket": ((0,), "80b3365065b45f238acd017923f02906d08c8f7fc29cb33c9de12e7e6c84e98d", "8667359da071e3c7333867a65ced15aaa1e277ff11cd788a519fca1f656109a4"),
    "pdt-build-folding-delta": ((0,), "456dcf968cc9627f55b96b0d126ad9937eb44fd798d8bd63031516876e0d688c", "eb16fcdf5da30430c430d08a2646a7edfffcb3626e726adf14601beb4c28caf9"),
    "pdt-verify": ((0, 0, 1), "17c6b5bcd86b52c67fc5a708d1369d6648432b86452ccef32dda47b788b1387a", "15696b92b1dda20c4cc2bc92349b67ed66327bb8c7237610a8a3c1beba6e8001"),
    "pdt-depth": ((0, 0), "c713554fa45daab8aa87a07a1e3d5c747d524427b1b1ea947ad3ba1e9c9eda2a", "19bce1f64d93c8f81027ab43222cb6c01ca236cf0b146ad6b77b55e61b6124e6"),
    "mc-theorem-1": ((0,), "3bf1c3189014357fb9a5de7b44242ac49d6ec3f042382b262fbd160af07363b7", "6d642bd2a1e92ccdce84219d7f19740a5fff81bca9c021c30e042bd945b76e31"),
    "mc-warmup": ((0,), "6e160d824f2a12b36a425316edcb2dbb1ee98e635c4a484b624feee48db46e73", "29062ae4b8d09476f4a6a251a7d19de71fb4cd0948bc92ced3e493db4036b263"),
    "mc-theorem-2": ((0,), "a6ae5a8c2ac5c22b75b47af4d994b0c7290a379695657dee864b7732a6f4d853", "c33bc78e9654f2b49a0de0ad808b774dce761a87f858922cdac7ae98491edfb0"),
    "gen-junta": ((0, 0, 0), "6f64c124257e119a2f42bd752d2295324eec6f89f2a5c0102d97d0217ed53cac", "96cc8dcd8eb08940dce02328e1d5c1691418b42f85e39a4aef34f76b44092aff"),
    "experiment": ((0,), "89355f2f78b6257901e26bb89ebc725c61c27710bce45869b438283f06fd1508", "89355f2f78b6257901e26bb89ebc725c61c27710bce45869b438283f06fd1508"),
    "error-missing-p": ((2,), "ef401e984f80e2ebab5a41d9a1dcf58ed3b26006168deca8677959364e0137ef", "ef401e984f80e2ebab5a41d9a1dcf58ed3b26006168deca8677959364e0137ef"),
    "error-not-folding": ((2,), "ef401e984f80e2ebab5a41d9a1dcf58ed3b26006168deca8677959364e0137ef", "ef401e984f80e2ebab5a41d9a1dcf58ed3b26006168deca8677959364e0137ef"),
    "error-max-n": ((2,), "ef401e984f80e2ebab5a41d9a1dcf58ed3b26006168deca8677959364e0137ef", "ef401e984f80e2ebab5a41d9a1dcf58ed3b26006168deca8677959364e0137ef"),
    "error-sparsity-too-small": ((2,), "ef401e984f80e2ebab5a41d9a1dcf58ed3b26006168deca8677959364e0137ef", "ef401e984f80e2ebab5a41d9a1dcf58ed3b26006168deca8677959364e0137ef"),
    "error-missing-function": ((2,), "ef401e984f80e2ebab5a41d9a1dcf58ed3b26006168deca8677959364e0137ef", "ef401e984f80e2ebab5a41d9a1dcf58ed3b26006168deca8677959364e0137ef"),
}


@pytest.mark.parametrize("json_mode", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("case", list(GOLDEN_CASES))
def test_cli_golden_bytes(tmp_path, case, json_mode):
    codes, text_digest, json_digest = GOLDEN[case]
    record = golden_record(tmp_path, GOLDEN_CASES[case], json_mode)
    assert tuple(code for code, _ in record["runs"]) == codes
    assert golden_digest(record) == (json_digest if json_mode else text_digest)


def test_mc_theorem1_without_p_is_a_config_error():
    config = {"functions": [{"family": "inner-product", "m": 2}],
              "analyses": [{"op": "mc", "kind": "theorem-1", "trials": 5}]}
    with pytest.raises(ConfigError, match="mc: missing parameter 'p'"):
        run_experiment(config)


def test_pdt_and_mc_ops_reuse_the_runner_spectrum(monkeypatch):
    calls = []
    real = pdt.wht

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(pdt, "wht", counting)
    report = run_experiment({
        "functions": [{"family": "inner-product", "m": 2}],
        "analyses": [{"op": "pdt", "strategy": strategy} for strategy in STRATEGIES]
        + [{"op": "mc", "kind": "theorem-1", "p": "1/4", "trials": 5},
           {"op": "mc", "kind": "warmup", "trials": 5},
           {"op": "mc", "kind": "theorem-2", "trials": 5}],
    })
    assert calls == []
    assert all(a["result"]["verified"] for a in report.results[0]["analyses"][:4])


@pytest.mark.parametrize(
    "argv, op",
    [
        (["analyze", "addressing:k=16"], "analyze"),
        (["fold", "addressing:k=16"], "fold"),
        (["verify", "parseval", "addressing:k=16"], "verify"),
        (["mc", "warmup", "addressing:k=16", "--trials", "5"], "mc"),
    ],
)
def test_cli_op_subcommands_run_the_op_table(monkeypatch, capsys, argv, op):
    calls = []
    real, params = runner.OPS[op]

    def counting(*args):
        calls.append(op)
        return real(*args)

    monkeypatch.setitem(runner.OPS, op, (counting, params))
    assert main(argv) == 0
    assert calls == [op]
    capsys.readouterr()


@pytest.mark.parametrize("message", ["", "Unable to allocate 7.45 GiB"])
@pytest.mark.parametrize("via", ["subcommand", "experiment"])
def test_cli_turns_running_out_of_memory_into_a_usage_error(tmp_path, monkeypatch, capsys, message, via):
    # too many trials for the machine ends in MemoryError, from a list or a
    # numpy allocation; that is an error line and exit 2, not a traceback
    def exhausted(*args):
        raise MemoryError(*[message] if message else [])

    monkeypatch.setattr(pdt, "warmup_success_rate", exhausted)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"functions": [{"family": "addressing", "k": 16}], "analyses": [{"op": "mc", "kind": "warmup"}]}))
    argv = ["mc", "warmup", "addressing:k=16", "--trials", "5"] if via == "subcommand" else ["experiment", str(config)]
    assert main(argv) == USAGE_ERROR
    err = capsys.readouterr().err
    assert err == (f"error: out of memory: {message}\n" if message else "error: out of memory\n")


# the errors of a bound that failed to hold, each exit 1 and an error line
CHECK_FAILURES = [
    lambda: folding.FoldingBoundError("|U| = 1 below delta*k/3 = 2 at k=64"),
    lambda: restriction.IdentificationBoundError("2 buckets exceed k - ceil(h/2) = 1 at k=2, h=2"),
    lambda: pdt.ResampleCapExceededError(64, None, None),
]


@pytest.mark.parametrize("make", CHECK_FAILURES)
@pytest.mark.parametrize("via", ["subcommand", "experiment"])
def test_cli_maps_a_failed_bound_to_exit_1(tmp_path, monkeypatch, capsys, make, via):
    error = make()
    assert isinstance(error, CheckFailedError)

    def broken(*args):
        raise error

    monkeypatch.setattr(folding, "verify_three_fold", broken)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"functions": [{"family": "addressing", "k": 16}],
                                  "analyses": [{"op": "verify", "check": "three-fold"}]}))
    argv = ["verify", "three-fold", "addressing:k=16"] if via == "subcommand" else ["experiment", str(config)]
    assert main(argv) == CHECK_FAILED
    captured = capsys.readouterr()
    assert captured.err == f"error: {error}\n" and captured.out == ""


def test_cli_maps_a_failed_bound_to_exit_1_without_loading_the_builder(tmp_path):
    # the exit-1 mapping needs no module that raises it: a fold experiment
    # in a fresh interpreter never imports pdt or restriction
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"functions": [{"family": "addressing", "k": 16}], "analyses": [{"op": "fold"}]}))
    script = (
        "import sys\n"
        "from parityfold import cli, folding\n"
        "def broken(*args):\n"
        "    raise folding.FoldingBoundError('bound broken')\n"
        "folding.direction_classes = broken\n"
        f"code = cli.main(['experiment', {str(config)!r}])\n"
        "loaded = sorted(m for m in ('parityfold.pdt', 'parityfold.restriction') if m in sys.modules)\n"
        "print(code, loaded)\n"
    )
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert (run.stdout, run.stderr) == ("1 []\n", "error: bound broken\n")


# File readers check the JSON shape they index into, so a malformed file is
# a usage error (exit 2) and never a traceback.
FILE_COMMANDS = {
    "analyze": ["analyze", "{}"],
    "pdt-depth": ["pdt", "depth", "{}"],
    "analyze-restrict": ["analyze", "addressing:k=4", "--restrict", "{}"],
    "experiment": ["experiment", "{}"],
}


def run_on_file(argv, path):
    """main() on argv with its file argument ("{}") at path: (exit, stderr)."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main([str(path) if arg == "{}" else arg for arg in argv])
    return code, err.getvalue()


@pytest.mark.parametrize("command,content", [
    ("pdt-depth", {"n": 1, "root": 5}),
    ("analyze", {"n": 1, "coeffs": [5]}),
    ("analyze-restrict", [5]),
    ("experiment", {"seed": None, "functions": [], "analyses": []}),
    ("experiment", {"functions": [5], "analyses": []}),
    ("experiment", {"functions": [{"family": "parity", "mask": 1, "n": 2}], "analyses": [5]}),
    ("experiment", {"functions": [{"path": 5}]}),
    ("experiment", {"functions": [{"family": "parity", "mask": [1], "n": 2}]}),
    ("experiment", {"functions": [{"family": "junta", "inner": 5, "masks": [1], "n": 1}]}),
    ("experiment", {"functions": [{"family": "parity", "mask": 1, "n": 2}],
                    "analyses": [{"op": "mc", "kind": "warmup", "trials": [1]}]}),
])
def test_cli_malformed_shapes_are_usage_errors(tmp_path, command, content):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content))
    code, err = run_on_file(FILE_COMMANDS[command], path)
    assert code == USAGE_ERROR
    assert err.startswith("error:") and "must be" in err


# json.loads raises RecursionError on nesting deeper than the recursion
# limit; built as text because json.dumps hits the same limit
DEEP_TREE = '{"n": 1, "root": ' + '{"query": 1, "neg": {"leaf": -1}, "pos": ' * 3000 + '{"leaf": 1}' + "}" * 3001
DEEP_ARRAYS = "[" * 100000 + "]" * 100000


@pytest.mark.parametrize("argv,content", [
    (["pdt", "depth", "{}"], DEEP_TREE),
    (["pdt", "verify", "{}", "parity:mask=1,n=1"], DEEP_TREE),
    (["analyze", "{}"], DEEP_ARRAYS),
    (["analyze", "addressing:k=4", "--restrict", "{}"], DEEP_ARRAYS),
    (["experiment", "{}"], DEEP_ARRAYS),
], ids=["pdt-depth", "pdt-verify", "analyze", "analyze-restrict", "experiment"])
def test_cli_deeply_nested_json_is_a_usage_error(tmp_path, argv, content):
    path = tmp_path / "deep.json"
    path.write_text(content)
    code, err = run_on_file(argv, path)
    assert code == USAGE_ERROR
    assert err.startswith("error:") and "nested too deeply" in err
    assert "Traceback" not in err


def json_dumps_text(value):
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


# canonical_json is the library's own encoder; on every JSON tree it must
# write exactly what json.dumps(sort_keys=True, indent=2) writes
SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300]
TREE_STRINGS = st.text(st.characters(exclude_categories=()), max_size=6) | st.sampled_from(
    ['"', "\\", "\x00", "\x1f\x7f", "a\"b\\c\n\t", "é", "☃", "\U0001f600", "\ud800", "x\udfff"]
)
TREE_FLOATS = st.floats() | st.sampled_from(SPECIAL_FLOATS)
TREE_INTS = st.integers() | st.integers(2**64, 2**200) | st.integers(-(2**200), -(2**64))
TREE_SCALARS = st.none() | st.booleans() | TREE_INTS | TREE_FLOATS | TREE_STRINGS
JSON_TREES = st.recursive(
    TREE_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.lists(st.booleans() | st.integers(-2, 2), max_size=4),  # bools next to ints
        st.dictionaries(TREE_STRINGS, inner, max_size=4),
        # numeric keys sort together; None sorts only with itself
        st.dictionaries(st.booleans() | TREE_INTS | TREE_FLOATS, inner, max_size=4),
        st.dictionaries(st.none(), inner, max_size=1),
    ),
    max_leaves=30,
)


@given(JSON_TREES)
@settings(max_examples=400, deadline=None)
def test_canonical_json_equals_json_dumps(tree):
    assert runner.canonical_json(tree) == json_dumps_text(tree)


def scalar_runs(items):
    """Lists, tuples and str-keyed dicts of SCALAR_RUN_MIN or more items."""
    size = {"min_size": runner.SCALAR_RUN_MIN, "max_size": runner.SCALAR_RUN_MIN + 4}
    return st.lists(items, **size) | st.lists(items, **size).map(tuple) | st.dictionaries(TREE_STRINGS, items, **size)


# one-type runs, which canonical_json writes with one join, and runs it must
# write with its stack loop: bools next to ints, and dicts with other keys
SCALAR_RUNS = st.one_of(
    scalar_runs(st.integers(2**64, 2**200) | st.integers(-(2**200), -(2**64))),
    scalar_runs(st.sampled_from(SPECIAL_FLOATS)),
    scalar_runs(TREE_STRINGS),
    scalar_runs(st.booleans()),
    scalar_runs(st.none()),
    scalar_runs(st.booleans() | st.integers(-2, 2)),
    st.dictionaries(st.booleans() | TREE_INTS, TREE_INTS, min_size=runner.SCALAR_RUN_MIN, max_size=runner.SCALAR_RUN_MIN + 4),
)


@given(st.recursive(SCALAR_RUNS, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TREE_STRINGS, inner, max_size=3), max_leaves=4))
@settings(max_examples=300, deadline=None)
def test_canonical_json_writes_scalar_runs_as_json_dumps_does(tree):
    assert runner.canonical_json(tree) == json_dumps_text(tree)


def test_only_one_type_runs_of_scalar_run_min_items_take_one_join(monkeypatch):
    runs = []

    def record(value, inner):
        runs.append((len(value), text := scalar_run(value, inner)))
        return text

    scalar_run = runner._scalar_run
    monkeypatch.setattr(runner, "_scalar_run", record)
    size = runner.SCALAR_RUN_MIN
    tree = [list(range(size)), list(range(size - 1)), [True] * 8 + [1] * (size - 8), {str(i): 1.5 for i in range(size)}]
    assert runner.canonical_json(tree) == json_dumps_text(tree)
    assert [(n, text is not None) for n, text in runs] == [(size, True), (size, False), (size, True)]


# record lists, which canonical_json writes a record per join: a column of
# one scalar type, of scalar lists (empty ones too) or of anything a record
# holds, and lists it must write with its stack loop: ragged key sets, a
# dict or a list of lists as a value, int keys, a dict subclass
RECORD_COLUMNS = st.sampled_from([
    TREE_INTS, st.floats() | st.sampled_from(SPECIAL_FLOATS), st.booleans(), st.none(), TREE_STRINGS,
    st.lists(TREE_SCALARS, max_size=3) | st.lists(TREE_SCALARS, max_size=3).map(tuple),
    TREE_SCALARS | st.lists(TREE_SCALARS, max_size=3),
])


@st.composite
def record_lists(draw):
    keys = draw(st.lists(TREE_STRINGS, min_size=1, max_size=5, unique=True))
    columns = {key: draw(RECORD_COLUMNS) for key in keys}
    count = draw(st.integers(1, runner.RECORD_RUN_MIN + 3))  # both sides of the minimum
    records = [{key: draw(column) for key, column in columns.items()} for _ in range(count)]
    i = draw(st.integers(0, count - 1))
    change = draw(st.sampled_from(["none"] * 6 + ["drop a key", "add a key", "dict value", "nested lists", "int keys", "subclass"]))
    if change == "drop a key":
        del records[i][keys[0]]
    elif change == "add a key":
        records[i][draw(TREE_STRINGS.filter(lambda key: key not in keys))] = 1
    elif change in ("dict value", "nested lists"):
        records[i][keys[-1]] = {"x": [1.5]} if change == "dict value" else [[1, 2], []]
    elif change == "int keys":
        records = [dict(enumerate(record.values())) for record in records]
    elif change == "subclass":
        records[i] = Table(records[i])
    return draw(st.sampled_from([records, tuple(records), {"log": records, "n": 2}, [[records], 3]]))


@given(record_lists())
@settings(max_examples=400, deadline=None)
def test_canonical_json_writes_record_lists_as_json_dumps_does(tree):
    assert runner.canonical_json(tree) == json_dumps_text(tree)


def test_a_node_log_takes_the_record_path_and_a_one_entry_list_does_not(monkeypatch):
    runs = []

    def record(value, inner):
        runs.append((len(value), text := record_run(value, inner)))
        return text

    record_run = runner._record_run
    monkeypatch.setattr(runner, "_record_run", record)
    config = {"functions": [{"family": "random", "n": 8, "seed": 1}], "analyses": [{"op": "pdt", "strategy": "greedy-min-bucket"}]}
    report = run_experiment(config)
    log = report.results[0]["analyses"][0]["result"]["node_records"]
    assert len(log) >= runner.RECORD_RUN_MIN
    # functions, analyses and results each hold one dict: no record path
    assert report.to_json() == json_dumps_text(report.to_dict())
    assert [(n, text is not None) for n, text in runs] == [(len(log), True)]


class IntKind(enum.IntEnum):
    A = 3


class Text(str):
    pass


class Real(float):
    pass


class Items(list):
    pass


class Table(dict):
    pass


@pytest.mark.parametrize("value", [
    {}, [], (), [[]], [{}], {"a": {}}, [[[[]]], {"b": [()]}],
    IntKind.A, {IntKind.A: IntKind.A}, Text("q\n"), {Text("k"): Text("v")},
    Real(2.5), {Real(-0.0): Real("nan")}, np.float64(1.25), {np.float64(1e300): 1},
    Items([1, Items()]), Table(b=1, a=Table()), [True, 1, False, 0, 1.0],
    {True: 1, 2: "x", 1.5: None}, {None: [None]}, [float("nan"), {-math.inf: math.inf}],
    [IntKind.A] * 16, {str(i): IntKind.A for i in range(16)}, [Text("q\n")] * 16, {Text(i): Text("v") for i in "abcdefghijklmnop"},
], ids=repr)
def test_canonical_json_handles_subclasses_and_empty_containers(value):
    assert runner.canonical_json(value) == json_dumps_text(value)


@pytest.mark.parametrize("value", [
    np.int64(1), Fraction(1, 2), {1}, {"a": 1, 1: 2}, {(1,): 1}, [{"a": [np.float32(1)]}],
    {"x": np.bool_(True)}, pytest.param([object()], id="[object()]"),
], ids=repr)
def test_canonical_json_refuses_what_json_dumps_refuses(value):
    with pytest.raises(TypeError):
        json_dumps_text(value)
    with pytest.raises(TypeError):
        runner.canonical_json(value)


def test_canonical_json_refuses_a_container_inside_itself():
    loop = [1]
    loop.append({"again": loop})
    with pytest.raises(ValueError, match="Circular reference"):
        runner.canonical_json(loop)
    shared = {"x": [1]}
    assert runner.canonical_json([shared, shared]) == json_dumps_text([shared, shared])


def deep_note_config(levels):
    """A config whose "note" holds `levels` nested dicts: (file text, value)."""
    text = '{"analyses": [], "functions": [], "note": ' + '{"note": ' * levels + '"deep"' + "}" * (levels + 1)
    note = "deep"
    for _ in range(levels):
        note = {"note": note}
    return text, {"analyses": [], "functions": [], "note": note}


def test_cli_experiment_echoes_the_deepest_config_it_reads(tmp_path):
    # run_experiment echoes the whole config, so the encoder meets every
    # depth that read_json lets through
    path = tmp_path / "deep.json"

    def reads(levels):
        path.write_text(deep_note_config(levels)[0])
        code, err = run_on_file(["experiment", "{}"], path)
        assert code == 0 or "nested too deeply" in err, err
        return code == 0

    lo, hi = 1, 2
    while reads(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if reads(mid) else (lo, mid)
    text, config = deep_note_config(lo)
    path.write_text(text)
    report = {"version": runner.VERSION, "config": {**config, "max_n": spectral.MAX_TABLE_DIMENSION}, "results": []}
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 2 * lo)  # json.dumps recurses once per level
    try:
        expected = json_dumps_text(report).encode()
    finally:
        sys.setrecursionlimit(limit)
    out = tmp_path / "in-process.json"
    code, err = run_on_file(["experiment", "{}", "-o", str(out)], path)
    assert code == 0 and "Traceback" not in err
    assert out.read_bytes() == expected
    out = tmp_path / "cli.json"
    run = subprocess.run(
        [sys.executable, "-m", "parityfold.cli", "experiment", str(path), "-o", str(out)],
        capture_output=True, text=True,
    )
    assert run.returncode == 0 and "Traceback" not in run.stderr, run.stderr
    assert out.read_bytes() == expected


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 6) | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=3), inner, max_size=5),
    max_leaves=25,
)


def shaped(*keys):
    """Objects with the readers' keys, each holding a small integer or any value."""
    return st.fixed_dictionaries({key: st.integers(-1, 4) | JSON_VALUES for key in keys})


def some(strategy):
    return st.lists(strategy | JSON_VALUES, max_size=6) | JSON_VALUES


# arbitrary JSON, plus values shaped like each file kind so that the drawn
# files also reach the checks behind the first shape check
TREE_NODES = st.recursive(
    shaped("leaf"),
    lambda inner: st.fixed_dictionaries({"query": st.integers(-1, 4), "pos": inner | JSON_VALUES, "neg": inner}),
    max_leaves=6,
)
# experiment configs; a family's n stays at most 3, also where an older
# reader coerced it with int(), so every op is cheap
FAMILY_ENTRIES = st.fixed_dictionaries({
    "family": st.sampled_from(["parity", "conjunction"]) | JSON_VALUES,
    "mask": st.integers(0, 3) | st.integers(-1, 8) | JSON_VALUES,
    "n": st.integers(2, 3) | st.sampled_from([-1, 0, 1, None, True, 2.0, "2", "x", [2]]),
})
ANALYSES = st.sampled_from([
    {"op": "analyze"},
    {"op": "fold"},
    {"op": "verify", "check": "parseval"},
    {"op": "pdt", "strategy": "greedy-min-bucket"},
    {"op": "pdt"},
    {"op": "mc", "kind": "warmup", "trials": 2},
]) | st.fixed_dictionaries({"op": st.sampled_from(sorted(runner.OPS)) | JSON_VALUES})
CONFIGS = st.fixed_dictionaries(
    {
        "functions": st.lists(FAMILY_ENTRIES, min_size=1, max_size=3) | some(FAMILY_ENTRIES),
        "analyses": st.lists(ANALYSES, min_size=1, max_size=4) | some(ANALYSES),
    },
    optional={"seed": st.integers(-1, 4) | JSON_VALUES, "max_n": st.integers(-1, 4) | JSON_VALUES},
)
FILE_VALUES = st.one_of(
    JSON_VALUES,
    CONFIGS,
    st.fixed_dictionaries({"n": st.integers(-1, 3) | JSON_VALUES, "values": some(st.sampled_from([1, -1]))}),
    st.fixed_dictionaries({"n": st.integers(-1, 3) | JSON_VALUES, "coeffs": some(shaped("mask", "num"))}),
    st.fixed_dictionaries({"n": st.integers(-1, 3) | JSON_VALUES, "root": TREE_NODES | JSON_VALUES}),
    some(shaped("mask", "bit")),
)


@pytest.mark.parametrize("command", list(FILE_COMMANDS))
@given(value=FILE_VALUES)
@settings(max_examples=100, deadline=None)
def test_cli_never_tracebacks_on_any_json_value(tmp_path_factory, command, value):
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(value))
    code, err = run_on_file(FILE_COMMANDS[command], path)
    assert code in (0, 1, 2)
    assert "Traceback" not in err


def json_syntax_error(text):
    """`read_json`'s words for a JSON syntax error in text, after the path."""
    with pytest.raises(json.JSONDecodeError) as raised:
        json.loads(text)
    return f"line {raised.value.lineno} column {raised.value.colno}: {raised.value.msg}"


# a truncated file of each kind that a command reads: (its text, the
# command, with FILE for the file's path)
TRUNCATED_FILES = {
    "truth-table": ('{"n": 1, "values": [1, -1', ["analyze", "FILE"]),
    "spectrum": ('{"n": 1, "coeffs": [{"mask": 1, "num": 2}', ["analyze", "FILE"]),
    "tree": ('{"n": 1, "root": {"leaf": 1}', ["pdt", "depth", "FILE"]),
    "restrict": ('[{"mask": 3, "bit": 1}', ["analyze", "addressing:k=16", "--restrict", "FILE"]),
}


@pytest.mark.parametrize("kind", sorted(TRUNCATED_FILES))
def test_a_json_syntax_error_names_its_file(tmp_path, capsys, kind):
    text, argv = TRUNCATED_FILES[kind]
    path = tmp_path / f"{kind}.json"
    path.write_text(text)
    assert main([str(path) if arg == "FILE" else arg for arg in argv]) == USAGE_ERROR
    assert capsys.readouterr() == ("", f"error: {path}: {json_syntax_error(text)}\n")


def test_a_json_syntax_error_in_a_path_entry_names_its_file(tmp_path, capsys):
    text = TRUNCATED_FILES["truth-table"][0]
    (tmp_path / "table.json").write_text(text)
    config = make_config(tmp_path, {"functions": [{"path": "table.json"}], "analyses": [{"op": "analyze"}]})
    assert main(["experiment", str(config)]) == USAGE_ERROR
    assert capsys.readouterr() == ("", f"error: {tmp_path / 'table.json'}: {json_syntax_error(text)}\n")


def test_a_config_syntax_error_keeps_its_words(tmp_path, capsys):
    text = '{"functions": [{"family": "addressing", "k": 16}'
    path = tmp_path / "config.json"
    path.write_text(text)
    message = f"{path}: {json_syntax_error(text)}"
    with pytest.raises(ConfigError) as refused:
        load_config(path)
    assert str(refused.value) == message
    assert main(["experiment", str(path)]) == USAGE_ERROR
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("argv, item, source", [
    (["analyze", "addressing:k=abc"], "k=abc", "addressing:k=abc"),
    (["gen", "random", "n=x"], "n=x", "gen random"),
    (["gen", "junta", "masks=1,x", "n=2"], "masks=1,x", "gen junta"),
])
def test_a_family_parameter_that_is_not_an_integer_is_a_usage_error(monkeypatch, capsys, argv, item, source):
    monkeypatch.setattr(runner, "build_function", lambda spec: pytest.fail("a function was built"))
    assert main(argv) == USAGE_ERROR
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: bad parameter {item!r} in {source!r}; ")


@pytest.mark.parametrize("argv", [
    ["gen", "addressing", "k=4", "--inner", "nonexistent.json"],
    ["gen", "random", "n=3", "--inner", "nonexistent.json"],
    ["gen", "junta", "masks=1", "n=1"],
])
def test_gen_takes_inner_with_junta_alone(monkeypatch, capsys, argv):
    monkeypatch.setattr(runner, "build_function", lambda spec: pytest.fail("a function was built"))
    assert main(argv) == USAGE_ERROR
    assert capsys.readouterr() == ("", "error: gen junta requires --inner FILE, and no other family reads it\n")
