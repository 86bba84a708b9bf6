import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from parityfold import pdt, runner, spectral
from parityfold.cli import USAGE_ERROR, main
from parityfold.families import gen_inner_product
from parityfold.runner import ConfigError, load_config, run_experiment
from parityfold.spectral import spectrum_to_dict, wht


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
    with pytest.raises(ConfigError):
        run_experiment({"functions": [{"family": "random", "n": 3, "seed": 0}],
                        "analyses": [{"op": "nope"}]})


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


def test_cli_verify_exit_codes(capsys):
    assert run_cli("verify", "three-fold", "addressing:k=16") == 0
    assert run_cli("verify", "counterexample", "--n", "5") == 0
    # a sparsity-4 function fails the three-fold precondition -> usage error
    assert run_cli("verify", "three-fold", "conjunction:mask=3,n=2") == 2
    assert run_cli("verify", "pair-condition") == 2  # missing function
    capsys.readouterr()


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


def test_cli_mc_theorem2_rejects_non_folding(capsys):
    code = run_cli(
        "mc", "theorem-2", "addressing:k=16", "--delta", "1", "--ell", "1/2"
    )
    assert code == 2
    capsys.readouterr()


def test_cli_max_n_guard(capsys):
    assert run_cli("--max-n", "4", "analyze", "addressing:k=16") == 2
    capsys.readouterr()


def test_cli_max_n_guard_comes_before_inverting_a_spectrum_file(tmp_path, monkeypatch, capsys):
    # inverse_wht allocates 2^n entries, so a refused file must not reach it
    def refuse(spectrum):
        raise RuntimeError("inverted a spectrum above max_n")

    monkeypatch.setattr(spectral, "inverse_wht", refuse)
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"n": 21, "coeffs": [{"mask": 0, "num": 1 << 21}]}))
    assert main(["analyze", str(path)]) == USAGE_ERROR
    assert "exceeds max_n" in capsys.readouterr().err


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
    payload = json.loads(capsys.readouterr().out)
    # fixing x1 = 1 collapses the conjunction to a single character
    assert payload["restrict"]["restricted_sparsity"] == 1
    assert payload["restrict"]["restricted_support"] == [2]
    assert payload["restrict"]["bucket_report"]["bucket_count"] == 2


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
# recordings, the one intended difference.
GOLDEN_FIXTURES = {
    "system.json": json.dumps([{"mask": 3, "bit": 1}, {"mask": 12, "bit": 0}]),
    "spectrum.json": json.dumps(spectrum_to_dict(wht(gen_inner_product(2)))),
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
    **{
        f"verify-{check}": [["verify", check, "addressing:k=16"]]
        for check in ("pair-condition", "three-fold", "single-direction",
                      "sign-feasibility", "titsworth", "parseval")
    },
    "verify-counterexample": [["verify", "counterexample", "--n", "5"]],
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
    "error-missing-function": [["verify", "pair-condition"]],
    "error-sparsity-too-small": [["verify", "three-fold", "conjunction:mask=3,n=2"]],
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
                code = main((["--json"] if json_mode else []) + argv)
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
    "analyze-restrict": ((0,), "db0947f6b98d8ffc86d2b13bbfd7c8c2c3531b03ebdc01270ba57b78b414ff9c", "6a5745d59038db41166c9ba7beb7007262c19f090dd277fcfb222ae5fd4408af"),
    "analyze-spectrum-file": ((0,), "59b9c05b07a34c00b7625c69114cb82a3600fc27f6c8248e384d746f511d99f5", "02baf4e553eb9753cd6e7f5cdd7e57062b2ecb9d7566d5a286603a119da9bb03"),
    "fold-delta": ((0,), "ffe902c4c498709b64607eb01d2fa3fd5fc20034073622b886e42276c5683967", "92bac784d2d6e9ac18c218c0e8dc9fc5367ce7fba8e44d4f4b7627f38ef0238b"),
    "fold-pairs": ((0,), "1e0bf3b7102790d9fc53608ead99aacce2a268acaa64d42fc0ab94a6796d0076", "85c01a09b7365206718fe9f0849a56241a8da92cf5dcbd0cc704b911f345320d"),
    "verify-pair-condition": ((0,), "87ed0fc19907b2cc067ede949ad8db36efaf77c140d05e36a80647501181ac7c", "8204726ebb5d960ab828fab08ed126913bcabbc5faa6b6c3390cc3603080b03c"),
    "verify-three-fold": ((0,), "d8162a01e00fc054278496d239e7b449f881e96d5cca7b227e987e945b7c19be", "d44fb2e749279e172357abdbd994d12d589c2baf6ef8b92e035ed37eff7fd3ef"),
    "verify-single-direction": ((0,), "1143b5f000e8d43a2fa108ca7606fbdb55591819115a9525dff9c7eb86e329ce", "686fed2b906713464dbf5fbf9760458e68861f868e8e86863f7981fca0bdb5b2"),
    "verify-sign-feasibility": ((0,), "c37a24ce70ea1753bd0ec592f46db75e89369fe7f79c4899b20abcd0b750b10b", "5ae1269d4147eb98899b45e33ee8f335e8dc64d8134a3add2efedf2240fe9418"),
    "verify-titsworth": ((0,), "11558296fcb20e1cca9db2ab8673b80e58e3b4558d5e50896680157eb03d3e17", "66b26ea92db31d29fa2ef929a1377b62371525ccea5ae906e5bebade4f689dcc"),
    "verify-parseval": ((0,), "b942813525f4fa3d75197d5f73f91b5571488bf0a8b2bdd135d72cc499042bba", "410fa0e47a63f72d916f4e3c8eea3a0fa4f65d7bcf9217395a7fc8b955b0b582"),
    "verify-counterexample": ((0,), "0024e0cea84a9d654e08ad93f1f5459cd09743a7d14456dfa902084a0dc3f7b6", "1a35cc42654bd511928a6b114188387cdfb700d30e0593d19f7cad637c4a8734"),
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
    "experiment": ((0,), "a9000a0a5794c6fb417f7982627666af1f25df25b1e81e7d0b2ec1b7911fedf6", "a9000a0a5794c6fb417f7982627666af1f25df25b1e81e7d0b2ec1b7911fedf6"),
    "error-missing-p": ((2,), "ef401e984f80e2ebab5a41d9a1dcf58ed3b26006168deca8677959364e0137ef", "ef401e984f80e2ebab5a41d9a1dcf58ed3b26006168deca8677959364e0137ef"),
    "error-not-folding": ((2,), "ef401e984f80e2ebab5a41d9a1dcf58ed3b26006168deca8677959364e0137ef", "ef401e984f80e2ebab5a41d9a1dcf58ed3b26006168deca8677959364e0137ef"),
    "error-max-n": ((2,), "ef401e984f80e2ebab5a41d9a1dcf58ed3b26006168deca8677959364e0137ef", "ef401e984f80e2ebab5a41d9a1dcf58ed3b26006168deca8677959364e0137ef"),
    "error-missing-function": ((2,), "ef401e984f80e2ebab5a41d9a1dcf58ed3b26006168deca8677959364e0137ef", "ef401e984f80e2ebab5a41d9a1dcf58ed3b26006168deca8677959364e0137ef"),
    "error-sparsity-too-small": ((2,), "ef401e984f80e2ebab5a41d9a1dcf58ed3b26006168deca8677959364e0137ef", "ef401e984f80e2ebab5a41d9a1dcf58ed3b26006168deca8677959364e0137ef"),
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
    with pytest.raises(ConfigError, match="mc theorem-1 requires p"):
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
        "analyses": [{"op": "pdt", "strategy": strategy} for strategy in pdt.STRATEGIES]
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
    real = runner.run_op

    def counting(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(runner, "run_op", counting)
    assert main(argv) == 0
    assert calls == [op]
    capsys.readouterr()


# File readers check the JSON shape they index into, so a malformed file is
# a usage error (exit 2) and never a traceback.
FILE_COMMANDS = {
    "analyze": ["analyze", "{}"],
    "pdt-depth": ["pdt", "depth", "{}"],
    "analyze-restrict": ["analyze", "addressing:k=4", "--restrict", "{}"],
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
FILE_VALUES = st.one_of(
    JSON_VALUES,
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
