import json
import subprocess
import sys

import pytest

from parityfold.cli import main
from parityfold.runner import ConfigError, load_config, run_experiment


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
