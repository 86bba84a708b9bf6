"""The runner's op table: one home for every op parameter's parser and
default, shared by experiment configs and the CLI op subcommands."""

import importlib
import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from parityfold import runner
from parityfold.cli import USAGE_ERROR, function_entry, main
from parityfold.folding import SparsityTooSmallError
from parityfold.gf2 import DimensionMismatchError
from parityfold.params import STRATEGIES, BuildConfig
from parityfold.pdt import NotFoldingError
from parityfold.restriction import InconsistentConstraintsError
from parityfold.runner import ConfigError, run_experiment

FUNCTION = "addressing:k=16"
ENTRY = {"family": "addressing", "k": 16}
SYSTEM = [{"mask": 3, "bit": 1}, {"mask": 12, "bit": 0}]  # a constraint list; the CLI reads it from system.json

# each op subcommand with only its required arguments, and the analysis
# that names the same op in a config; analyze-restrict adds a param whose
# flag names a file
SUBCOMMANDS = {
    "analyze": (["analyze", FUNCTION], {"op": "analyze"}),
    "analyze-restrict": (["analyze", FUNCTION, "--restrict", "system.json"], {"op": "analyze", "restrict": SYSTEM}),
    "fold": (["fold", FUNCTION], {"op": "fold"}),
    "verify": (["verify", "parseval", FUNCTION], {"op": "verify", "check": "parseval"}),
    "pdt": (["pdt", "build", FUNCTION], {"op": "pdt"}),
    "mc": (["mc", "warmup", FUNCTION], {"op": "mc", "kind": "warmup"}),
}


def cli(argv):
    """(exit code, stdout, stderr) of main(argv); argparse's exits included."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def experiment(tmp_path, analysis, seed=0):
    """(exit code, stderr) of the experiment command on one analysis."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seed": seed, "functions": [ENTRY], "analyses": [analysis]}))
    code, _, err = cli(["experiment", str(path), "-o", str(tmp_path / "report.json")])
    return code, err


def test_the_table_covers_every_subcommand():
    assert set(runner.OPS) <= set(SUBCOMMANDS)
    assert {analysis["op"] for _, analysis in SUBCOMMANDS.values()} == set(runner.OPS)


@pytest.mark.parametrize("op", sorted(runner.OPS))
def test_every_op_refuses_an_unknown_key(tmp_path, op):
    argv, analysis = SUBCOMMANDS[op]
    with pytest.raises(ConfigError, match=f"{op}: unknown parameter 'bogus_key'"):
        run_experiment({"functions": [ENTRY], "analyses": [{**analysis, "bogus_key": 1}]})
    code, err = experiment(tmp_path, {**analysis, "bogus_key": 1})
    assert code == USAGE_ERROR and "'bogus_key'" in err
    code, out, err = cli(argv + ["--bogus-key", "1"])
    assert code == USAGE_ERROR and "--bogus-key" in err and out == ""


@pytest.mark.parametrize("case", sorted(SUBCOMMANDS))
def test_a_subcommand_prints_the_block_its_op_writes_in_a_config(tmp_path, monkeypatch, case):
    argv, analysis = SUBCOMMANDS[case]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "system.json").write_text(json.dumps(SYSTEM))
    code, out, _ = cli(["--seed", "3", "--json"] + argv)
    assert code == 0
    report = run_experiment({"seed": 3, "functions": [ENTRY], "analyses": [analysis]})
    expected = json.loads(report.to_json())["results"][0]["analyses"][0]["result"]
    assert json.loads(out)[analysis["op"]] == expected


def test_mc_runs_the_table_default_of_trials():
    code, out, _ = cli(["--json", "mc", "warmup", "inner-product:m=2"])
    assert code == 0
    assert json.loads(out)["mc"]["stats"]["trials"] == runner.OPS["mc"][1]["trials"][1] == 100


def test_help_shows_the_table_defaults():
    code, out, _ = cli(["mc", "--help"])
    assert code == 0 and "default 100" in out
    code, out, _ = cli(["fold", "--help"])
    assert code == 0 and "default 1/2" in out
    code, out, _ = cli(["pdt", "build", "--help"])
    assert code == 0 and all(f"default {text}" in out for text in ("sampling", "64", "1/2"))


def test_pdt_defaults_are_build_configs_own():
    assert runner.op_params("pdt", {}, 5) == BuildConfig(seed=5)


# (config analysis, subcommand argv, the key the error names)
TYPOS = [
    ({"op": "pdt", "stratgy": "greedy-min-bucket"}, ["pdt", "build", FUNCTION, "--stratgy", "greedy-min-bucket"], "stratgy"),
    ({"op": "mc", "kind": "warmup", "trial": 5}, ["mc", "warmup", FUNCTION, "--trial", "5"], "trial"),
    ({"op": "fold", "elll": "1/4"}, ["fold", FUNCTION, "--elll", "1/4"], "elll"),
]


@pytest.mark.parametrize("analysis, argv, key", TYPOS, ids=["pdt", "mc", "fold"])
def test_a_misspelt_key_is_a_usage_error_that_names_it(tmp_path, analysis, argv, key):
    code, err = experiment(tmp_path, analysis)
    assert code == USAGE_ERROR and repr(key) in err and "Traceback" not in err
    code, out, err = cli(argv)
    assert code == USAGE_ERROR and f"--{key}" in err and out == ""


# parameters the chosen strategy or kind does not read
INAPPLICABLE = [
    ({"op": "pdt", "strategy": "folding-sampling", "delta": "1/5"},
     ["pdt", "build", FUNCTION, "--strategy", "folding-sampling", "--delta", "1/5"], "together"),
    ({"op": "pdt", "strategy": "folding-sampling", "ell": "1/2"},
     ["pdt", "build", FUNCTION, "--strategy", "folding-sampling", "--ell", "1/2"], "together"),
    ({"op": "pdt", "strategy": "sampling", "delta": "1/5", "ell": "1/2"},
     ["pdt", "build", FUNCTION, "--strategy", "sampling", "--delta", "1/5", "--ell", "1/2"], "takes neither"),
    ({"op": "pdt", "delta": "1/5", "ell": "1/2"},
     ["pdt", "build", FUNCTION, "--delta", "1/5", "--ell", "1/2"], "takes neither"),
    ({"op": "pdt", "strategy": "greedy-min-bucket", "probability": "1/4"},
     ["pdt", "build", FUNCTION, "--strategy", "greedy-min-bucket", "--probability", "1/4"], "no probability"),
    ({"op": "pdt", "strategy": "max-coefficient", "probability": "1/4"},
     ["pdt", "build", FUNCTION, "--strategy", "max-coefficient", "--probability", "1/4"], "no probability"),
    ({"op": "pdt", "strategy": "folding-sampling", "probability": "1/4", "delta": "1/5", "ell": "1/2"},
     ["pdt", "build", FUNCTION, "--strategy", "folding-sampling", "--probability", "1/4",
      "--delta", "1/5", "--ell", "1/2"], "one or the other"),
    ({"op": "mc", "kind": "warmup", "p": "1/4"},
     ["mc", "warmup", FUNCTION, "--p", "1/4"], "mc warmup does not read 'p'"),
    ({"op": "mc", "kind": "theorem-2", "p": "1/4"},
     ["mc", "theorem-2", FUNCTION, "--p", "1/4"], "mc theorem-2 does not read 'p'"),
    ({"op": "mc", "kind": "theorem-1", "p": "1/4", "delta": 1},
     ["mc", "theorem-1", FUNCTION, "--p", "1/4", "--delta", "1"], "mc theorem-1 does not read 'delta'"),
    ({"op": "mc", "kind": "warmup", "ell": 0},
     ["mc", "warmup", FUNCTION, "--ell", "0"], "mc warmup does not read 'ell'"),
    ({"op": "fold", "pairs": "no"}, None, "pairs must be true or false"),
    ({"op": "fold", "pairs": 1}, None, "pairs must be true or false"),
    ({"op": "verify"}, None, "verify: missing parameter 'check'"),
    ({"op": "mc"}, None, "mc: missing parameter 'kind'"),
    ({"op": "verify", "check": 5}, None, "check must be a string"),
]


INAPPLICABLE_IDS = [
    "folding-delta-alone", "folding-ell-alone", "sampling-delta-ell", "default-strategy-delta-ell",
    "greedy-probability", "max-coefficient-probability", "folding-probability-and-schedule",
    "warmup-p", "theorem-2-p", "theorem-1-delta", "warmup-ell", "pairs-string", "pairs-number",
    "verify-no-check", "mc-no-kind", "check-number",
]


@pytest.mark.parametrize("analysis, argv, message", INAPPLICABLE, ids=INAPPLICABLE_IDS)
def test_a_parameter_no_one_reads_is_refused(tmp_path, analysis, argv, message):
    code, err = experiment(tmp_path, analysis)
    assert code == USAGE_ERROR and message in err and "Traceback" not in err
    if argv is not None:
        code, out, err = cli(argv)
        assert code == USAGE_ERROR and message in err and out == ""


def test_build_config_refuses_what_its_strategy_does_not_read():
    for strategy in ("sampling", "max-coefficient", "greedy-min-bucket"):
        with pytest.raises(ValueError, match="takes neither"):
            BuildConfig(strategy=strategy, delta=Fraction(1, 5), ell=Fraction(1, 2))
    for strategy in ("max-coefficient", "greedy-min-bucket"):
        with pytest.raises(ValueError, match="no probability"):
            BuildConfig(strategy=strategy, probability=0.25)
    for half in ({"delta": Fraction(1, 5)}, {"ell": Fraction(1, 2)}):
        with pytest.raises(ValueError, match="together"):
            BuildConfig(strategy="folding-sampling", **half)
    # what each strategy does read is still accepted
    BuildConfig(strategy="sampling", probability=0.25)
    BuildConfig(strategy="folding-sampling", probability=0.25)
    BuildConfig(strategy="folding-sampling", delta=Fraction(1, 5), ell=Fraction(1, 2))


@pytest.mark.parametrize("pairs", [True, False])
def test_fold_pairs_takes_a_json_bool(pairs):
    report = run_experiment({"functions": [{"family": "conjunction", "mask": 3, "n": 2}],
                             "analyses": [{"op": "fold", "pairs": pairs}]})
    profile = report.results[0]["analyses"][0]["result"]["profile"]
    assert ("pairs" in profile) is pairs


# analyses that no function can run, and the words of each refusal
REFUSED = {
    "fold-elll": ({"op": "fold", "elll": 1}, "unknown parameter 'elll'"),
    "verify-check": ({"op": "verify", "check": "three-folds"}, "unknown verify check 'three-folds'; pick from"),
    "mc-kind": ({"op": "mc", "kind": "warmp"}, "unknown mc kind 'warmp'; pick from theorem-1, warmup, theorem-2"),
    # the kind is checked before the params it reads
    "mc-kind-with-p": ({"op": "mc", "kind": "warmp", "p": "1/4"}, "unknown mc kind 'warmp'"),
    "pdt-strategy": ({"op": "pdt", "strategy": "greedy"}, "unknown pdt strategy 'greedy'"),
    "pdt-resample-cap": ({"op": "pdt", "resample_cap": 0}, "resample cap must be >= 1"),
    "pdt-seed": ({"op": "pdt", "seed": -1}, "seed must be >= 0, got -1"),
    "pdt-sampling-delta-ell": ({"op": "pdt", "strategy": "sampling", "delta": "1/5", "ell": "1/2"}, "takes neither"),
    "fold-ell": ({"op": "fold", "ell": 2}, "exponent must be <= 1"),
    "mc-trials": ({"op": "mc", "kind": "warmup", "trials": 0}, "need at least one trial"),
    "mc-seed": ({"op": "mc", "kind": "warmup", "seed": -1}, "seed must be >= 0, got -1"),
    "mc-p": ({"op": "mc", "kind": "theorem-1", "p": "3/2"}, "probability must lie in [0, 1], got 3/2"),
    # a malformed value names the op and the key
    "mc-trials-string": ({"op": "mc", "kind": "warmup", "trials": "5"}, "mc trials must be an integer, got '5'"),
    "fold-pairs-string": ({"op": "fold", "pairs": "no"}, "fold pairs must be true or false, got str"),
    "verify-check-number": ({"op": "verify", "check": 5}, "verify check must be a string, got int"),
    "mc-p-fraction": ({"op": "mc", "kind": "theorem-1", "p": "1/x"}, "mc p: bad fraction '1/x'"),
    # fold's delta lies in (0, 1], as pdt's and mc's do
    "fold-delta-negative": ({"op": "fold", "delta": "-1"}, "delta must lie in (0, 1], got -1"),
    "fold-delta-zero": ({"op": "fold", "delta": "0"}, "delta must lie in (0, 1], got 0"),
    "fold-delta-above-one": ({"op": "fold", "delta": "5"}, "delta must lie in (0, 1], got 5"),
    # a constraint list is [{"mask": m >= 0, "bit": 0 or 1}, ...]
    "restrict-not-a-list": ({"op": "analyze", "restrict": 3}, "analyze restrict must be an array, got int"),
    "restrict-no-mask": ({"op": "analyze", "restrict": [{"bit": 1}]}, "analyze restrict constraint: missing parameter 'mask'"),
    "restrict-bit-2": ({"op": "analyze", "restrict": [{"mask": 1, "bit": 2}]}, "bit 0 or 1, got {'mask': 1, 'bit': 2}"),
    "restrict-bool-mask": ({"op": "analyze", "restrict": [{"mask": True, "bit": 1}]},
                           "analyze restrict constraint mask must be an integer, got True"),
    "restrict-negative-mask": ({"op": "analyze", "restrict": [{"mask": -1, "bit": 1}]},
                               "mask must be >= 0 and bit 0 or 1, got {'mask': -1, 'bit': 1}"),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_analyses_are_refused_before_any_function_is_built(tmp_path, monkeypatch, case):
    analysis, message = REFUSED[case]

    def never(*args):
        raise AssertionError("a function was built")

    monkeypatch.setattr(runner, "build_function", never)
    with pytest.raises(ConfigError) as refused:
        run_experiment({"functions": [ENTRY], "analyses": [{"op": "analyze"}, analysis]})
    assert message in str(refused.value)
    code, err = experiment(tmp_path, analysis)
    assert code == USAGE_ERROR and message in err and "Traceback" not in err


RESTRICT_ARGV = ["analyze", FUNCTION, "--restrict", "system.json"]  # system.json holds the case's restrict
# each REFUSED case on its subcommand; argparse refuses the values that
# have no flag form (a JSON string for an integer, a bool flag's value,
# an unknown choice) on its own
REFUSED_ARGV = {
    "fold-elll": ["fold", FUNCTION, "--elll", "1"],
    "verify-check": ["verify", "three-folds", FUNCTION],
    "mc-kind": ["mc", "warmp", FUNCTION],
    "mc-kind-with-p": ["mc", "warmp", FUNCTION, "--p", "1/4"],
    "pdt-strategy": ["pdt", "build", FUNCTION, "--strategy", "greedy"],
    "pdt-resample-cap": ["pdt", "build", FUNCTION, "--resample-cap", "0"],
    "pdt-seed": ["--seed", "-1", "pdt", "build", FUNCTION],
    "pdt-sampling-delta-ell": ["pdt", "build", FUNCTION, "--strategy", "sampling", "--delta", "1/5", "--ell", "1/2"],
    "fold-ell": ["fold", FUNCTION, "--ell", "2"],
    "mc-trials": ["mc", "warmup", FUNCTION, "--trials", "0"],
    "mc-seed": ["--seed", "-1", "mc", "warmup", FUNCTION],
    "mc-p": ["mc", "theorem-1", FUNCTION, "--p", "3/2"],
    "mc-trials-string": ["mc", "warmup", FUNCTION, "--trials", "five"],
    "fold-pairs-string": ["fold", FUNCTION, "--pairs", "no"],
    "verify-check-number": ["verify", "5", FUNCTION],
    "mc-p-fraction": ["mc", "theorem-1", FUNCTION, "--p", "1/x"],
    "fold-delta-negative": ["fold", FUNCTION, "--delta", "-1"],
    "fold-delta-zero": ["fold", FUNCTION, "--delta", "0"],
    "fold-delta-above-one": ["fold", "random:n=20,seed=1", "--delta", "5"],
    "restrict-not-a-list": RESTRICT_ARGV,
    "restrict-no-mask": RESTRICT_ARGV,
    "restrict-bit-2": RESTRICT_ARGV,
    "restrict-bool-mask": RESTRICT_ARGV,
    "restrict-negative-mask": RESTRICT_ARGV,
}


def test_every_refused_analysis_has_a_subcommand_form():
    assert set(REFUSED_ARGV) == set(REFUSED)


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_subcommands_refuse_before_any_function_is_built(tmp_path, monkeypatch, case):
    analysis, message = REFUSED[case]

    def never(*args):
        raise AssertionError("a function was built")

    monkeypatch.setattr(runner, "build_function", never)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "system.json").write_text(json.dumps(analysis.get("restrict")))
    code, out, err = cli(REFUSED_ARGV[case])
    assert code == USAGE_ERROR and out == "" and "Traceback" not in err
    assert message in err or err.startswith("usage:")  # argparse's own refusal names the flag instead

# constraint lists that parse but that only the function's n (6 for
# addressing k = 16) can refuse, and the words of each refusal
UNRESTRICTABLE = {
    "mask-outside-n": ([{"mask": 1 << 6, "bit": 1}], "mask 0x40 does not fit in 6 bits"),
    "inconsistent": ([{"mask": 3, "bit": 0}, {"mask": 5, "bit": 0}, {"mask": 6, "bit": 1}], "forces 0 = 1"),
}


@pytest.mark.parametrize("case", sorted(UNRESTRICTABLE))
def test_a_system_the_function_refuses_is_a_usage_error(tmp_path, case):
    system, message = UNRESTRICTABLE[case]
    code, err = experiment(tmp_path, {"op": "analyze", "restrict": system})
    assert code == USAGE_ERROR and message in err and "Traceback" not in err
    path = tmp_path / "system.json"
    path.write_text(json.dumps(system))
    code, out, err = cli(["analyze", FUNCTION, "--restrict", str(path)])
    assert code == USAGE_ERROR and message in err and out == ""


# the refusals that depend on the function, each as the README lists it:
# (function, analysis, error type, the start of its message).  A plain
# ValueError is named in the README by its message, a subclass by its name
SPARSITY_1 = {"family": "parity", "mask": 3, "n": 3}
OVER_4096 = {"family": "random", "n": 13, "seed": 1}
FUNCTION_REFUSALS = {
    "restrict-mask-outside-n": (ENTRY, {"op": "analyze", "restrict": UNRESTRICTABLE["mask-outside-n"][0]},
                                DimensionMismatchError, "mask 0x40 does not fit in 6 bits"),
    "restrict-inconsistent": (ENTRY, {"op": "analyze", "restrict": UNRESTRICTABLE["inconsistent"][0]},
                              InconsistentConstraintsError, "constraint system forces 0 = 1"),
    "mc-theorem-1-sparsity": (SPARSITY_1, {"op": "mc", "kind": "theorem-1", "p": "1/2"}, ValueError, "need sparsity >= 4"),
    "mc-warmup-sparsity": (SPARSITY_1, {"op": "mc", "kind": "warmup"}, ValueError, "need sparsity >= 2"),
    **{
        f"{name}-sparsity-1": (SPARSITY_1, analysis, ValueError, "need at least 2 support elements, got 1")
        for name, analysis in [
            ("fold", {"op": "fold"}),
            ("pair-condition", {"op": "verify", "check": "pair-condition"}),
            ("single-direction", {"op": "verify", "check": "single-direction"}),
            ("mc-theorem-2", {"op": "mc", "kind": "theorem-2"}),
        ]
    },
    **{
        f"{name}-over-4096": (OVER_4096, analysis, ValueError, "pair lists disabled for k > 4096")
        for name, analysis in [
            ("fold-pairs", {"op": "fold", "pairs": True}),
            ("sign-feasibility", {"op": "verify", "check": "sign-feasibility"}),
        ]
    },
    "not-folding": (ENTRY, {"op": "mc", "kind": "theorem-2", "delta": 1, "ell": "1/2"}, NotFoldingError,
                    "support achieves delta = "),
    "three-fold-sparsity": ({"family": "addressing", "k": 4}, {"op": "verify", "check": "three-fold"},
                            SparsityTooSmallError, "k = 4 <= 4; the three-fold guarantee needs k > 4"),
}


@pytest.mark.parametrize("case", sorted(FUNCTION_REFUSALS))
def test_each_function_refusal_the_readme_lists(case):
    entry, analysis, error, message = FUNCTION_REFUSALS[case]
    with pytest.raises(ValueError, match="^" + re.escape(message)) as caught:  # a ValueError is exit 2
        run_experiment({"functions": [entry], "analyses": [analysis]})
    assert caught.type is error
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    listed = readme.split("Seven refusals depend on the function", 1)[1].split("\n\n")[1]  # the list after its intro
    assert f"`{message if error is ValueError else error.__name__}`" in " ".join(listed.split())


def test_the_choices_are_the_dispatch_tables_keys():
    declared = {op: params for op, (_, params) in runner.OPS.items()}
    assert declared["verify"]["check"][0] is runner.VERIFY_CHECKS
    assert declared["mc"]["kind"][0] is runner.MC_KINDS
    assert declared["pdt"]["strategy"][0] is STRATEGIES
    # every kind tag names a kind
    tags = {kind for params in declared.values() for _, _, *kinds in params.values() for kind in kinds}
    assert tags <= set(runner.MC_KINDS)
    # the CLI offers the same choices
    for argv, choices in ((["verify", "three-folds", FUNCTION], list(runner.VERIFY_CHECKS)),
                          (["mc", "warmp", FUNCTION], list(runner.MC_KINDS)),
                          (["pdt", "build", FUNCTION, "--strategy", "greedy"], list(STRATEGIES))):
        code, out, err = cli(argv)
        assert code == USAGE_ERROR and out == ""
        assert "(choose from " + ", ".join(map(repr, choices)) + ")" in err


# each dispatched call, by the module attribute that bench/tracing.py swaps
DISPATCHED = [
    ({"op": "verify", "check": "pair-condition"}, "folding", "check_pair_condition"),
    ({"op": "verify", "check": "three-fold"}, "folding", "verify_three_fold"),
    ({"op": "verify", "check": "single-direction"}, "folding", "single_direction_structure"),
    ({"op": "verify", "check": "sign-feasibility"}, "folding", "sign_feasibility"),
    ({"op": "verify", "check": "titsworth"}, "spectral", "verify_titsworth"),
    ({"op": "verify", "check": "parseval"}, "spectral", "verify_parseval"),
    ({"op": "mc", "kind": "theorem-1", "p": "1/4"}, "pdt", "estimate_bucket_reduction"),
    ({"op": "mc", "kind": "warmup"}, "pdt", "warmup_success_rate"),
    ({"op": "mc", "kind": "theorem-2"}, "pdt", "folding_sampling_trial"),
]


@pytest.mark.parametrize("analysis, module, attr", DISPATCHED, ids=[f"{m}.{a}" for _, m, a in DISPATCHED])
def test_dispatch_calls_the_library_through_its_module_attribute(monkeypatch, analysis, module, attr):
    class Called(Exception):
        pass

    def swapped(*args):
        raise Called

    monkeypatch.setattr(importlib.import_module(f"parityfold.{module}"), attr, swapped)
    with pytest.raises(Called):
        run_experiment({"functions": [ENTRY], "analyses": [analysis]})


@pytest.mark.parametrize("argv, key", [
    (["analyze", "parity:mask=1,n=1,n=2"], "n"),
    (["analyze", "addressing:k=16,k=64"], "k"),
    (["gen", "addressing", "k=16", "k=64"], "k"),
    (["gen", "junta", "masks=1", "masks=2", "n=2", "--inner", "x.json"], "masks"),
])
def test_a_repeated_family_parameter_is_refused(argv, key):
    code, out, err = cli(argv)
    assert code == USAGE_ERROR and f"parameter {key!r} given twice" in err and out == ""


def test_function_expressions_and_gen_share_one_parser():
    assert function_entry("parity:mask=1,n=2,") == {"family": "parity", "mask": 1, "n": 2}
    for text in ("parity:mask,n=2", "parity:=1", "parity:mask=x"):
        with pytest.raises(ValueError):
            function_entry(text)


def test_an_inconsistent_system_is_refused_before_any_function_is_built(tmp_path, monkeypatch):
    # whether a system is consistent does not depend on n, so op_params
    # refuses it before the n = 18 table is built
    def never(*args):
        raise AssertionError("a function was built")

    monkeypatch.setattr(runner, "build_function", never)
    system = [{"mask": 3, "bit": 1}, {"mask": 3, "bit": 0}]
    config = {"functions": [{"family": "random", "n": 18, "seed": 1}, ENTRY],
              "analyses": [{"op": "fold"}, {"op": "analyze", "restrict": system}]}
    with pytest.raises(InconsistentConstraintsError, match="^constraint system forces 0 = 1$"):
        run_experiment(config)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, out, err = cli(["experiment", str(path)])
    assert (code, out, err) == (USAGE_ERROR, "", "error: constraint system forces 0 = 1\n")
    (tmp_path / "system.json").write_text(json.dumps(system))
    code, out, err = cli(["analyze", "random:n=18,seed=1", "--restrict", str(tmp_path / "system.json")])
    assert (code, out, err) == (USAGE_ERROR, "", "error: constraint system forces 0 = 1\n")
