"""Support entries: a Fourier support S with no coefficients is a corpus
entry of its own, read by `spectral.support_from_dict`, and runs the
analyses that read only the masks (`runner.MASKS_ONLY`)."""

import io
import re
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parityfold import folding, runner, spectral
from parityfold.cli import USAGE_ERROR, main
from parityfold.families import addressing_support
from parityfold.runner import ConfigError, canonical_json, run_experiment

ADDRESSING_16 = {"support": list(addressing_support(16)[0]), "n": 6}

# each analysis that reads only the masks, with a variant per param it reads
MASKS_ONLY = [
    {"op": "fold"},
    {"op": "fold", "ell": "1/4", "delta": "1/5", "pairs": True},
    {"op": "verify", "check": "pair-condition"},
    {"op": "verify", "check": "three-fold"},
    {"op": "verify", "check": "sign-feasibility"},
    {"op": "mc", "kind": "theorem-1", "p": "1/4", "trials": 4},
    {"op": "mc", "kind": "warmup", "trials": 4},
    {"op": "mc", "kind": "theorem-2", "trials": 4},
    {"op": "mc", "kind": "theorem-2", "delta": "1/5", "ell": "1/2", "trials": 4},
]

# each analysis that reads the coefficients or the table: (analysis, its
# name in the refusal, its subcommand's argv before FUNCTION)
COEFFICIENT_OPS = {
    "analyze": ({"op": "analyze"}, "analyze", ["analyze"]),
    "analyze-restrict": ({"op": "analyze", "restrict": [{"mask": 3, "bit": 1}]}, "analyze", None),
    "pdt": ({"op": "pdt", "strategy": "greedy-min-bucket"}, "pdt", ["pdt", "build"]),
    **{
        check: ({"op": "verify", "check": check}, f"verify {check}", ["verify", check])
        for check in ("single-direction", "titsworth", "parseval")
    },
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


def outcome(entry, analysis):
    """The canonical result block of analysis on entry, or its refusal's
    (type, message)."""
    try:
        report = run_experiment({"seed": 3, "functions": [entry], "analyses": [analysis]})
    except ValueError as exc:
        return type(exc), str(exc)
    return canonical_json(report.results[0]["analyses"][0]["result"]), report.results[0]["n"]


def test_every_analysis_is_masks_only_or_refused_on_a_support():
    names = {"analyze", "fold", "pdt", "mc", *(f"verify {check}" for check in runner.VERIFY_CHECKS)}
    refused = {name for _, name, _ in COEFFICIENT_OPS.values()}
    assert runner.MASKS_ONLY == names - refused
    covered = {f"verify {a['check']}" if a["op"] == "verify" else a["op"] for a in MASKS_ONLY}
    assert covered == runner.MASKS_ONLY


@settings(max_examples=40, deadline=None)
@given(n=st.integers(0, 6), seed=st.integers(0, 2**32 - 1))
def test_masks_only_analyses_read_a_support_as_they_read_its_function(n, seed):
    function = {"family": "random", "n": n, "seed": seed}
    support = {"support": spectral.wht(runner.resolve_function(function, None, n)[1]).masks.tolist(), "n": n}
    for analysis in MASKS_ONLY:
        assert outcome(support, analysis) == outcome(function, analysis), analysis


@pytest.mark.parametrize("case", sorted(COEFFICIENT_OPS))
def test_coefficient_ops_refuse_a_support_before_anything_is_built(monkeypatch, case):
    analysis, name, argv = COEFFICIENT_OPS[case]

    def never(*args):
        raise AssertionError("a function was built or transformed")

    for module, attr in ((runner, "build_function"), (runner, "load_function"), (spectral, "wht")):
        monkeypatch.setattr(module, attr, never)
    config = {"functions": [{"family": "addressing", "k": 16}, ADDRESSING_16], "analyses": [{"op": "fold"}, analysis]}
    message = f"support(k=16,n=6,sha256=6d4183421b63): {name} reads the Fourier coefficients, and a support entry has only its masks"
    with pytest.raises(ConfigError) as refused:
        run_experiment(config)
    assert str(refused.value) == message
    if argv:
        code, out, err = cli(argv + ["counterexample:n=5"])
        assert (code, out) == (USAGE_ERROR, "")
        assert err == f"error: counterexample(n=5): {name} reads the Fourier coefficients, and a support entry has only its masks\n"


# support entries the reader refuses, and the words of each refusal
BAD_SUPPORTS = {
    "float-mask": ({"support": [1, 2.0], "n": 3}, "support entry mask must be an integer, got 2.0"),
    "bool-mask": ({"support": [1, True], "n": 3}, "support entry mask must be an integer, got True"),
    "negative-mask": ({"support": [1, -1], "n": 3}, "mask -0x1 does not fit in 3 bits"),
    "mask-beyond-n": ({"support": [1, 8], "n": 3}, "mask 0x8 does not fit in 3 bits"),
    "duplicate": ({"support": [5, 1, 5], "n": 3}, "support entry: duplicate mask 5"),
    "n-above-24": ({"support": [1], "n": 25}, "dimension 25 outside [0, 24]"),
    "empty": ({"support": [], "n": 3}, "support entry: the support is empty"),
    "missing-n": ({"support": [1]}, "support entry: missing parameter 'n'"),
    "counterexample-missing-n": ({"family": "counterexample"}, "counterexample: missing parameter 'n'"),
    "unknown-key": ({"support": [1], "n": 3, "seed": 1}, "support entry: unknown parameter 'seed'; support entry reads support, n"),
    "counterexample-unknown-key": ({"family": "counterexample", "n": 5, "k": 3}, "counterexample: unknown parameter 'k'"),
    "counterexample-n": ({"family": "counterexample", "n": 4}, "construction needs 5 <= n <= 24, got 4"),
    "not-a-list": ({"support": 3, "n": 3}, "support entry support must be an array, got int"),
}


@pytest.mark.parametrize("case", sorted(BAD_SUPPORTS))
def test_the_support_reader_refuses_before_anything_is_built(monkeypatch, case):
    entry, message = BAD_SUPPORTS[case]
    if "support" in entry:
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            spectral.support_from_dict(entry)
    monkeypatch.setattr(runner, "build_function", lambda *args: pytest.fail("a function was built"))
    config = {"functions": [{"family": "addressing", "k": 16}, entry], "analyses": [{"op": "fold"}]}
    with pytest.raises(ConfigError) as refused:
        run_experiment(config)
    assert str(refused.value).startswith(message)


def test_a_support_label_names_its_masks():
    # a digest of the sorted masks, so supports of equal k and n differ
    labels = [runner.check_function({"support": masks, "n": 2}, 20)[0] for masks in ([1, 2], [2, 1], [1, 3])]
    assert labels[0] == labels[1] == "support(k=2,n=2,sha256=17f8af97ad4a)"
    assert labels[2] == "support(k=2,n=2,sha256=ef96f1f6b55a)"
    config = {"functions": [{"support": [1, 2], "n": 2}, {"support": [1, 3], "n": 2}],
              "analyses": [{"op": "verify", "check": "pair-condition"}]}
    assert [block["function"] for block in run_experiment(config).results] == [labels[0], labels[2]]


def test_a_support_is_n_and_one_sorted_read_only_mask_array():
    support = spectral.support_from_dict({"support": [25, 1, 16, 3], "n": 5})
    assert vars(support).keys() == {"n", "masks"} and support.n == 5 and support.sparsity == 4
    assert support.masks.dtype == np.int64 and support.masks.tolist() == [1, 3, 16, 25]
    assert not support.masks.flags.writeable
    label, named = runner.check_function({"family": "counterexample", "n": 9}, 4)  # max_n caps tables alone
    assert label == "counterexample(n=9)" and named.masks.tolist() == sorted(folding.counterexample_support(9))


def test_commands_that_need_a_table_refuse_a_support(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli(["--seed", "1", "pdt", "build", "addressing:k=16", "-o", "tree.json"])[0] == 0
    code, out, err = cli(["pdt", "verify", "tree.json", "counterexample:n=5"])
    assert (code, out, err) == (USAGE_ERROR, "", "error: counterexample(n=5): a support entry has no truth table\n")
    code, out, err = cli(["gen", "counterexample", "n=5"])
    assert code == USAGE_ERROR and out == "" and "invalid choice: 'counterexample'" in err
