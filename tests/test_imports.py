"""What a run imports: the package resolves its public names on first
access, and a run loads only the modules its ops use."""

import importlib
import json
import subprocess
import sys

import pytest

import parityfold

BUILDER = {"parityfold.pdt", "parityfold.restriction"}

FOLD_VERIFY_ANALYZE = {
    "functions": [{"family": "addressing", "k": 16}, {"family": "random", "n": 5, "seed": 3}],
    "analyses": [
        {"op": "fold", "delta": "1/10", "pairs": True},
        *({"op": "verify", "check": check} for check in (
            "pair-condition", "three-fold", "single-direction", "sign-feasibility", "titsworth", "parseval")),
        {"op": "analyze"},
    ],
}

# print the library modules a fresh interpreter loaded, after the statements before it
LOADED = "import json, sys; print(json.dumps(sorted(m for m in sys.modules if m.startswith('parityfold'))))"


def fresh(code: str) -> set[str]:
    """The parityfold modules loaded by code in a fresh interpreter."""
    run = subprocess.run([sys.executable, "-c", f"{code}\n{LOADED}"], capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return set(json.loads(run.stdout.splitlines()[-1]))


def cli_imports(tmp_path, config: dict) -> set[str]:
    """The parityfold modules `python -m parityfold.cli experiment` imports
    on config, read from its -X importtime lines."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    run = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "parityfold.cli", "experiment", str(path), "-o", str(tmp_path / "out.json")],
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    names = {line.rsplit("|", 1)[1].strip() for line in run.stderr.splitlines() if line.startswith("import time:")}
    return {name for name in names if name.startswith("parityfold")}


def library_imports(config: dict) -> set[str]:
    return fresh(f"from parityfold import runner; runner.run_experiment({config!r}).to_json()")


def test_importing_the_package_loads_no_module():
    assert fresh("import parityfold") == {"parityfold"}


def test_fold_verify_and_analyze_never_import_the_builder(tmp_path):
    via_library = library_imports(FOLD_VERIFY_ANALYZE)
    via_cli = cli_imports(tmp_path, FOLD_VERIFY_ANALYZE)
    assert "parityfold.folding" in via_library and "parityfold.folding" in via_cli
    assert not via_library & BUILDER and not via_cli & BUILDER


@pytest.mark.parametrize("analysis, loaded", [
    ({"op": "pdt", "strategy": "greedy-min-bucket"}, BUILDER),
    ({"op": "mc", "kind": "warmup", "trials": 3}, BUILDER),
    ({"op": "analyze", "restrict": [{"mask": 3, "bit": 1}]}, {"parityfold.restriction"}),
])
def test_the_ops_that_use_the_builder_load_it(tmp_path, analysis, loaded):
    config = {"functions": [{"family": "addressing", "k": 16}], "analyses": [{"op": "fold"}, analysis]}
    for modules in (library_imports(config), cli_imports(tmp_path, config)):
        assert modules & BUILDER == loaded


def test_a_run_never_loads_dataclasses():
    # the library's value types are made without generated code; a build
    # and a Monte Carlo op run after the CLI's import, and dataclasses
    # stays unloaded, unless numpy itself loads it
    config = {"functions": [{"family": "addressing", "k": 16}],
              "analyses": [{"op": "pdt"}, {"op": "mc", "kind": "warmup", "trials": 3}]}
    code = (
        "import sys, numpy\n"
        "print('dataclasses' in sys.modules)\n"
        "from parityfold import cli, runner\n"
        f"runner.run_experiment({config!r}).to_json()\n"
        "print('dataclasses' in sys.modules)"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    by_numpy, after_run = run.stdout.split()
    if by_numpy == "True":
        pytest.skip("numpy loads dataclasses here")
    assert after_run == "False"


def test_every_public_name_resolves_to_the_object_its_module_defines():
    assert parityfold.__all__ == sorted(parityfold.EXPORTS)
    for name, module in parityfold.EXPORTS.items():
        defined = getattr(importlib.import_module(f"parityfold.{module}"), name)
        assert getattr(parityfold, name) is defined
        assert defined.__module__ == f"parityfold.{module}", name


def test_star_import_and_dir_list_the_public_names():
    namespace: dict = {}
    exec("from parityfold import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(parityfold.__all__)
    # dir() lists every public name before any is resolved, and loads nothing
    listed = "import parityfold\nassert set(parityfold.__all__) <= set(dir(parityfold)) and '__version__' in dir(parityfold)"
    assert fresh(listed) == {"parityfold"}


def test_an_unknown_name_is_the_standard_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'parityfold' has no attribute 'build_tree'$"):
        parityfold.build_tree
    with pytest.raises(ImportError, match="cannot import name 'build_tree'"):
        from parityfold import build_tree  # noqa: F401
    assert not hasattr(parityfold, "no_such_name")
