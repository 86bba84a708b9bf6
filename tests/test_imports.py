"""What a run imports: the package resolves its public names on first
access, and a run loads only the modules its ops use."""

import ast
import importlib
import importlib.util
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import parityfold

BUILDER = {"parityfold.builder", "parityfold.pdt", "parityfold.restriction"}
LAYERS = {
    "parityfold.builder", "parityfold.folding", "parityfold.pairs", "parityfold.pdt", "parityfold.restriction",
    "parityfold.trials",
}
# what every run loads beside the layers its ops run (and cli through the CLI)
EVERY_RUN = {
    "parityfold", "parityfold.families", "parityfold.gf2", "parityfold.params", "parityfold.runner",
    "parityfold.spectral",
}

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
    ({"op": "mc", "kind": "warmup", "trials": 3}, {"parityfold.pdt"}),
    ({"op": "analyze", "restrict": [{"mask": 3, "bit": 1}]}, {"parityfold.restriction"}),
])
def test_the_ops_that_use_the_builder_load_it(tmp_path, analysis, loaded):
    config = {"functions": [{"family": "addressing", "k": 16}], "analyses": [{"op": "fold"}, analysis]}
    for modules in (library_imports(config), cli_imports(tmp_path, config)):
        assert modules & BUILDER == loaded


# the layers of a build, of a Monte Carlo run and of the folding ops
BUILD = BUILDER | {"parityfold.pairs"}
TRIALS = {"parityfold.pdt", "parityfold.trials"}
FOLDING = {"parityfold.folding", "parityfold.pairs"}


@pytest.mark.parametrize("analysis, loaded", [
    ({"op": "pdt", "strategy": "greedy-min-bucket"}, BUILD),
    ({"op": "pdt", "strategy": "folding-sampling"}, BUILD),
    ({"op": "mc", "kind": "warmup", "trials": 3}, TRIALS),
    ({"op": "mc", "kind": "theorem-1", "p": "1/32", "trials": 3}, TRIALS),
    ({"op": "mc", "kind": "theorem-2", "delta": 1, "ell": 0, "trials": 3}, TRIALS | FOLDING),
    ({"op": "analyze", "restrict": [{"mask": 3, "bit": 1}]}, {"parityfold.pairs", "parityfold.restriction"}),
    ({"op": "fold"}, FOLDING),
    ({"op": "verify", "check": "titsworth"}, {"parityfold.pairs"}),
    ({"op": "analyze"}, {"parityfold.pairs"}),
    ({"op": "verify", "check": "three-fold"}, FOLDING),
    ({"op": "verify", "check": "sign-feasibility"}, FOLDING),
    ({"op": "verify", "check": "parseval"}, set()),
])
def test_each_op_loads_only_the_layers_it_runs(tmp_path, analysis, loaded):
    # where no bytecode is cached, a module loaded is a module compiled: a
    # build never runs folding or the trials, and a warmup or theorem-1
    # trial runs neither the builder, folding, restriction nor the pair kernel
    config = {"functions": [{"family": "addressing", "k": 16}], "analyses": [analysis]}
    for modules in (library_imports(config), cli_imports(tmp_path, config)):
        assert modules & LAYERS == loaded
        assert modules - LAYERS - {"parityfold.cli"} == EVERY_RUN


def bench_tracing():
    """bench/tracing.py, loaded by path as the benchmark loads it."""
    path = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_pdt_resolves_only_the_names_bench_tracing_binds_there():
    from parityfold import pdt

    tracing = bench_tracing()
    bound = {attr for module, attr, *_ in tracing.SPANS + tracing.AGGREGATES if module == "pdt"}
    tree = ast.parse(Path(pdt.__file__).read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for name, module in pdt.TRACED_NAMES.items():
        assert name in bound and name not in used, name
        assert getattr(pdt, name) is getattr(importlib.import_module(f"parityfold.{module}"), name)
        namespace: dict = {}
        exec(f"from parityfold.pdt import {name}", namespace)
        assert namespace[name] is getattr(pdt, name)
    with pytest.raises(AttributeError, match=r"^module 'parityfold.pdt' has no attribute 'no_such_name'$"):
        pdt.no_such_name
    with pytest.raises(ImportError, match="cannot import name 'no_such_name'"):
        from parityfold.pdt import no_such_name  # noqa: F401
    # importing pdt loads no layer beside it, and each name its home alone
    assert fresh("from parityfold import pdt") & LAYERS == {"parityfold.pdt"}
    assert fresh("from parityfold.pdt import build_pdt") & LAYERS == {"parityfold.builder", "parityfold.pairs", "parityfold.pdt"}
    assert fresh("from parityfold.pdt import warmup_success_rate") & LAYERS == TRIALS


# one op of each kind whose layers moved: a sampling build (one row
# reduction per node) and a greedy one (none), a theorem-2 and a theorem-1
# trial, a fold and a restriction
TRACED_OPS = {
    "pdt": {"op": "pdt", "strategy": "sampling"},
    "greedy": {"op": "pdt", "strategy": "greedy-min-bucket"},
    "mc": {"op": "mc", "kind": "theorem-2", "delta": 1, "ell": 0, "trials": 5},
    "theorem-1": {"op": "mc", "kind": "theorem-1", "p": "1/32", "trials": 5},
    "fold": {"op": "fold"},
    "analyze": {"op": "analyze", "restrict": [{"mask": 3, "bit": 1}]},
}


def test_tracing_counts_each_layer_once_per_op_and_changes_no_report():
    from parityfold import pdt, runner

    tracing = bench_tracing()
    configs = {op: {"functions": [{"family": "addressing", "k": 16}], "analyses": [a]} for op, a in TRACED_OPS.items()}
    plain = {op: runner.run_experiment(config).to_json() for op, config in configs.items()}
    tracer, before = tracing.Tracer(), set(vars(pdt))
    tracer.install()
    try:
        traced = {op: tracer.op(op, lambda c=config: runner.run_experiment(c).to_json()) for op, config in configs.items()}
    finally:
        tracer.restore()
        # restore puts back what install read, and pdt.folding_parameters
        # read folding's wrapper; dropping the bindings lets TRACED_NAMES
        # resolve them again, build_pdt and the trial functions among them
        for name in set(vars(pdt)) - before:
            delattr(pdt, name)
    assert traced == plain
    counts = {op: Counter(span[tracing.NAME] for span in tracer.spans if span[tracing.OP] == op) for op in configs}
    nodes = len(json.loads(plain["pdt"])["results"][0]["analyses"][0]["result"]["node_records"])
    each = {"op": 1, "runner.run_experiment": 1, "families.build_function": 1, "spectral.wht": 1}
    assert counts == {
        "pdt": {**each, "pdt.build_pdt": 1, "gf2.row_reduce": nodes, "pdt.verify_tree": 1},
        "greedy": {**each, "pdt.build_pdt": 1, "pdt.verify_tree": 1},
        "mc": {**each, "pdt.mc": 1, "folding.folding_parameters": 1, "folding.direction_classes": 1},
        "theorem-1": {**each, "pdt.mc": 1},
        "fold": {**each, "folding.direction_classes": 1},
        "analyze": {**each, "spectral.parseval": 1, "spectral.titsworth": 1, "gf2.row_reduce": 1},
    }
    assert nodes > 1


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
