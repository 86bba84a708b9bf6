import ast
import importlib
import importlib.util
import re
from functools import cached_property
from pathlib import Path

import parityfold


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so a check written as one vanishes
    found = []
    for path in sorted(Path(parityfold.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in the library: {found}"


def test_pair_xor_broadcasts_live_in_the_pair_kernel():
    # masks[..., None] ^ masks is the O(k^2) pair-direction computation;
    # every caller goes through parityfold.pairs instead of a copy
    found = []
    for path in sorted(Path(parityfold.__file__).parent.rglob("*.py")):
        if path.name == "pairs.py":
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if re.search(r"(None|newaxis)\s*\]\s*\^", line):
                found.append(f"{path.name}:{lineno}")
    assert not found, f"pair-XOR broadcasts outside pairs.py: {found}"


def test_pair_blocks_is_called_only_in_the_pair_kernel():
    # pair_blocks lists all k^2 / 2 pairs; callers outside parityfold.pairs use
    # its per-direction entry points, which pick the dense route when it is cheaper
    found = []
    for path in sorted(Path(parityfold.__file__).parent.rglob("*.py")):
        if path.name == "pairs.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("pair_blocks"):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"pair_blocks calls outside pairs.py: {found}"


def scoped_nodes(path):
    """(innermost function or class name, node) for every node of a file."""
    todo = [("<module>", ast.parse(path.read_text(), filename=str(path)))]
    while todo:
        scope, node = todo.pop()
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        yield scope, node
        todo.extend((scope, child) for child in ast.iter_child_nodes(node))


def test_only_the_runner_builds_result_blocks():
    # runner's op functions write every report block, and the CLI renders
    # them; the library's result types stay typed values, whose one dict
    # form is the tree file format
    found = []
    for name in ("builder.py", "folding.py", "pdt.py", "restriction.py", "trials.py"):
        todo = [("<module>", ast.parse((Path(parityfold.__file__).parent / name).read_text()))]
        while todo:
            owner, node = todo.pop()
            defined = getattr(node, "name", None) or (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) and node.id)
            if defined and (defined == "to_dict" or "csv" in defined.lower()):
                found.append(f"{name}:{owner}.{defined}")
            owner = node.name if isinstance(node, ast.ClassDef) else owner
            todo.extend((owner, child) for child in ast.iter_child_nodes(node))
    assert found == ["pdt.py:ParityDecisionTree.to_dict"], f"result blocks built outside the runner: {found}"


def test_the_wht_butterfly_is_defined_once():
    # spectral, restriction and the dense pair route share one WHT, which
    # spectral defines, and its radix steps are the library's only matrix
    # products
    found, products = [], set()
    for path in sorted(Path(parityfold.__file__).parent.rglob("*.py")):
        for scope, node in scoped_nodes(path):
            if isinstance(node, ast.FunctionDef) and node.name == "fwht_inplace":
                found.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.Call) and re.search(r"\b(matmul|dot|einsum|tensordot)$", ast.unparse(node.func)):
                products.add(f"{path.name}:{scope}")
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                products.add(f"{path.name}:{scope}")
            if isinstance(node, ast.Name) and node.id == "_HADAMARD" and isinstance(node.ctx, ast.Load):
                products.add(f"{path.name}:{scope}")
    assert len(found) == 1, f"fwht_inplace definitions: {found}"
    assert products == {"spectral.py:fwht_inplace"}, f"matrix products outside the WHT: {sorted(products)}"


# `sorted(set(...))` outside spectral.py that sorts no spectrum's support
SORTED_SET_EXCEPTIONS = {
    "folding.py:_sorted_support",  # a caller's own support list; a spectrum passes its masks
}


def test_spectrum_supports_are_sorted_once_in_spectral():
    # a spectrum keeps its support sorted as arrays (`masks`, `coefficients`);
    # every other module reads those rather than sorting the dict again
    found = []
    for path in sorted(Path(parityfold.__file__).parent.rglob("*.py")):
        if path.name == "spectral.py":
            continue
        for scope, node in scoped_nodes(path):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            func, arg = ast.unparse(node.func), ast.unparse(node.args[0])
            where = f"{path.name}:{scope}"
            if re.search(r"\b(sorted|set|list|fromiter|array)$", func) and re.search(r"\.(coeffs(\.keys\(\))?|support\(\))$", arg):
                found.append(f"{where} {ast.unparse(node)}")
            if func == "sorted" and arg.startswith("set(") and where not in SORTED_SET_EXCEPTIONS:
                found.append(f"{where} {ast.unparse(node)}")
    assert not found, f"spectrum supports sorted outside spectral.py: {found}"


def test_a_spectrum_stores_one_form():
    # a spectrum's state is n and its sorted arrays, plus the dict view
    # once asked for; a second stored form could drift from the arrays
    from parityfold import families, restriction, spectral

    cached = {name for name, value in vars(spectral.FourierSpectrum).items() if isinstance(value, cached_property)}
    assert cached == {"coeffs"}, f"cached forms of a spectrum: {sorted(cached)}"
    spectrum = spectral.wht(families.gen_inner_product(2))
    system = restriction.AffineConstraintSystem(4, ((3, 1),))
    built = [
        spectrum,
        spectral.FourierSpectrum(4, {3: 4, 0: 4}),
        spectral.spectrum_from_dict(
            {"n": 4, "coeffs": [{"mask": m, "num": c} for m, c in zip(spectrum.masks.tolist(), spectrum.coefficients.tolist())]}
        ),
        restriction.restrict(spectrum, system),
        *restriction.restrict_batch(spectrum, (3, 5)),
    ]
    for s in built:
        # readers of the arrays add nothing; the dict view is the one addition
        assert s == s and s.sparsity == len(s.support())
        assert set(vars(s)) == {"n", "masks", "coefficients"}
        assert repr(s).startswith("FourierSpectrum(") and s[3] in (0, 4, -4)
        assert set(vars(s)) == {"n", "masks", "coefficients", "coeffs"}


def test_label_steps_live_in_the_gf2_kernel():
    # (labels >> (row.bit_length() - 1)) & 1 picks the labels a row's pivot
    # hits; every caller goes through gf2.label_step instead of a copy
    found = []
    for path in sorted(Path(parityfold.__file__).parent.rglob("*.py")):
        if path.name == "gf2.py":
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if re.search(r">>\s*\(.*\.bit_length\(\)\s*-\s*1\s*\)\s*\)\s*&\s*1", line):
                found.append(f"{path.name}:{lineno}")
    assert not found, f"label steps outside gf2.py: {found}"


def test_minimum_label_steps_live_in_the_gf2_kernel():
    # np.minimum(labels, labels ^ row) is a label step, for one row or one
    # row per slice; every caller goes through gf2.label_step instead of a copy
    found = []
    for path in sorted(Path(parityfold.__file__).parent.rglob("*.py")):
        if path.name == "gf2.py":
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if re.search(r"\bminimum\(", line):
                found.append(f"{path.name}:{lineno}")
    assert not found, f"elementwise minimum outside gf2.py: {found}"


def test_uniform_draws_live_in_the_trial_kernel():
    # a PDT resample attempt and a Monte Carlo trial draw through one
    # function, pdt._draw, and sample_parity is its public reference; a
    # second sampling loop would drift from them
    drawers = set()
    for path in sorted(Path(parityfold.__file__).parent.rglob("*.py")):
        todo = [("<module>", ast.parse(path.read_text(), filename=str(path)))]
        while todo:
            scope, node = todo.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                scope = getattr(node, "name", "<lambda>")  # the innermost one
            if isinstance(node, ast.Call) and ast.unparse(node.func).endswith(".random"):
                drawers.add(f"{path.name}:{scope}")
            todo.extend((scope, child) for child in ast.iter_child_nodes(node))
    assert drawers == {"pdt.py:_draw", "pdt.py:sample_parity"}, (
        f"uniform draws outside the trial kernel: {sorted(drawers)}"
    )


def test_traced_benchmark_bindings_resolve():
    # bench/tracing.py wraps these module attributes by name; a kernel move
    # that drops one would crash the traced benchmark run
    path = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    bindings = [entry[:2] for entry in tracing.SPANS + tracing.AGGREGATES]
    missing = [f"{module}.{attr}" for module, attr in bindings
               if not hasattr(importlib.import_module(f"parityfold.{module}"), attr)]
    assert not missing, f"bench/tracing.py binds missing attributes: {missing}"


def test_the_runner_builds_trees_through_the_pdt_module_attribute(monkeypatch):
    # bench/run.py:capture_trees patches pdt.build_pdt and keeps
    # result.tree.to_dict(); a runner that bound build_pdt by name would
    # leave the benchmark's tree digests empty
    from parityfold import pdt, runner

    built = []
    original = pdt.build_pdt

    def keep(*args, **kwargs):
        result = original(*args, **kwargs)
        built.append(result.tree.to_dict())
        return result

    monkeypatch.setattr(pdt, "build_pdt", keep)
    config = {"functions": [{"family": "inner-product", "m": 2}], "analyses": [{"op": "pdt", "strategy": "greedy-min-bucket"}]}
    report = runner.run_experiment(config)
    assert len(built) == 1 and built[0]["n"] == 4
    assert report.results[0]["analyses"][0]["result"]["verified"]


def test_the_scalar_elimination_step_lives_in_reduce_tagged():
    # v ^= row clears one pivot of one vector; Echelon is the one basis
    # type, and its reduce_tagged the library's one scalar elimination loop
    found = []
    for path in sorted(Path(parityfold.__file__).parent.rglob("*.py")):
        todo = [("<module>", ast.parse(path.read_text(), filename=str(path)))]
        while todo:
            scope, node = todo.pop()
            if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = node.name if scope == "<module>" else f"{scope}.{node.name}"
            if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.BitXor) and ast.unparse(node.value) == "row":
                found.append(f"{path.name}:{scope}")
            todo.extend((scope, child) for child in ast.iter_child_nodes(node))
    assert found == ["gf2.py:Echelon.reduce_tagged"], f"scalar elimination steps: {found}"


def test_relative_imports_are_used_exported_or_bench_bound():
    # a name imported from a sibling module is used where it is imported,
    # exported from there through the package's name table, or bound there
    # by name in bench/tracing.py; an import kept for nothing else is dead code
    path = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    bench_bound = {tuple(entry[:2]) for entry in tracing.SPANS + tracing.AGGREGATES}
    package = Path(parityfold.__file__).parent
    exported = {(module, name) for name, module in parityfold.EXPORTS.items()}
    unused = []
    for path in sorted(package.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level >= 1:
                for alias in node.names:
                    name = alias.asname or alias.name
                    if name not in used and (path.stem, name) not in exported | bench_bound:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused, f"relative imports nothing uses: {unused}"


def test_generators_are_made_only_where_they_draw():
    # default_rng seeds a SeedSequence per call: gen_random makes one per
    # table and a sampling build one per build, while the Monte Carlo
    # trials share one that trials._run_trials sets to each (seed, t) state
    # trials._trial_states computes
    found = set()
    for path in sorted(Path(parityfold.__file__).parent.rglob("*.py")):
        todo = [("<module>", ast.parse(path.read_text(), filename=str(path)))]
        while todo:
            scope, node = todo.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                scope = getattr(node, "name", "<lambda>")  # the innermost one
            if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("default_rng"):
                found.add(f"{path.name}:{scope}")
            branch = []  # what runs only when an if's test holds
            if isinstance(node, (ast.If, ast.IfExp)):
                branch = node.body if isinstance(node, ast.If) else [node.body]
            for child in ast.iter_child_nodes(node):
                guarded = any(child is b for b in branch)
                todo.append((f"{scope} if {ast.unparse(node.test)}" if guarded else scope, child))
    assert found == {"families.py:gen_random", "builder.py:build_pdt if sampling"}, (
        f"generators made outside the drawing code: {sorted(found)}"
    )


def test_the_seeding_constants_live_in_the_trial_seeding_function():
    # numpy's SeedSequence hash constants and PCG64's multiplier; tests check
    # trials._trial_states against numpy, so a second copy would drift unseen
    constants = {
        0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED, 0xCA01F9DD, 0x4973F715,
        0x2360ED051FC65DA44385DF649FCCF645,
    }
    found = set()
    for path in sorted(Path(parityfold.__file__).parent.rglob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Constant) and node.value in constants:
                    found.add((f"{path.name}:{getattr(top, 'name', '<module>')}", node.value))
    assert {where for where, _ in found} == {"trials.py:_trial_states"}, f"seeding constants: {sorted(found)}"
    assert {value for _, value in found} == constants


def test_a_frontier_is_restricted_in_one_call():
    # build_pdt restricts a whole frontier, whatever its batch widths, with
    # one restrict_frontier call: its one call site sits in the frontier
    # loop itself, with no loop or comprehension of its own around it
    path = Path(parityfold.__file__).parent / "builder.py"
    found = []
    todo = [("<module>", [], ast.parse(path.read_text(), filename=str(path)))]
    while todo:
        scope, loops, node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            scope, loops = getattr(node, "name", "<lambda>"), []
        if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("restrict_frontier"):
            found.append((scope, loops))
        if isinstance(node, (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            loops = loops + [type(node).__name__]
        todo.extend((scope, loops, child) for child in ast.iter_child_nodes(node))
    assert found == [("build_pdt", ["While"])], f"restrict_frontier call sites in builder.py: {found}"


def test_key_refusals_are_worded_only_in_read_keys():
    # spectral.read_keys is the one reader of a JSON object's keys; a key
    # refusal worded anywhere else is a second reader, which may disagree
    found, inside = [], set()
    for path in sorted(Path(parityfold.__file__).parent.rglob("*.py")):
        for scope, node in scoped_nodes(path):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                for wording in re.findall(r"(?:unknown|missing) parameter", node.value):
                    if f"{path.name}:{scope}" == "spectral.py:read_keys":
                        inside.add(wording)
                    else:
                        found.append(f"{path.name}:{node.lineno} {scope}")
    assert not found, f"key refusals worded outside read_keys: {found}"
    assert inside == {"unknown parameter", "missing parameter"}


def test_no_module_imports_dataclasses():
    # a dataclass runs exec on generated source when its class is made,
    # about 0.7 ms each at import; the value types are NamedTuples or
    # plain classes instead
    found = []
    for path in sorted(Path(parityfold.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = [alias.name for alias in node.names] if isinstance(node, ast.Import) else []
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            if any(name.split(".")[0] == "dataclasses" for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"dataclasses imported in the library: {found}"
