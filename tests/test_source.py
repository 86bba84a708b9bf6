import ast
import importlib
import importlib.util
import re
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


def test_xor_blocks_is_called_only_in_the_pair_kernel():
    # xor_blocks walks all k^2 pairs; callers outside parityfold.pairs use
    # its per-direction entry points, which pick the dense route when it is cheaper
    found = []
    for path in sorted(Path(parityfold.__file__).parent.rglob("*.py")):
        if path.name == "pairs.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("xor_blocks"):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"xor_blocks calls outside pairs.py: {found}"


def test_the_wht_butterfly_is_defined_once():
    # spectral, restriction and the dense pair route share one butterfly
    found = []
    for path in sorted(Path(parityfold.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.FunctionDef) and node.name == "fwht_inplace":
                found.append(f"{path.name}:{node.lineno}")
    assert len(found) == 1, f"fwht_inplace definitions: {found}"


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
    # a PDT resample attempt and a Monte Carlo trial are one step,
    # pdt._sampling_trial, and sample_parity is its public reference; a
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
    assert drawers == {"pdt.py:_sampling_trial", "pdt.py:sample_parity"}, (
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
    # re-exported from there by __init__.py, or bound there by name in
    # bench/tracing.py; an import kept for nothing else is dead code
    path = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    bench_bound = {tuple(entry[:2]) for entry in tracing.SPANS + tracing.AGGREGATES}
    package = Path(parityfold.__file__).parent
    exported = {
        (node.module, alias.asname or alias.name)
        for node in ast.walk(ast.parse((package / "__init__.py").read_text()))
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
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
