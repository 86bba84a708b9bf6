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


def test_sample_parity_is_called_only_in_the_trial_kernel():
    # a PDT resample attempt and a Monte Carlo trial are one step,
    # pdt._sampling_trial; a second sampling loop would drift from it
    callers = set()
    for path in sorted(Path(parityfold.__file__).parent.rglob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(func, ast.FunctionDef):
                for node in ast.walk(func):
                    if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("sample_parity"):
                        callers.add(f"{path.name}:{func.name}")
    assert callers == {"pdt.py:_sampling_trial"}, f"sample_parity callers: {sorted(callers)}"


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
