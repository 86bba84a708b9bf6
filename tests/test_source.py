import ast
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
