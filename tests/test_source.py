import ast
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
