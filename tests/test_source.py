import ast
from pathlib import Path

import ghbasis

SOURCE = Path(ghbasis.__file__).resolve().parent


def test_library_has_no_assert_statements():
    # `python -O` strips assert; invariants raise named errors instead.
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SOURCE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
