import ast
import sys
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


def test_library_imports_only_the_standard_library():
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.partition(".")[0] not in sys.stdlib_module_names | {"ghbasis"}]
    assert found == []
