import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import ghbasis

SOURCE = Path(ghbasis.__file__).resolve().parent
REPO = Path(__file__).resolve().parent.parent


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


def float_sites(source):
    """Line numbers of true divisions, float literals and float() calls."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
                  or isinstance(node, ast.Constant) and isinstance(node.value, float)
                  or isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float")


def test_library_has_no_floats():
    # Exact arithmetic only: a stray `/` in a kernel would silently make floats.
    found = [f"{path.name}:{line}" for path in sorted(SOURCE.glob("*.py"))
             for line in float_sites(path.read_text())]
    assert found == []


def test_float_sites_finds_each_kind():
    source = "a = b // c\na = b / c\na /= 2\nd = 0.5\ne = float(a)\nf = 10 ** 3\n"
    assert float_sites(source) == [2, 3, 4, 5]


def diff_calls_on_values(source):
    """Line numbers of apply_diff/apply_diff_poly calls with an argument `<x>.value`."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and getattr(node.func, "id", getattr(node.func, "attr", None))
                  in ("apply_diff", "apply_diff_poly")
                  and any(isinstance(arg, ast.Attribute) and arg.attr == "value"
                          for arg in [*node.args, *(k.value for k in node.keywords)]))


def test_library_differentiates_delta_only_through_diff_delta():
    # Every operator applied to Delta expands only the permutations that
    # survive it (delta.diff_delta), never all n! terms of delta.value.
    found = [f"{path.name}:{line}" for path in sorted(SOURCE.glob("*.py"))
             for line in diff_calls_on_values(path.read_text())]
    assert found == []


def test_diff_calls_on_values_finds_a_planted_call():
    source = ("a = apply_diff(op, delta.value)\nb = poly.apply_diff_poly(P, p=d.value)\n"
              "c = apply_diff(op, image)\nd = diff_delta(op, delta)\ne = f(delta.value)\n")
    assert diff_calls_on_values(source) == [1, 2]


def read_names(trees):
    return {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}


def unreferenced_private_helpers(sources):
    """Private (single-underscore, not dunder) functions and classes that are
    defined in sources but never read as a Name or Attribute in any of them."""
    trees = [ast.parse(source) for source in sources]
    defined = {node.name for tree in trees for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")}
    return sorted(defined - read_names(trees))


def test_every_private_helper_is_referenced():
    # Code the library never calls goes.
    assert unreferenced_private_helpers(
        path.read_text() for path in sorted(SOURCE.glob("*.py"))) == []


def test_unreferenced_private_helpers_finds_an_unused_helper():
    source = "def _a():\n    return 1\n\ndef _b():\n    return _a()\n\ndef __c__():\n    pass\n"
    assert unreferenced_private_helpers([source]) == ["_b"]


def orphaned_public_names(library, exported, outside):
    """Module-level public functions and classes of library (module name ->
    source) that no library source reads, that exported leaves out, and that
    no outside source reads or names by a "module.name" string."""
    trees = {module: ast.parse(source) for module, source in library.items()}
    outside_trees = [ast.parse(source) for source in outside]
    kept = read_names(trees.values()) | read_names(outside_trees) | set(exported)
    named = {node.value for tree in outside_trees for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    return sorted(f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  and not node.name.startswith("_") and node.name not in kept
                  and f"{module}.{node.name}" not in named)


def test_every_public_function_has_a_reader():
    # A public function that nothing reads, exports or benchmarks is dead code.
    library = {path.stem: path.read_text() for path in sorted(SOURCE.glob("*.py"))}
    outside = [path.read_text() for folder in ("scripts", "perfbench")
               for path in sorted((REPO / folder).glob("*.py"))]
    assert orphaned_public_names(library, ghbasis.__all__, outside) == []


def test_orphaned_public_names_finds_an_orphan():
    library = {"m": "def a():\n    return b()\n\ndef b():\n    pass\n\n"
                    "def c():\n    pass\n\ndef d():\n    pass\n\n"
                    "class E:\n    def f(self):\n        pass\n\ndef g():\n    pass\n"}
    outside = ["import m\nm.d()\nSPANS = ['m.g']\n"]
    assert orphaned_public_names(library, ["c"], outside) == ["m.E", "m.a"]


def load_spans():
    """perfbench/spans.py, loaded from its file as the benchmark loads it."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", REPO / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def untraceable(traced):
    """The attribute paths of traced that name no callable of ghbasis."""
    missing = []
    for _, path, _ in traced:
        module_name, *attrs = path.split(".")
        try:
            owner = importlib.import_module(f"ghbasis.{module_name}")
        except ImportError:
            missing.append(path)
            continue
        for attr in attrs:
            owner = getattr(owner, attr, None)
        if not callable(owner):
            missing.append(path)
    return missing


def test_every_traced_function_exists():
    # The tracer reports a missing function as absent and goes on, so a
    # rename would null a benchmark metric without failing any run.
    assert untraceable(load_spans().TRACED) == []


def test_untraceable_finds_a_renamed_function():
    traced = [("a", "delta.build_delta", False), ("b", "delta.no_such_function", False),
              ("c", "poly.Polynomial.no_such_method", True), ("d", "no_such_module.f", False)]
    assert untraceable(traced) == ["delta.no_such_function", "poly.Polynomial.no_such_method",
                                   "no_such_module.f"]
