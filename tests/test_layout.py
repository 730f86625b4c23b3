"""Package layout: the modules import one another at module level."""

import ast
from pathlib import Path

import modalcoherence

PACKAGE = Path(modalcoherence.__file__).parent


def test_package_imports_are_at_module_level():
    # interp imports quotient at module level, so quotient's conjugated
    # functor can reach interp only from inside the function.
    inside = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for sub in ast.walk(node):
                    if isinstance(sub, ast.ImportFrom) and sub.level > 0:
                        inside.add((path.stem, node.name))
    assert inside == {("quotient", "interp_sharp")}
