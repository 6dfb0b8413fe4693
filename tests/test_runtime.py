"""The runtime promises to need nothing beyond the standard library."""
import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "arrowhead"


def test_runtime_imports_are_stdlib_only():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside the package
            for name in names:
                top = name.partition(".")[0]
                assert top in sys.stdlib_module_names, f"{path.name} imports {name}"
