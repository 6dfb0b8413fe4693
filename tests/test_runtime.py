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



def _tree(name: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{name}.py").read_text())


def _package_imports(name: str) -> set[str]:
    """The modules of the package that module name imports from; the test
    above leaves the package only relative imports."""
    return {
        module
        for node in ast.walk(_tree(name))
        if isinstance(node, ast.ImportFrom) and node.level
        for module in ([node.module] if node.module else [alias.name for alias in node.names])
    }


def test_the_judge_shares_no_code_with_the_search():
    # coloring.py judges every coloring the library returns, reads back from
    # a cache or accepts from a user, so it imports nothing from the modules
    # that search for or construct colorings; graphs.py, which both use,
    # imports nothing from the package but errors
    assert not _package_imports("coloring") & {"arrowing", "search", "constructions", "cli"}
    assert _package_imports("graphs") == {"errors"}
    defined = {
        (path.stem, node.name)
        for path in PACKAGE.glob("*.py")
        for node in _tree(path.stem).body
        if isinstance(node, ast.FunctionDef) and node.name in ("_fault", "_copies", "_edge_order", "_edge_rows")
    }
    assert defined == {("coloring", name) for name in ("_fault", "_copies", "_edge_order", "_edge_rows")}
    # the judge builds the edge order of a refutation from f itself: it reads
    # no edges, n_edges or rebuilds of a search record, and every edges it
    # names is Graph.edges(), called
    judge = _tree("coloring")
    called = {id(node.func) for node in ast.walk(judge) if isinstance(node, ast.Call)}
    for node in ast.walk(judge):
        if isinstance(node, ast.Attribute) and node.attr in ("edges", "n_edges", "rebuilds"):
            assert node.attr == "edges" and id(node) in called, f"coloring.py line {node.lineno} reads .{node.attr}"
    # the search and the recipes call no embedder of their own
    for name in ("arrowing", "constructions"):
        imported = {alias.name for node in ast.walk(_tree(name)) if isinstance(node, ast.ImportFrom) for alias in node.names}
        assert not imported & {"_embeddings", "find_induced_embedding"}, name
