"""The package's module layering, read from the sources with ast.

boundary_tree is the bottom layer (the tree, its row store and the distance
kernel) and imports no other betree module; tape holds only the step
record, which needs transform's ParameterSet. Imports under TYPE_CHECKING
count too.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "betree"


def betree_imports(path: Path) -> set[str]:
    """Names of the betree modules a source file imports ("betree" for the
    package itself)."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):
            if node.level:  # relative: from .x import y, or from . import x
                found.update([node.module.split(".")[0]] if node.module else
                              (a.name for a in node.names))
            elif node.module == "betree" or node.module.startswith("betree."):
                found.add(node.module.removeprefix("betree.").split(".")[0])
        elif isinstance(node, ast.Import):
            found.update(a.name.removeprefix("betree.").split(".")[0] for a in node.names
                         if a.name == "betree" or a.name.startswith("betree."))
    return found


def import_graph() -> dict[str, set[str]]:
    return {p.stem: betree_imports(p) for p in sorted(SRC.glob("*.py"))}


def test_every_import_names_a_module_of_the_package():
    graph = import_graph()
    assert {"boundary_tree", "tape", "soft_path", "transform"} <= set(graph)
    assert {"boundary_tree", "tape", "transform"} <= graph["soft_path"]
    assert all(deps <= set(graph) for deps in graph.values())


def test_boundary_tree_imports_no_betree_module():
    assert import_graph()["boundary_tree"] == set()


def test_tape_imports_only_transform():
    assert import_graph()["tape"] == {"transform"}
