import ast
import graphlib
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fcnndepth"


def package_imports() -> dict[str, set[str]]:
    """Module -> the package modules it imports with `from . import x` or `from .x import ...`."""
    graph = {}
    for path in sorted(PACKAGE.glob("*.py")):
        deps = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:
                    deps.add(node.module)
                else:
                    deps.update(alias.name for alias in node.names)
        graph[path.stem] = deps
    return graph


def test_import_graph_is_acyclic():
    graph = package_imports()
    assert set().union(*graph.values()) <= graph.keys()
    order = list(graphlib.TopologicalSorter(graph).static_order())  # CycleError on a cycle
    assert set(order) == graph.keys()


def test_only_the_entry_points_import_the_block_api():
    # upconv runs the builder's decoder block; the layers below it never call back into it
    importers = {name for name, deps in package_imports().items() if "upconv" in deps}
    assert importers == {"__init__", "bench", "cli"}
