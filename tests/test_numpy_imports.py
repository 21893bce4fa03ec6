"""numpy stays confined to one module of the package, checked on its source.

Every module is parsed and searched for an import of numpy anywhere in it,
inside functions and ``TYPE_CHECKING`` blocks included.  Only ``wedge.py``
may have one: ``digest``, which unpacks a layer into a bit grid, is the
package's only numpy algorithm, and ``coords`` only packs the points of
``points_at`` into an array.
"""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "wedgepower").glob("*.py"))


def _imports_numpy(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(alias.name.split(".")[0] == "numpy" for alias in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            return True
    return False


def test_only_the_wedge_module_imports_numpy():
    assert len(SOURCES) > 1
    importers = {path.name for path in SOURCES if _imports_numpy(ast.parse(path.read_text(), filename=str(path)))}
    assert importers == {"wedge.py"}
