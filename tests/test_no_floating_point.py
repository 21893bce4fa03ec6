"""The package's "no floating point" guarantee, checked on its source.

Every module is parsed and searched for the ways a non-integer number gets
in: a float or complex literal, true division (``/`` or ``/=``; floor
division ``//`` stays), or an import of ``fractions`` or ``decimal``.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "wedgepower").glob("*.py"))
INEXACT_MODULES = {"fractions", "decimal"}


def _non_integer_uses(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, f"literal {node.value!r}"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield node.lineno, "true division"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] in INEXACT_MODULES:
                    yield node.lineno, f"import {alias.name}"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] in INEXACT_MODULES:
            yield node.lineno, f"from {node.module} import"


def test_every_module_is_found():
    assert {"geometry.py", "wedge.py", "harness.py"} <= {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_module_uses_integers_only(path):
    uses = list(_non_integer_uses(ast.parse(path.read_text(), filename=str(path))))
    assert uses == [], f"{path.name}: {uses}"
