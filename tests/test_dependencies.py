"""jointpref's only dependencies are numpy and the standard library.

Every import in the package's modules is read from its source with ast, so
a new dependency fails here before any install or environment notices it.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "jointpref"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_imports_only_numpy_stdlib_or_jointpref(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level:   # relative: a jointpref module
                continue
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.partition(".")[0]
            assert top == "numpy" or top in sys.stdlib_module_names, \
                f"{path.name}:{node.lineno} imports {name}"
