import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "sftops"


def unused_imports(source: str) -> list:
    """Names a module imports and never reads (names in __all__ count as read)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {elt.value for elt in node.value.elts}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in read)


def test_checker_finds_unused_names():
    source = "import os\nimport numpy as np\nfrom .sft import shift, splice_at\nnp.zeros(shift)\n"
    assert unused_imports(source) == ["os (line 1)", "splice_at (line 3)"]
    assert unused_imports("from .sft import at\n__all__ = ['at']\n") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
