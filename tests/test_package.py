"""The package namespace and the hygiene of its modules."""

import ast
from pathlib import Path

import pytest

import dowlab

SRC = Path(dowlab.__file__).resolve().parent


def test_every_exported_name_resolves():
    # a name left in __all__ after its object was removed would only fail
    # at ``from dowlab import *``
    assert [name for name in dowlab.__all__ if not hasattr(dowlab, name)] == []
    assert len(set(dowlab.__all__)) == len(dowlab.__all__)


def _unused_imports(path: Path) -> list[str]:
    """The names that the module at ``path`` imports and never reads; a name
    listed in its ``__all__`` counts as read, being exported."""
    tree = ast.parse(path.read_text(), str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name.partition(".")[0]) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((a.asname or a.name) for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return sorted(imported - read)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert _unused_imports(path) == []


def test_an_unused_import_is_found(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os.path\nimport re as regex\nfrom math import comb, gcd\n"
        "__all__ = ['gcd']\n"
        "def f(n: int) -> int:\n    return comb(n, 2) + len(os.sep)\n"
    )
    assert _unused_imports(module) == ["regex"]
