"""The package namespace and the hygiene of its modules."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dowlab

SRC = Path(dowlab.__file__).resolve().parent
MODULES = sorted(path.stem for path in SRC.glob("*.py") if path.stem != "__init__")


def test_every_exported_name_resolves():
    # a name left in __all__ after its object was removed would only fail
    # at ``from dowlab import *``
    assert [name for name in dowlab.__all__ if not hasattr(dowlab, name)] == []
    assert len(set(dowlab.__all__)) == len(dowlab.__all__)
    for module_name, names in dowlab._EXPORTS.items():
        module = importlib.import_module(f"dowlab.{module_name}")
        for name in names:
            value = getattr(dowlab, name)
            assert value is vars(module)[name], name
            # a function or class is exported from the module that defines it
            if getattr(value, "__module__", "").startswith("dowlab."):
                assert value.__module__ == module.__name__, name
    namespace: dict = {}
    exec("from dowlab import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(dowlab.__all__)
    assert set(dowlab.__all__) <= set(dir(dowlab))
    with pytest.raises(AttributeError, match="^module 'dowlab' has no attribute 'nope'$"):
        dowlab.nope  # noqa: B018


def _loaded_after(statement: str) -> list[str]:
    """The dowlab modules loaded by ``statement`` in a fresh interpreter that
    imports the package from this checkout."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    report = "import sys\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'dowlab'))"
    code = f"{statement}\n{report}"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    return ast.literal_eval(out.splitlines()[-1])


def test_a_bare_import_loads_no_submodule():
    assert _loaded_after("import dowlab") == ["dowlab"]


def test_a_name_loads_its_module_on_first_read():
    loaded = _loaded_after("import dowlab\nassert str(dowlab.LambdaPoly.parse('l')) == 'l'")
    assert loaded == ["dowlab", "dowlab.exact"]


def test_submodules_resolve_after_a_bare_import():
    # every module but the CLI, which the package namespace does not name
    names = [name for name in MODULES if name != "cli"]
    check = f"import dowlab, types\nfor n in {names!r}: assert type(getattr(dowlab, n)) is types.ModuleType"
    assert _loaded_after(check) == ["dowlab", *(f"dowlab.{n}" for n in names)]


# Exactly what importing these modules alone loads: exact needs no other
# module, and the benchmark's tracer wraps what it finds in sys.modules after
# ``import dowlab.cli``, so every module must be loaded by then.
LOADS = {
    "exact": ["dowlab", "dowlab.exact"],
    "cli": ["dowlab", *(f"dowlab.{name}" for name in MODULES)],
}


@pytest.mark.parametrize("name", MODULES)
def test_every_module_imports_on_its_own(name):
    # a relative import missing from a module would otherwise be hidden by
    # whichever module happened to load first
    loaded = _loaded_after(f"import dowlab.{name}")
    if name in LOADS:
        assert loaded == LOADS[name]
    else:
        assert f"dowlab.{name}" in loaded


def _unused_imports(path: Path) -> list[str]:
    """The names that the module at ``path`` imports and never reads; a name
    listed in a literal ``__all__`` counts as read, being exported."""
    tree = ast.parse(path.read_text(), str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name.partition(".")[0]) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((a.asname or a.name) for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple)) and any(
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
