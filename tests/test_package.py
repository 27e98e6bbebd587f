"""The package namespace and the hygiene of its modules."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dowlab
from dowlab.exact import CACHES

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


def _run_fresh(code: str, *flags: str) -> str:
    """The standard output of ``code``, run in a fresh interpreter (started
    with ``flags``) that imports the package from this checkout."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run(
        [sys.executable, *flags, "-c", code], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def _loaded_after(statement: str) -> list[str]:
    """The dowlab modules in sys.modules after ``statement`` runs in a fresh
    interpreter."""
    report = "import sys\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'dowlab'))"
    out = _run_fresh(f"{statement}\n{report}")
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


# Exactly what importing these modules alone puts in sys.modules: exact needs
# no other module, and the benchmark's tracer wraps what it finds in
# sys.modules after ``import dowlab.cli``, so every module must be there by
# then (the catalog's two registered but not yet run; see the next tests).
LOADS = {
    "exact": ["dowlab", "dowlab.exact"],
    # each route's module needs exact alone, so no route can reach another's code
    **{
        name: ["dowlab", "dowlab.exact", f"dowlab.{name}"]
        for name in ("newton", "recurrence", "series")
    },
    # the export table needs the two row routes it serves and nothing else
    "families": ["dowlab", "dowlab.exact", "dowlab.families", "dowlab.newton", "dowlab.recurrence"],
    # the Dobinski evaluator needs the W rows of the recurrence route and nothing else
    "dobinski": ["dowlab", "dowlab.dobinski", "dowlab.exact", "dowlab.recurrence"],
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


def test_the_cli_registers_the_catalog_modules_without_running_them():
    # ``import dowlab.cli`` runs none of the ten modules that the commands
    # read: each is registered, and a first read runs it (in this order, no
    # read runs a module that a later one checks)
    check = """
import sys, types
import dowlab.cli as cli
names = ["recurrence", "newton", "families", "bases", "series", "stirling", "dobinski",
         "whitney", "bernoulli_euler", "identities"]
mods = {name: sys.modules[f"dowlab.{name}"] for name in names}
assert cli.families is mods["families"] and cli.dobinski is mods["dobinski"]
assert cli.identities is mods["identities"]
assert [name for name, mod in mods.items() if type(mod) is types.ModuleType] == []
reads = {
    "recurrence": lambda mod: mod._stirling1_rows.entry(3, 1) == 2,
    "newton": lambda mod: mod._stirling2_rows.entry(3, 2) == 3,
    "families": lambda mod: mod.Family("Wdeg") is mod.Family.WDEG,
    "bases": lambda mod: mod.binom(4, 2) == 6,
    "series": lambda mod: mod.t_series(3).coeffs[1] == 1,
    "stirling": lambda mod: mod.stirling2(3, 2) == 3,
    "dobinski": lambda mod: mod.DobinskiRequest(m=1, n=0, x=0, lam=0).terms == 200,
    "whitney": lambda mod: str(mod.whitney2(2, 2, 1)) == "4 - l",
    "bernoulli_euler": lambda mod: str(mod.deg_bernoulli(2, 1)) == "1/6 - 1/6*l^2",
    "identities": lambda mod: "eq12" in mod.CATALOG,
}
for name in names:
    assert type(mods[name]) is not types.ModuleType, name
    assert reads[name](mods[name]), name
    assert type(mods[name]) is types.ModuleType, name
"""
    _run_fresh(check)


def test_the_cli_reuses_a_catalog_module_imported_before_it():
    # one identities module, so the process holds one CATALOG
    check = """
import sys
import dowlab.identities as idn
catalog = idn.CATALOG
import dowlab.cli
assert sys.modules["dowlab.identities"] is idn and dowlab.cli.identities is idn
assert dowlab.cli.identities.CATALOG is catalog
"""
    _run_fresh(check)


def test_a_cli_command_but_verify_runs_no_catalog_module():
    # ``python -S``: no site module loads anything the commands do not.
    # triangle, eval and dobinski leave identities unrun and import neither
    # dataclasses nor inspect; verify in the same process then runs the catalog
    check = """
import io, sys, types
from contextlib import redirect_stdout
from dowlab.cli import main
calls = [
    ["triangle", "--family", "W", "--m", "2", "--n-max", "6"],
    ["eval", "--family", "VR", "--m", "2", "--r", "3", "--n", "5", "--k", "2"],
    ["dobinski", "--m", "2", "--n", "3", "--x", "1/2", "--lambda", "1/3"],
]
with redirect_stdout(io.StringIO()):
    assert [main(argv) for argv in calls] == [0, 0, 0]
assert type(sys.modules["dowlab.identities"]) is not types.ModuleType
assert "dataclasses" not in sys.modules and "inspect" not in sys.modules
with redirect_stdout(io.StringIO()):
    assert main(["verify", "--n-max", "1"]) == 0
assert type(sys.modules["dowlab.identities"]) is types.ModuleType
"""
    _run_fresh(check, "-S")


EXPORT_CALLS = [
    ["triangle", "--family", "VR", "--m", "3", "--r", "2", "--symbolic", "--n-max", "6"],
    ["triangle", "--family", "S1", "--n-max", "4", "--format", "json"],
    ["eval", "--family", "W", "--m", "2", "--n", "5", "--k", "2", "--lambda", "1/2"],
    ["eval", "--poly", "1 - l", "--lambda", "3"],
]
DOBINSKI_CALLS = [["dobinski", "--m", "2", "--n", "3", "--x", "1/2", "--lambda", "1/3"]]


def _executed_after(*groups: list) -> list[list[str]]:
    """The dowlab modules that have run, in a fresh interpreter, after
    ``import dowlab.cli`` and then after each group of CLI calls."""
    check = f"""
import io, sys, types
from contextlib import redirect_stdout
from dowlab.cli import main
def executed():
    return sorted(k for k, mod in sys.modules.items()
                  if k.split(".")[0] == "dowlab" and type(mod) is types.ModuleType)
print(executed())
for calls in {list(groups)!r}:
    with redirect_stdout(io.StringIO()):
        assert [main(argv) for argv in calls] == [0] * len(calls)
    print(executed())
"""
    return [ast.literal_eval(line) for line in _run_fresh(check).splitlines()]


def test_an_export_runs_only_the_row_routes():
    # ``import dowlab.cli`` runs dowlab, exact and the CLI; triangle and eval
    # add the two row routes and the export table, and dobinski adds only its
    # evaluator, whether or not an export ran before it
    cli = ["dowlab", "dowlab.cli", "dowlab.exact"]
    started, after_exports, after_dobinski = _executed_after(EXPORT_CALLS, DOBINSKI_CALLS)
    assert started == cli
    assert after_exports == sorted([*cli, "dowlab.families", "dowlab.newton", "dowlab.recurrence"])
    assert after_dobinski == sorted([*after_exports, "dowlab.dobinski"])
    _, after_dobinski_alone = _executed_after(DOBINSKI_CALLS)
    assert after_dobinski_alone == sorted([*cli, "dowlab.dobinski", "dowlab.recurrence"])


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


def _count_refusals(path: Path) -> list[str]:
    """The text of each ``ValueError`` that the module at ``path`` makes whose
    message says that a value must be >= 0, the wording of exact._check_counts."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "ValueError":
            text = "".join(
                part.value
                for arg in node.args
                for part in ast.walk(arg)
                if isinstance(part, ast.Constant) and isinstance(part.value, str)
            )
            if re.search(r"must be (an integer )?>= 0", text):
                found.append(text)
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_only_exact_refuses_a_negative_count(path):
    # every count goes through exact._check_counts, so that each is refused in
    # one wording before any cache; the CLI's UsageErrors name their option
    helper = [" must be an integer >= 0, got "] if path.name == "exact.py" else []
    assert _count_refusals(path) == helper


def test_a_count_refusal_is_found(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "def f(n, k, tol):\n"
        "    if n < 0:\n        raise ValueError('n must be >= 0')\n"
        "    if k < 0:\n        raise ValueError(f'k must be an integer >= 0, got {k}')\n"
        "    if tol <= 0:\n        raise ValueError('tol must be positive')\n"
    )
    assert _count_refusals(module) == ["n must be >= 0", "k must be an integer >= 0, got "]


def _names(path: Path) -> set:
    """Every identifier that the module at ``path`` reads, binds, imports or looks up."""
    nodes = ast.walk(ast.parse(path.read_text(), str(path)))
    return {getattr(node, key, None) for node in nodes for key in ("id", "attr", "name")}


def test_only_exact_names_lru_cache():
    # every other module makes its caches with exact.bounded, which lists them
    assert [path.name for path in SRC.glob("*.py") if "lru_cache" in _names(path)] == ["exact.py"]


def test_every_cache_is_registered():
    # a memo's cache_info is bound to the memo itself, a row store's to the
    # cache of its parameter sets; the registry holds those and nothing else
    found = {
        value.cache_info.__self__
        for module in map(importlib.import_module, (f"dowlab.{name}" for name in MODULES))
        for value in vars(module).values()
        if hasattr(value, "cache_info")
    }
    assert found == set(CACHES)
    assert len({cache.__name__ for cache in CACHES}) == len(CACHES)  # the tests' ids
