"""The package namespace and the hygiene of its modules."""

import ast
import dataclasses
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from itertools import chain
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
        for name in ("newton", "series")
    },
    # the export table needs the row route it serves and nothing else
    "families": ["dowlab", "dowlab.exact", "dowlab.families", "dowlab.newton"],
    # the Dobinski evaluator needs the W rows of the Newton route and nothing else
    "dobinski": ["dowlab", "dowlab.dobinski", "dowlab.exact", "dowlab.newton"],
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
    # ``import dowlab.cli`` runs none of the nine modules that the commands
    # read: each is registered, and a first read runs it (in this order, no
    # read runs a module that a later one checks)
    check = """
import sys, types
import dowlab.cli as cli
names = ["newton", "families", "bases", "series", "stirling", "dobinski", "whitney",
         "bernoulli_euler", "identities"]
mods = {name: sys.modules[f"dowlab.{name}"] for name in names}
assert cli.families is mods["families"] and cli.dobinski is mods["dobinski"]
assert cli.identities is mods["identities"]
assert [name for name, mod in mods.items() if type(mod) is types.ModuleType] == []
reads = {
    "newton": lambda mod: mod._stirling1_rows.entry(3, 1) == 2,
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
    # add the row route and the export table, and dobinski adds only its
    # evaluator, whether or not an export ran before it
    cli = ["dowlab", "dowlab.cli", "dowlab.exact"]
    started, after_exports, after_dobinski = _executed_after(EXPORT_CALLS, DOBINSKI_CALLS)
    assert started == cli
    assert after_exports == sorted([*cli, "dowlab.families", "dowlab.newton"])
    assert after_dobinski == sorted([*after_exports, "dowlab.dobinski"])
    _, after_dobinski_alone = _executed_after(DOBINSKI_CALLS)
    assert after_dobinski_alone == sorted([*cli, "dowlab.dobinski", "dowlab.newton"])


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


def test_identity_check_is_the_one_dataclass():
    # every other value class is an exact.Record; the benchmark's tracer
    # rebuilds each catalog entry with dataclasses.replace, which keeps this one
    importers = [
        path.stem
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
        or isinstance(node, ast.Import) and "dataclasses" in {alias.name for alias in node.names}
    ]
    assert importers == ["identities"]
    modules = [importlib.import_module(f"dowlab.{name}") for name in MODULES]
    decorated = {
        f"{value.__module__}.{value.__qualname__}"
        for module in modules
        for value in vars(module).values()
        if isinstance(value, type) and dataclasses.is_dataclass(value)
    }
    assert decorated == {"dowlab.identities.IdentityCheck"}


def test_an_entry_reports_a_discrepancy_exactly_when_it_is_a_probe():
    # a status is read off what the sweep found, and only a Probe finds anything
    from dowlab import identities as idn

    for ident, entry in idn.CATALOG.items():
        status = idn.run_identity(ident, 6).status
        assert status == ("paper-discrepancy" if isinstance(entry.checker, idn.Probe) else "pass")


def _defs(path: Path) -> dict[str, set]:
    """Each function that the module at ``path`` defines at module or class
    level, not a dunder, by its qualified name, with the lines its code object
    can start at: its ``def`` and its first decorator."""
    found = {}

    def visit(body: list, prefix: str) -> None:
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
                if not (name.startswith("__") and name.endswith("__")):
                    found[prefix + name] = {node.lineno, *(d.lineno for d in node.decorator_list)}

    visit(ast.parse(path.read_text(), str(path)).body, "")
    return found


def _not_entered(paths: list, code: str) -> list[str]:
    """The functions (``_defs``) of the modules at ``paths`` that ``code``
    never enters, run in a fresh interpreter whose profiler is installed
    before ``code`` imports anything, as ``module.qualname``."""
    roots = sorted({str(path.resolve().parent) for path in paths})
    census = f"""
import os, sys, threading
entered = set()
def profile(frame, event, arg):
    if event == "call":
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
sys.setprofile(profile)
threading.setprofile(profile)
exec(compile({code!r}, "<census>", "exec"), {{"__name__": "__census__"}})
sys.setprofile(None)
print(sorted((os.path.realpath(f), line) for f, line in entered
             if os.path.dirname(os.path.realpath(f)) in {roots!r}))
"""
    entered = ast.literal_eval(_run_fresh(census).splitlines()[-1])
    return sorted(
        f"{path.stem}.{name}"
        for path in paths
        for name, lines in _defs(path).items()
        if not {(str(path.resolve()), line) for line in lines} & set(entered)
    )


def _unspanned(names: list[str]) -> list[str]:
    """The names ``module.qualname`` among ``names`` that are neither a target
    of the benchmark's span table, ``SPANS`` in perfbench/tracer.py, nor a
    member of a class that holds one.  A target is named after the module
    and class that define it, wherever the tracer finds it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets, classes = set(), set()
    for module_name, target in chain.from_iterable(tracer.SPANS.values()):
        owner, _, member = target.partition(".")
        value = getattr(importlib.import_module(f"dowlab.{module_name}"), owner, None)
        if value is not None:
            name = f"{value.__module__.rpartition('.')[2]}.{value.__qualname__}"
            (classes if member else targets).add(name)
    return [
        name for name in names
        if name not in targets and name.rpartition(".")[0] not in classes
    ]


def _census_calls(out: Path) -> list[tuple[list[str], int]]:
    """The CLI forms of the census, each with its exit code: every family in
    every format, symbolic and at lambda = 1/2, one --out export, both forms
    of eval, verify with r = 0 in its set, and dobinski at a passing, a
    failing and an overflowing point."""
    from dowlab.families import Family

    triangles = [
        (["triangle", "--family", family.value, "--m", "2", "--r", "2", "--n-max", "3",
          "--format", fmt, *lam], 0)
        for family in Family
        for fmt in ("csv", "json", "latex")
        for lam in (["--symbolic"], ["--lambda", "1/2"])
    ]
    return [
        *triangles,
        (["triangle", "--family", "W", "--m", "2", "--n-max", "3", "--out", str(out)], 0),
        (["eval", "--poly", "1 - l", "--lambda", "3"], 0),
        (["eval", "--family", "VR", "--m", "2", "--r", "3", "--n", "5", "--k", "2"], 0),
        (["verify", "--n-max", "2", "--r-set", "0,1"], 0),
        (["dobinski", "--m", "1", "--n", "3", "--x", "-1", "--lambda", "0", "--terms", "60"], 0),
        (["dobinski", "--m", "1", "--n", "3", "--x", "-1", "--lambda", "0", "--terms", "10"], 1),
        (["dobinski", "--m", "1", "--n", "40", "--x", "100000000", "--lambda", "0",
          "--terms", "1"], 2),
    ]


@pytest.fixture(scope="module")
def unentered(tmp_path_factory) -> list[str]:
    """The functions of ``src/dowlab`` that no CLI form enters: the census
    runs every form of the CLI, with stderr a terminal (verify's progress
    lines), then one call whose stdout cannot be written, and then the
    console script's ``entrypoint`` once, reading its argv from sys.argv."""
    calls = _census_calls(tmp_path_factory.mktemp("census") / "w.csv")
    code = f"""
import io, sys
from contextlib import redirect_stderr, redirect_stdout
from dowlab.cli import entrypoint, main
class Terminal(io.StringIO):
    def isatty(self):
        return True
class Closed(io.StringIO):
    def write(self, text):
        raise OSError(32, "Broken pipe")
with redirect_stdout(io.StringIO()), redirect_stderr(Terminal()):
    assert [(argv, main(argv)) for argv, _ in {calls!r}] == {calls!r}
with redirect_stdout(Closed()), redirect_stderr(io.StringIO()):
    assert main(["eval", "--poly", "l"]) == 2
sys.argv = ["dowlab", "eval", "--poly", "l"]
try:
    with redirect_stdout(io.StringIO()):
        entrypoint()
except SystemExit as done:
    assert done.code == 0
"""
    return _not_entered(sorted(SRC.glob("*.py")), code)


def _private(name: str) -> bool:
    return name.rpartition(".")[2].startswith("_")


def test_every_private_function_is_entered_by_a_cli_form(unentered):
    # a private function that no command reaches is dead code
    assert [name for name in unentered if _private(name)] == []


def test_every_public_function_is_entered_by_a_cli_form(unentered):
    # so is a public one, unless the benchmark's tracer wraps it by name
    assert _unspanned([name for name in unentered if not _private(name)]) == []


def test_an_unentered_private_function_is_found(tmp_path):
    module = tmp_path / "planted.py"
    module.write_text(
        "import functools\n"
        "def _used():\n    return 1\n"
        "@functools.lru_cache\n"
        "def _cached():\n    return 2\n"
        "def _unreachable():\n    return 3\n"
        "class Kit:\n"
        "    def _method(self):\n        return 4\n"
        "    def __repr__(self):\n        return 'Kit'\n"
        "    def reading(self):\n        return 5\n"
        "def public():\n    return _used() + _cached()\n"
        "def unread():\n    return 6\n"
    )
    code = f"import sys\nsys.path.insert(0, {str(tmp_path)!r})\nimport planted\nplanted.public()\n"
    assert _not_entered([module], code) == [
        "planted.Kit._method", "planted.Kit.reading", "planted._unreachable", "planted.unread"
    ]


def test_only_span_targets_and_their_classes_are_exempt():
    # a target is exempt under the module that defines it (the tracer finds
    # dobinski_eval in whitney), and so is every member of a class that
    # holds one; a public function outside the table is not
    names = ["dobinski.dobinski_eval", "whitney.build_triangle", "exact.LambdaPoly.eval",
             "exact.LambdaPoly.coerce", "series.TruncatedSeries.coeff", "families.family_rows",
             "identities.run_identity", "whitney.whitney2"]
    assert _unspanned(names) == ["families.family_rows", "identities.run_identity",
                                 "whitney.whitney2"]
