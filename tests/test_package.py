"""The package's public names, and what each import loads.

The footprint tests run in a fresh interpreter: ``import normsys`` loads
no submodule, and a CLI command loads only the modules it uses.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import normsys
from normsys import chirotope

SRC = Path(normsys.__file__).parents[1]
PACKAGE = SRC / "normsys"
INPUTS = Path(__file__).parents[1] / "bench" / "inputs"
SUBMODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def fresh(code: str, *args: str):
    """The JSON that code prints last, run in a new interpreter on src."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1"),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


LOADED = "sorted(m for m in sys.modules if m.startswith('normsys.'))"


def test_public_names_resolve_once():
    names = normsys.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(normsys, name)]
    assert missing == []


def test_returned_types_are_public():
    # the concurrency sign maps are chirotopes
    assert "Chirotope" in normsys.__all__
    assert normsys.Chirotope is chirotope.Chirotope


def test_import_loads_no_submodule():
    """``import normsys`` loads no submodule; a module named as an
    attribute, or a public name, imports its module on first use."""
    code = (
        f"import json, sys, normsys; bare = {LOADED}; normsys.linalg; "
        f"linalg = {LOADED}; normsys.Symbol; print(json.dumps([bare, linalg, {LOADED}]))"
    )
    bare, linalg, symbol = fresh(code)
    assert bare == [] and linalg == ["normsys.field", "normsys.frozen", "normsys.linalg"]
    assert "normsys.symbols" in symbol and "normsys.arrangements" not in symbol


STAR = """
import json, sys, normsys
listed, star = set(dir(normsys)), {}
exec("from normsys import *", star)
bad = [
    name for name in normsys.__all__
    if name not in listed or name not in star
    or star[name] is not getattr(normsys, name)
    or star[name] is not getattr(sys.modules["normsys." + normsys._MODULE_OF[name]], name)
]
try:
    unknown = repr(normsys.no_such_name)
except AttributeError:
    unknown = "AttributeError"
from normsys import fm
print(json.dumps([bad, unknown, fm.__name__, normsys.arrangements.__name__]))
"""


def test_public_names_resolve_in_a_fresh_interpreter():
    """Every name of __all__ is its module's object, dir() lists it and a
    star import binds it; an unknown name is an AttributeError, and
    submodules resolve by name."""
    assert fresh(STAR) == [[], "AttributeError", "normsys.fm", "normsys.arrangements"]


@pytest.mark.parametrize("module", SUBMODULES)
def test_each_submodule_imports_on_its_own(module):
    loaded = fresh(f"import json, sys, normsys.{module}; print(json.dumps({LOADED}))")
    assert f"normsys.{module}" in loaded


def test_module_level_imports_have_no_cycle():
    """The graph of module-level relative imports is acyclic; the CLI's
    imports inside its handlers are not edges."""
    graph = {}
    for module in SUBMODULES:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        graph[module] = {
            node.module or alias.name
            for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names
        }
    done, path = set(), []

    def visit(module):
        assert module not in path, " -> ".join(path + [module])
        if module in done:
            return
        path.append(module)
        for dep in sorted(graph[module]):
            visit(dep)
        path.pop()
        done.add(module)

    for module in SUBMODULES:
        visit(module)
    assert graph["cli"] == {"field"}
    # the decision core: chi, its tables and the witness type
    assert graph["chirotope"] == {"field", "frozen"}
    assert graph["normal_systems"] == {"chirotope", "field", "frozen"}
    assert graph["arrangements"] == {"chirotope", "field", "frozen", "normal_systems"}


def test_every_import_is_read():
    """Each name a module binds by an import, at any depth, is read
    somewhere in it; ``__future__`` imports are exempt."""
    unread = {}
    for path in sorted(PACKAGE.glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text())))
        bound = {
            (alias.asname or alias.name).partition(".")[0]
            for node in nodes
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        read = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        if bound - read:
            unread[path.name] = sorted(bound - read)
    assert unread == {}


def loaded_by(*argv: str) -> list:
    code = (
        "import contextlib, io, json, sys\n"
        "from normsys.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(sys.argv[1:])\n"
        f"print(json.dumps([code, {LOADED}]))"
    )
    code, loaded = fresh(code, *argv)
    assert code in (0, 3)
    return loaded


# what a decision on a normal system loads: no sphere, cycles, symbols or linalg
DECISION_CORE = [
    f"normsys.{m}" for m in ("chirotope", "cli", "field", "frozen", "normal_systems")
]


@pytest.mark.parametrize(
    "argv",
    [["validate", "U1.json"], ["ns-iso", "U1.json", "U2.json"]],
    ids=["validate", "ns-iso"],
)
def test_normal_system_commands_load_no_arrangements(argv):
    """Exactly the decision core, and so no arrangements or fixtures."""
    loaded = loaded_by(argv[0], *(str(INPUTS / f) for f in argv[1:]))
    assert loaded == DECISION_CORE


@pytest.mark.parametrize(
    "argv",
    [
        ["regions", "ha_2_6.json"],
        ["ha-iso", "ha_2_6.json", "ha_2_6.json"],
        ["signs", "ha_2_6.json"],
        ["validate", "ha_2_6.json"],
    ],
    ids=["regions", "ha-iso", "signs", "validate"],
)
def test_arrangement_commands_load_no_fixtures(argv):
    loaded = loaded_by(argv[0], *(str(INPUTS / f) for f in argv[1:]))
    assert loaded == sorted(DECISION_CORE + ["normsys.arrangements"])


def test_standard_symbols_load_no_fixtures():
    """``symbols`` without a path builds the standard arrangement itself."""
    loaded = loaded_by("symbols")
    assert "normsys.symbols" in loaded
    assert not {"normsys.fixtures", "normsys.normal_systems", "normsys.cycles"} & set(loaded)
