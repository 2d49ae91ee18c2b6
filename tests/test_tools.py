"""The verification tools under ``tools/``: the CLI differential's
``compare`` and the fresh-input draw of ``allpairs``."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import normsys
from normsys import NormalSystem, find_isomorphisms

TOOLS = Path(__file__).parents[1] / "tools"


def load_tool(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def compare(tmp_path, a: list, b: list) -> int:
    for name, records in (("a.json", a), ("b.json", b)):
        (tmp_path / name).write_text(json.dumps(records))
    script = str(TOOLS / "cli_differential.py")
    argv = [sys.executable, script, "compare", str(tmp_path / "a.json"), str(tmp_path / "b.json")]
    return subprocess.run(argv, capture_output=True, text=True, timeout=60).returncode


def test_cli_differential_compare_exit_codes(tmp_path):
    records = [
        {"argv": ["validate", f], "exit": 0, "stdout": "valid\n", "stderr": "", "output": None}
        for f in ("a.json", "b.json", "c.json")
    ]
    assert compare(tmp_path, records, records) == 0
    changed = [dict(r) for r in records]
    changed[1]["stdout"] = "invalid\n"
    assert compare(tmp_path, records, changed) == 1


def test_allpairs_draws_isomorphic_copies():
    allpairs = load_tool("allpairs")
    m, n = allpairs.SHAPES[0]
    lists = allpairs.vector_lists(m, n, normsys)
    systems = [NormalSystem(m, rows) for rows in lists]  # raises unless valid
    assert len(systems) == allpairs.K
    for ns in systems:
        assert ns.n == n
    for before, copy in zip(systems[::2], systems[1::2]):
        assert find_isomorphisms(before, copy)
