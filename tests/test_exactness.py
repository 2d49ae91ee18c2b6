"""The library computes with exact values only: no float conversion, no
``math`` import but its integer functions, and no fractional powers
anywhere in ``src/normsys``."""

import ast
from pathlib import Path

import normsys

SOURCES = sorted(Path(normsys.__file__).parent.glob("*.py"))
# exact on integers, so they may be imported by name
INTEGER_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm"}


def _fractional(exponent) -> bool:
    return any(
        isinstance(n, ast.Div)
        or (isinstance(n, ast.Constant) and isinstance(n.value, float))
        for n in ast.walk(exponent)
    )


def _float_path(node):
    """What makes the node a float path, or None."""
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float":
        return "float() call"
    if isinstance(node, ast.FunctionDef) and node.name == "__float__":
        return "__float__ definition"
    if isinstance(node, ast.Import):
        if any(a.name.split(".")[0] == "math" for a in node.names):
            return "math import"
    if isinstance(node, ast.ImportFrom) and node.module == "math":
        if any(a.name not in INTEGER_MATH for a in node.names):
            return "math import"
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        if _fractional(node.right):
            return "fractional ** exponent"
    if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Pow):
        if _fractional(node.value):
            return "fractional ** exponent"
    return None


def violations(source: str) -> list:
    """(line, what) for each float path in the source."""
    return [
        (node.lineno, what)
        for node in ast.walk(ast.parse(source))
        if (what := _float_path(node))
    ]


def test_library_has_no_float_path():
    assert len(SOURCES) > 10
    found = {path.name: violations(path.read_text()) for path in SOURCES}
    assert {name: v for name, v in found.items() if v} == {}


def test_guard_sees_each_float_path():
    source = (
        "import math\n"
        "from math import comb, sqrt\n"
        "from math import gcd, lcm\n"
        "class Q:\n"
        "    def __float__(self):\n"
        "        return float(self.a) + self.b * self.d ** 0.5\n"
        "x = 2 ** (1 / 3)\n"
        "x **= 0.5\n"
        "y = 2 ** 10\n"
    )
    assert sorted(violations(source)) == [
        (1, "math import"),
        (2, "math import"),
        (5, "__float__ definition"),
        (6, "float() call"),
        (6, "fractional ** exponent"),
        (7, "fractional ** exponent"),
        (8, "fractional ** exponent"),
    ]
