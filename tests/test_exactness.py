"""The core computes exactly: no module of affscat but svg.py (which draws
with floats) holds a float literal or calls float()."""

import ast
from pathlib import Path

import affscat

CORE = sorted(p for p in Path(affscat.__file__).parent.glob("*.py") if p.name != "svg.py")


def _float_uses(tree):
    return [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Constant) and isinstance(node.value, float))
        or (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        )
    ]


def test_float_uses_are_found():
    tree = ast.parse("x = 1\ny = 0.5\nz = float(x)\nw = Fraction(1, 2)\n")
    assert _float_uses(tree) == [2, 3]


def test_no_floating_point_in_the_core():
    assert {"scattering.py", "cones.py", "linalg.py", "series.py"} <= {p.name for p in CORE}
    found = {p.name: _float_uses(ast.parse(p.read_text())) for p in CORE}
    assert not any(found.values()), {name: lines for name, lines in found.items() if lines}
