"""The core computes exactly: no module of affscat but svg.py (which draws
with floats) holds a float literal or calls float().  The integer layers
name no Fraction at all: the Weyl, sortable, shard and almost-positive
modules, and the bodies of linalg.echelon, of the double description and
the generator canonicalization in cones, and of the cell split and the
relative-interior point search in scattering.  The canonicalization and the
point search read integer generators as they are: they call neither rref
nor integral_multiple.  The almost-positive model's coroot coordinates come
out as ints."""

import ast
from pathlib import Path

from test_almost_positive import FAN_INSTANCES, make

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


# Modules, and (module, function) bodies, that compute in integers alone.
INTEGER_MODULES = ("weyl.py", "sortable.py", "shards.py", "almost_positive.py")
INTEGER_FUNCTIONS = (
    ("linalg.py", "echelon"),
    ("cones.py", "_double_description"),
    ("cones.py", "_add_halfspace"),
    ("cones.py", "_section"),
    ("cones.py", "_pierce"),
    ("cones.py", "_edge_crossings"),
    ("cones.py", "_canonicalize_generators"),
    ("scattering.py", "_cells"),
    ("scattering.py", "_generic_relint_point"),
)
# Bodies that take integer generators as they come, with no rational
# reduction or clearing of denominators.
GENERATOR_READERS = (
    ("cones.py", "_canonicalize_generators"),
    ("scattering.py", "_generic_relint_point"),
)


def _fraction_uses(tree):
    return [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "Fraction")
        or (isinstance(node, ast.Attribute) and node.attr == "Fraction")
        or (isinstance(node, ast.alias) and node.name == "Fraction")
    ]


def _function(path, name):
    tree = ast.parse(path.read_text())
    return next(
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == name
    )


def test_fraction_uses_are_found():
    tree = ast.parse(
        "from fractions import Fraction\nx = 1\ny = Fraction(1, 2)\n"
        "import fractions\nz = fractions.Fraction(3)\nw = float(x)\n"
    )
    assert _fraction_uses(tree) == [1, 3, 5]


def test_integer_layers_name_no_fraction():
    root = Path(affscat.__file__).parent
    found = {name: _fraction_uses(ast.parse((root / name).read_text())) for name in INTEGER_MODULES}
    for module, name in INTEGER_FUNCTIONS:
        found[f"{module}:{name}"] = _fraction_uses(_function(root / module, name))
    assert not any(found.values()), {name: lines for name, lines in found.items() if lines}


def _calls_to(tree, names):
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (
            (isinstance(node.func, ast.Name) and node.func.id in names)
            or (isinstance(node.func, ast.Attribute) and node.func.attr in names)
        )
    ]


def test_calls_are_found():
    tree = ast.parse(
        "x = rref(m)\ny = linalg.integral_multiple(v)\nz = echelon(m)\n"
        "w = rref\nu = [integral_multiple(r) for r in m]\n"
    )
    assert _calls_to(tree, {"rref", "integral_multiple"}) == [1, 2, 5]


def test_generator_readers_neither_reduce_nor_clear():
    root = Path(affscat.__file__).parent
    found = {
        f"{module}:{name}": _calls_to(_function(root / module, name), {"rref", "integral_multiple"})
        for module, name in GENERATOR_READERS
    }
    assert not any(found.values()), {name: lines for name, lines in found.items() if lines}


def test_coroot_coords_are_ints():
    # The compatibility degree reads coroots in integers alone; the values
    # are those of cartan.coroot, which divides in Fractions.
    for rows, H in FAN_INSTANCES:
        ap = make(rows)
        for r in ap.ap_roots(H):
            cv = ap._coroot_coords(r)
            assert type(cv) is tuple and all(type(c) is int for c in cv), r
            if r != ap.delta:
                assert cv == ap.cartan.coroot_coords(ap.cartan.coroot(r)), r
