"""The core computes exactly: no module of affscat but svg.py (which draws
with floats) holds a float literal or calls float().  The integer layers
name no Fraction at all: the Weyl, sortable, shard, almost-positive,
cone and Coxeter modules, which import no linalg function that does, and
the bodies of linalg.echelon, of the double description,
its cutting step and the generator canonicalization in cones, of the cell
split, the relative-interior point search and the segment test scat_cone_eq
in scattering, and of the separating-hyperplane count in mutation.  The canonicalization and the
point search read integer generators as they are: they call neither rref
nor integral_multiple.  The Cartan matrix's coroot-lattice covectors, and
with them the coroots the almost-positive model reads, come out as ints
equal to the Fraction computation they replace."""

import ast
from fractions import Fraction
from pathlib import Path

from test_almost_positive import FAN_INSTANCES, make
from test_cartan import NotRealRoot, a_times, k_form, reflect_by_root
from test_coxeter import gamma_c
from test_orientation_sweep import ORIENTATIONS

import affscat
from affscat.cartan import ExchangeMatrix, exchange_to_cartan
from affscat.linalg import primitive_vector, vdot

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
INTEGER_MODULES = (
    "weyl.py",
    "sortable.py",
    "shards.py",
    "almost_positive.py",
    "cones.py",
    "coxeter.py",
)
INTEGER_FUNCTIONS = (
    ("linalg.py", "echelon"),
    ("cones.py", "_double_description"),
    ("cones.py", "_cut"),
    ("cones.py", "_pierce"),
    ("cones.py", "_edge_crossings"),
    ("cones.py", "_canonicalize_generators"),
    ("scattering.py", "_cells"),
    ("scattering.py", "scat_cone_eq"),
    ("mutation.py", "_separating_heights"),
)
# Bodies that take integer generators as they come, with no rational
# reduction or clearing of denominators.
GENERATOR_READERS = (
    ("cones.py", "_canonicalize_generators"),
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


def _fraction_functions(tree):
    """The names of the module's top-level functions whose bodies name Fraction."""
    return {
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and _fraction_uses(node)
    }


def _imports_from_linalg(tree):
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module in ("linalg", "affscat.linalg")
        for alias in node.names
    }


def test_fraction_functions_and_linalg_imports_are_found():
    tree = ast.parse(
        "from fractions import Fraction\ndef f(x):\n    return Fraction(x)\n"
        "def g(x):\n    return x\n"
    )
    assert _fraction_functions(tree) == {"f"}
    tree = ast.parse("from .linalg import a, b\nfrom affscat.linalg import c\nfrom .cones import d\n")
    assert _imports_from_linalg(tree) == {"a", "b", "c"}


def test_integer_layers_import_no_fraction_function_from_linalg():
    root = Path(affscat.__file__).parent
    dividing = _fraction_functions(ast.parse((root / "linalg.py").read_text()))
    assert {"rref", "det"} <= dividing and "echelon" not in dividing
    found = {
        name: sorted(_imports_from_linalg(ast.parse((root / name).read_text())) & dividing)
        for name in INTEGER_MODULES
    }
    assert not any(found.values()), {name: names for name, names in found.items() if names}


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


# CartanMatrix.coroot and CartanMatrix.coroot_coords as they were before the
# root data moved to integers (self is the Cartan matrix): the oracle.
def coroot(self, beta):
    """beta^vee = 2 beta / K(beta, beta), in alpha coordinates."""
    kk = k_form(self, beta, beta)
    if kk <= 0:
        raise NotRealRoot(f"{beta} is not a real root (K(b,b) = {kk})")
    return tuple(Fraction(2, 1) / kk * a for a in beta)


def coroot_coords(self, v):
    """Coordinates of v on the simple coroot basis alpha_i^vee = d_i^{-1} alpha_i."""
    return tuple(Fraction(v[i]) * self.d[i] for i in range(self.n))


def _is_int_tuple(v):
    return type(v) is tuple and all(type(c) is int for c in v)


def test_coroot_coords_are_ints():
    # The compatibility degree reads coroots in integers alone; the values
    # are those of the Fraction oracle.
    for rows, H in FAN_INSTANCES:
        ap = make(rows)
        for r in ap.ap_roots(H):
            cv = ap.cartan.primitive_in_coroot_lattice(r)
            assert _is_int_tuple(cv), r
            if r != ap.delta:
                assert cv == coroot_coords(ap.cartan, coroot(ap.cartan, r)), r


def _check_root_data(cartan, roots, delta):
    for v in roots:
        cov = cartan.primitive_in_coroot_lattice(v)
        assert _is_int_tuple(cov) and cov == primitive_vector(coroot_coords(cartan, v)), v
        assert cartan.primitive_in_coroot_lattice(list(v)) == cov, v
        if v != delta:
            # on a real root, the coroot itself
            assert cov == coroot_coords(cartan, coroot(cartan, v)), v


def test_coroots_and_covectors_match_the_fraction_oracle():
    for rows, H in FAN_INSTANCES:
        ap = make(rows)
        _check_root_data(ap.cartan, ap.ap_roots(H), ap.delta)
    for _, _, rows in ORIENTATIONS:
        ap = make([list(r) for r in rows])
        cap = max(4, sum(ap.delta))
        real = ap.cartan.real_roots_up_to_height(cap)
        negatives = [tuple(-c for c in r) for r in real]
        _check_root_data(ap.cartan, real + negatives + [ap.delta], ap.delta)


def test_reflect_by_root_matches_the_fraction_oracle():
    # t_beta(v) = v - K(beta^vee, v) beta, with the Fraction coroot.
    for rows, H in FAN_INSTANCES:
        cartan = exchange_to_cartan(ExchangeMatrix.from_rows(rows))
        roots = cartan.real_roots_up_to_height(H)
        for beta in roots:
            bv = coroot(cartan, beta)
            for v in roots[:12]:
                kv = k_form(cartan, bv, v)
                expect = tuple(x - kv * b for x, b in zip(v, beta))
                got = reflect_by_root(cartan, beta, v)
                assert _is_int_tuple(got) and got == expect, (beta, v)


def test_h_c_is_tested_in_integers():
    for rows, H in FAN_INSTANCES:
        ap = make(rows)
        h = ap.cox.affine.h
        assert _is_int_tuple(h) and any(h)
        gamma = gamma_c(ap.cox)
        k = [k_form(ap.cartan, gamma, ap.cartan.simple_root(j)) for j in range(ap.n)]
        t = next(Fraction(y) / x for x, y in zip(k, h) if x)
        assert t > 0 and h == tuple(t * x for x in k)  # a positive multiple
        for r in ap.cartan.real_roots_up_to_height(H):
            assert ap.cox.in_h_c(r) == (k_form(ap.cartan, gamma, r) == 0), r


def _sign(x):
    return (x > 0) - (x < 0)


def _sign_instances():
    """(APContext, roots) on the fans instances at their caps and the rank <= 4
    sweep orientations at max(4, |delta|): the real roots, their negatives
    and delta."""
    for rows, cap in list(FAN_INSTANCES) + [(o[2], None) for o in ORIENTATIONS]:
        ap = make([list(r) for r in rows])
        real = ap.cartan.real_roots_up_to_height(cap or max(4, sum(ap.delta)))
        yield ap, real + [tuple(-c for c in r) for r in real] + [ap.delta]


def test_sign_reads_match_the_fraction_forms():
    # The sign of omega_c(r, delta) (the defect, read by
    # scattering._Builder.imaginary_wall), the sign of the pairing <x, beta>
    # (mutation._separating_heights) and whether K(u, v) vanishes (the tube
    # cycle oracle _xi_cycles in test_almost_positive.py) are read off
    # integer covectors: cov(u) is a positive multiple of (u_i d_i).
    checked = 0
    for ap, roots in _sign_instances():
        cartan, cox = ap.cartan, ap.cox
        cov = cartan.primitive_in_coroot_lattice
        omega_delta = cox.omega_covector(ap.delta)
        points = roots[::3]
        for u in roots:
            assert _sign(cox.omega(u, ap.delta)) == _sign(vdot(cov(u), omega_delta)), u
            assert _sign(cox.omega(u, ap.delta)) == _sign(cox.defect(u)), u
            for x in points:
                assert _sign(cartan.pairing(x, u)) == _sign(vdot(x, cov(u))), (x, u)
                assert (k_form(cartan, x, u) != 0) == (vdot(cov(x), a_times(cartan, u)) != 0)
                checked += 1
    assert checked > 20_000
