import random
from fractions import Fraction
from itertools import combinations
from operator import mul

import pytest
from test_linalg import _reference_kernel_basis, _reference_solve_linear
from test_orientation_sweep import ORIENTATIONS, _id, _instance

from affscat.almost_positive import APContext
from affscat.cartan import ExchangeMatrix
from affscat.cones import Cone, SignTable, _canonicalize_generators, _double_description, bits
from affscat.coxeter import coxeter_context
from affscat.jsonio import _last_entry_one, cone_json, dumps, frac_str, vec_json
from affscat.linalg import (
    echelon,
    primitive_vector,
    rank,
    rref,
    vdot,
)
from affscat.scattering import build_dcscat

F = Fraction


def test_full_space_generators():
    c = Cone.from_constraints(2)
    lin, rays = c.generators
    assert len(lin) == 2 and rays == ()
    assert c.dim == 2


def test_halfplane_and_quadrant():
    half = Cone.from_constraints(2, ineqs=[(-1, 0)])  # x >= 0
    lin, rays = half.generators
    assert len(lin) == 1 and len(rays) == 1
    quad = Cone.from_constraints(2, ineqs=[(-1, 0), (0, -1)])
    lin, rays = quad.generators
    assert lin == ()
    assert set(rays) == {(1, 0), (0, 1)}
    assert quad.contains((2, 3))
    assert not quad.contains((-1, 2))
    assert quad.relint_contains((1, 1))
    assert not quad.relint_contains((0, 1))


def test_ray_in_plane():
    # {x : x_1 = 0, x_2 <= 0} in dim 2 is the ray through (0,-1).
    c = Cone.from_constraints(2, eqs=[(1, 0)], ineqs=[(0, 1)])
    lin, rays = c.generators
    assert lin == ()
    assert rays == ((0, -1),)
    assert c.dim == 1


def test_simplicial_cone_3d():
    c = Cone.from_constraints(3, ineqs=[(-1, 0, 0), (0, -1, 0), (0, 0, -1)])
    assert set(c.rays) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    assert c.dim == 3
    p = tuple(map(sum, zip(*c.rays)))
    assert c.relint_contains(p)


def test_redundant_inequality_same_cone():
    a = Cone.from_constraints(2, ineqs=[(-1, 0), (0, -1)])
    b = Cone.from_constraints(2, ineqs=[(-1, 0), (0, -1), (-1, -1)])
    assert a.generators == b.generators


def test_from_rays_roundtrip():
    rays = [(1, 0, 0), (1, 1, 0), (1, 1, 1)]
    c = Cone.from_rays(3, rays)
    assert set(c.rays) == set(rays)
    assert c.contains((3, 2, 1))
    assert not c.contains((0, 1, 0))


def test_from_rays_with_lineality():
    c = Cone.from_rays(3, [(1, 0, 0)], lineality=[(0, 0, 1)])
    assert c.dim == 2
    assert c.contains((1, 0, 5))
    assert c.contains((1, 0, -5))
    assert not c.contains((-1, 0, 0))


def test_contains_cone_and_intersection():
    big = Cone.from_constraints(2, ineqs=[(0, -1)])  # y >= 0
    small = Cone.from_constraints(2, ineqs=[(-1, 0), (0, -1)])
    assert big.contains_cone(small)
    assert not small.contains_cone(big)
    meet = big.intersect(Cone.from_constraints(2, ineqs=[(1, 0)]))  # x <= 0, y >= 0
    assert set(meet.rays) == {(-1, 0), (0, 1)}


def test_implicit_equalities_relint():
    # {x <= 0, -x <= 0} pins x = 0: relative interior needs y side strict.
    c = Cone.from_constraints(2, ineqs=[(1, 0), (-1, 0), (0, -1)])
    assert c.dim == 1
    assert c.relint_contains((0, 1))
    assert not c.relint_contains((0, 0))


def test_negate():
    c = Cone.from_constraints(2, eqs=[(1, 1)], ineqs=[(0, 1)])
    n = c.negate()
    assert c.rays == ((1, -1),)
    assert n.rays == ((-1, 1),)


def test_extreme_filter_drops_interior_ray():
    c = Cone.from_rays(2, [(1, 0), (1, 1), (0, 1)])
    assert set(c.rays) == {(1, 0), (0, 1)}


def test_contains_is_invariant_under_positive_scaling():
    # On the nu_c fan cones of G_2^(1), contains answers alike on every
    # positive multiple of a point, Fraction multiples included.
    b = ExchangeMatrix.from_rows([[0, 1, 0], [-1, 0, 1], [0, -3, 0]])
    cones = [cone for _, cone in APContext(coxeter_context(b)).fan_cones(6)]
    rng = random.Random(5)
    points = {tuple(F(rng.randint(-12, 12), rng.randint(1, 3)) for _ in range(3)) for _ in range(30)}
    points |= {r for c in cones for r in c.rays}  # on the boundaries of the neighbours
    points |= {tuple(sum(r[i] for r in c.rays) for i in range(3)) for c in cones}  # relative interiors
    for cone in cones:
        for x in points:
            expected = all(vdot(x, e) == 0 for e in cone.eqs) and all(
                vdot(x, g) <= 0 for g in cone.ineqs
            )
            for c in (1, F(1, 6), F(5, 2), 3):
                assert cone.contains(tuple(c * a for a in x)) == expected


def _is_nonneg_combo(r, others):
    """Whether r is a nonnegative combination of others.  Caratheodory: it
    suffices to try the linearly independent subsets."""
    for size in range(1, len(others) + 1):
        for subset in combinations(others, size):
            if rank([list(s) for s in subset]) < size:
                continue
            sol = _reference_solve_linear([list(col) for col in zip(*subset)], list(r))
            if sol is not None and all(t >= 0 for t in sol):
                return True
    return False


def _random_cone_input(rng, dims=(2, 4), fractions=False):
    """(from_rays, dim, first, second): the rays and lineality of a small cone
    with duplicate and interior rays when from_rays, else its inequalities,
    some redundant or forming implicit equalities, and equalities.  With
    fractions, some entries get denominators 2 to 4."""
    dim = rng.randint(*dims)

    def entry():
        a = rng.randint(-3, 3)
        return F(a, rng.randint(2, 4)) if fractions and rng.random() < 0.3 else a

    def vec():
        return tuple(entry() for _ in range(dim))

    def plus(u, v):
        return tuple(a + b for a, b in zip(u, v))

    if rng.random() < 0.4:
        rays = [vec() for _ in range(rng.randint(1, 6))]
        rays += [rng.choice(rays), plus(rng.choice(rays), rng.choice(rays))]
        lineality = [vec() for _ in range(rng.randint(0, 1))]
        return True, dim, rays, lineality
    ineqs = [vec() for _ in range(rng.randint(1, 7))]
    ineqs.append(plus(rng.choice(ineqs), rng.choice(ineqs)))
    if rng.random() < 0.3:
        ineqs.append(tuple(-c for c in rng.choice(ineqs)))
    rng.shuffle(ineqs)
    eqs = [vec() for _ in range(rng.randint(0, 1))]
    return False, dim, ineqs, eqs


def _random_cone(rng):
    from_rays, dim, first, second = _random_cone_input(rng)
    return Cone.from_rays(dim, first, second) if from_rays else Cone.from_constraints(dim, second, first)


def test_double_description_generators_are_minimal():
    # Double description alone must give the extreme rays: nothing filters
    # or dedupes its result afterwards.
    rng = random.Random(8)
    for _ in range(300):
        cone = _random_cone(rng)
        lin, rays = cone.generators
        dim = cone.dim_ambient
        assert len(set(rays)) == len(rays), cone
        for r in rays:
            assert cone.contains(r), cone
            assert rank([list(v) for v in lin + (r,)]) == len(lin) + 1, cone
            tight = list(cone.eqs) + [g for g in cone.ineqs if vdot(r, g) == 0]
            assert rank([list(g) for g in tight]) == dim - 1 - len(lin), (cone, r)
        if len(rays) <= 6:
            for r in rays:
                assert not _is_nonneg_combo(r, [o for o in rays if o != r]), (cone, r)


# The perfbench orientations of the fans and clusters instances, with their
# height caps.  D_4^(1) is the star with vertex 0 a source.
FAN_INSTANCES = (
    ([[0, 1, 1], [-1, 0, 1], [-1, -1, 0]], 6),
    ([[0, 1, 0], [-1, 0, 1], [0, -3, 0]], 6),
    ([[0, 1, 0, 1], [-1, 0, 1, 0], [0, -1, 0, -1], [-1, 0, 1, 0]], 4),
    ([[0, 1, 1, 1, 1]] + [[-1, 0, 0, 0, 0]] * 4, 4),
)


def test_simplicial_generators_match_double_description():
    for rows, H in FAN_INSTANCES:
        ap = APContext(coxeter_context(ExchangeMatrix.from_rows(rows)))
        for members, cone in ap.fan_cones(H):
            rays = [ap.cox.nu(r) for r in members]
            by_rays = Cone.from_rays(ap.n, rays)
            assert (cone.eqs, cone.ineqs) == (by_rays.eqs, by_rays.ineqs), members
            by_dd = Cone.from_constraints(ap.n, cone.eqs, cone.ineqs)
            assert cone.generators == by_dd.generators, members


# Cone.simplicial as it was before it read its constraints off one echelon,
# kept verbatim as the reference: the dual description of from_rays.
def _reference_simplicial(dim, rays) -> "Cone":
    """Cone on linearly independent rays.  They are its extreme rays, so
    `generators` is set from them; only the constraints come from the
    dual description."""
    cone = Cone.from_rays(dim, rays)
    # The dual cone's lineality is the annihilator of span(rays).
    assert len(cone.eqs) == dim - len(rays), "simplicial cone needs independent rays"
    return cone.with_generators((), rays)


def _check_simplicial(dim, rays):
    got, ref = Cone.simplicial(dim, rays), _reference_simplicial(dim, rays)
    assert (got.eqs, got.ineqs) == (ref.eqs, ref.ineqs), rays
    assert [type(x) for e in got.eqs for x in e] == [type(x) for e in ref.eqs for x in e]
    by_dd = Cone.from_constraints(dim, ref.eqs, ref.ineqs)
    assert got.generators == ref.generators == by_dd.generators, rays
    assert got.dim == ref.dim == len(rays), rays


@pytest.mark.parametrize("orientation", ORIENTATIONS, ids=_id)
def test_simplicial_matches_the_dual_description_on_sweep_fan_cones(orientation):
    # Every fan cone at H = max(4, |delta|), the empty clique included.
    bmat, cox, cap, _ = _instance(orientation[2])
    ap = APContext(cox)
    fan = ap.fan_cones(cap)
    assert () in [members for members, _ in fan]
    for members, _ in fan:
        _check_simplicial(ap.n, [ap.cox.nu(r) for r in members])


def test_simplicial_matches_the_dual_description_on_random_rays():
    rng = random.Random(12)
    checked = 0
    for _ in range(1500):
        dim = rng.randint(1, 5)
        rays = [
            tuple(F(rng.randint(-4, 4), rng.choice([1, 1, 2, 3])) for _ in range(dim))
            for _ in range(rng.randint(0, dim))
        ]
        if rays and rank([list(r) for r in rays]) < len(rays):
            for simplicial in (Cone.simplicial, _reference_simplicial):
                with pytest.raises(AssertionError):
                    simplicial(dim, rays)
            continue
        _check_simplicial(dim, rays)
        checked += 1
    assert checked > 1000


# Cone.from_rays, Cone.simplicial and jsonio.cone_json as they were when the
# equalities of from_rays and simplicial cones were Fraction vectors, kept
# verbatim as the reference but for two calls.  from_rays read the integer
# double description, which also returned each lineality vector's home
# coordinate, and divided each vector by its home entry: that is the
# rational double description's lineality, so it calls that instead.  And
# Cone.from_constraints kept covectors as given, so the Cone constructor
# stands for it.
def _fraction_from_rays(dim, rays, lineality=()) -> "Cone":
    """Cone generated by rays plus a lineality space, via dual description."""
    # Dual cone {g : <l,g> = 0, <r,g> <= 0}; its generators give our constraints.
    eqs, drays = _reference_double_description(dim, list(lineality), list(rays))
    return Cone(dim, tuple(map(tuple, eqs)), tuple(map(tuple, drays)))


def _fraction_simplicial(dim, rays) -> "Cone":
    """Cone on linearly independent rays, with the constraints from_rays
    gives, read off one echelon of [R | I_k] (R the k x n matrix of the
    rays; see the module docstring).  The rays are its extreme rays, so
    `generators` is set from them and `dim` is k."""
    k = len(rays)
    rows = [list(r) + [int(i == j) for j in range(k)] for i, r in enumerate(rays)]
    red, pivots, d, _ = echelon(rows)
    # R has rank k exactly when every pivot lies in its block.
    assert not pivots or pivots[-1] < dim, "simplicial cone needs independent rays"
    eqs = []
    for h in range(dim):
        if h not in pivots:
            v = [0] * dim
            v[h] = d
            for row, p in zip(red, pivots):
                v[p] = -row[h]
            eqs.append(tuple(Fraction(x, d) for x in v))
    ineqs = []
    for i in range(dim, dim + k):
        g = [0] * dim
        for row, p in zip(red, pivots):
            g[p] = -row[i]
        ineqs.append(primitive_vector(g))
    cone = Cone(dim, tuple(eqs), tuple(ineqs)).with_generators((), rays)
    cone.__dict__["dim"] = k
    return cone


def _fraction_cone_json(cone):
    lin, rays = cone.generators
    return {
        "rays": [vec_json(r) for r in rays],
        "lineality": [vec_json(v) for v in lin],
        "ineqs": [vec_json(g) for g in cone.ineqs],
        "eqs": [vec_json(e) for e in cone.eqs],
    }


@pytest.mark.parametrize("orientation", ORIENTATIONS, ids=_id)
def test_fan_cone_json_is_that_of_the_fraction_equalities(orientation):
    # clusters prints every fan cone at its --H; here H = 4.  The integer
    # equalities print as the Fraction ones did.  (_check_against_reference
    # compares from_rays with the Fraction one.)
    ap = APContext(coxeter_context(ExchangeMatrix.from_rows([list(r) for r in orientation[2]])))
    for members, cone in ap.fan_cones(4):
        old = _fraction_simplicial(ap.n, [ap.cox.nu(r) for r in members])
        assert dumps(cone_json(cone)) == dumps(_fraction_cone_json(old)), members
        assert all(type(x) is int for e in cone.eqs for x in e), members


def test_frac_str_is_str_of_the_fraction():
    # On ints, Fractions (integral ones among them) and every entry that
    # cone_json formats on the fans and clusters instances' fans.
    values = [0, 1, -1, 7, -12, 2**70, F(0), F(3), F(-4, 2), F(1, 2), F(-7, 3), F(2**70, 3)]
    for rows, H in FAN_INSTANCES:
        ap = APContext(coxeter_context(ExchangeMatrix.from_rows(rows)))
        for _, cone in ap.fan_cones(H):
            lin, rays = cone.generators
            values.extend(x for v in rays + lin + cone.ineqs for x in v)
            values.extend(x for e in cone.eqs for x in _last_entry_one(e))
    assert sum(type(x) is F and x.denominator != 1 for x in values) > 3
    for x in values:
        assert frac_str(x) == str(F(x)), x


def _wall_normal(covector, d):
    """The primitive nonnegative root whose coroot-lattice covector spans the
    line of covector, as mutation.fans_compare reads it."""
    beta = primitive_vector(tuple(F(c) / di for c, di in zip(covector, d)))
    return tuple(-c for c in beta) if any(c < 0 for c in beta) else beta


def test_codim1_fan_cone_equality_is_its_span_covector():
    # fans_compare reads a codimension-1 fan cone's normal off its one
    # equality; the span covector from a kernel of its rays gives the same.
    checked = 0
    for rows, H in FAN_INSTANCES:
        ap = APContext(coxeter_context(ExchangeMatrix.from_rows(rows)))
        d = ap.cox.cartan.d
        for members, cone in ap.fan_cones(H):
            if cone.dim != ap.n - 1:
                continue
            (eq,) = cone.eqs
            assert all(vdot(r, eq) == 0 for r in cone.rays), members
            (ker,) = _reference_kernel_basis([list(r) for r in cone.rays])
            assert _wall_normal(eq, d) == _wall_normal(ker, d), members
            checked += 1
    assert checked > 0


def test_simplicial_rejects_dependent_rays():
    import pytest

    for rays in ([(1, 0), (2, 0)], [(1, 0), (0, 1), (1, 1)]):
        with pytest.raises(AssertionError):
            Cone.simplicial(2, rays)


def test_simplicial_zero_cone():
    c = Cone.simplicial(2, [])
    assert c.generators == ((), ())
    assert c.dim == 0
    assert c.contains((0, 0)) and not c.contains((1, 0))


# The rational double description the integer one replaced, kept verbatim as
# the reference: its lineality vectors are Fraction vectors, and the pierced
# branch divides by <witness, g>.
def _reference_double_description(dim, eqs, ineqs):
    """Generators (lineality, rays) of {x : <x,e>=0, <x,g><=0}."""
    lin = [tuple(v) for v in _reference_kernel_basis([list(e) for e in eqs])] if eqs else [
        tuple(Fraction(1) if i == j else Fraction(0) for i in range(dim)) for j in range(dim)
    ]
    rays: list = []
    processed: list = []
    for g in ineqs:
        lin, rays = _reference_add_halfspace(lin, rays, g, processed)
        processed.append(g)
    return lin, rays


def _reference_add_halfspace(lin, rays, g, processed):
    pierced = next((l for l in lin if vdot(l, g) != 0), None)
    if pierced is not None:
        # Lineality drops by one; keep the in-hyperplane part and one new ray.
        val0 = vdot(pierced, g)
        witness = tuple(-c for c in pierced) if val0 > 0 else pierced  # <witness, g> < 0
        wval = vdot(witness, g)
        new_lin = []
        for l in lin:
            if l is pierced:
                continue
            coef = Fraction(vdot(l, g), wval)
            new_lin.append(tuple(a - coef * b for a, b in zip(l, witness)))
        new_rays = []
        for r in rays:
            coef = Fraction(vdot(r, g), wval)
            new_rays.append(primitive_vector(tuple(a - coef * b for a, b in zip(r, witness))))
        new_rays.append(primitive_vector(witness))
        return new_lin, new_rays

    neg = [r for r in rays if vdot(r, g) < 0]
    zero = [r for r in rays if vdot(r, g) == 0]
    pos = [r for r in rays if vdot(r, g) > 0]
    if not pos:
        return lin, rays
    combos = []
    for rp in pos:
        vp = vdot(rp, g)
        for rn in neg:
            if not _reference_adjacent(rp, rn, rays, processed):
                continue
            vn = vdot(rn, g)
            combos.append(primitive_vector(tuple(vp * a - vn * b for a, b in zip(rn, rp))))
    return lin, neg + zero + combos


def _reference_adjacent(r1, r2, rays, processed):
    """Zero-set adjacency: no third ray is tight on every constraint tight at both."""
    tight = [g for g in processed if vdot(r1, g) == 0 and vdot(r2, g) == 0]
    for r3 in rays:
        if r3 is r1 or r3 is r2:
            continue
        if all(vdot(r3, g) == 0 for g in tight):
            return False
    return True


def _check_against_reference(dim, ineqs, eqs):
    """The cone {<x, e> = 0, <x, g> <= 0}, and the cone with rays ineqs and
    lineality eqs, against the rational double description."""
    lin, rays = _reference_double_description(dim, eqs, ineqs)
    cone = Cone.from_constraints(dim, eqs, ineqs)
    assert cone.generators == _canonicalize_generators(lin, rays), (dim, eqs, ineqs)
    assert cone.dim == len(rref([list(v) for v in lin] + [list(r) for r in rays]))

    by_rays, ref = Cone.from_rays(dim, ineqs, eqs), _fraction_from_rays(dim, ineqs, eqs)
    assert by_rays.ineqs == ref.ineqs, (dim, eqs, ineqs)
    # each equality is a positive multiple of the rational one
    assert list(map(primitive_vector, by_rays.eqs)) == list(map(primitive_vector, ref.eqs))
    assert all(type(x) is int for e in by_rays.eqs for x in e)
    ref.__dict__["generators"] = _canonicalize_generators(
        *_reference_double_description(dim, ref.eqs, ref.ineqs)
    )
    assert dumps(cone_json(by_rays)) == dumps(cone_json(ref))


def _reference_inputs():
    """The minimality set of test_double_description_generators_are_minimal,
    then dims 2-5 with Fraction covectors, with and without equalities."""
    rng = random.Random(8)
    inputs = [_random_cone_input(rng) for _ in range(300)]
    rng = random.Random(13)
    inputs += [_random_cone_input(rng, (2, 5), fractions=True) for _ in range(300)]
    return inputs


def test_double_description_matches_rational_reference():
    inputs = _reference_inputs()
    assert any(second for *_, second in inputs) and any(not second for *_, second in inputs)
    assert any(F(x).denominator != 1 for _, _, first, _ in inputs for v in first for x in v)
    for _, dim, first, second in inputs:
        _check_against_reference(dim, first, second)


def test_rank_matches_rref():
    rng = random.Random(21)
    assert rank([]) == 0
    assert rank([[0, 0, 0], [0, 0, 0]]) == 0
    for _ in range(400):
        rows, cols = rng.randint(0, 6), rng.randint(1, 6)
        m = [[rng.choice((0, 0, 1, -1, 2, F(1, 2), F(-3, 4))) for _ in range(cols)] for _ in range(rows)]
        if m and rng.random() < 0.3:
            m.append([0] * cols)
            m.append([a + b for a, b in zip(m[0], m[-2])])
            rng.shuffle(m)
        assert rank(m) == len(rref(m)), m


# The rref canonicalization the integer one replaced, kept verbatim as the
# reference: Fraction basis rows with pivot 1, and rays reduced against them.
def _reference_reduce_mod_rref(v, rref_rows):
    """v minus a combination of rref_rows that clears every pivot column of v.

    The rows must be in reduced row echelon form (pivots 1, pivot columns
    cleared elsewhere), as returned by rref; v is zero on return exactly when
    it lies in their span.
    """
    out = list(v)
    for row in rref_rows:
        p = next(i for i, x in enumerate(row) if x != 0)
        coef = out[p]
        if coef != 0:
            out = [a - coef * b for a, b in zip(out, row)]
    return tuple(out)


def _reference_canonicalize_generators(lin, rays):
    lin_basis = [tuple(r) for r in rref([list(v) for v in lin])]
    reduced = [primitive_vector(_reference_reduce_mod_rref(r, lin_basis)) for r in rays]
    return tuple(lin_basis), tuple(sorted(reduced))


def _generator_cases():
    """(lineality, rays) straight from the double description: of both
    descriptions of each reference input, and of 300 seeded random cones."""
    cases = []
    for _, dim, first, second in _reference_inputs():
        for eqs, ineqs in ((second, first), (first, second)):
            cone = Cone.from_constraints(dim, eqs, ineqs)
            lin, rays, _ = _double_description(dim, cone.eqs, cone.ineqs)
            cases.append((lin, rays))
    rng = random.Random(8)
    for _ in range(300):
        cone = _random_cone(rng)
        lin, rays, _ = _double_description(cone.dim_ambient, cone.eqs, cone.ineqs)
        cases.append((lin, rays))
    return cases


def test_canonical_generators_match_rref_reference():
    cases = _generator_cases()
    assert sum(1 for lin, _ in cases if len(lin) >= 2) > 50
    for lin, rays in cases:
        basis, reduced = _canonicalize_generators(lin, rays)
        ref_basis, ref_rays = _reference_canonicalize_generators(lin, rays)
        assert reduced == ref_rays, (lin, rays)
        assert basis == tuple(primitive_vector(row) for row in ref_basis), (lin, rays)
        assert all(type(x) is int for v in basis + reduced for x in v)


def test_canonical_generators_ignore_the_choice_of_basis():
    # Shuffling the lineality, scaling it by positive factors, mixing it by
    # unimodular row operations, and moving each ray along it and scaling it
    # leave the same cone, so they must leave the same generators.
    rng = random.Random(4)
    for lin, rays in _generator_cases():
        expected = _canonicalize_generators(lin, rays)
        for _ in range(2):
            mixed = [list(v) for v in lin]
            rng.shuffle(mixed)
            for _ in range(len(mixed)):
                if len(mixed) >= 2:
                    i, j = rng.sample(range(len(mixed)), 2)
                    c = rng.randint(-3, 3)
                    mixed[i] = [a + c * b for a, b in zip(mixed[i], mixed[j])]
            scales = [F(rng.randint(1, 5), rng.randint(1, 3)) for _ in mixed]
            mixed = [tuple(c * a for a in v) for c, v in zip(scales, mixed)]
            moved = []
            for r in rays:
                shift = [rng.randint(-2, 2) for _ in lin]
                scale = rng.randint(1, 4)
                r = tuple(a + sum(c * v[k] for c, v in zip(shift, lin)) for k, a in enumerate(r))
                moved.append(tuple(scale * a for a in r))
            rng.shuffle(moved)
            assert _canonicalize_generators(mixed, moved) == expected, (lin, rays)


def test_relint_candidates_lie_in_the_relative_interior():
    # Every candidate of scattering._generic_relint_point weights each
    # extreme ray positively, so it needs no relative-interior test; on a
    # cell of scattering._codim2_faces the walls of its plane contain it or
    # miss its relative interior, so only walls outside it can reject one.
    rng = random.Random(8)
    checked = 0
    for _ in range(300):
        face = _random_cone(rng)
        lin, rays = face.generators
        for attempt in (1, 2, 3):
            point = [0] * face.dim_ambient
            for i, g in enumerate(rays + lin):
                scale = attempt ** (i + 1) + i + 1
                if i >= len(rays) and attempt % 2 == 0:
                    scale = -scale
                for j, c in enumerate(g):
                    point[j] += scale * c
            assert face.relint_contains(tuple(point)), (face, attempt)
            checked += 1
    assert checked == 900


# The SignTable queries as they were before each direction kept the bitmask
# of the cones allowing each sign, kept verbatim as the reference: a point
# was turned into sign masks over the directions, then tested cone by cone.
class _ReferenceSignTable(SignTable):
    @staticmethod
    def mask(values):
        """(pos, neg): the bits j with values[j] > 0, and those with values[j] < 0."""
        pos = neg = 0
        bit = 1
        for v in values:
            if v > 0:
                pos |= bit
            elif v < 0:
                neg |= bit
            bit <<= 1
        return pos, neg

    def signs(self, x):
        """The masks of x paired with each direction."""
        return self.mask([sum(map(mul, x, d)) for d in self.directions])

    def holds(self, pos, neg) -> list:
        """For each cone, whether a point with these masks lies in it."""
        return [not (pos & fp or neg & fn) for fp, fn in self.forbid]

    def members(self, x) -> list:
        """[cone.contains(x) for cone in cones]."""
        return self.holds(*self.signs(x))


def _sign_table_points(cones, rng, count=150):
    """The origin, seeded integer points, every ray and lineality vector (both
    signs) of every cone, and on the boundaries: the sum of two rays of one
    cone and a ray plus a lineality vector; in the relative interiors: a
    seeded positive combination of every generator of each cone."""
    n = cones[0].dim_ambient
    points = {(0,) * n}
    points.update(tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(count))
    for cone in cones:
        lin, rays = cone.generators
        lin = lin + tuple(tuple(-c for c in v) for v in lin)
        points.update(rays + lin)
        points.update(tuple(a + b for a, b in zip(u, v)) for u, v in combinations(rays + lin, 2))
        weights = [rng.randint(1, 5) for _ in rays + lin]
        points.add(tuple(sum(w * g[i] for w, g in zip(weights, rays + lin)) for i in range(n)))
    return sorted(points)


def _check_sign_table(cones, points):
    table = SignTable(cones)
    reference = _ReferenceSignTable(cones)
    for x in points:
        inside = [c.contains(x) for c in cones]
        assert table.locate(x) == sum(1 << i for i, hit in enumerate(inside) if hit), x
        assert bits(table.locate(x)) == [i for i, hit in enumerate(inside) if hit], x
        assert reference.members(x) == inside, x
    return table


def test_sign_table_matches_contains_on_fan_cones():
    rng = random.Random(31)
    for rows, H in FAN_INSTANCES:
        ap = APContext(coxeter_context(ExchangeMatrix.from_rows(rows)))
        cones = [cone for _, cone in ap.fan_cones(H)]
        _check_sign_table(cones, _sign_table_points(cones, rng))


def test_sign_table_matches_contains_on_walls():
    # The fans and clusters instances at their caps (the fans workload's
    # diagrams are the first two); the points include the fan cones'
    # generators too, and a point in the relative interior of every wall.
    rng = random.Random(32)
    on_a_wall = 0
    for rows, H in FAN_INSTANCES:
        bmat = ExchangeMatrix.from_rows(rows)
        walls = [w.cone for w in build_dcscat(bmat, H, H).walls]
        fan = [cone for _, cone in APContext(coxeter_context(bmat)).fan_cones(H)]
        points = _sign_table_points(walls + fan, rng)
        table = _check_sign_table(walls, points)
        on_a_wall += sum(table.locate(x) != 0 for x in points)
    assert on_a_wall > 1000


def test_sign_table_shares_a_direction_between_g_and_minus_g():
    cones = [
        Cone.from_constraints(2, ineqs=[(1, 2)]),
        Cone.from_constraints(2, ineqs=[(-2, -4), (0, 0)]),
        Cone.from_constraints(2, eqs=[(F(1, 2), 1), (0, 0)]),
        Cone.from_constraints(2, eqs=[(0, 0)]),
        Cone.from_constraints(2, ineqs=[(3, 6), (-1, 0)]),
    ]
    table = SignTable(cones)
    assert table.directions == ((1, 2), (1, 0))
    assert table.forbid == ((1, 0), (0, 1), (1, 1), (0, 0), (1, 2))
    # per direction, the cones allowing a positive and a negative pairing
    assert table.keep == ((0b01010, 0b11001), (0b11111, 0b01111))
    _check_sign_table(cones, [(a, b) for a in range(-3, 4) for b in range(-3, 4)])


def _reference_cut(cone, eqs, ineqs):
    """(canonical generators, dim) of the cone cut by eqs and ineqs, by the
    rational double description of all the constraints."""
    lin, rays = _reference_double_description(
        cone.dim_ambient, list(cone.eqs) + list(eqs), list(cone.ineqs) + list(ineqs)
    )
    return _canonicalize_generators(lin, rays), rank([list(v) for v in lin + rays])


def _check_cut(cone, eqs=(), ineqs=()):
    """Cone.cut by eqs and ineqs, from the cached generators and, with the
    equalities cut first, from that cut, against the rational double
    description; returns the dimension."""
    gens, dim = _reference_cut(cone, eqs, ineqs)
    lin, rays, got = cone.cut(eqs, ineqs)
    assert (_canonicalize_generators(lin, rays), got) == (gens, dim), (cone, eqs, ineqs)
    lin, rays, got = cone.cut(ineqs=ineqs, start=cone.cut(eqs))
    assert (_canonicalize_generators(lin, rays), got) == (gens, dim), (cone, eqs, ineqs)
    return dim


def _random_covectors(rng, dim, count):
    return [tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(count)]


def test_cut_matches_double_description_on_random_cones():
    # One equality at a time, as the per-plane pieces cut a wall; then
    # inequalities alone, and equalities and inequalities together.
    rng = random.Random(21)
    more = random.Random(22)
    kinds = set()
    for _ in range(300):
        cone = _random_cone(rng)
        n = cone.dim_ambient
        for _ in range(3):
            _check_cut(cone, eqs=[tuple(rng.randint(-2, 2) for _ in range(n))])
        for eqs, ineqs in (
            ([], _random_covectors(more, n, more.randint(1, 3))),
            (_random_covectors(more, n, more.randint(1, 2)), _random_covectors(more, n, more.randint(1, 3))),
        ):
            dim = _check_cut(cone, eqs, ineqs)
            kinds.add((bool(eqs), "same" if dim == cone.dim else "origin" if dim == 0 else "lower"))
    # each kind of cut keeps the dimension and lowers it, some to the origin
    assert kinds == {(e, k) for e in (False, True) for k in ("same", "lower", "origin")}


@pytest.mark.parametrize("orientation", ORIENTATIONS, ids=_id)
def test_cut_matches_double_description_on_sweep_walls(orientation):
    # Every ordered pair of walls with distinct normals: the first wall cut
    # by the second one's hyperplane, and then by its inequalities, as
    # check_consistency's face enumeration cuts them; and the first wall cut
    # by the second one's inequalities alone.
    bmat, _, cap, diagram = _instance(orientation[2])
    n = bmat.n
    walls = [w for w in diagram.walls if sum(w.normal) <= cap]
    for w1 in walls:
        for w2 in walls:
            if w1.normal != w2.normal:
                piece = w1.cone.cut(w2.cone.eqs)
                gens, dim = _reference_cut(w1.cone, w2.cone.eqs, ())
                assert (_canonicalize_generators(*piece[:2]), piece[2]) == (gens, dim)
                if dim == n - 2:
                    meet = w1.cone.cut(ineqs=w2.cone.ineqs, start=piece)
                    gens, dim = _reference_cut(w1.cone, w2.cone.eqs, w2.cone.ineqs)
                    assert (_canonicalize_generators(*meet[:2]), meet[2]) == (gens, dim)
                    assert meet[2] == w1.cone.intersect(w2.cone).dim
                half = w1.cone.cut(ineqs=w2.cone.ineqs)
                gens, dim = _reference_cut(w1.cone, (), w2.cone.ineqs)
                assert (_canonicalize_generators(*half[:2]), half[2]) == (gens, dim)


def test_cut_of_a_rank_2_ray_is_the_origin():
    # The ray x_1 = 0, x_2 >= 0 cut by x_2 = 0 is {0}: no generators, and
    # their rank 0 is n - 2.  Cut by x_2 <= 0 instead, it is {0} too.
    ray = Cone.from_constraints(2, eqs=[(1, 0)], ineqs=[(0, -1)])
    assert ray.cut(eqs=[(0, 1)]) == ([], [], 0)
    assert ray.cut(ineqs=[(0, 1)]) == ([], [], 0)
    line = Cone.from_constraints(2, eqs=[(1, 0)])
    assert line.cut(eqs=[(0, 1)]) == ([], [], 0)
    for cone in (ray, line):
        _check_cut(cone, eqs=[(0, 1)])
        _check_cut(cone, ineqs=[(0, 1)])


def test_cut_negates_a_pierced_lineality_vector():
    # {x_3 = 0, x_1 >= 0} has lineality (0, 1, 0), which pairs to +1 with
    # e = (1, 1, 0); projecting along it unnegated would send the ray
    # (1, 0, 0) to (-1, 1, 0), outside the cone.  Cut by e <= 0, the
    # negated vector stays as a ray.
    cone = Cone.from_constraints(3, eqs=[(0, 0, 1)], ineqs=[(-1, 0, 0)])
    assert cone.generators == (((0, 1, 0),), ((1, 0, 0),))
    assert cone.cut(eqs=[(1, 1, 0)]) == ([], [(1, -1, 0)], 1)
    assert cone.cut(ineqs=[(1, 1, 0)]) == ([], [(1, -1, 0), (0, -1, 0)], 2)
    _check_cut(cone, eqs=[(1, 1, 0)])
    _check_cut(cone, ineqs=[(1, 1, 0)])
