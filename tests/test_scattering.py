import functools
import itertools
import random
from dataclasses import replace
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_linalg import _reference_kernel_basis

import affscat.cones
import affscat.mutation
import affscat.scattering
from affscat.cartan import ExchangeMatrix, classify, exchange_to_cartan
from affscat.cones import Cone, SignTable, bits
from affscat.coxeter import coxeter_context
from affscat.linalg import (
    identity_mat,
    integral_multiple,
    nonzero_minor,
    primitive_vector,
    vdot,
    wedge_key,
)
from affscat.mutation import fans_compare
from affscat.scattering import (
    ORIGIN_IMAGINARY,
    ORIGIN_INITIAL,
    ORIGIN_RANK2,
    ScatDiagram,
    Wall,
    _angle_cmp,
    _cells,
    _codim2_faces,
    _crossing_data,
    _x_sum,
    build_dcscat,
    build_easy_scat,
    check_consistency,
    classify_wall,
    integrality_audit,
    loop_crossings,
    rampart_set,
    rank2_complete,
    scat_cone_eq,
)
from affscat.series import MonomialExpr, TruncatedSeries, path_product
from test_cones import FAN_INSTANCES, _ReferenceSignTable
from test_orientation_sweep import ORIENTATIONS, _id, _instance
from test_series import one

B_A11 = ExchangeMatrix.from_rows([[0, 2], [-2, 0]])
B_A2T = ExchangeMatrix.from_rows([[0, 1, 1], [-1, 0, 1], [-1, -1, 0]])
COX_A11 = coxeter_context(B_A11)
COX_A2T = coxeter_context(B_A2T)


def test_dcscat_a11_wall_normals():
    d = build_dcscat(B_A11, height_cap=3, truncation=3)
    normals = {w.normal for w in d.walls}
    assert normals == {(1, 0), (0, 1), (2, 1), (1, 2), (1, 1)}


def test_initial_walls_present():
    d = build_dcscat(B_A11, height_cap=3, truncation=3)
    for i in range(2):
        beta = tuple(1 if j == i else 0 for j in range(2))
        (w,) = d.wall_by_normal(beta)
        assert w.origin == ORIGIN_INITIAL
        assert w.f.coeffs[0] == 1 and w.f.coeffs[1] == 1
        lin, rays = w.cone.generators
        assert len(lin) == 1 and rays == ()  # the full hyperplane


def test_imaginary_wall_a11():
    d = build_dcscat(B_A11, height_cap=3, truncation=6)
    (w,) = d.wall_by_normal((1, 1))
    assert w.origin == ORIGIN_IMAGINARY
    lin, rays = w.cone.generators
    assert lin == () and rays == ((-1, 1),)
    # f_inf = (1 - yhat^delta)^{-2}
    assert w.f.coeffs == (1, 2, 3, 4)


def test_dcscat_equals_easy_scat():
    for b, H in ((B_A11, 4), (B_A2T, 4)):
        d1 = build_dcscat(b, height_cap=H, truncation=H)
        d2 = build_easy_scat(b, height_cap=H, truncation=H)
        assert d1.same_walls(d2)


def test_scat_schur_normals():
    from affscat.almost_positive import APContext

    for b, cox, H in ((B_A11, COX_A11, 5), (B_A2T, COX_A2T, 4)):
        d = build_dcscat(b, height_cap=H, truncation=H)
        ap = APContext(cox)
        expected = {r for r in ap.ap_positive_real(H)} | {tuple(ap.delta)}
        assert {w.normal for w in d.walls} == expected


def test_one_wall_per_hyperplane():
    for b, H in ((B_A11, 5), (B_A2T, 4)):
        d = build_dcscat(b, height_cap=H, truncation=H)
        normals = [w.normal for w in d.walls]
        assert len(set(normals)) == len(normals)


def test_wall_classification():
    for b, cox, H in ((B_A11, COX_A11, 5), (B_A2T, COX_A2T, 4)):
        d = build_dcscat(b, height_cap=H, truncation=H)
        for w in d.walls:
            verdict = classify_wall(w, cox)
            if w.origin == ORIGIN_INITIAL:
                assert verdict["incoming"]
            else:
                assert verdict["outgoing"]
                assert verdict["gregarious"]


def test_dinf_gregarious_contains_xc():
    for b, cox, H in ((B_A11, COX_A11, 4), (B_A2T, COX_A2T, 4)):
        d = build_dcscat(b, height_cap=H, truncation=H)
        (w,) = d.wall_by_normal(tuple(cox.type_info.delta))
        assert w.cone.relint_contains(cox.affine.x_c)


def test_consistency_a11():
    d = build_dcscat(B_A11, height_cap=6, truncation=6)
    report = check_consistency(d, 6, COX_A11)
    assert report["consistent"], report["failures"]
    assert report["checked"] >= 1


def test_consistency_negative_control():
    d = build_dcscat(B_A11, height_cap=6, truncation=6)
    broken = d.drop_imaginary()
    report = check_consistency(broken, 6, COX_A11)
    assert not report["consistent"]


def test_consistency_a2_tilde():
    d = build_dcscat(B_A2T, height_cap=5, truncation=5)
    report = check_consistency(d, 5, COX_A2T)
    assert report["consistent"], report["failures"]
    assert report["checked"] >= 3


def _loop_crossings_reference(walls, base_point, u1, u2, covector):
    """loop_crossings by Fraction elimination and arc samples: each wall's
    trace is the kernel of its equalities in the plane, and its crossing sign
    is the sign of its covector on the arc just clockwise of the crossing,
    sampled between the crossing and the previous direction among all
    crossings and four separators that keep every arc below pi.  Returns
    (normal, direction, sign) triples in angular order."""
    events = []
    for w in walls:
        rows = [[vdot(u1, e), vdot(u2, e)] for e in w.cone.eqs]
        (ker,) = _reference_kernel_basis(rows)
        line = primitive_vector(ker)
        tight = [g for g in w.cone.ineqs if vdot(base_point, g) == 0]
        for d in (line, tuple(-c for c in line)):
            vec = tuple(d[0] * x + d[1] * y for x, y in zip(u1, u2))
            if all(vdot(vec, g) <= 0 for g in tight):
                events.append((w, d))
    order = functools.cmp_to_key(_angle_cmp)
    seps = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    dirs = sorted({d for _, d in events} | set(seps), key=order)
    out = []
    for w, d in sorted(events, key=lambda e: order(e[1])):
        prev = dirs[dirs.index(d) - 1]
        before = tuple(a + b for a, b in zip(prev, d))
        vec = tuple(before[0] * x + before[1] * y for x, y in zip(u1, u2))
        val = vdot(vec, covector(w.normal))
        assert val != 0, "arc sample fell on the wall"
        out.append((w.normal, d, 1 if val > 0 else -1))
    return out


def _crossing_triples(crossings):
    return [(e.wall.normal, e.direction, e.sign) for e in crossings]


# The benchmark's orientations; D_4^(1) is the star with vertex 0 a source.
LOOP_ROWS = {
    "A2_1": [[0, 1, 1], [-1, 0, 1], [-1, -1, 0]],
    "G2_1": [[0, 1, 0], [-1, 0, 1], [0, -3, 0]],
    "A3_1": [[0, 1, 0, 1], [-1, 0, 1, 0], [0, -1, 0, -1], [-1, 0, 1, 0]],
    "D4_1": [[0, 1, 1, 1, 1]] + [[-1, 0, 0, 0, 0]] * 4,
}


# Face enumeration and base point search as they were before the walls were
# cut once per plane and the search read one SignTable: one double
# description per pair of walls, and a contains test per other wall.  Kept
# verbatim as the reference.
def _codim2_faces_reference(walls, n):
    """The distinct (n-2)-dimensional meets of two walls, each as (face,
    beta1, beta2) with the normals of the first pair that cut it out."""
    faces = []
    seen = set()
    for w1, w2 in itertools.combinations(walls, 2):
        if w1.normal == w2.normal:
            continue
        meet = w1.cone.intersect(w2.cone)
        if meet.dim != n - 2:
            continue
        key = meet.generators
        if key not in seen:
            seen.add(key)
            faces.append((meet, w1.normal, w2.normal))
    return faces


# The walls around a face as they were found before each plane recorded its
# members along with the pairwise meets: a plane-key bucketing of every wall
# per distinct beta1, then a containment test per wall of the face's bucket.
# Kept verbatim as the reference.
def _walls_by_plane(beta1, walls) -> dict:
    """Indices of the walls, in the given order, bucketed by
    wedge_key(beta1, normal); the walls with normal beta1 lie in every plane
    through beta1 and are bucketed under None."""
    buckets: dict = {}
    for i, w in enumerate(walls):
        buckets.setdefault(wedge_key(beta1, w.normal), []).append(i)
    return buckets


def _walls_around(face: Cone, beta1, beta2, walls, by_plane) -> set:
    """The indices of the walls containing the face; only walls with normal
    in span(beta1, beta2) are tested.  by_plane is _walls_by_plane(beta1,
    walls)."""
    near = by_plane.get(wedge_key(beta1, beta2), []) + by_plane.get(None, [])
    return {i for i in near if walls[i].cone.contains_cone(face)}


def _walls_around_reference(face: Cone, beta1, beta2, walls, by_plane):
    """(walls containing the face, the other walls), each in the given order;
    only walls with normal in span(beta1, beta2) are tested.  by_plane is
    _walls_by_plane(beta1, walls)."""
    near = sorted(by_plane.get(wedge_key(beta1, beta2), []) + by_plane.get(None, []))
    inside = [i for i in near if walls[i].cone.contains_cone(face)]
    taken = set(inside)
    return [walls[i] for i in inside], [w for i, w in enumerate(walls) if i not in taken]


def _generic_relint_point_reference(face: Cone, other_walls):
    """An integer relative-interior point of the face avoiding all walls that
    do not contain the face (deterministic perturbation search)."""
    lin, rays = face.generators
    n = face.dim_ambient
    if not rays and not lin:
        return (0,) * n
    for attempt in range(1, 60):
        point = [0] * n
        for i, g in enumerate(rays + lin):
            scale = attempt ** (i + 1) + i + 1
            if i >= len(rays) and attempt % 2 == 0:
                scale = -scale  # lineality directions may need both signs
            for j, c in enumerate(g):
                point[j] += scale * c
        p = tuple(point)
        if all(not w.cone.contains(p) for w in other_walls):
            return p
    raise AssertionError("could not find a generic relative-interior point")


# check_consistency's base point search as it was before each loop was
# based at the sum of its cell's rays, kept verbatim as the reference.
def _generic_relint_point(face: Cone, table: SignTable, inside):
    """An integer relative-interior point of the face lying in none of the
    cones of table (a SignTable of the walls) but those with index in inside,
    the walls containing the face (deterministic perturbation search).

    The generators are integer vectors, so every candidate is.  A candidate
    sums (attempt^(i+1) + i + 1) g_i over the rays and then the lineality
    basis, with the lineality terms negated on even attempts: every extreme
    ray gets a positive weight, so the point lies in the relative interior
    of the face whichever attempt it comes from, and only the avoidance test
    picks among them.  Which relative-interior point is used does not change
    the loop: loop_crossings reads only the inequalities of each containing
    wall that are tight at the point, and at any relative-interior point
    those are exactly the inequalities that vanish on the whole face (each
    is <= 0 on the face, and a face of the face that meets its relative
    interior is the whole face).

    On a cell of _codim2_faces only walls outside its plane can reject a
    candidate: each wall of the plane contains the cell or misses its
    relative interior.  A wall outside the plane meets the cell's span in a
    proper subspace, on which a linear form l vanishes while it does not on
    the span; there the candidate sum_i (a^(i+1) + i + 1) l(g_i) is a
    nonzero polynomial in the attempt a of degree at most the number of
    generators, so each such wall rejects at most that many attempts of
    each parity.  With W walls outside inside and G generators, at most
    2 W G of the first 2 (W G + 1) attempts are rejected, and no more are
    tried.
    """
    lin, rays = face.generators
    n = face.dim_ambient
    if not rays and not lin:
        return (0,) * n
    allowed = sum(1 << i for i in inside)
    others = len(table.forbid) - len(inside)
    for attempt in range(1, 2 * (others * (len(rays) + len(lin)) + 1) + 1):
        point = [0] * n
        for i, g in enumerate(rays + lin):
            scale = attempt ** (i + 1) + i + 1
            if i >= len(rays) and attempt % 2 == 0:
                scale = -scale  # lineality directions may need both signs
            for j, c in enumerate(g):
                point[j] += scale * c
        p = tuple(point)
        if not table.locate(p) & ~allowed:
            return p
    raise AssertionError("could not find a generic relative-interior point")


def _ray_sum(cell: Cone):
    """The base point check_consistency loops around: the sum of the cell's
    rays, or 0."""
    return [sum(c) for c in zip(*cell.rays)] or [0] * cell.dim_ambient


def check_consistency_at_generic_points(diagram, truncation, cox):
    """check_consistency's report, with every loop it reads at a cell's ray
    sum checked against the loop at the cell's reference generic point
    (_generic_relint_point): the same walls, directions and signs."""
    cells, loops = [], []
    real_faces, real_loop = _codim2_faces, loop_crossings

    def faces(walls, n):
        out = real_faces(walls, n)
        table = SignTable([w.cone for w in walls])
        cells.extend((cell, table, inside) for cell, _, _, inside in out)
        return out

    def loop(walls, base_point, u1, u2, covector):
        got = real_loop(walls, base_point, u1, u2, covector)
        loops.append((walls, base_point, u1, u2, covector, got))
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(affscat.scattering, "_codim2_faces", faces)
        mp.setattr(affscat.scattering, "loop_crossings", loop)
        report = check_consistency(diagram, truncation, cox)
    assert len(cells) == len(loops) == report["checked"]
    for (cell, table, inside), (walls, base, u1, u2, cov, got) in zip(cells, loops):
        assert base == _ray_sum(cell)
        generic = real_loop(walls, _generic_relint_point(cell, table, inside), u1, u2, cov)
        assert _crossing_triples(got) == _crossing_triples(generic), cell.generators
    return report


def _face_triples(faces):
    return [(face.generators, beta1, beta2) for face, beta1, beta2, *_ in faces]


def _partly_covers(wall, face: Cone) -> bool:
    """Whether the wall meets the relative interior of the face without
    containing it: their meet lies on no facet of the face (a convex subset
    of the relative boundary lies on one facet)."""
    if wall.cone.contains_cone(face):
        return False
    lin, rays = face.intersect(wall.cone).generators
    facets = [g for k, g in enumerate(face.ineqs) if k not in face._implicit_ineqs]
    return not any(all(vdot(v, g) == 0 for v in lin + rays) for g in facets)


def _check_faces(walls, n):
    """(faces, split): _codim2_faces(walls, n), checked against the pairwise
    reference, and whether a wall of its plane partly covers some reference
    face.  Each cell lies in a reference face with the same normals, lies in
    exactly the walls it lists, and is partly covered by no wall of its
    plane; the cells cover the reference faces (tested at points weighting
    each ray by 1 or 3); without a partly covered reference face, the cells
    are the reference faces with the walls _walls_around finds."""
    faces = _codim2_faces(walls, n)
    reference = _codim2_faces_reference(walls, n)

    def plane_walls(beta1, beta2):
        by_plane = _walls_by_plane(beta1, walls)
        return by_plane.get(wedge_key(beta1, beta2), []) + by_plane.get(None, [])

    assert len({face.generators for face, *_ in faces}) == len(faces)
    for cell, beta1, beta2, inside in faces:
        assert cell.dim == n - 2
        assert any(b == [beta1, beta2] and f.contains_cone(cell) for f, *b in reference)
        assert list(inside) == [i for i, w in enumerate(walls) if w.cone.contains_cone(cell)]
        assert not any(_partly_covers(walls[i], cell) for i in plane_walls(beta1, beta2))
    for face, *_ in reference:
        lin, rays = face.generators
        for ws in itertools.product((1, 3), repeat=len(rays)):
            for signs in itertools.product((1, -1), repeat=len(lin)):
                point = [0] * n
                for c, g in zip(ws + signs, rays + lin):
                    point = [x + c * y for x, y in zip(point, g)]
                assert any(cell.contains(point) for cell, *_ in faces), (face.generators, point)
    split = any(
        _partly_covers(walls[i], face)
        for face, beta1, beta2 in reference
        for i in plane_walls(beta1, beta2)
    )
    if not split:
        assert _face_triples(faces) == _face_triples(reference)
        for face, beta1, beta2, inside in faces:
            by_plane = _walls_by_plane(beta1, walls)
            assert set(inside) == _walls_around(face, beta1, beta2, walls, by_plane)
    return faces, split


@pytest.mark.parametrize("orientation", ORIENTATIONS, ids=_id)
def test_codim2_faces_match_pairwise_reference_on_sweep(orientation):
    bmat, _, cap, diagram = _instance(orientation[2])
    _check_faces([w for w in diagram.walls if sum(w.normal) <= cap], bmat.n)


# A_3^(1) orientation 0, the CLI repro (tests/test_cli.py).
REPRO_ROWS = [[0, 1, 0, 1], [-1, 0, 1, 0], [0, -1, 0, 1], [-1, 0, -1, 0]]


def test_a_wall_of_the_plane_cuts_a_face_into_two_cells():
    # The face d_(0,1,0,0) ∩ d_inf has rays (-1,0,1,0) and (0,0,-1,1); wall
    # (1,0,1,1), whose normal lies in its plane, covers the half next to the
    # second ray.  Every candidate of the pairwise search lies in that half,
    # so that search found no base point.
    walls = list(build_dcscat(ExchangeMatrix.from_rows(REPRO_ROWS), 4, 4).walls)
    index = {w.normal: i for i, w in enumerate(walls)}
    face = walls[index[0, 1, 0, 0]].cone.intersect(walls[index[1, 1, 1, 1]].cone)
    assert face.generators == ((), ((-1, 0, 1, 0), (0, 0, -1, 1)))
    with pytest.raises(AssertionError, match="generic relative-interior point"):
        _generic_relint_point_reference(
            face, [w for w in walls if not w.cone.contains_cone(face)]
        )
    faces, split = _check_faces(walls, 4)
    assert split
    cells = [(cell, inside) for cell, _, _, inside in faces if face.contains_cone(cell)]
    assert [cell.rays for cell, _ in cells] == [
        ((-1, 0, 0, 1), (0, 0, -1, 1)),
        ((-1, 0, 0, 1), (-1, 0, 1, 0)),
    ]
    (_, covered), (_, bare) = cells
    assert set(covered) - set(bare) == {index[1, 0, 1, 1]} and set(bare) < set(covered)
    table = SignTable([w.cone for w in walls])
    for cell, inside in cells:
        base = _generic_relint_point(cell, table, inside)
        assert cell.relint_contains(base)
        assert bits(table.locate(base)) == list(inside)


def test_a_wall_over_a_middle_strip_gives_three_cells():
    # In Z^4 the plane of e_3 and e_4 has common kernel L = span(e_1, e_2).
    # Walls d_e3 and d_e4 meet in the quadrant x_1, x_2 >= 0 of L, and wall
    # d_(e3+e4) covers its middle strip between (2,1) and (1,2).  The pairwise
    # search loops once, in one outer cell; the refinement gives each of the
    # three cells a loop.
    quadrant = Cone.from_constraints(4, eqs=[(0, 0, 1, 0)], ineqs=[(-1, 0, 0, 0), (0, -1, 0, 0)])
    strip = Cone.from_constraints(4, eqs=[(0, 0, 1, 1)], ineqs=[(-2, 1, 0, 0), (1, -2, 0, 0)])
    walls = [
        Wall((0, 0, 1, 0), quadrant, (), None, ""),
        Wall((0, 0, 0, 1), Cone.from_constraints(4, eqs=[(0, 0, 0, 1)]), (), None, ""),
        Wall((0, 0, 1, 1), strip, (), None, ""),
    ]
    face = walls[0].cone.intersect(walls[1].cone)
    assert _generic_relint_point_reference(face, walls[2:]) == (11, 4, 0, 0)
    faces, split = _check_faces(walls, 4)
    assert split
    assert [(cell.rays, beta1, beta2, inside) for cell, beta1, beta2, inside in faces] == [
        (((1, 2, 0, 0), (2, 1, 0, 0)), (0, 0, 1, 0), (0, 0, 0, 1), (0, 1, 2)),
        (((1, 0, 0, 0), (2, 1, 0, 0)), (0, 0, 1, 0), (0, 0, 0, 1), (0, 1)),
        (((0, 1, 0, 0), (1, 2, 0, 0)), (0, 0, 1, 0), (0, 0, 0, 1), (0, 1)),
    ]
    assert _cells(face, list(enumerate(w.cone for w in walls))) == [
        (cell, inside) for cell, _, _, inside in faces
    ]
    table = SignTable([w.cone for w in walls])
    for cell, _, _, inside in faces:
        base = _generic_relint_point(cell, table, inside)
        assert bits(table.locate(base)) == list(inside)


@pytest.mark.parametrize("name, cap", [("D4_1", 6), ("A3_1", 8)])
def test_codim2_faces_match_pairwise_reference_on_verify_instances(name, cap, monkeypatch):
    # The verify workload's two instances.  Every meet and cell is cut from
    # cached generators, so no pair runs a double description.
    bmat = ExchangeMatrix.from_rows(LOOP_ROWS[name])
    walls = [w for w in build_dcscat(bmat, cap, cap).walls if sum(w.normal) <= cap]
    for w in walls:
        w.cone.generators
    calls = []
    real = affscat.cones._double_description

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(affscat.cones, "_double_description", counted)
    faces = _codim2_faces(walls, bmat.n)
    monkeypatch.undo()
    assert _face_triples(faces) == _face_triples(_codim2_faces_reference(walls, bmat.n))
    pairs = len(walls) * (len(walls) - 1) // 2
    assert (pairs, len(calls)) == {"D4_1": (300, 0), "A3_1": (210, 0)}[name]


def test_generic_relint_point_skips_candidates_in_other_walls():
    # On the face cone((0,1,0), (1,0,0)) the first candidates are (3,2,0) and
    # (6,3,0).  A wall through (3,2,0) rejects the first unless it counts as
    # containing the face; a wall over the whole face rejects every candidate.
    face = Cone.from_constraints(3, eqs=[(0, 0, 1)], ineqs=[(-1, 0, 0), (0, -1, 0)])
    ray = Cone.from_constraints(3, eqs=[(2, -3, 0), (0, 0, 1)], ineqs=[(-1, 0, 0)])
    through = Wall((2, -3, 0), ray, (), None, "")
    over = Wall((0, 0, 1), face, (), None, "")
    table = SignTable([through.cone, over.cone])
    assert _generic_relint_point(face, table, {1}) == (6, 3, 0)
    assert _generic_relint_point_reference(face, [through]) == (6, 3, 0)
    assert _generic_relint_point(face, table, {0, 1}) == (3, 2, 0)
    for search in (
        lambda: _generic_relint_point(face, table, {0}),
        lambda: _generic_relint_point_reference(face, [over]),
    ):
        with pytest.raises(AssertionError, match="generic relative-interior point"):
            search()


@pytest.mark.parametrize("name", sorted(LOOP_ROWS))
def test_loop_crossings_match_reference_on_every_face(name):
    # Checks, on every codim-2 face at H = k = 4: the face's walls are those
    # the plane-key filter and an all-walls contains_cone scan keep, the
    # generic point search agrees with the reference search, and the trace
    # directions and signs at the generic point equal the arc-sample
    # reference and those at the sum of the face's rays, where
    # check_consistency bases the loop, on the plane of the first nonzero
    # minor and on a random transverse integer plane.
    bmat = ExchangeMatrix.from_rows(LOOP_ROWS[name])
    cox = coxeter_context(bmat)
    cov = cox.cartan.primitive_in_coroot_lattice
    n = bmat.n
    walls = list(build_dcscat(bmat, 4, 4).walls)
    table = SignTable([w.cone for w in walls])
    units = identity_mat(n)
    rng = random.Random(n)
    faces, split = _check_faces(walls, n)
    assert len(faces) >= 10 and not split
    for face, beta1, beta2, inside in faces:
        by_plane = _walls_by_plane(beta1, walls)
        containing = [walls[i] for i in inside]
        scan = [w for w in walls if w.cone.contains_cone(face)]
        ref_containing, ref_others = _walls_around_reference(face, beta1, beta2, walls, by_plane)
        assert containing == ref_containing
        assert [w.normal for w in ref_others] == [w.normal for w in walls if w not in scan]
        base = _generic_relint_point(face, table, inside)
        assert base == _generic_relint_point_reference(face, ref_others)
        assert all(type(c) is int for c in base)
        i, j = nonzero_minor(beta1, beta2)
        planes = [(units[i], units[j])]
        while len(planes) < 2:
            u1, u2 = (tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(2))
            e1, e2 = face.eqs
            if vdot(u1, e1) * vdot(u2, e2) != vdot(u2, e1) * vdot(u1, e2):
                planes.append((u1, u2))
        for u1, u2 in planes:
            got = _crossing_triples(loop_crossings(containing, base, u1, u2, cov))
            assert got == _loop_crossings_reference(containing, base, u1, u2, cov), beta1
            assert got == _crossing_triples(loop_crossings(containing, _ray_sum(face), u1, u2, cov))
            assert len(got) >= len(containing)


def _rank2_complete_reference(bmat: ExchangeMatrix, truncation: int) -> ScatDiagram:
    """Order-by-order consistency completion of the rank-2 diagram, exact
    through total yhat-degree `truncation`.

    At each degree d the loop of the walls so far is applied once, to
    x_1 + x_2 mod m^(d+1).  Crossings keep each lambda group apart (see
    check_consistency), so the degree-d terms in the lambda = e_i group are
    the defect of x_i; every defect must stay on such a unit lambda.  The
    final check that the completed loop closes uses x_1 + x_2 too.
    """
    assert bmat.n == 2, "completion is implemented for rank 2 only"
    cartan = exchange_to_cartan(bmat)
    n, k = 2, truncation
    b_rows = bmat.b
    coroot = cache(cartan.primitive_in_coroot_lattice)  # once per normal

    def ray_wall_shape(beta, direction):
        # The ray through `direction` inside beta-perp, cut out by a
        # root-lattice functional negative on the ray.
        j = next(i for i in range(2) if direction[i] != 0)
        sgn = 1 if direction[j] > 0 else -1
        phi = tuple(-sgn if i == j else 0 for i in range(2))
        cone = Cone.from_constraints(2, eqs=[coroot(beta)], ineqs=[coroot(phi)])
        return cone, (phi,)

    walls: dict = {}
    for i in range(2):
        beta = cartan.simple_root(i)
        walls[("line", beta)] = Wall(
            normal=beta,
            cone=Cone.from_constraints(2, eqs=[coroot(beta)]),
            ineq_roots=(),
            f=TruncatedSeries.one_plus_q(beta, k),
            origin=ORIGIN_INITIAL,
        )

    def outgoing_direction(beta):
        return primitive_vector(
            tuple(-sum(b_rows[i][j] * beta[j] for j in range(2)) for i in range(2))
        )

    def loop_seq(current_walls):
        crossings = loop_crossings(current_walls, (0, 0), (1, 0), (0, 1), coroot)
        return [(_crossing_data(e.wall, coroot, b_rows), e.sign) for e in crossings]

    units = identity_mat(2)
    for degree in range(2, k + 1):
        # walls with normal height > degree act trivially mod m^(degree+1)
        active = [w for w in walls.values() if sum(w.normal) <= degree]
        seq = loop_seq(active)
        defects: dict = {}
        for (lam, phi), coeff in path_product(_x_sum(2, degree, (0, 1)), seq, degree).terms:
            if sum(phi) == degree:
                assert lam in units, "defect must stay on an x-monomial"
                defects.setdefault(phi, {})[units.index(lam)] = coeff
        for phi, per_gen in sorted(defects.items()):
            beta = primitive_vector(phi)
            beta_coroot = coroot(beta)
            direction = outgoing_direction(beta)
            # crossing sign of this outgoing ray in the ccw loop
            # (in rank 2 the wall's cone covector is this same primitive coroot)
            cw = (direction[1], -direction[0])
            val = vdot(cw, beta_coroot)
            assert val != 0
            ray_sign = 1 if val > 0 else -1
            m = sum(phi) // sum(beta)
            candidates = []
            for i in range(2):
                if beta_coroot[i] == 0:
                    continue
                g = per_gen.get(i, Fraction(0))
                candidates.append(Fraction(g, ray_sign * beta_coroot[i]))
            assert candidates and all(c == candidates[0] for c in candidates), (
                "defect is not a single wall correction"
            )
            correction = -candidates[0]
            if correction == 0:
                continue
            key = ("ray", tuple(direction))
            if key not in walls:
                qdeg = k // sum(beta)
                cone, ineq_roots = ray_wall_shape(beta, direction)
                walls[key] = Wall(
                    normal=beta,
                    cone=cone,
                    ineq_roots=ineq_roots,
                    f=one(beta, qdeg),
                    origin=ORIGIN_RANK2,
                )
            wall = walls[key]
            assert wall.normal == beta, "parallel outgoing rays must share a normal"
            coeffs = list(wall.f.coeffs)
            coeffs[m] += correction
            walls[key] = replace(wall, f=TruncatedSeries.make(beta, wall.f.k, coeffs))
    # final verification
    seq = loop_seq(list(walls.values()))
    xsum = _x_sum(2, k, (0, 1))
    assert path_product(xsum, seq, k) == xsum, "completion failed to close"
    kept = [w for w in walls.values() if w.origin == ORIGIN_INITIAL or not w.f.is_one()]
    out = ScatDiagram(
        cartan_n=2,
        walls=tuple(sorted(kept, key=lambda w: (sum(w.normal), w.normal))),
        height_cap=k,
        truncation=k,
        provenance={"construction": "rank2_complete"},
    )
    out.provenance["non_integer_series"] = [list(b) for b in integrality_audit(out)]
    return out


# B = 0; both labellings of A_2, B_2, G_2 and A_2^(2); A_1^(1) in both
# orientations; the wild (3, 3), (1, 5) and (2, 3).
RANK2_ROWS = {
    "zero": [[0, 0], [0, 0]],
    "A2": [[0, 1], [-1, 0]],
    "A2'": [[0, -1], [1, 0]],
    "B2": [[0, 1], [-2, 0]],
    "B2'": [[0, -2], [1, 0]],
    "G2": [[0, 1], [-3, 0]],
    "G2'": [[0, -3], [1, 0]],
    "A2_2": [[0, 1], [-4, 0]],
    "A2_2'": [[0, -4], [1, 0]],
    "A1_1": [[0, 2], [-2, 0]],
    "A1_1-": [[0, -2], [2, 0]],
    "wild33": [[0, 3], [-3, 0]],
    "wild15": [[0, 1], [-5, 0]],
    "wild23": [[0, 2], [-3, 0]],
}
RANK2_CASES = [(name, k) for name in RANK2_ROWS for k in (1, 2, 3, 5, 8, 12)]
# the benchmark instances: A_1^(1) --k 16 and A_2^(2) --k 10 run at k |delta|
RANK2_BENCH = [("A1_1", 32), ("A2_2", 30)]


@pytest.mark.parametrize("name, k", RANK2_CASES + RANK2_BENCH)
def test_rank2_complete_matches_reference(name, k):
    bmat = ExchangeMatrix.from_rows(RANK2_ROWS[name])
    got = rank2_complete(bmat, k)
    ref = _rank2_complete_reference(bmat, k)
    assert got.walls == ref.walls
    assert got.provenance == ref.provenance


@pytest.mark.parametrize("name", sorted(RANK2_ROWS))
def test_rank2_completion_closes_independently(name):
    # The loop of all completed walls fixes x_1 + x_2; in the affine cases,
    # dropping the limiting wall breaks it.
    bmat = ExchangeMatrix.from_rows(RANK2_ROWS[name])
    cartan = exchange_to_cartan(bmat)
    coroot = cartan.primitive_in_coroot_lattice
    info = classify(cartan)

    def closes(walls, k):
        events = loop_crossings(walls, (0, 0), (1, 0), (0, 1), coroot)
        seq = [(_crossing_data(e.wall, coroot, bmat.b), e.sign) for e in events]
        return path_product(_x_sum(2, k, (0, 1)), seq, k) == _x_sum(2, k, (0, 1))

    dropped = 0
    for k in (1, 2, 3, 5, 8, 12):
        walls = rank2_complete(bmat, k).walls
        assert closes(walls, k), k
        if info.kind == "affine" and sum(info.delta) <= k:
            rest = [w for w in walls if w.normal != tuple(info.delta)]
            assert len(rest) == len(walls) - 1
            assert not closes(rest, k), k
            dropped += 1
    assert (dropped >= 4) == (info.kind == "affine")


def _composed_loop(monkeypatch):
    """Record (normal, sign) of every crossing rank2_complete composes: the
    line crossings of its path product, then its ray crossings."""
    seen = []
    real_product, real_cross = affscat.scattering.path_product, affscat.scattering.wall_cross

    def product(expr, crossings, k):
        seen.extend((data.f.normal, sign) for data, sign in crossings)
        return real_product(expr, crossings, k)

    def cross(expr, data, sign, k):
        seen.append((data.f.normal, sign))
        return real_cross(expr, data, sign, k)

    monkeypatch.setattr(affscat.scattering, "path_product", product)
    monkeypatch.setattr(affscat.scattering, "wall_cross", cross)
    return seen


def test_rank2_complete_loops_match_reference(monkeypatch):
    # The line events come from loop_crossings, checked against the
    # arc-sample reference; the whole composed loop is a rotation of the
    # reference loop of the completed walls, so each ray is crossed in its
    # angular place with its reference sign.
    calls = []
    real = affscat.scattering.loop_crossings

    def checked(walls, base_point, u1, u2, covector):
        got = real(walls, base_point, u1, u2, covector)
        ref = _loop_crossings_reference(walls, base_point, u1, u2, covector)
        assert _crossing_triples(got) == ref
        calls.append(len(got))
        return got

    monkeypatch.setattr(affscat.scattering, "loop_crossings", checked)
    seen = _composed_loop(monkeypatch)
    for bmat in (B_A11, ExchangeMatrix.from_rows([[0, 1], [-4, 0]])):
        seen.clear()
        d = rank2_complete(bmat, truncation=10)
        coroot = exchange_to_cartan(bmat).primitive_in_coroot_lattice
        loop = _loop_crossings_reference(d.walls, (0, 0), (1, 0), (0, 1), coroot)
        ref = [(normal, sign) for normal, _, sign in loop]
        assert len(ref) >= 12 and len(seen) == len(ref)
        assert any(seen == ref[r:] + ref[:r] for r in range(len(ref)))
    # one call per completion, for the four line events
    assert calls == [4, 4]


def test_path_products_match_reference_fold(monkeypatch):
    # Every path product of the rank-2 completion and of a rank-4 consistency
    # check, and every ray crossing of the completion, equals the per-term
    # reference crossing, folded over the path.
    from test_series import reference_path_product

    calls = []
    rays = []
    real = affscat.scattering.path_product
    real_cross = affscat.scattering.wall_cross

    def checked(expr, crossings, k):
        got = real(expr, crossings, k)
        assert got == reference_path_product(expr, crossings, k)
        calls.append(len(crossings))
        return got

    def checked_cross(expr, data, sign, k):
        got = real_cross(expr, data, sign, k)
        assert got == reference_path_product(expr, [(data, sign)], k)
        rays.append(data.f.normal)
        return got

    monkeypatch.setattr(affscat.scattering, "path_product", checked)
    monkeypatch.setattr(affscat.scattering, "wall_cross", checked_cross)
    walls = [
        w
        for rows in ([[0, 2], [-2, 0]], [[0, 1], [-4, 0]])
        for w in rank2_complete(ExchangeMatrix.from_rows(rows), truncation=6).walls
    ]
    rank2_calls = len(calls)
    bmat = ExchangeMatrix.from_rows(LOOP_ROWS["A3_1"])
    report = check_consistency(build_dcscat(bmat, 4, 4), 4, coxeter_context(bmat))
    assert report["consistent"] and report["checked"] >= 10
    # each completion: one product of x_1 + x_2 through the four line
    # crossings, then one crossing per ray wall (five each at truncation 6)
    assert rank2_calls == 2 and calls[:2] == [4, 4] and len(rays) == 5 + 5
    assert sorted(rays) == sorted(w.normal for w in walls if w.origin == ORIGIN_RANK2)
    # then the consistency loops, the longest of six walls
    assert len(calls) == rank2_calls + report["checked"] and max(calls) == 6


def _check_consistency_reference(diagram, truncation, cox):
    """check_consistency with one path product per generator: each x_i, then
    each yhat_i, stopping at the first generator the loop moves."""
    n = diagram.cartan_n
    k = truncation
    walls = [w for w in diagram.walls if sum(w.normal) <= k]
    b_rows = cox.omega_rows
    units = identity_mat(n)
    coroot = functools.cache(cox.cartan.primitive_in_coroot_lattice)
    zero = (0,) * n
    gens = [MonomialExpr.from_dict(n, k, {(u, zero): 1}) for u in units]
    gens += [MonomialExpr.from_dict(n, k, {(zero, u): 1}) for u in units]
    faces = _codim2_faces_reference(walls, n)
    report = {"faces": len(faces), "failures": [], "checked": 0}
    for face, beta1, beta2 in faces:
        containing, others = _walls_around_reference(
            face, beta1, beta2, walls, _walls_by_plane(beta1, walls)
        )
        base = _generic_relint_point_reference(face, others)
        i, j = nonzero_minor(beta1, beta2)
        crossings = loop_crossings(containing, base, units[i], units[j], coroot)
        seq = [(_crossing_data(e.wall, coroot, b_rows), e.sign) for e in crossings]
        report["checked"] += 1
        if any(path_product(gen, seq, k) != gen for gen in gens):
            report["failures"].append(
                {
                    "face_rays": [list(r) for r in face.rays],
                    "walls": [list(w.normal) for w in containing],
                }
            )
    report["consistent"] = not report["failures"]
    return report


def _check_consistency_xsum_reference(diagram, truncation, cox):
    """check_consistency with each loop applied to x_1 + ... + x_n, and one
    CrossingData per crossing."""
    n = diagram.cartan_n
    k = truncation
    walls = [w for w in diagram.walls if sum(w.normal) <= k]
    b_rows = cox.omega_rows
    units = identity_mat(n)
    xsum = _x_sum(n, k, range(n))
    coroot = cox.cartan.primitive_in_coroot_lattice
    faces = _codim2_faces(walls, n)
    table = SignTable([w.cone for w in walls])
    report = {"faces": len(faces), "failures": [], "checked": 0}
    for face, beta1, beta2, inside in faces:
        containing = [walls[i] for i in inside]
        base = _generic_relint_point(face, table, inside)
        i, j = nonzero_minor(beta1, beta2)
        crossings = loop_crossings(containing, base, units[i], units[j], coroot)
        seq = [(_crossing_data(e.wall, coroot, b_rows), e.sign) for e in crossings]
        report["checked"] += 1
        if path_product(xsum, seq, k) != xsum:
            report["failures"].append(
                {
                    "face_rays": [list(r) for r in face.rays],
                    "walls": [list(w.normal) for w in containing],
                }
            )
    report["consistent"] = not report["failures"]
    return report


def _perturbed(diagram, index, delta):
    """The diagram with coefficient 1 of wall `index`'s scattering term
    moved by delta."""
    walls = list(diagram.walls)
    w = walls[index]
    coeffs = list(w.f.coeffs)
    coeffs[1] += delta
    walls[index] = replace(w, f=TruncatedSeries.make(w.normal, w.f.k, coeffs))
    return replace(diagram, walls=tuple(walls))


# (rows, H = k): the verify workload's two instances, then A_1^(1), A_2^(1)
REFERENCE_INSTANCES = (
    (LOOP_ROWS["D4_1"], 6),
    (LOOP_ROWS["A3_1"], 8),
    ([[0, 2], [-2, 0]], 6),
    (LOOP_ROWS["A2_1"], 5),
)


@pytest.mark.parametrize("rows, cap", REFERENCE_INSTANCES)
def test_consistency_matches_generator_loop_reference(rows, cap):
    bmat = ExchangeMatrix.from_rows(rows)
    cox = coxeter_context(bmat)
    d = build_dcscat(bmat, cap, cap)
    for diagram in (d, d.drop_imaginary()):
        got = check_consistency(diagram, cap, cox)
        assert got == _check_consistency_reference(diagram, cap, cox)
        assert got["consistent"] == (diagram is d)


@pytest.mark.parametrize("rows, cap", REFERENCE_INSTANCES[2:] + ((LOOP_ROWS["A3_1"], 4),))
def test_consistency_matches_reference_on_perturbed_walls(rows, cap):
    # Every wall whose series reaches q^1 gets its coefficient 1 moved by +1
    # or -1/2 in turn; most perturbed diagrams are inconsistent, so the
    # reports compare failures as well as passes.
    bmat = ExchangeMatrix.from_rows(rows)
    cox = coxeter_context(bmat)
    d = build_dcscat(bmat, cap, cap)
    verdicts = []
    for index, w in enumerate(d.walls):
        if w.f.k < 1:
            continue
        delta = 1 if index % 2 else Fraction(-1, 2)
        diagram = _perturbed(d, index, delta)
        got = check_consistency(diagram, cap, cox)
        assert got == _check_consistency_reference(diagram, cap, cox), w.normal
        verdicts.append(got["consistent"])
    assert len(verdicts) >= 5 and verdicts.count(False) > len(verdicts) // 2


@pytest.mark.parametrize("orientation", ORIENTATIONS, ids=_id)
def test_two_monomial_loops_match_the_x_sum_oracle(orientation):
    # Per-face verdicts on x_i + x_j equal those on x_1 + ... + x_n: on the
    # diagram, without d_inf, and with one wall's q coefficient moved by 1.
    _, cox, cap, diagram = _instance(orientation[2])
    index = next(i for i, w in enumerate(diagram.walls) if w.origin != ORIGIN_INITIAL)
    variants = (diagram, diagram.drop_imaginary(), _perturbed(diagram, index, 1))
    for variant, consistent in zip(variants, (True, False, False)):
        got = check_consistency(variant, cap, cox)
        assert got == _check_consistency_xsum_reference(variant, cap, cox)
        assert got["consistent"] == consistent


@pytest.mark.parametrize("rows", [B_A11.b, LOOP_ROWS["A2_1"]], ids=["A1_1", "A2_1"])
def test_consistency_sees_a_defect_on_one_generator(rows):
    # At k = 1 only the initial walls e_i-perp count.  Cut wall e_i down to
    # its half x_j >= 0: a loop around e_i-perp and e_j-perp then crosses it
    # once and crosses e_j-perp twice, so mod m^2 it moves x_i alone, to
    # x_i (1 + yhat_i)^(+-1).  Every x_i must therefore be checked.
    bmat = ExchangeMatrix.from_rows([list(r) for r in rows])
    cox = coxeter_context(bmat)
    cov = cox.cartan.primitive_in_coroot_lattice
    n = bmat.n
    d = build_dcscat(bmat, 1, 1)
    units = identity_mat(n)
    for i in range(n):
        j = (i + 1) % n
        half = Cone.from_constraints(
            n, eqs=[cov(units[i])], ineqs=[tuple(-c for c in cov(units[j]))]
        )
        walls = tuple(replace(w, cone=half) if w.normal == units[i] else w for w in d.walls)
        diagram = replace(d, walls=walls)
        got = check_consistency(diagram, 1, cox)
        assert got == _check_consistency_reference(diagram, 1, cox)
        assert not got["consistent"], i


def test_rank2_complete_finite_a2():
    d = rank2_complete(ExchangeMatrix.from_rows([[0, 1], [-1, 0]]), truncation=10)
    added = [w for w in d.walls if w.origin == ORIGIN_RANK2]
    assert len(added) == 1
    w = added[0]
    assert w.normal == (1, 1)
    assert w.f.coeffs == (1, 1, 0, 0, 0, 0)


def test_rank2_complete_kronecker():
    d = rank2_complete(B_A11, truncation=12)
    (limiting,) = [w for w in d.walls if w.normal == (1, 1)]
    assert limiting.f.coeffs == (1, 2, 3, 4, 5, 6, 7)
    # side rays carry 1 + yhat^beta
    for w in d.walls:
        if w.origin == ORIGIN_RANK2 and w.normal != (1, 1):
            expect = [1, 1] + [0] * (w.f.k - 1)
            assert list(w.f.coeffs) == expect[: w.f.k + 1]


def test_rank2_complete_a22():
    d = rank2_complete(ExchangeMatrix.from_rows([[0, 1], [-4, 0]]), truncation=12)
    (limiting,) = [w for w in d.walls if w.normal == (1, 2)]
    # (1 + q)(1 - q)^{-2} = 1 + 3q + 5q^2 + ...
    assert limiting.f.coeffs == (1, 3, 5, 7, 9)


def test_rank2_normals_match_dcscat_a11():
    comp = rank2_complete(B_A11, truncation=5)
    built = build_dcscat(B_A11, height_cap=5, truncation=5)
    assert {w.normal for w in comp.walls} == {w.normal for w in built.walls}


def test_rampart_sets():
    d = build_dcscat(B_A11, height_cap=4, truncation=4)
    assert rampart_set(d, (1, 1)) == frozenset()
    x_c = COX_A11.affine.x_c
    ids = rampart_set(d, x_c)
    assert len(ids) == 1
    assert d.walls[next(iter(ids))].origin == ORIGIN_IMAGINARY


def test_scat_cone_eq():
    d = build_dcscat(B_A11, height_cap=5, truncation=5)
    assert scat_cone_eq(d, (3, 1), (1, 3))  # both interior to the dominant chamber
    assert not scat_cone_eq(d, (3, 1), (-1, 3))  # separated by the alpha_1 wall
    p = (5, 3)
    assert not scat_cone_eq(d, p, tuple(-c for c in p))


def _scat_cone_eq_fraction_reference(diagram, p, q):
    """scat_cone_eq in Fraction arithmetic on the unscaled segment from p to q."""

    def ramparts(x):
        return frozenset(
            i
            for i, w in enumerate(diagram.walls)
            if all(vdot(x, e) == 0 for e in w.cone.eqs)
            and all(vdot(x, g) <= 0 for g in w.cone.ineqs)
        )

    p = tuple(Fraction(c) for c in p)
    q = tuple(Fraction(c) for c in q)
    base = ramparts(p)
    if ramparts(q) != base:
        return False
    ts = {Fraction(0), Fraction(1)}
    direction = tuple(b - a for a, b in zip(p, q))
    for w in diagram.walls:
        for g in list(w.cone.eqs) + list(w.cone.ineqs):
            den = vdot(direction, g)
            if den != 0:
                t = Fraction(-vdot(p, g), den)
                if 0 < t < 1:
                    ts.add(t)
    samples = sorted(ts)
    points = samples + [(a + b) / 2 for a, b in zip(samples, samples[1:])]
    return all(ramparts(tuple(a + t * d for a, d in zip(p, direction))) == base for t in points)


# rampart_set and scat_cone_eq as they were before SignTable answered with
# one bitmask of member cones, kept verbatim as the reference but for the
# table they read: the old per-cone queries live on in
# test_cones._ReferenceSignTable, built here from the walls.
def _reference_wall_table(diagram):
    return _ReferenceSignTable([w.cone for w in diagram.walls])


def _rampart_set_reference(diagram: ScatDiagram, point) -> frozenset:
    """Indices of walls containing the point (each rampart is a single wall)."""
    members = _reference_wall_table(diagram).members(integral_multiple(point))
    return frozenset(i for i, inside in enumerate(members) if inside)


def _scat_cone_eq_reference(diagram: ScatDiagram, p, q) -> bool:
    """Whether p and q are D-equivalent, decided along the straight segment by
    exact subdivision at all wall-constraint crossings.

    Walls are cones, so p and q may each be scaled by a positive factor; both
    are cleared of denominators.  With a = <p, d> and b = <q, d> for each
    distinct direction d of the wall constraints (diagram.wall_table), the
    point at t = u/v (v > 0) pairs with d to ((v - u) a + u b) / v, so each
    sample is located by the signs of those integers.  A crossing t =
    a / (a - b) does not change when d is scaled by a nonzero factor, so these
    are the crossings of every wall constraint.  Only the ends and the
    crossings strictly inside the segment (a b < 0) are sampled: between two
    consecutive crossings no constraint changes sign, so as walls are closed
    and convex, a point there lies in exactly the walls that contain both
    crossings around it.
    """
    table = _reference_wall_table(diagram)
    p, q = integral_multiple(p), integral_multiple(q)
    ends = [(vdot(p, d), vdot(q, d)) for d in table.directions]

    def ramparts(t):
        u, v = t.numerator, t.denominator
        return table.holds(*table.mask([(v - u) * a + u * b for a, b in ends]))

    base = ramparts(Fraction(0))
    if ramparts(Fraction(1)) != base:
        return False
    ts = {Fraction(a, a - b) for a, b in ends if a * b < 0}
    return all(ramparts(t) == base for t in ts)


def _wall_point(rng, wall, boundary):
    """A seeded combination of the wall's generators: in its relative
    interior, or with some weights 0 (often on its boundary) when boundary."""
    lin, rays = wall.cone.generators
    gens = rays + lin + tuple(tuple(-c for c in v) for v in lin)
    pool = [0, 0, 1, 2, Fraction(1, 3)] if boundary else [1, 2, 5, Fraction(1, 3)]
    weights = [rng.choice(pool) for _ in gens]
    return tuple(sum(c * g[j] for c, g in zip(weights, gens)) for j in range(wall.cone.dim_ambient))


def test_scat_cone_eq_and_rampart_set_match_the_reference_on_sampled_pairs(monkeypatch):
    # The pairs fans_compare samples on the fans workload's diagrams (A_2^(1)
    # and G_2^(1) at H=k=6), then the same pairs with one end moved onto a
    # wall, in its relative interior or on its boundary.
    seen = []
    real = affscat.mutation.scat_cone_eq

    def recorded(diagram, p, q):
        seen.append((diagram, p, q))
        return real(diagram, p, q)

    monkeypatch.setattr(affscat.mutation, "scat_cone_eq", recorded)
    for rows in RANK3_ROWS:
        fans_compare(ExchangeMatrix.from_rows([list(r) for r in rows]), 6, 6, 2, 200, 9)
    monkeypatch.undo()
    rng = random.Random(9)
    verdicts = set()
    for diagram, p, q in seen[:: 2]:
        w = _wall_point(rng, rng.choice(diagram.walls), rng.random() < 0.5)
        for a, b in ((p, q), (w, q), (p, w)):
            got = scat_cone_eq(diagram, a, b)
            assert got == _scat_cone_eq_reference(diagram, a, b), (a, b)
            verdicts.add(got)
        for x in (p, q, w):
            assert rampart_set(diagram, x) == _rampart_set_reference(diagram, x), x
    assert len(seen) >= 400 and verdicts == {True, False}


@functools.cache
def _rank3_diagram(rows, cap=4):
    return build_dcscat(ExchangeMatrix.from_rows([list(r) for r in rows]), cap, cap)


RANK3_ROWS = (
    ((0, 1, 1), (-1, 0, 1), (-1, -1, 0)),  # A_2^(1)
    ((0, 1, 0), (-1, 0, 1), (0, -3, 0)),  # G_2^(1)
)
_coord = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 3))
_point = st.tuples(_coord, _coord, _coord)


@settings(max_examples=200, deadline=None)
@given(
    rows=st.sampled_from(RANK3_ROWS),
    p=_point,
    q=_point,
    where=st.sampled_from(["anywhere", "on_ray", "in_a_wall_plane", "from_a_wall_ray"]),
    wall=st.integers(0, 12),
    lone_wall=st.booleans(),
)
def test_scat_cone_eq_matches_fraction_reference(rows, p, q, where, wall, lone_wall):
    # Generic pairs cross walls transversally; pairs on one ray, in the plane
    # of one wall or starting on a boundary ray of a wall run along and
    # through wall boundaries.  In the full diagram every boundary ray lies
    # in two walls or more; a diagram of one wall also has rays in one wall.
    d = _rank3_diagram(rows)
    chosen = d.walls[wall % len(d.walls)]
    if lone_wall:
        d = replace(d, walls=(chosen,))
    if where == "on_ray":
        q = tuple(2 * c for c in p)
    elif where != "anywhere":
        cone = chosen.cone
        (normal,) = cone.eqs
        b1, b2 = _reference_kernel_basis([list(normal)])
        p, q = (tuple(x[0] * u + x[1] * v for u, v in zip(b1, b2)) for x in (p, q))
        if where == "from_a_wall_ray" and cone.rays:
            p = cone.rays[wall % len(cone.rays)]
    got = scat_cone_eq(d, p, q)
    assert got == _scat_cone_eq_fraction_reference(d, p, q) == _scat_cone_eq_reference(d, p, q)


def test_scat_cone_eq_matches_fraction_reference_from_a_wall():
    # At H=k=6, the fans workload's caps, with one end on a wall: a random
    # combination of its generators, in its relative interior or on a
    # boundary ray or face.  The other end lies in the relative interior of
    # the same wall (so the ends often agree and a crossing between them
    # decides), on another wall or anywhere.
    rng = random.Random(6)

    def in_wall(wall, boundary):
        return _wall_point(rng, wall, boundary)

    verdicts = set()
    for rows in RANK3_ROWS:
        d = _rank3_diagram(rows, 6)
        for wall in d.walls:
            for kind in range(10):
                p = in_wall(wall, kind % 2)
                if kind < 6:
                    q = in_wall(wall, False)
                elif kind < 9:
                    q = in_wall(rng.choice(d.walls), True)
                else:
                    q = tuple(Fraction(rng.randint(-12, 12), rng.randint(1, 3)) for _ in p)
                for a, b in ((p, q), (q, p)):
                    got = scat_cone_eq(d, a, b)
                    assert got == _scat_cone_eq_fraction_reference(d, a, b), (rows, a, b)
                    assert got == _scat_cone_eq_reference(d, a, b), (rows, a, b)
                    verdicts.add(got)
    assert verdicts == {True, False}


# scat_cone_eq as it was before it sampled reduced integer pairs, kept
# verbatim as the reference: one Fraction per crossing, and per end.
def _scat_cone_eq_fraction_samples(diagram: ScatDiagram, p, q) -> bool:
    """Whether p and q are D-equivalent, decided along the straight segment by
    exact subdivision at all wall-constraint crossings.

    Walls are cones, so p and q may each be scaled by a positive factor; both
    are cleared of denominators.  With a = <p, d> and b = <q, d> for each
    distinct direction d of the wall constraints (diagram.wall_table), the
    point at t = u/v (v > 0) pairs with d to ((v - u) a + u b) / v, so each
    sample is located by the signs of those integers.  A crossing t =
    a / (a - b) does not change when d is scaled by a nonzero factor, so these
    are the crossings of every wall constraint.  Only the ends and the
    crossings strictly inside the segment (a b < 0) are sampled: between two
    consecutive crossings no constraint changes sign, so as walls are closed
    and convex, a point there lies in exactly the walls that contain both
    crossings around it.
    """
    table = diagram.wall_table
    p, q = integral_multiple(p), integral_multiple(q)
    ends = [(vdot(p, d), vdot(q, d)) for d in table.directions]

    def ramparts(t):
        u, v = t.numerator, t.denominator
        return table.cones_of([(v - u) * a + u * b for a, b in ends])

    base = ramparts(Fraction(0))
    if ramparts(Fraction(1)) != base:
        return False
    ts = {Fraction(a, a - b) for a, b in ends if a * b < 0}
    return all(ramparts(t) == base for t in ts)


def test_scat_cone_eq_matches_the_fraction_samples_on_fan_instances():
    # Pairs on the fans and clusters instances' diagrams at their caps: both
    # ends on one wall, one end on a wall (in its relative interior or on
    # its boundary) and the other on another wall or anywhere, and both ends
    # anywhere.
    rng = random.Random(26)
    verdicts = set()
    for rows, cap in FAN_INSTANCES:
        d = build_dcscat(ExchangeMatrix.from_rows(rows), cap, cap)
        n = len(rows)

        def anywhere():
            return tuple(Fraction(rng.randint(-12, 12), rng.randint(1, 3)) for _ in range(n))

        for wall in d.walls:
            p = _wall_point(rng, wall, rng.random() < 0.5)
            for q in (
                _wall_point(rng, wall, False),
                _wall_point(rng, rng.choice(d.walls), True),
                anywhere(),
            ):
                for a, b in ((p, q), (q, p)):
                    got = scat_cone_eq(d, a, b)
                    assert got == _scat_cone_eq_fraction_samples(d, a, b), (rows, a, b)
                    assert got == _scat_cone_eq_fraction_reference(d, a, b), (rows, a, b)
                    verdicts.add(got)
        for _ in range(20):
            p, q = anywhere(), anywhere()
            assert scat_cone_eq(d, p, q) == _scat_cone_eq_fraction_samples(d, p, q), (rows, p, q)
    assert verdicts == {True, False}


def test_overlap_reported():
    d = build_dcscat(B_A11, height_cap=4, truncation=4)
    assert d.provenance["overlap_walls"] >= 1  # initial walls occur in both families


def _shards_in_hyperplane(sh, beta):
    """All shards in beta-perp: full-dimensional sign cells of the cut
    arrangement inside the hyperplane."""
    import itertools

    from affscat.cones import Cone

    cut = sh.cut_set(beta)
    n = sh.cartan.n
    cov = sh.cartan.primitive_in_coroot_lattice
    cells = []
    seen = set()
    for signs in itertools.product((1, -1), repeat=len(cut)):
        ineqs = [cov(tuple(s * c for c in g)) for s, g in zip(signs, cut)]
        cone = Cone.from_constraints(n, eqs=[cov(beta)], ineqs=ineqs)
        if cone.dim != n - 1:
            continue
        key = cone.generators
        if key not in seen:
            seen.add(key)
            cells.append(cone)
    return cells


def test_aff_greg_shard_unique_shard_with_omega():
    # Each real wall is the unique shard in beta-perp whose relative interior
    # side contains -omega_c(. , beta).
    from affscat.shards import ShardContext

    for b, cox in ((B_A11, COX_A11), (B_A2T, COX_A2T)):
        sh = ShardContext(cox.cartan)
        d = build_dcscat(b, height_cap=4, truncation=4)
        for w in d.walls:
            if w.origin == ORIGIN_IMAGINARY:
                continue
            target = tuple(-c for c in cox.omega_covector(w.normal))
            shards = _shards_in_hyperplane(sh, w.normal)
            hits = [c for c in shards if c.contains(target)]
            assert len(hits) == 1, w.normal
            assert hits[0].generators == w.cone.generators, w.normal


@pytest.mark.parametrize("orientation", ORIENTATIONS, ids=_id)
def test_antipodal_diagram_for_negated_b(orientation):
    # Scat^T(-B) has the antipodal walls of Scat^T(B) with the same series
    # coefficients; c^{-1} is the Coxeter element attached to -B.  The shard
    # construction swaps c and c^{-1} for -B, so there the symmetry follows
    # from the construction; build_easy_scat reads one Coxeter element only.
    bmat, _, cap, _ = _instance(orientation[2])
    for build in (build_dcscat, build_easy_scat):
        d, d_neg = (build(b, cap, cap) for b in (bmat, bmat.negate()))
        assert len(d.walls) == len(d_neg.walls)
        for w, w_neg in zip(d.walls, d_neg.walls):
            assert (w.normal, w.cone.negate().generators, w.f.coeffs) == (
                w_neg.normal,
                w_neg.cone.generators,
                w_neg.f.coeffs,
            ), (build.__name__, w.normal)


def test_consistency_deeper_truncation():
    for b, cox, H in ((B_A11, COX_A11, 9), (B_A2T, COX_A2T, 6)):
        d = build_dcscat(b, height_cap=H, truncation=H)
        report = check_consistency(d, H, cox)
        assert report["consistent"], report["failures"]


def test_integrality_audit_clean():
    from affscat.scattering import integrality_audit

    for b, H in ((B_A11, 5), (B_A2T, 4)):
        d = build_dcscat(b, height_cap=H, truncation=H)
        assert integrality_audit(d) == []
        assert d.provenance["non_integer_series"] == []
    comp = rank2_complete(ExchangeMatrix.from_rows([[0, 1], [-4, 0]]), truncation=9)
    assert comp.provenance["non_integer_series"] == []


def test_wall_covectors_stored_as_ints():
    # Cone covectors are primitive integer vectors and stay ints in storage.
    b_a22 = ExchangeMatrix.from_rows([[0, 1], [-4, 0]])
    for b in (B_A11, b_a22, B_A2T):
        for build in (build_dcscat, build_easy_scat):
            d = build(b, height_cap=4, truncation=4)
            for w in d.walls:
                for cov in w.cone.eqs + w.cone.ineqs:
                    assert all(type(c) is int for c in cov), (w.normal, cov)


def test_dcscat_never_walks_w(monkeypatch):
    # The shard construction generates sortables directly: with every binding
    # of the Weyl-group BFS made to raise, and with constructing a
    # GroupElement or a WeylContext made to raise, both constructions still
    # run and agree.  Each shard is read off a lean sortable witness.
    import sys

    import affscat.sortable
    import affscat.weyl

    def forbidden(*args, **kwargs):
        raise AssertionError("build_dcscat must not enumerate W")

    def no_group_elements(*args, **kwargs):
        raise AssertionError("the constructions must not build a GroupElement or a WeylContext")

    for name, module in list(sys.modules.items()):
        if name.startswith("affscat") and hasattr(module, "enumerate_up_to_length"):
            monkeypatch.setattr(module, "enumerate_up_to_length", forbidden)
    assert affscat.weyl.enumerate_up_to_length is forbidden
    if hasattr(affscat.sortable, "enumerate_up_to_length"):
        assert affscat.sortable.enumerate_up_to_length is forbidden
    for cls in (affscat.weyl.GroupElement, affscat.weyl.WeylContext):
        monkeypatch.setattr(cls, "__init__", no_group_elements)
    b = ExchangeMatrix.from_rows(
        [[0, 1, 0, 1], [-1, 0, 1, 0], [0, -1, 0, -1], [-1, 0, 1, 0]]
    )
    d1 = build_dcscat(b, height_cap=8, truncation=8)
    d2 = build_easy_scat(b, height_cap=8, truncation=8)
    assert sorted(w.key() for w in d1.walls) == sorted(w.key() for w in d2.walls)


def test_length_cap_failure_names_the_cap(monkeypatch):
    import pytest

    from affscat.scattering import _Builder
    from affscat.weyl import CapExceeded

    # (3, 3) is no root of A_1^(1), so no length cap can find its shard.
    monkeypatch.setattr(_Builder, "expected_normals", lambda self: [(3, 3)])
    with pytest.raises(CapExceeded, match=r"length cap 256.*64\*\(H\+2\) = 256"):
        build_dcscat(B_A11, height_cap=2, truncation=2)


def _build_dcscat_every_round_reference(bmat, height_cap, truncation):
    """build_dcscat as it was before coverage was read off the cover roots:
    each length-cap round builds the walls of both families and reads the
    covered normals off them."""
    from affscat.scattering import ORIGIN_INV_SORTABLE, ORIGIN_SORTABLE, _Builder, _diagram
    from affscat.sortable import SortableContext

    cox = coxeter_context(bmat)
    builder = _Builder(cox, height_cap, truncation)
    sortables = {
        ORIGIN_SORTABLE: SortableContext(cox),
        ORIGIN_INV_SORTABLE: SortableContext(cox.inverse()),
    }
    expected = builder.expected_normals()
    length_cap = max(2 * height_cap, 4)
    while True:
        c_walls, inv_walls = (
            builder.ji_walls(origin, sortables[origin].ji_sortables(height_cap, length_cap))
            for origin in (ORIGIN_SORTABLE, ORIGIN_INV_SORTABLE)
        )
        merged: dict = {}
        overlap = 0
        for w in c_walls + inv_walls:
            key = w.key()
            if key in merged:
                overlap += 1
                continue
            merged[key] = w
        covered = {w.normal for w in merged.values()}
        missing = [b for b in expected if b not in covered]
        if not missing:
            break
        length_cap *= 2
    walls = list(merged.values()) + [builder.imaginary_wall()]
    return _diagram(
        builder.n, walls, height_cap, truncation, construction="dcscat", overlap_walls=overlap
    )


def test_dcscat_builds_each_wall_once_across_length_cap_rounds(monkeypatch):
    # A_8^(2) orientation 0 at H = k = 9 needs two rounds, at length caps 18
    # and 36.  Reading coverage off the cover roots builds each wall once,
    # after the last round, and gives the diagram the every-round build gave.
    from affscat.jsonio import diagram_json
    from affscat.shards import ShardContext
    from affscat.sortable import SortableContext
    from test_orientation_sweep import acyclic_orientations

    rows = next(r for label, index, r in acyclic_orientations(5) if (label, index) == ("A_8^(2)", 0))
    shard_calls, length_caps = [], []
    shard_from_ji = ShardContext.shard_from_ji
    ji_sortables = SortableContext.ji_sortables

    def counted_shard(self, root, inversions):
        shard_calls.append(root)
        return shard_from_ji(self, root, inversions)

    def counted_ji(self, height_cap, length_cap):
        length_caps.append(length_cap)
        return ji_sortables(self, height_cap, length_cap)

    monkeypatch.setattr(ShardContext, "shard_from_ji", counted_shard)
    monkeypatch.setattr(SortableContext, "ji_sortables", counted_ji)
    built = build_dcscat(ExchangeMatrix.from_rows([list(r) for r in rows]), 9, 9)
    assert (len(shard_calls), length_caps) == (68, [18, 18, 36, 36])
    assert len(set(shard_calls)) < len(shard_calls)  # some root is a JI for both c and c^-1
    shard_calls.clear()
    reference = _build_dcscat_every_round_reference(
        ExchangeMatrix.from_rows([list(r) for r in rows]), 9, 9
    )
    assert len(shard_calls) == 135
    assert diagram_json(built) == diagram_json(reference)
    assert built.provenance == reference.provenance
