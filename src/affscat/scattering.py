"""Cluster scattering diagrams of acyclic affine type.

build_dcscat assembles walls from shards of join-irreducible c- and
c^{-1}-sortable elements plus the imaginary wall; build_easy_scat assembles
the same diagram from the almost-positive roots and the cutting relation.
Consistency is checked by composing wall crossings around codimension-2
faces, ordered angularly in an exact transverse plane, in integers.  Wall
covectors are the normals scaled coordinatewise by the positive symmetrizer
d, so for a face cut out by walls with normals beta1, beta2:
- a wall's hyperplane contains the face's span only if its normal lies in
  span(beta1, beta2): it is beta1 or has the plane key wedge_key(beta1, beta2);
- for (i, j) = nonzero_minor(beta1, beta2), that minor of the two covectors
  is d_i d_j > 0 times it, so span(e_i, e_j) meets the face's span only at 0
  and every wall through the face traces a line in it;
- crossing signs are read off the trace directions (see loop_crossings).

rank2_complete runs the order-by-order completion in rank 2.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cache, cmp_to_key

from .almost_positive import APContext
from .cartan import ExchangeMatrix, NotAcyclic, NotAffine, exchange_to_cartan
from .cones import Cone
from .coxeter import CoxeterContext, coxeter_context
from .linalg import (
    identity_mat,
    integral_multiple,
    nonzero_minor,
    primitive_vector,
    vdot,
    wedge_key,
)
from .series import (
    CrossingData,
    MonomialExpr,
    TruncatedSeries,
    f_inf_series,
    path_product,
)
from .shards import ShardContext
from .sortable import SortableContext
from .weyl import CapExceeded, WeylContext


ORIGIN_INITIAL = "initial"
ORIGIN_SORTABLE = "sortable_ji"
ORIGIN_INV_SORTABLE = "inv_sortable_ji"
ORIGIN_IMAGINARY = "imaginary"
ORIGIN_RANK2 = "rank2_completed"


@dataclass(frozen=True)
class Wall:
    normal: tuple  # primitive positive root in Q
    cone: Cone
    ineq_roots: tuple  # root-lattice functionals phi with <x, phi> <= 0 on the cone
    f: TruncatedSeries
    origin: str

    def key(self):
        return (self.normal, self.cone.generators)

    def full_key(self):
        return (self.normal, self.cone.generators, self.f.coeffs)


@dataclass(frozen=True)
class ScatDiagram:
    cartan_n: int
    walls: tuple
    height_cap: int
    truncation: int
    provenance: dict = field(compare=False, default_factory=dict)

    def wall_by_normal(self, beta):
        return [w for w in self.walls if w.normal == tuple(beta)]

    def drop_imaginary(self) -> "ScatDiagram":
        kept = tuple(w for w in self.walls if w.origin != ORIGIN_IMAGINARY)
        return replace(self, walls=kept)

    def same_walls(self, other: "ScatDiagram") -> bool:
        return sorted(w.full_key() for w in self.walls) == sorted(
            w.full_key() for w in other.walls
        )


class _Builder:
    def __init__(self, cox: CoxeterContext, height_cap: int, truncation: int):
        if cox.type_info.kind != "affine":
            raise NotAffine("scattering construction requires affine type")
        self.cox = cox
        self.cartan = cox.cartan
        self.n = cox.n
        self.H = height_cap
        self.k = truncation
        self.weyl = WeylContext(self.cartan)
        self.shards = ShardContext(self.weyl)
        self.ap = APContext(cox)
        # One per Coxeter element, so generated sortables survive length-cap
        # doublings.
        self.sortables = {
            ORIGIN_SORTABLE: SortableContext(self.weyl, cox),
            ORIGIN_INV_SORTABLE: SortableContext(self.weyl, cox.inverse()),
        }

    def series_for(self, beta) -> TruncatedSeries:
        ht = sum(beta)
        return TruncatedSeries.one_plus_q(beta, self.k // ht if ht else 0)

    def imaginary_wall(self) -> Wall:
        delta = self.cox.type_info.delta
        aff = self.cox.type_info.aff_index
        # Finite subsystem roots: supported off the affine index.  The finite
        # root system is closed off by a plain orbit closure (it terminates).
        fin_pos = [
            r
            for r in self.cartan.real_roots_up_to_height(self._finite_height_bound())
            if r[aff] == 0
        ]
        ineq_roots = []
        for r in fin_pos:
            val = self.cox.omega(r, delta)
            if val > 0:
                ineq_roots.append(r)
            elif val < 0:
                ineq_roots.append(tuple(-c for c in r))
        cov = self.cartan.primitive_in_coroot_lattice
        cone = Cone.from_constraints(
            self.n, eqs=[cov(delta)], ineqs=[cov(g) for g in ineq_roots]
        )
        f = f_inf_series(delta, self.cox.type_info.is_a2k2, self.k)
        return Wall(
            normal=delta,
            cone=cone,
            ineq_roots=tuple(sorted(ineq_roots)),
            f=f,
            origin=ORIGIN_IMAGINARY,
        )

    def _finite_height_bound(self) -> int:
        # Every root of the finite parabolic has height < n * max mark of the
        # highest root; twice the delta height is a comfortable exact bound.
        return 2 * sum(self.cox.type_info.delta) + self.n

    def expected_normals(self):
        return [b for b in self.ap.ap_positive_real(self.H) if sum(b) <= self.H]

    def ji_walls(self, origin: str, length_cap: int):
        found = self.sortables[origin].ji_sortables(self.H, length_cap)
        walls = []
        for root, j in sorted(found.items()):
            shard = self.shards.shard_from_ji(j)
            cone, ineqs = shard.cone, shard.cut_list
            if origin == ORIGIN_INV_SORTABLE:
                cone = cone.negate()
                ineqs = tuple(tuple(-c for c in g) for g in ineqs)
            tag = ORIGIN_INITIAL if sum(root) == 1 else origin
            walls.append(
                Wall(
                    normal=root,
                    cone=cone,
                    ineq_roots=tuple(sorted(ineqs)),
                    f=self.series_for(root),
                    origin=tag,
                )
            )
        return walls


def build_dcscat(bmat: ExchangeMatrix, height_cap: int, truncation: int) -> ScatDiagram:
    """Walls Sh(j) for c-sortable join-irreducibles, -Sh(j') for c^{-1}-sortable
    ones (cover roots up to the height cap), and the imaginary wall; duplicates
    merged by exact cone equality."""
    if not bmat.is_acyclic():
        raise NotAcyclic("the shard construction needs an acyclic exchange matrix")
    cox = coxeter_context(bmat)
    builder = _Builder(cox, height_cap, truncation)
    expected = builder.expected_normals()
    length_cap = max(2 * height_cap, 4)
    while True:
        c_walls = builder.ji_walls(ORIGIN_SORTABLE, length_cap)
        inv_walls = builder.ji_walls(ORIGIN_INV_SORTABLE, length_cap)
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
        # every positive AP_c root is hit by a c- or c^{-1}-sortable
        # join-irreducible; a miss means the length cap was too small
        limit = 64 * (height_cap + 2)
        if 2 * length_cap > limit:
            raise CapExceeded(
                f"no join-irreducible for normals {missing} within length cap "
                f"{length_cap}; doubling it would pass the limit 64*(H+2) = {limit}"
            )
        length_cap *= 2
    walls = list(merged.values()) + [builder.imaginary_wall()]
    hyperplanes = [w.normal for w in walls]
    assert len(set(hyperplanes)) == len(hyperplanes), "one wall per hyperplane"
    out = ScatDiagram(
        cartan_n=builder.n,
        walls=tuple(sorted(walls, key=lambda w: (sum(w.normal), w.normal))),
        height_cap=height_cap,
        truncation=truncation,
        provenance={"construction": "dcscat", "overlap_walls": overlap},
    )
    out.provenance["non_integer_series"] = [list(b) for b in integrality_audit(out)]
    return out


def build_easy_scat(bmat: ExchangeMatrix, height_cap: int, truncation: int) -> ScatDiagram:
    """One wall d_beta per positive root of AP_c up to the height cap, plus the
    imaginary wall."""
    if not bmat.is_acyclic():
        raise NotAcyclic("the d_beta construction needs an acyclic exchange matrix")
    cox = coxeter_context(bmat)
    builder = _Builder(cox, height_cap, truncation)
    walls = []
    for beta in builder.expected_normals():
        shard = builder.shards.shard_from_root(beta, cox)
        tag = ORIGIN_INITIAL if sum(beta) == 1 else ORIGIN_SORTABLE
        walls.append(
            Wall(
                normal=beta,
                cone=shard.cone,
                ineq_roots=shard.cut_list,
                f=builder.series_for(beta),
                origin=tag,
            )
        )
    walls.append(builder.imaginary_wall())
    out = ScatDiagram(
        cartan_n=builder.n,
        walls=tuple(sorted(walls, key=lambda w: (sum(w.normal), w.normal))),
        height_cap=height_cap,
        truncation=truncation,
        provenance={"construction": "easy_scat"},
    )
    out.provenance["non_integer_series"] = [list(b) for b in integrality_audit(out)]
    return out


def classify_wall(wall: Wall, cox: CoxeterContext) -> dict:
    """Incoming/outgoing and gregariousness, by exact cone membership."""
    omega_vec = cox.omega_covector(wall.normal)
    neg = tuple(-c for c in omega_vec)
    incoming = wall.cone.contains(omega_vec)
    gregarious = wall.cone.relint_contains(neg)
    return {"incoming": incoming, "outgoing": not incoming, "gregarious": gregarious}


# -- loop machinery -----------------------------------------------------------


def _angle_cmp(d1, d2):
    def half(d):
        a, b = d
        return 0 if (b > 0 or (b == 0 and a > 0)) else 1

    h1, h2 = half(d1), half(d2)
    if h1 != h2:
        return -1 if h1 < h2 else 1
    cross = d1[0] * d2[1] - d1[1] * d2[0]
    if cross > 0:
        return -1
    if cross < 0:
        return 1
    return 0


@dataclass
class LoopCrossing:
    wall: Wall
    direction: tuple  # (a, b) coordinates in the transverse plane
    sign: int  # +1 crossing against the normal, -1 with it


def _crossing_data(wall: Wall, coroot, b_rows) -> CrossingData:
    return CrossingData(f=wall.f, coroot=coroot(wall.normal), b_rows=b_rows)


def loop_crossings(walls, base_point, u1, u2, covector):
    """Walls crossed by a small counterclockwise loop around base_point inside
    the plane base_point + span(u1, u2), in angular order with crossing signs.

    Each wall must contain base_point, and the plane must be transverse to its
    hyperplane.  With c = covector(normal), a = <u1, c> and b = <u2, c>, the
    wall's trace in the plane is the line spanned by (-b, a); near the base
    point the wall is its tangent cone there, so the loop crosses it at each
    direction of the line on which the inequalities tight at base_point hold.
    Just clockwise of a direction d the loop is at d + t (d_2, -d_1), t > 0
    small, where <., c> equals t (d_2 a - d_1 b).  So the crossing sign is
    sgn(d_2 a - d_1 b): +1 at the primitive multiple of (-b, a), -1 at its
    negative.
    """
    events = []
    for w in walls:
        c = covector(w.normal)
        a, b = vdot(u1, c), vdot(u2, c)
        line = primitive_vector((-b, a))
        tight = [g for g in w.cone.ineqs if vdot(base_point, g) == 0]
        hits = 0
        for d, sign in ((line, 1), ((-line[0], -line[1]), -1)):
            vec = tuple(d[0] * x + d[1] * y for x, y in zip(u1, u2))
            if all(vdot(vec, g) <= 0 for g in tight):
                events.append(LoopCrossing(wall=w, direction=d, sign=sign))
                hits += 1
        assert hits >= 1, "wall containing the face must cross the loop"
    return sorted(events, key=cmp_to_key(lambda e1, e2: _angle_cmp(e1.direction, e2.direction)))


def _generators(n, k):
    gens = []
    for i in range(n):
        lam = tuple(1 if j == i else 0 for j in range(n))
        gens.append(MonomialExpr.x_monomial(n, k, lam))
        gens.append(MonomialExpr.yhat_monomial(n, k, lam))
    return gens


def _b_rows_from_cox(cox: CoxeterContext):
    return tuple(
        tuple(cox.omega_entry(i, j) for j in range(cox.n)) for i in range(cox.n)
    )


def check_consistency(diagram: ScatDiagram, truncation: int, cox: CoxeterContext) -> dict:
    """Compose wall crossings around every codimension-2 face of the diagram
    and report which loops fail to be the identity mod m^(truncation+1).
    Each face's walls and loop plane come from its two normals (see the
    module docstring)."""
    n = diagram.cartan_n
    k = truncation
    walls = [w for w in diagram.walls if sum(w.normal) <= k]
    b_rows = _b_rows_from_cox(cox)
    units = identity_mat(n)
    coroot = cache(cox.cartan.primitive_in_coroot_lattice)  # once per normal
    faces = _codim2_faces(walls, n)
    report = {"faces": len(faces), "failures": [], "checked": 0}
    by_plane: dict = {}  # beta1 -> _walls_by_plane(beta1, walls)
    for face, beta1, beta2 in faces:
        if beta1 not in by_plane:
            by_plane[beta1] = _walls_by_plane(beta1, walls)
        containing, others = _walls_around(face, beta1, beta2, walls, by_plane[beta1])
        base = _generic_relint_point(face, others)
        i, j = nonzero_minor(beta1, beta2)
        crossings = loop_crossings(containing, base, units[i], units[j], coroot)
        seq = [(_crossing_data(e.wall, coroot, b_rows), e.sign) for e in crossings]
        ok = True
        for gen in _generators(n, k):
            if path_product(gen, seq, k) != gen:
                ok = False
                break
        report["checked"] += 1
        if not ok:
            report["failures"].append(
                {
                    "face_rays": [list(r) for r in face.rays],
                    "walls": [list(w.normal) for w in containing],
                }
            )
    report["consistent"] = not report["failures"]
    return report


def _codim2_faces(walls, n):
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


def _walls_by_plane(beta1, walls) -> dict:
    """Indices of the walls, in the given order, bucketed by
    wedge_key(beta1, normal); the walls with normal beta1 lie in every plane
    through beta1 and are bucketed under None."""
    buckets: dict = {}
    for i, w in enumerate(walls):
        buckets.setdefault(wedge_key(beta1, w.normal), []).append(i)
    return buckets


def _walls_around(face: Cone, beta1, beta2, walls, by_plane):
    """(walls containing the face, the other walls), each in the given order;
    only walls with normal in span(beta1, beta2) are tested.  by_plane is
    _walls_by_plane(beta1, walls)."""
    near = sorted(by_plane.get(wedge_key(beta1, beta2), []) + by_plane.get(None, []))
    inside = [i for i in near if walls[i].cone.contains_cone(face)]
    taken = set(inside)
    return [walls[i] for i in inside], [w for i, w in enumerate(walls) if i not in taken]


def _generic_relint_point(face: Cone, other_walls):
    """An integer relative-interior point of the face avoiding all walls that
    do not contain the face (deterministic perturbation search).

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
    """
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


# -- rank-2 completion -----------------------------------------------------------


def rank2_complete(bmat: ExchangeMatrix, truncation: int) -> ScatDiagram:
    """Order-by-order consistency completion of the rank-2 diagram, exact
    through total yhat-degree `truncation`."""
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

    for degree in range(2, k + 1):
        # walls with normal height > degree act trivially mod m^(degree+1)
        active = [w for w in walls.values() if sum(w.normal) <= degree]
        seq = loop_seq(active)
        defects: dict = {}
        for i in range(2):
            lam = tuple(1 if j == i else 0 for j in range(2))
            gen = MonomialExpr.x_monomial(2, degree, lam)
            image = path_product(gen, seq, degree)
            for (lam2, phi), coeff in image.terms:
                if sum(phi) == degree and (lam2, phi) != (lam, (0,) * 2):
                    assert lam2 == lam, "defect must stay on the same x-monomial"
                    defects.setdefault(phi, {})[i] = coeff
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
                    f=TruncatedSeries.one(beta, qdeg),
                    origin=ORIGIN_RANK2,
                )
            wall = walls[key]
            assert wall.normal == beta, "parallel outgoing rays must share a normal"
            coeffs = list(wall.f.coeffs)
            coeffs[m] += correction
            walls[key] = replace(wall, f=TruncatedSeries.make(beta, wall.f.k, coeffs))
    # final verification
    seq = loop_seq(list(walls.values()))
    for gen in _generators(2, k):
        assert path_product(gen, seq, k) == gen, "completion failed to close"
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


# -- ramparts and the scattering fan ------------------------------------------------


def integrality_audit(diagram: ScatDiagram) -> list:
    """Walls whose scattering term has a non-integer coefficient.

    Coefficients are carried as exact rationals throughout; a non-integer here
    signals a convention bug upstream, so builders record the audit in the
    diagram provenance.
    """
    bad = []
    for w in diagram.walls:
        if any(Fraction(c).denominator != 1 for c in w.f.coeffs):
            bad.append(w.normal)
    return bad


def rampart_set(diagram: ScatDiagram, point) -> frozenset:
    """Indices of walls containing the point (each rampart is a single wall)."""
    x = integral_multiple(point)
    return frozenset(i for i, w in enumerate(diagram.walls) if w.cone.contains(x))


def scat_cone_eq(diagram: ScatDiagram, p, q) -> bool:
    """Whether p and q are D-equivalent, decided along the straight segment by
    exact subdivision at all wall-constraint crossings.

    Walls are cones, so p and q may each be scaled by a positive factor; both
    are cleared of denominators.  With a = <p, g> and b = <q, g> for a wall
    constraint g, the point at t = u/v (v > 0) pairs with g to
    ((v - u) a + u b) / v, so each sample is decided by the sign of that
    integer.  Only the ends and the crossings strictly inside the segment
    (a b < 0) are sampled: between two consecutive crossings no constraint
    changes sign, so as walls are closed and convex, a point there lies in
    exactly the walls that contain both crossings around it.
    """
    p, q = integral_multiple(p), integral_multiple(q)
    ends = [
        (
            [(vdot(p, e), vdot(q, e)) for e in w.cone.eqs],
            [(vdot(p, g), vdot(q, g)) for g in w.cone.ineqs],
        )
        for w in diagram.walls
    ]

    def ramparts(t):
        u, v = t.numerator, t.denominator
        return [
            all((v - u) * a + u * b == 0 for a, b in eqs)
            and all((v - u) * a + u * b <= 0 for a, b in ineqs)
            for eqs, ineqs in ends
        ]

    base = ramparts(Fraction(0))
    if ramparts(Fraction(1)) != base:
        return False
    ts = {Fraction(a, a - b) for eqs, ineqs in ends for a, b in eqs + ineqs if a * b < 0}
    return all(ramparts(t) == base for t in ts)
