"""Cluster scattering diagrams of acyclic affine type.

build_dcscat assembles walls from shards of join-irreducible c- and
c^{-1}-sortable elements plus the imaginary wall; build_easy_scat assembles
the same diagram from the almost-positive roots and the cutting relation.
Consistency is checked by composing wall crossings around codimension-2
cells, ordered angularly in an exact transverse plane, in integers, and
applying each loop to x_i + x_j for two coordinates i, j of the cell's loop
plane (see check_consistency), with each wall's crossing kernel prepared once
per check.  Wall
covectors are the normals scaled coordinatewise by the positive symmetrizer
d, so for a cell in the meet of walls with normals beta1, beta2:
- a wall's hyperplane contains the cell's span only if its normal lies in
  span(beta1, beta2): it is beta1 or has the plane key wedge_key(beta1, beta2);
- for (i, j) = nonzero_minor(beta1, beta2), that minor of the two covectors
  is d_i d_j > 0 times it, so span(e_i, e_j) meets the cell's span only at 0
  and every wall through the cell traces a line in it;
- crossing signs are read off the trace directions (see loop_crossings).

The cells refine the (n-2)-dimensional meets of two walls, plane by plane
(see _codim2_faces).  Each wall is cut once per plane P through its normal,
to its piece in the common kernel L_P, by one step on its cached generators
(Cone.cut).  A meet lies in both walls' pieces, and is one of them when
that piece lies in the other wall; where neither piece nests, the meet is
cut from the first wall's piece by the second wall's inequalities.  A third
wall of P can cover part of a meet without containing it, so each meet is
split by the walls of P until each of them contains a cell or misses its
relative interior (see _cells), and every cell gets its own loop.  No face
or cell runs a double description: each is cut from cached generators.  The
base point of each loop is located against one SignTable of the checked
walls.

rank2_complete completes the rank-2 diagram in one pass around its loop,
reading each outgoing ray's scattering term off the product as the loop
reaches it (the ordered factorization).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property, cmp_to_key
from math import gcd

from .almost_positive import APContext
from .cartan import ExchangeMatrix, NotAcyclic, NotAffine, exchange_to_cartan
from .cones import Cone, SignTable, bits
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
    series_root,
    wall_cross,
)
from .shards import ShardContext
from .sortable import SortableContext
from .weyl import CapExceeded


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

    @cached_property
    def wall_table(self) -> SignTable:
        """The walls' cones as one SignTable, read by rampart_set and scat_cone_eq."""
        return SignTable([w.cone for w in self.walls])

    def wall_by_normal(self, beta):
        return [w for w in self.walls if w.normal == tuple(beta)]

    def drop_imaginary(self) -> "ScatDiagram":
        kept = tuple(w for w in self.walls if w.origin != ORIGIN_IMAGINARY)
        return replace(self, walls=kept)

    def same_walls(self, other: "ScatDiagram") -> bool:
        return sorted(w.full_key() for w in self.walls) == sorted(
            w.full_key() for w in other.walls
        )


def _shared_contexts(cox: CoxeterContext) -> tuple:
    """The ShardContext and APContext of cox, built on first use and kept on
    cox, as functools.cached_property keeps a value.  coxeter_context gives
    every stage run on one ExchangeMatrix the same CoxeterContext, so
    build_easy_scat and fans_compare reuse what build_dcscat computed on that
    matrix: the root data, the cut sets, the shard cones and AP_c."""
    shared = vars(cox).get("_shared_contexts")
    if shared is None:
        shared = vars(cox)["_shared_contexts"] = (ShardContext(cox.cartan), APContext(cox))
    return shared


class _Builder:
    """One construction at one height cap and truncation.

    Its shard and almost-positive contexts are those of its CoxeterContext
    (_shared_contexts), shared with every other build on the same matrix.
    Its two SortableContexts are its own, because each reads AFFSCAT_CAP
    when it is made."""

    def __init__(self, cox: CoxeterContext, height_cap: int, truncation: int):
        if cox.type_info.kind != "affine":
            raise NotAffine("scattering construction requires affine type")
        self.cox = cox
        self.cartan = cox.cartan
        self.n = cox.n
        self.H = height_cap
        self.k = truncation
        self.shards, self.ap = _shared_contexts(cox)
        # One per Coxeter element, so generated sortables survive length-cap
        # doublings.
        self.sortables = {
            ORIGIN_SORTABLE: SortableContext(cox),
            ORIGIN_INV_SORTABLE: SortableContext(cox.inverse()),
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
        # The defect of r is a positive multiple of omega_c(r, delta).
        cov = self.cartan.primitive_in_coroot_lattice
        ineq_roots = []
        for r in fin_pos:
            val = self.cox.defect(r)
            if val > 0:
                ineq_roots.append(r)
            elif val < 0:
                ineq_roots.append(tuple(-c for c in r))
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
        # Every root of the finite parabolic has height below 2 ht(delta)
        # (ht(delta) - 1 untwisted, up to 2 ht(delta) - 3 twisted, on every
        # affine diagram of rank <= 9), so the added n is only slack.
        return 2 * sum(self.cox.type_info.delta) + self.n

    def expected_normals(self):
        return [b for b in self.ap.ap_positive_real(self.H) if sum(b) <= self.H]

    def ji_walls(self, origin: str, length_cap: int):
        found = self.sortables[origin].ji_sortables(self.H, length_cap)
        walls = []
        for root, wit in sorted(found.items()):
            shard = self.shards.shard_from_ji(root, wit.inversions)
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
    return _diagram(
        builder.n, walls, height_cap, truncation, construction="dcscat", overlap_walls=overlap
    )


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
    return _diagram(builder.n, walls, height_cap, truncation, construction="easy_scat")


def _diagram(n, walls, height_cap, truncation, **provenance) -> ScatDiagram:
    """The diagram of the walls sorted by (height, normal), with its
    provenance and the normals that integrality_audit reports."""
    out = ScatDiagram(
        cartan_n=n,
        walls=tuple(sorted(walls, key=lambda w: (sum(w.normal), w.normal))),
        height_cap=height_cap,
        truncation=truncation,
        provenance=provenance,
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


def _x_sum(n, k, indices) -> MonomialExpr:
    """The sum of x_i over i in indices, truncated at yhat-degree k."""
    zero = (0,) * n
    units = identity_mat(n)
    return MonomialExpr.from_dict(n, k, {(units[i], zero): 1 for i in indices})


def _b_rows_from_cox(cox: CoxeterContext):
    return tuple(
        tuple(cox.omega_entry(i, j) for j in range(cox.n)) for i in range(cox.n)
    )


def check_consistency(diagram: ScatDiagram, truncation: int, cox: CoxeterContext) -> dict:
    """Compose wall crossings around every codimension-2 cell of the diagram
    and report which loops fail to be the identity mod m^(truncation+1).
    The faces are the cells of _codim2_faces: each comes with the walls
    containing it, and its loop plane comes from its two normals (see the
    module docstring).

    A loop is the identity exactly when its path product fixes x_i + x_j
    for (i, j) = nonzero_minor(beta1, beta2), the two coordinates of the loop
    plane, for three reasons.

    1. Fixing every x_i fixes every yhat_j.  A crossing multiplies
       x^lambda yhat^phi by f^(<lambda, s beta^vee> + omega(s beta^vee, phi)),
       and omega(s beta^vee, e_j) = s sum_i beta^vee_i b_ij = <b_j, s beta^vee>
       for b_j = (b_1j, ..., b_nj); so one crossing multiplies yhat_j and the
       Laurent monomial x^(b_j) by the same series.  Crossings are ring
       automorphisms that multiply every monomial by a series in yhat, so by
       induction along the path a composite multiplies yhat_j and x^(b_j) by
       one series R_j.  If it fixes every x_i it fixes x^(b_j), so
       R_j = 1 mod m^(k+1) and yhat_j is fixed too: this is the substitution
       yhat = x^(B .) of Gross-Hacking-Keel-Kontsevich (Canonical bases for
       cluster algebras, JAMS 2018).  The omega entries and the coroots are
       integers, so no crossing exponent is ever non-integral and checking
       the yhat_j as well could not raise NonIntegerExponent either.
    2. Fixing x_i + x_j fixes x_i and x_j.  wall_cross is linear and keeps
       each lambda group apart (it multiplies x^lambda yhat^phi by a series
       in yhat), so the image of x_i + x_j is the sum of the images of x_i
       and x_j, which lie in the lambda = e_i and e_j groups.
    3. Fixing x_i and x_j fixes every x_l.  The composite is a ring
       automorphism multiplying each x^lambda by a series R_lambda with
       constant term 1, so R_(lambda+mu) = R_lambda R_mu.  Every wall of the
       loop contains the cell, so its normal lies in span(beta1, beta2) and
       its coroot in the span of the covectors c1, c2 of beta1, beta2 (the
       normals scaled coordinatewise by d); if lambda pairs to zero with c1
       and c2, no crossing moves x^lambda and R_lambda = 1.  The (i, j) minor
       M of c1, c2 is a positive multiple of that of beta1, beta2, so nonzero,
       and by Cramer's rule M e_l = a e_i + b e_j + kappa with integers a, b
       and an integer vector kappa pairing to zero with c1 and c2.  So
       R_(e_l)^M = R_(e_i)^a R_(e_j)^b = 1, and a series with constant term 1
       whose M-th power is 1 mod m^(k+1) is itself 1: its lowest nonconstant
       term t would give R^M = 1 + M t + ... .

    One CrossingData is built per wall, so each wall's crossing kernel is
    prepared once per sign for the whole check (CrossingData.kernel).
    """
    n = diagram.cartan_n
    k = truncation
    walls = [w for w in diagram.walls if sum(w.normal) <= k]
    b_rows = _b_rows_from_cox(cox)
    units = identity_mat(n)
    coroot = cox.cartan.primitive_in_coroot_lattice
    crossing = {id(w): _crossing_data(w, coroot, b_rows) for w in walls}
    gens: dict = {}  # (i, j) -> x_i + x_j
    faces = _codim2_faces(walls, n)
    table = SignTable([w.cone for w in walls])
    report = {"faces": len(faces), "failures": [], "checked": 0}
    for face, beta1, beta2, inside in faces:
        containing = [walls[i] for i in inside]
        base = _generic_relint_point(face, table, inside)
        i, j = nonzero_minor(beta1, beta2)
        crossings = loop_crossings(containing, base, units[i], units[j], coroot)
        seq = [(crossing[id(e.wall)], e.sign) for e in crossings]
        if (i, j) not in gens:
            gens[i, j] = _x_sum(n, k, (i, j))
        report["checked"] += 1
        if path_product(gens[i, j], seq, k) != gens[i, j]:
            report["failures"].append(
                {
                    "face_rays": [list(r) for r in face.rays],
                    "walls": [list(w.normal) for w in containing],
                }
            )
    report["consistent"] = not report["failures"]
    return report


def _codim2_faces(walls, n):
    """The cells of codimension 2, each as (cell, beta1, beta2, inside): the
    normals of the first pair of walls whose meet holds the cell, and the
    indices of the walls containing it.

    Each wall lies in the hyperplane of its cone's one equality, so for
    normals beta1 != beta2 spanning the plane P, wall 1 meets wall 2's
    hyperplane in its piece wall 1 ∩ L_P, L_P the common kernel of P: the
    same piece for every other wall with normal in P.  The piece is cut from
    the wall's cached generators in one step (Cone.cut) and kept per
    (wall, plane key).  The meet lies in both pieces, so a pair whose pieces
    are not both (n-2)-dimensional has no face; if one piece lies in the
    other wall, that piece is the meet.  Where neither nests, the meet is
    wall 1's piece cut by wall 2's inequalities (Cone.cut from the piece),
    which also gives its dimension.  The two nesting tests are kept because
    they are cheaper than that cut where they hold.  Each pair's plane
    key is computed once, and records both walls as members of the plane:
    the walls whose hyperplanes contain L_P.  Each distinct (n-2)-dimensional
    meet is then split by the members of its plane into cells (see _cells);
    the cells are distinct by generators.  No wall outside the plane can
    contain a cell, as its hyperplane does not contain L_P."""
    pieces: dict = {}  # (wall index, plane key) -> wall.cone.cut(eqs=...)
    members: dict = {}  # plane key -> indices of the walls with normal in it
    meets: dict = {}  # generators -> (meet, plane key, beta1, beta2)

    def piece(i, j, plane):
        if (i, plane) not in pieces:
            pieces[i, plane] = walls[i].cone.cut(eqs=walls[j].cone.eqs)
        return pieces[i, plane]

    for (i1, w1), (i2, w2) in itertools.combinations(enumerate(walls), 2):
        if w1.normal == w2.normal:
            continue
        plane = wedge_key(w1.normal, w2.normal)
        members.setdefault(plane, set()).update((i1, i2))
        piece1, piece2 = piece(i1, i2, plane), piece(i2, i1, plane)
        if piece1[2] != n - 2 or piece2[2] != n - 2:
            continue
        meet = w1.cone.intersect(w2.cone)
        if w2.cone.contains_generators(*piece1[:2]):
            meet.with_generators(*piece1)
        elif w1.cone.contains_generators(*piece2[:2]):
            meet.with_generators(*piece2)
        elif meet.with_generators(*w1.cone.cut(ineqs=w2.cone.ineqs, start=piece1)).dim != n - 2:
            continue
        meets.setdefault(meet.generators, (meet, plane, w1.normal, w2.normal))
    faces: dict = {}
    for meet, plane, beta1, beta2 in meets.values():
        for cell, inside in _cells(meet, [(i, walls[i].cone) for i in sorted(members[plane])]):
            faces.setdefault(cell.generators, (cell, beta1, beta2, inside))
    return list(faces.values())


def _cells(cell: Cone, members) -> list:
    """The cells the member cones (index, cone) cut the cone cell into, each
    as (cell, indices of the members containing it), in integers.

    Every member's hyperplane contains the span of cell.  A member meets the
    relative interior of a cell exactly when the sum of the rays of their
    meet, a point of the meet's relative interior, lies in the cell's.  One
    that does without containing the cell has an inequality g that takes
    both signs there (one that is positive somewhere and >= 0 throughout
    would keep the meet on the cell's proper face g = 0); it splits the cell
    into cell ∩ {g <= 0} and cell ∩ {g >= 0}, both of the cell's dimension.
    So every cell returned lies in each member or misses its relative
    interior.  The meet and both halves are cut from the cell's generators
    (Cone.cut)."""
    lin, rays = cell.generators
    gens = rays + lin + tuple(tuple(-c for c in v) for v in lin)
    inside = []
    for i, cone in members:
        if cone.contains_generators(lin, rays):
            inside.append(i)
            continue
        _, meet_rays, _ = cell.cut(cone.eqs, cone.ineqs)
        if cell.relint_contains([sum(c) for c in zip(*meet_rays)] or [0] * cell.dim_ambient):
            # an inequality that takes both strict signs on the generators
            g = next(
                g for g in cone.ineqs if min(vals := [vdot(v, g) for v in gens]) < 0 < max(vals)
            )
            halves = [
                Cone(cell.dim_ambient, cell.eqs, cell.ineqs + (h,)).with_generators(
                    *cell.cut(ineqs=[h])
                )
                for h in (g, tuple(-c for c in g))
            ]
            return [c for half in halves for c in _cells(half, members)]
    return [(cell, tuple(inside))]


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
    each parity.
    """
    lin, rays = face.generators
    n = face.dim_ambient
    if not rays and not lin:
        return (0,) * n
    allowed = sum(1 << i for i in inside)
    for attempt in range(1, 60):
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


# -- rank-2 completion -----------------------------------------------------------


def rank2_complete(bmat: ExchangeMatrix, truncation: int) -> ScatDiagram:
    """Consistency completion of the rank-2 diagram, exact through total
    yhat-degree `truncation`, in one pass around the loop: the ordered
    factorization of Kontsevich-Soibelman (Gross-Pandharipande, Quivers,
    curves, and the tropical vertex, 2010).

    An outgoing ray with normal beta runs along -B beta, and -B maps the
    open positive quadrant onto one open quadrant between the events of the
    two lines.  The loop is rotated to start just after that quadrant: the
    four line crossings, then the ray crossings theta_1, ..., theta_N in loop
    order.  It closes when it fixes X = x_1 + x_2 (see check_consistency),
    i.e. when the image Y of X under the line crossings is
    theta_1^-1 ... theta_N^-1 (X).  -B is linear, so the normals beta_j come
    in angular order too and beta_1 is extreme among them: theta_2, ...,
    theta_N only add yhat-exponents in the cone of beta_2, ..., beta_N, which
    meets the line of beta_1 only at 0.  So the terms of Y on
    x_i yhat^(m beta_1) come from theta_1 alone; they are x_i f_1^(-s c_i),
    with c = coroot(beta_1) and s the ray's crossing sign, and their root is
    f_1.  Crossing theta_1 leaves theta_2^-1 ... theta_N^-1 (X) for the next
    ray.  Every candidate normal (primitive, off the lines, of height at most
    the truncation) is read once; those with f = 1 carry no wall.  The final
    check Y == X is the closing of the whole loop.
    """
    assert bmat.n == 2, "completion is implemented for rank 2 only"
    cartan = exchange_to_cartan(bmat)
    k = truncation
    b_rows = bmat.b
    coroot = cartan.primitive_in_coroot_lattice

    def ray_wall_shape(beta, direction):
        # The ray through `direction` inside beta-perp, cut out by a
        # root-lattice functional negative on the ray.
        j = next(i for i in range(2) if direction[i] != 0)
        sgn = 1 if direction[j] > 0 else -1
        phi = tuple(-sgn if i == j else 0 for i in range(2))
        cone = Cone.from_constraints(2, eqs=[coroot(beta)], ineqs=[coroot(phi)])
        return cone, (phi,)

    lines = [
        Wall(
            normal=beta,
            cone=Cone.from_constraints(2, eqs=[coroot(beta)]),
            ineq_roots=(),
            f=TruncatedSeries.one_plus_q(beta, k),
            origin=ORIGIN_INITIAL,
        )
        for beta in (cartan.simple_root(0), cartan.simple_root(1))
    ]
    rays = []  # (direction, normal); none when B = 0
    for b1 in range(1, k):
        for b2 in range(1, k - b1 + 1):
            out = tuple(-(row[0] * b1 + row[1] * b2) for row in b_rows)
            if gcd(b1, b2) == 1 and any(out):
                rays.append((primitive_vector(out), (b1, b2)))
    rays.sort(key=cmp_to_key(lambda r1, r2: _angle_cmp(r1[0], r2[0])))
    events = loop_crossings(lines, (0, 0), (1, 0), (0, 1), coroot)
    if rays:
        # the line events before the rays' quadrant move behind the others
        cut = sum(_angle_cmp(e.direction, rays[0][0]) < 0 for e in events)
        events = events[cut:] + events[:cut]
    xsum = _x_sum(2, k, (0, 1))
    y = path_product(xsum, [(_crossing_data(e.wall, coroot, b_rows), e.sign) for e in events], k)
    walls = list(lines)
    units = identity_mat(2)
    for direction, beta in rays:
        beta_coroot = coroot(beta)
        # crossing sign of this outgoing ray in the ccw loop
        # (in rank 2 the wall's cone covector is this same primitive coroot)
        cw = (direction[1], -direction[0])
        val = vdot(cw, beta_coroot)
        assert val != 0
        ray_sign = 1 if val > 0 else -1
        roots = {
            series_root(y.ray_coeffs(u, beta), -ray_sign * c)
            for u, c in zip(units, beta_coroot)
            if c
        }
        assert len(roots) == 1, "not a single wall"
        f = TruncatedSeries.make(beta, k // sum(beta), roots.pop())
        if f.is_one():
            continue
        cone, ineq_roots = ray_wall_shape(beta, direction)
        wall = Wall(normal=beta, cone=cone, ineq_roots=ineq_roots, f=f, origin=ORIGIN_RANK2)
        walls.append(wall)
        y = wall_cross(y, _crossing_data(wall, coroot, b_rows), ray_sign, k)
    assert y == xsum, "completion failed to close"
    return _diagram(2, walls, k, k, construction="rank2_complete")


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
    return frozenset(bits(diagram.wall_table.locate(integral_multiple(point))))


def scat_cone_eq(diagram: ScatDiagram, p, q) -> bool:
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
    crossings around it.  Inside the segment a and a - b have one sign, so
    a crossing is the reduced pair (|a|, |a - b|) / g, g = gcd(a, a - b) =
    gcd(a, b), and equal crossings give equal pairs.
    """
    table = diagram.wall_table
    p, q = integral_multiple(p), integral_multiple(q)
    ends = [(vdot(p, d), vdot(q, d)) for d in table.directions]

    def ramparts(u, v):
        return table.cones_of([(v - u) * a + u * b for a, b in ends])

    base = ramparts(0, 1)
    if ramparts(1, 1) != base:
        return False
    ts = set()
    for a, b in ends:
        if a * b < 0:
            g = gcd(a, b)
            ts.add((abs(a) // g, abs(a - b) // g))
    return all(ramparts(u, v) == base for u, v in ts)
