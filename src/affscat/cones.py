"""Rational polyhedral cones in V* with exact double-description conversion.

A Cone is stored by linear constraints: equalities <x, e> = 0 and
inequalities <x, g> <= 0, where e, g are covectors paired with points by the
plain coordinatewise dot product.  Covectors are stored as given, so the
primitive integer covectors of root-lattice functionals, which
CartanMatrix.primitive_in_coroot_lattice computes once per vector in
integers, stay ints.  Point membership
(`contains`) pairs with a cached integer multiple of each covector, so a
point with integer coordinates (see linalg.integral_multiple) is tested in
integer arithmetic alone, whatever the covectors the cone was built from.

Generators (lineality basis + extreme rays) are computed by the standard
double description method with the zero-set adjacency test, in integers
throughout (Fukuda-Prodon 1996).  Each inequality is cleared of denominators
first, the lineality starts as the integer kernel of the equalities
(linalg.integer_kernel, the identity when there are none), and every vector
stays primitive.  Each step keeps the rays exactly the extreme rays, so
nothing filters them afterwards: cutting by {g <= 0} keeps the rays with
<r, g> <= 0 plus one ray inside each edge crossing g = 0 (the pairs the
zero-set test calls adjacent), or, if g pierces the lineality
L = L' + span(w) with <w, g> < 0, gives L' + cone(rays projected along w,
and w), whose rays stay extreme and distinct; the projection of v is
-<w, g> v + <v, g> w, a positive multiple of the rational one, so no
division happens.  `Cone.section(e)` cuts a cone by the hyperplane e = 0 with
the same step on its cached generators, instead of a new double description
of its constraints and e (see _section).

`generators` is canonical, and integer too: the lineality basis is the
reduced row echelon form of the lineality space with each row scaled to a
primitive integer vector (linalg.echelon's rows, divided by their gcd), and
each ray is cleared at the pivot columns against those rows and made
primitive.  The reduced row echelon form of a subspace is unique, so two
cones are equal exactly when their generators are.  Every point test
(`contains`, `relint_contains`, `contains_cone`) therefore runs in integers.
Fractions appear only in the equalities `from_rays` and `simplicial` return,
where each dual lineality vector is divided by its entry at its home
coordinate (see _double_description), which gives the vectors the rational
method gives.

`SignTable(cones)` locates points against many cones at once.  It keeps the
distinct primitive directions d_j of the cones' integer constraints, with g
and -g sharing one direction (first nonzero entry positive) and zero
covectors skipped, and records for each cone two bitmasks over the
directions: those on which it forbids a positive pairing and those on which
it forbids a negative one (an inequality forbids one sign, an equality both).
Turned around, each direction keeps two bitmasks over the cones: the cones
that allow a positive pairing with it and those that allow a negative one.
A point is paired with each direction once, and the cones containing it are
the AND of the masks of the signs it takes (a zero pairing forbids nothing),
so one pass over the directions answers for every cone: `locate` returns
that bitmask, bit i set when cones[i] contains the point.  Membership is
invariant under positive scaling of a constraint, so the answers are those
of `contains`.

A cone on linearly independent rays r_1, ..., r_k (`Cone.simplicial`) runs
no double description.  It is pointed, since a line in it would be a nonzero
combination of the rays equal to zero, and no ray is a nonnegative
combination of the others, so its extreme rays are exactly the given rays
and its dimension is k.  Its constraints come from one echelon of
[R | I_k], R the k x n matrix with rows r_i: the left block is d rref(R),
and the right block M satisfies R_P M = d I_k for R_P the columns of R at
the pivot columns P.  The equalities are the kernel of R, one vector per
free column h, 1 there and 0 at the other free columns (integer_kernel's
vectors divided by d).  Inequality i is minus column i of M placed at P and
made primitive: it pairs with r_i to a negative number and with every other
ray to 0, and is 0 at the free columns.  These are, entry for entry and in
the same order, the constraints `from_rays` reads off the dual description.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul

from .linalg import (
    Vec,
    echelon,
    integer_kernel,
    integral_multiple,
    primitive_vector,
    rank,
    vdot,
)


@dataclass(frozen=True)
class Cone:
    dim_ambient: int
    eqs: tuple  # covectors e with <x, e> = 0
    ineqs: tuple  # covectors g with <x, g> <= 0

    @staticmethod
    def from_constraints(dim, eqs=(), ineqs=()) -> "Cone":
        return Cone(dim, tuple(map(tuple, eqs)), tuple(map(tuple, ineqs)))

    @staticmethod
    def from_rays(dim, rays, lineality=()) -> "Cone":
        """Cone generated by rays plus a lineality space, via dual description."""
        # Dual cone {g : <l,g> = 0, <r,g> <= 0}; its generators give our constraints.
        lin, homes, drays = _double_description(dim, list(lineality), list(rays))
        eqs = [tuple(Fraction(x, v[h]) for x in v) for v, h in zip(lin, homes)]
        return Cone.from_constraints(dim, eqs=eqs, ineqs=drays)

    @staticmethod
    def simplicial(dim, rays) -> "Cone":
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

    def with_generators(self, lin, rays) -> "Cone":
        """This cone, with `generators` canonicalized from a lineality basis
        and the extreme rays found without a double description."""
        self.__dict__["generators"] = _canonicalize_generators(lin, rays)
        return self

    # -- generators ----------------------------------------------------------

    @cached_property
    def generators(self):
        """(lineality basis, extreme rays) in the canonical integer form of
        _canonicalize_generators."""
        lin, _, rays = _double_description(self.dim_ambient, self.eqs, self.ineqs)
        return _canonicalize_generators(lin, rays)

    @property
    def lineality(self):
        return self.generators[0]

    @property
    def rays(self):
        return self.generators[1]

    @cached_property
    def dim(self) -> int:
        lin, rays = self.generators
        return rank([list(v) for v in lin] + [list(r) for r in rays])

    def section(self, e):
        """(lineality, rays, dim) of self ∩ {<x, e> = 0}, cut from the cached
        generators in one step (see _section); the vectors are not canonical,
        with_generators makes them so."""
        lin, rays = self.generators
        return _section(lin, rays, self.dim, integral_multiple(e), self._integral_constraints[1])

    # -- point queries --------------------------------------------------------

    @cached_property
    def _integral_constraints(self):
        """(eqs, ineqs) with each covector scaled by a positive integer to an
        integer covector: the same cone, with integer dot products."""
        return (
            tuple(map(integral_multiple, self.eqs)),
            tuple(map(integral_multiple, self.ineqs)),
        )

    def contains(self, x: Vec) -> bool:
        eqs, ineqs = self._integral_constraints
        return all(vdot(x, e) == 0 for e in eqs) and all(vdot(x, g) <= 0 for g in ineqs)

    @cached_property
    def _implicit_ineqs(self):
        """Indices of inequalities that hold with equality on the whole cone."""
        lin, rays = self.generators
        gens = list(lin) + [tuple(-c for c in v) for v in lin] + list(rays)
        out = set()
        for idx, g in enumerate(self._integral_constraints[1]):
            if all(vdot(v, g) == 0 for v in gens):
                out.add(idx)
        return out

    def relint_contains(self, x: Vec) -> bool:
        eqs, ineqs = self._integral_constraints
        if not all(vdot(x, e) == 0 for e in eqs):
            return False
        for idx, g in enumerate(ineqs):
            val = vdot(x, g)
            if idx in self._implicit_ineqs:
                if val != 0:
                    return False
            elif val >= 0:
                return False
        return True

    # -- cone relations --------------------------------------------------------

    def contains_cone(self, other: "Cone") -> bool:
        return self.contains_generators(*other.generators)

    def contains_generators(self, lin, rays) -> bool:
        """Whether the cone with lineality basis lin and rays lies in self."""
        for v in lin:
            if not (self.contains(v) and self.contains(tuple(-c for c in v))):
                return False
        return all(self.contains(r) for r in rays)

    def intersect(self, other: "Cone") -> "Cone":
        return Cone(self.dim_ambient, self.eqs + other.eqs, self.ineqs + other.ineqs)

    def negate(self) -> "Cone":
        return Cone(
            self.dim_ambient,
            self.eqs,
            tuple(tuple(-c for c in g) for g in self.ineqs),
        )

    def same_cone(self, other: "Cone") -> bool:
        return self.generators == other.generators


class SignTable:
    """Point location against a fixed list of cones: one bitmask of the cones
    containing a point, from per-direction masks over their distinct
    constraint directions (see the module docstring)."""

    def __init__(self, cones):
        slots: dict = {}
        forbid = []
        for cone in cones:
            eqs, ineqs = cone._integral_constraints
            pos = neg = 0
            for g, is_eq in [(e, True) for e in eqs] + [(g, False) for g in ineqs]:
                if not any(g):
                    continue
                d = primitive_vector(g)
                flip = next(c for c in d if c) < 0
                bit = 1 << slots.setdefault(tuple(-c for c in d) if flip else d, len(slots))
                # <x, g> <= 0 forbids the sign of g along its direction.
                if is_eq or not flip:
                    pos |= bit
                if is_eq or flip:
                    neg |= bit
            forbid.append((pos, neg))
        self.directions = tuple(slots)
        self.forbid = tuple(forbid)
        # keep[j]: the cones that allow a positive and those that allow a
        # negative pairing with direction j, as bitmasks over the cones.
        self.full = (1 << len(forbid)) - 1
        keep = [[self.full, self.full] for _ in slots]
        for c, masks in enumerate(forbid):
            for side, m in enumerate(masks):
                for j in bits(m):
                    keep[j][side] &= ~(1 << c)
        self.keep = tuple(map(tuple, keep))

    def cones_of(self, values) -> int:
        """The bitmask of the cones that hold a point whose pairings with the
        directions are values."""
        out = self.full
        for v, (keep_pos, keep_neg) in zip(values, self.keep):
            if v > 0:
                out &= keep_pos
            elif v < 0:
                out &= keep_neg
        return out

    def locate(self, x) -> int:
        """The bitmask of the cones that contain x: bit i is cones[i].contains(x)."""
        return self.cones_of([sum(map(mul, x, d)) for d in self.directions])


def bits(mask: int) -> list:
    """The indices of the set bits of mask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _canonicalize_generators(lin, rays):
    """(basis, rays) determined by the cone alone, all integer vectors.

    The basis rows are echelon(lin)'s rows divided by their gcd: each is
    positive at its pivot column and 0 at the other pivot columns, and is the
    primitive multiple of a reduced row echelon row.  At each pivot p a ray r
    becomes row[p] r - r[p] row, row[p] > 0 times the rational step
    r - (r[p] / row[p]) row, so it ends 0 at every pivot column as a positive
    multiple of its reduction modulo the rref rows; it is then made
    primitive, and the rays are sorted."""
    red, pivots, _, _ = echelon(lin)
    basis = tuple(map(primitive_vector, red))
    reduced = []
    for r in rays:
        for row, p in zip(basis, pivots):
            r = tuple(row[p] * a - r[p] * b for a, b in zip(r, row))
        reduced.append(primitive_vector(r))
    return basis, tuple(sorted(reduced))


def _double_description(dim, eqs, ineqs):
    """Generators of {x : <x,e>=0, <x,g><=0}: (lineality, homes, rays).

    Everything is an integer vector.  Each lineality vector has a home
    coordinate, where it is positive and every other lineality vector is 0,
    so dividing it by that entry gives the vector of the rational method.
    The lineality starts as integer_kernel(eqs), whose homes are the free
    columns.
    """
    # Without equalities this is the kernel of a zero row: the identity.
    homes, lin = integer_kernel(eqs or [(0,) * dim])
    rays: list = []
    processed: list = []
    for g in map(integral_multiple, ineqs):
        lin, homes, rays = _add_halfspace(lin, homes, rays, g, processed)
        processed.append(g)
    return lin, homes, rays


def _add_halfspace(lin, homes, rays, g, processed):
    idx = next((i for i, l in enumerate(lin) if vdot(l, g) != 0), None)
    if idx is not None:
        # Lineality drops by one; keep the in-hyperplane part and one new ray.
        witness, project = _pierce(lin[idx], g)
        new_lin = [project(l) for i, l in enumerate(lin) if i != idx]
        new_rays = [project(r) for r in rays]
        new_rays.append(primitive_vector(witness))
        return new_lin, homes[:idx] + homes[idx + 1 :], new_rays

    neg = [r for r in rays if vdot(r, g) < 0]
    zero = [r for r in rays if vdot(r, g) == 0]
    pos = [r for r in rays if vdot(r, g) > 0]
    if not pos:
        return lin, homes, rays
    return lin, homes, neg + zero + _edge_crossings(pos, neg, g, rays, processed)


def _section(lin, rays, dim, g, processed):
    """(lineality, rays, dim) of the cone C ∩ {<x, g> = 0}, in one cut step.

    C has lineality basis lin, extreme rays rays, dimension dim and
    inequalities processed, all integer vectors.  If g pierces the lineality,
    the lineality vector w with <w, g> < 0 is projected out as in
    _add_halfspace, but dropped instead of kept as a ray.  Otherwise the
    section keeps the rays on g = 0 plus one ray inside each edge crossing it.
    In both cases, unless every ray lies on one side, g = 0 meets the relative
    interior of C and the section has dimension dim - 1; otherwise it is the
    face spanned by the lineality and the rays on g = 0, and only its rank is
    computed.  The vectors are not canonical (see _canonicalize_generators).
    """
    idx = next((i for i, l in enumerate(lin) if vdot(l, g) != 0), None)
    if idx is not None:
        _, project = _pierce(lin[idx], g)
        new_lin = [project(l) for i, l in enumerate(lin) if i != idx]
        return new_lin, [project(r) for r in rays], dim - 1
    vals = [vdot(r, g) for r in rays]
    zero = [r for r, v in zip(rays, vals) if v == 0]
    pos = [r for r, v in zip(rays, vals) if v > 0]
    neg = [r for r, v in zip(rays, vals) if v < 0]
    if not pos or not neg:
        face_dim = dim if len(zero) == len(rays) else rank(list(lin) + zero)
        return list(lin), zero, face_dim
    return list(lin), zero + _edge_crossings(pos, neg, g, rays, processed), dim - 1


def _pierce(pierced, g):
    """(witness, project) for a lineality vector with <pierced, g> != 0.

    The witness is +-pierced with <witness, g> = wval < 0; project(v) is
    v - (<v, g> / wval) witness, on g = 0, times -wval > 0 so that it is an
    integer vector in the same direction, made primitive."""
    witness = tuple(-c for c in pierced) if vdot(pierced, g) > 0 else pierced
    wval = vdot(witness, g)

    def project(v):
        vval = vdot(v, g)
        return primitive_vector(tuple(vval * b - wval * a for a, b in zip(v, witness)))

    return witness, project


def _edge_crossings(pos, neg, g, rays, processed):
    """One primitive ray on g = 0 inside each edge from a ray in pos (<r, g>
    > 0) to one in neg (< 0), by the zero-set adjacency test over the
    constraints processed."""
    combos = []
    for rp in pos:
        vp = vdot(rp, g)
        for rn in neg:
            if not _adjacent(rp, rn, rays, processed):
                continue
            vn = vdot(rn, g)
            combos.append(primitive_vector(tuple(vp * a - vn * b for a, b in zip(rn, rp))))
    return combos


def _adjacent(r1, r2, rays, processed):
    """Zero-set adjacency: no third ray is tight on every constraint tight at both."""
    tight = [g for g in processed if vdot(r1, g) == 0 and vdot(r2, g) == 0]
    for r3 in rays:
        if r3 is r1 or r3 is r2:
            continue
        if all(vdot(r3, g) == 0 for g in tight):
            return False
    return True
