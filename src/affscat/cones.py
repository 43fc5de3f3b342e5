"""Rational polyhedral cones in V* with exact double-description conversion.

A Cone is stored by integer linear constraints: equalities <x, e> = 0 and
inequalities <x, g> <= 0, where e, g are covectors paired with points by the
plain coordinatewise dot product.  `Cone.from_constraints` clears each
covector of denominators once (linalg.integral_multiple), a positive factor
that changes neither the cone nor any sign, and a tuple of ints, such as the
primitive covectors of root-lattice functionals that
CartanMatrix.primitive_in_coroot_lattice computes, is kept as it is.  So a
point with integer coordinates is tested in integer arithmetic alone
(`contains`, `relint_contains`, SignTable).  The scattering walls' cones
are all built in one place, shards.ShardContext.assemble, which keeps one
Cone per normal and constraint list, so each such cone's generators are
computed once per matrix.

Generators (lineality basis + extreme rays) are computed by the standard
double description method with the zero-set adjacency test, in integers
throughout (Fukuda-Prodon 1996): the lineality starts as the integer kernel
of the equalities (linalg.integer_kernel, the identity when there are none)
and the inequalities are cut in one at a time by _cut, the one cutting step
of this module.  `Cone.cut` runs the same step on a cone's cached generators
to cut it by more equalities and inequalities, instead of a new double
description of all the constraints.  Every vector stays primitive, and each
step keeps the rays exactly the extreme rays, so nothing filters them
afterwards.  Cutting by {g <= 0} keeps the rays with <r, g> <= 0 plus one
ray inside each edge crossing g = 0 (the pairs the zero-set test calls
adjacent); cutting by {g = 0} keeps only the rays on g = 0 and the edge
crossings.  If g pierces the lineality L = L' + span(w), with <w, g> < 0,
the cut gives L' and the rays projected along w, plus the ray w for an
inequality; the rays stay extreme and distinct, and the projection of v is
-<w, g> v + <v, g> w, a positive multiple of the rational one, so no
division happens.  The step also tracks the dimension: an inequality keeps
it unless every ray it does not cut off lies on g = 0, an equality lowers
it by one when g takes both signs on the cone, and otherwise the cut is the
face spanned by the lineality and the rays on g = 0, whose rank is computed.

`generators` is canonical, and integer too: the lineality basis is the
reduced row echelon form of the lineality space with each row scaled to a
primitive integer vector (linalg.echelon's rows, divided by their gcd), and
each ray is cleared at the pivot columns against those rows and made
primitive.  The reduced row echelon form of a subspace is unique, so two
cones are equal exactly when their generators are.  `from_rays` takes the
equalities of a cone straight from the integer lineality of the double
description of its dual.

`SignTable(cones)` locates points against many cones at once.  It keeps the
distinct primitive directions d_j of the cones' constraints, with g and -g
sharing one direction (first nonzero entry positive) and zero covectors
skipped, and records for each cone two bitmasks over the directions: those
on which it forbids a positive pairing and those on which it forbids a
negative one (an inequality forbids one sign, an equality both).  Turned
around, each direction keeps two bitmasks over the cones: the cones that
allow a positive pairing with it and those that allow a negative one.  A
point is paired with each direction once, and the cones containing it are
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
the pivot columns P.  The equalities are the kernel of R, one primitive
vector per free column h, positive there and 0 at the other free columns
(integer_kernel's vectors, made primitive); echelon rows are zero left of
their pivot, so each is 0 after h too.  Inequality i is minus column i of M
placed at P and made primitive: it pairs with r_i to a negative number and
with every other ray to 0, and is 0 at the free columns.  These are, entry
for entry and in the same order, the constraints `from_rays` reads off the
dual description.
"""

from __future__ import annotations

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
from .record import Record


class Cone(Record):
    _fields = ("dim_ambient", "eqs", "ineqs")

    def __init__(self, dim_ambient: int, eqs: tuple, ineqs: tuple):
        object.__setattr__(self, "dim_ambient", dim_ambient)
        object.__setattr__(self, "eqs", eqs)  # integer covectors e with <x, e> = 0
        object.__setattr__(self, "ineqs", ineqs)  # integer covectors g with <x, g> <= 0

    @staticmethod
    def from_constraints(dim, eqs=(), ineqs=()) -> "Cone":
        return Cone(dim, tuple(map(integral_multiple, eqs)), tuple(map(integral_multiple, ineqs)))

    @staticmethod
    def from_rays(dim, rays, lineality=()) -> "Cone":
        """Cone generated by rays plus a lineality space, via dual description."""
        # Dual cone {g : <l,g> = 0, <r,g> <= 0}; its generators give our constraints.
        lin, drays, _ = _double_description(dim, lineality, list(map(integral_multiple, rays)))
        return Cone(dim, tuple(lin), tuple(drays))

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
                eqs.append(primitive_vector(v))
        ineqs = []
        for i in range(dim, dim + k):
            g = [0] * dim
            for row, p in zip(red, pivots):
                g[p] = -row[i]
            ineqs.append(primitive_vector(g))
        return Cone(dim, tuple(eqs), tuple(ineqs)).with_generators((), rays, k)

    def with_generators(self, lin, rays, dim=None) -> "Cone":
        """This cone, with `generators` canonicalized from a lineality basis
        and the extreme rays found without a double description, and with
        `dim` when it is given."""
        self.__dict__["generators"] = _canonicalize_generators(lin, rays)
        if dim is not None:
            self.__dict__["dim"] = dim
        return self

    # -- generators ----------------------------------------------------------

    @cached_property
    def generators(self):
        """(lineality basis, extreme rays) in the canonical integer form of
        _canonicalize_generators; the double description sets `dim` too."""
        lin, rays, self.__dict__["dim"] = _double_description(
            self.dim_ambient, self.eqs, self.ineqs
        )
        return _canonicalize_generators(lin, rays)

    @property
    def rays(self):
        return self.generators[1]

    @cached_property
    def dim(self) -> int:
        lin, rays = self.generators
        return rank([list(v) for v in lin] + [list(r) for r in rays])

    def cut(self, eqs=(), ineqs=(), start=None):
        """(lineality, rays, dim) of self ∩ {<x, e> = 0 for e in eqs} ∩
        {<x, g> <= 0 for g in ineqs}, for integer covectors, by _cut steps
        from start: the (lineality, rays, dim) of self, or of a cut of self
        by equalities alone; by default the cached generators.  The vectors
        are not canonical, with_generators makes them so."""
        if start is None:
            start = (*self.generators, self.dim)
        return _cut(*start, eqs, ineqs, self.ineqs)

    # -- point queries --------------------------------------------------------

    def contains(self, x: Vec) -> bool:
        return all(vdot(x, e) == 0 for e in self.eqs) and all(vdot(x, g) <= 0 for g in self.ineqs)

    @cached_property
    def _implicit_ineqs(self):
        """Indices of inequalities that hold with equality on the whole cone."""
        lin, rays = self.generators
        gens = list(lin) + [tuple(-c for c in v) for v in lin] + list(rays)
        out = set()
        for idx, g in enumerate(self.ineqs):
            if all(vdot(v, g) == 0 for v in gens):
                out.add(idx)
        return out

    def relint_contains(self, x: Vec) -> bool:
        if not all(vdot(x, e) == 0 for e in self.eqs):
            return False
        for idx, g in enumerate(self.ineqs):
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


class SignTable:
    """Point location against a fixed list of cones: one bitmask of the cones
    containing a point, from per-direction masks over their distinct
    constraint directions (see the module docstring)."""

    def __init__(self, cones):
        slots: dict = {}
        forbid = []
        for cone in cones:
            pos = neg = 0
            for g, is_eq in [(e, True) for e in cone.eqs] + [(g, False) for g in cone.ineqs]:
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
    """Generators of {x : <x,e>=0, <x,g><=0}: (lineality, rays, dim), for
    integer inequalities g: the integer kernel of the equalities, cut by each
    inequality in turn."""
    # Without equalities this is the kernel of a zero row: the identity.
    _, lin = integer_kernel(eqs or [(0,) * dim])
    return _cut(lin, [], len(lin), (), ineqs, ())


def _cut(lin, rays, dim, eqs, ineqs, processed):
    """(lineality, rays, dim) of the cone C cut by <x, e> = 0 for each e in
    eqs, then by <x, g> <= 0 for each g in ineqs, one step per covector (see
    the module docstring).

    C has lineality basis lin, extreme rays rays, dimension dim and
    inequalities processed, all integer vectors; each inequality cut joins
    them for the adjacency tests of the later steps.  An equality does not,
    as it holds on every ray after its step.  If g pierces the lineality,
    the lineality vector w with <w, g> < 0 is projected out, and kept as a
    ray for an inequality.  Otherwise the cut keeps the rays on the kept side
    of g (for an inequality, the rays with <r, g> < 0 first), then those on
    g = 0, then one ray inside each edge crossing g = 0.  The vectors are
    not canonical (see _canonicalize_generators).

    The adjacency tests read each ray's zero set: the bitmask of the
    processed inequalities it lies on, bit i for processed[i].  The masks
    are computed at the first step with rays on both sides of g, and then
    kept: each inequality cut adds its bit to the rays on g = 0, and a ray
    inside the edge from r to r' lies on exactly the processed hyperplanes
    that hold both (all of them are <= 0 on both), so its mask is
    z(r) & z(r') plus the new bit.  A projection along a lineality vector w
    puts every ray on g = 0 and keeps the rest of its mask, as w lies on
    every processed hyperplane; w kept as a ray lies on all of them.
    """
    processed = list(processed)
    zeros = None
    for g, is_eq in [(e, True) for e in eqs] + [(g, False) for g in ineqs]:
        bit = 0 if is_eq else 1 << len(processed)
        idx = next((i for i, l in enumerate(lin) if vdot(l, g) != 0), None)
        if idx is not None:
            witness, project = _pierce(lin[idx], g)
            lin = [project(l) for i, l in enumerate(lin) if i != idx]
            rays = [project(r) for r in rays]
            if is_eq:
                dim -= 1
            else:
                rays.append(primitive_vector(witness))
            if zeros is not None:
                zeros = [z | bit for z in zeros] + ([] if is_eq else [bit - 1])
        else:
            vals = [vdot(r, g) for r in rays]
            pos = [i for i, v in enumerate(vals) if v > 0]
            neg = [i for i, v in enumerate(vals) if v < 0]
            if pos or (is_eq and neg):
                zero = [i for i, v in enumerate(vals) if v == 0]
                if pos and neg and zeros is None:
                    zeros = [
                        sum(1 << i for i, h in enumerate(processed) if vdot(r, h) == 0)
                        for r in rays
                    ]
                crossings = _edge_crossings(pos, neg, vals, rays, zeros)
                # Where g takes both signs on C, g = 0 meets its relative
                # interior: an inequality keeps the dimension and an equality
                # lowers it by one.  Otherwise the cut is the face on g = 0.
                if not (pos and neg):
                    dim = rank(list(lin) + [rays[i] for i in zero])
                elif is_eq:
                    dim -= 1
                kept = ([] if is_eq else neg) + zero
                if zeros is not None:
                    zeros = [zeros[i] | (bit if vals[i] == 0 else 0) for i in kept]
                    zeros += [z | bit for _, z in crossings]
                rays = [rays[i] for i in kept] + [c for c, _ in crossings]
            elif zeros is not None:
                zeros = [z | bit if v == 0 else z for z, v in zip(zeros, vals)]
        if not is_eq:
            processed.append(g)
    return list(lin), list(rays), dim


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


def _edge_crossings(pos, neg, vals, rays, zeros):
    """(ray, zero set) for one primitive ray on g = 0 inside each edge from
    rays[p], p in pos (vals[p] = <rays[p], g> > 0), to rays[q], q in neg
    (< 0), with z(p) & z(q) as its zero set over the processed inequalities.
    Zero-set adjacency: p and q span an edge when they are the only rays
    lying on every processed hyperplane that holds both."""
    combos = []
    for p in pos:
        rp, vp = rays[p], vals[p]
        for q in neg:
            common = zeros[p] & zeros[q]
            if sum((z & common) == common for z in zeros) > 2:
                continue
            rn, vn = rays[q], vals[q]
            combos.append((primitive_vector(tuple(vp * a - vn * b for a, b in zip(rn, rp))), common))
    return combos
