"""Rational polyhedral cones in V* with exact double-description conversion.

A Cone is stored by linear constraints: equalities <x, e> = 0 and
inequalities <x, g> <= 0, where e, g are covectors paired with points by the
plain coordinatewise dot product.  Covectors are stored as given, so the
primitive integer covectors of root-lattice functionals (see
CartanMatrix.primitive_in_coroot_lattice) stay ints.  Point membership
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
division happens.

`generators` is canonical, and integer too: the lineality basis is the
reduced row echelon form of the lineality space with each row scaled to a
primitive integer vector (linalg.echelon's rows, divided by their gcd), and
each ray is cleared at the pivot columns against those rows and made
primitive.  The reduced row echelon form of a subspace is unique, so two
cones are equal exactly when their generators are.  Every point test
(`contains`, `relint_contains`, `contains_cone`) therefore runs in integers.
Fractions appear only in the constraints `from_rays` returns, where each
dual lineality vector is divided by its entry at its home coordinate (see
_double_description), which gives the vectors the rational method gives.

A cone on linearly independent rays (`Cone.simplicial`) skips the second
conversion: it is pointed, since a line in it would be a nonzero combination
of the rays equal to zero, and no ray is a nonnegative combination of the
others, so its extreme rays are exactly the given rays.  Only the dual
description for its constraints runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

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
        """Cone on linearly independent rays.  They are its extreme rays, so
        `generators` is set from them; only the constraints come from the
        dual description."""
        cone = Cone.from_rays(dim, rays)
        # The dual cone's lineality is the annihilator of span(rays).
        assert len(cone.eqs) == dim - len(rays), "simplicial cone needs independent rays"
        cone.__dict__["generators"] = ((), tuple(sorted(map(primitive_vector, rays))))
        return cone

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
        lin, rays = other.generators
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
        # With <witness, g> = wval < 0, v - (<v, g> / wval) witness lies on
        # g = 0; times -wval > 0 it is an integer vector in the same direction.
        pierced = lin[idx]
        witness = tuple(-c for c in pierced) if vdot(pierced, g) > 0 else pierced
        wval = vdot(witness, g)

        def project(v):
            vval = vdot(v, g)
            return primitive_vector(tuple(vval * b - wval * a for a, b in zip(v, witness)))

        new_lin = [project(l) for i, l in enumerate(lin) if i != idx]
        new_rays = [project(r) for r in rays]
        new_rays.append(primitive_vector(witness))
        return new_lin, homes[:idx] + homes[idx + 1 :], new_rays

    neg = [r for r in rays if vdot(r, g) < 0]
    zero = [r for r in rays if vdot(r, g) == 0]
    pos = [r for r in rays if vdot(r, g) > 0]
    if not pos:
        return lin, homes, rays
    combos = []
    for rp in pos:
        vp = vdot(rp, g)
        for rn in neg:
            if not _adjacent(rp, rn, rays, processed):
                continue
            vn = vdot(rn, g)
            combos.append(primitive_vector(tuple(vp * a - vn * b for a, b in zip(rn, rp))))
    return lin, homes, neg + zero + combos


def _adjacent(r1, r2, rays, processed):
    """Zero-set adjacency: no third ray is tight on every constraint tight at both."""
    tight = [g for g in processed if vdot(r1, g) == 0 and vdot(r2, g) == 0]
    for r3 in rays:
        if r3 is r1 or r3 is r2:
            continue
        if all(vdot(r3, g) == 0 for g in tight):
            return False
    return True
