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
double description method with the zero-set adjacency test, which is exact
over the rationals and comfortable at the small ranks used here.  Each step
keeps the rays exactly the extreme rays (Fukuda-Prodon 1996), so nothing
filters them afterwards: cutting by {g <= 0} keeps the rays with <r, g> <= 0
plus one ray inside each edge crossing g = 0 (the pairs the zero-set test
calls adjacent), or, if g pierces the lineality L = L' + span(w), gives
L' + cone(rays projected along w, and w), whose rays stay extreme and distinct.

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
    integral_multiple,
    kernel_basis,
    primitive_vector,
    rank,
    reduce_mod_rref,
    rref,
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
        lin, drays = _double_description(dim, list(lineality), list(rays))
        return Cone.from_constraints(dim, eqs=lin, ineqs=drays)

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
        """(lineality basis, extreme rays), rays primitive and reduced mod lineality."""
        lin, rays = _double_description(self.dim_ambient, self.eqs, self.ineqs)
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

    @property
    def canonical_key(self):
        """The generators: rref lineality rows and sorted primitive rays."""
        return self.generators

    def same_cone(self, other: "Cone") -> bool:
        return self.canonical_key == other.canonical_key

    def span_covectors(self):
        """Covectors cutting out the linear span (for tangent-space work)."""
        lin, rays = self.generators
        gens = [list(v) for v in lin] + [list(r) for r in rays]
        if not gens:
            gens = [[Fraction(0)] * self.dim_ambient]
        return kernel_basis(gens)


def _canonicalize_generators(lin, rays):
    lin_basis = [tuple(r) for r in rref([list(v) for v in lin])]
    reduced = [primitive_vector(reduce_mod_rref(r, lin_basis)) for r in rays]
    return tuple(lin_basis), tuple(sorted(reduced))


def _double_description(dim, eqs, ineqs):
    """Generators (lineality, rays) of {x : <x,e>=0, <x,g><=0}."""
    lin = [tuple(v) for v in kernel_basis([list(e) for e in eqs])] if eqs else [
        tuple(Fraction(1) if i == j else Fraction(0) for i in range(dim)) for j in range(dim)
    ]
    rays: list = []
    processed: list = []
    for g in ineqs:
        lin, rays = _add_halfspace(lin, rays, g, processed)
        processed.append(g)
    return lin, rays


def _add_halfspace(lin, rays, g, processed):
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
            if not _adjacent(rp, rn, rays, processed):
                continue
            vn = vdot(rn, g)
            combos.append(primitive_vector(tuple(vp * a - vn * b for a, b in zip(rn, rp))))
    return lin, neg + zero + combos


def _adjacent(r1, r2, rays, processed):
    """Zero-set adjacency: no third ray is tight on every constraint tight at both."""
    tight = [g for g in processed if vdot(r1, g) == 0 and vdot(r2, g) == 0]
    for r3 in rays:
        if r3 is r1 or r3 is r2:
            continue
        if all(vdot(r3, g) == 0 for g in tight):
            return False
    return True
