"""Canonical roots of rank-2 subsystems, the cutting relation, and shards.

gamma cuts beta when gamma is a canonical root of the rank-2 subsystem
spanned by the pair but beta is not.  Canonical roots have height strictly
below every non-canonical root of their subsystem (each non-canonical
positive root is an N-combination of both canonical roots), so cut(beta)
only needs candidates of height < height(beta); this makes cut sets exact,
not merely empirically stabilized.

A plane is named by linalg.wedge_key, the primitive integer vector of the
2x2 minors of any two vectors spanning it.  cut(beta) buckets the positive
real roots (CartanMatrix.real_roots_up_to_height, a prefix of the matrix's
one enumeration) by wedge_key(beta, r) once, with the roots parallel to
beta in every bucket, and reads the canonical pair of each plane through beta off
its bucket as the bucket's two extreme roots.  Two facts make that exact:

1. By the theorem above, once the height reaches max(ht beta, ht gamma),
   both real canonical roots of plane(beta, gamma) are listed: if beta (or
   gamma) is not canonical, both canonical roots lie strictly below it.
   Every listed root is a nonnegative combination of the two, and positive
   roots span a pointed cone, so the canonical roots are the two extreme
   directions of the listed roots, at that height and at any larger one.
   Hence one extreme pair per bucket serves every gamma in it, and the
   pair can never fail to be determined.
2. The imaginary roots in the plane (multiples of delta) are nonnegative
   combinations of the two real canonical roots and are never parallel to
   one of them, so they never change the extreme pair and are not listed.

Wall cones are cut out by the integer covectors of
CartanMatrix.primitive_in_coroot_lattice, computed once per root.  A
ShardContext, one per CoxeterContext, turns a normal and its inequality
roots into a wall cone, ShardContext.assemble, the one place that does so:
the shards of both constructions, the c^{-1}-sortable walls from their
negated cut lists, the imaginary wall and the walls of the rank-2
completion.  It keeps each cone by its normal and its inequality roots in
the order given, which is the order of the cone's inequalities: walls cut
out by the same constraints get one ShardCone, whose Cone runs one double
description.  The key holds the roots, so each construction still reports
its own constraints.

shard_from_ji takes a join-irreducible as its cover root and inversion set,
both read off a sortable.SortableWitness, so no group element is built.  The
inverse map, from a shard back to its join-irreducible by a walk of W, is
kept in the tests as the oracle of the round trip.
"""

from __future__ import annotations

from .cones import Cone
from .coxeter import CoxeterContext
from .linalg import nonzero_minor, vdot, wedge_key
from .record import Record


class ShardCone(Record):
    _fields = ("normal", "cut_list", "cone")

    def __init__(self, normal: tuple, cut_list: tuple, cone: Cone):
        object.__setattr__(self, "normal", normal)  # positive root beta
        # roots gamma with <x, gamma> <= 0 on the wall
        object.__setattr__(self, "cut_list", cut_list)
        object.__setattr__(self, "cone", cone)


class ShardContext:
    """Cut sets and wall cones of one Coxeter element, each kept once
    computed.  The scattering builders share one per matrix,
    CoxeterContext.shards, so build_dcscat and build_easy_scat on one matrix
    cut each root and convert each constraint list once between them."""

    def __init__(self, cox: CoxeterContext):
        self.cox = cox
        self.cartan = cox.cartan
        self._cut_cache: dict = {}
        self._shard_cache: dict = {}  # (beta, roots in the order given) -> ShardCone

    # -- planes ------------------------------------------------------------------

    def _planes(self, beta, height_cap):
        """Positive real roots up to the cap, bucketed by the plane they span
        with beta; the roots parallel to beta are in every bucket."""
        buckets = {}
        parallel = []
        for r in self.cartan.real_roots_up_to_height(height_cap):
            key = wedge_key(beta, r)
            if key is None:
                parallel.append(r)
            else:
                buckets.setdefault(key, []).append(r)
        for members in buckets.values():
            members.extend(parallel)
        return buckets

    # -- cutting -----------------------------------------------------------------

    def cut_set(self, beta):
        """All positive roots cutting beta, read off the plane buckets at
        height(beta): by the theorem above each lies below it."""
        if beta not in self._cut_cache:
            out = []
            for members in self._planes(beta, sum(beta)).values():
                # members[0] spans the plane with beta: parallel roots come last
                pair = _extreme_pair(members, beta, members[0])
                if beta not in pair:
                    out.extend(pair)
            self._cut_cache[beta] = tuple(sorted(out))
        return self._cut_cache[beta]

    # -- shard cones ----------------------------------------------------------------

    def shard_from_ji(self, root, inversions) -> ShardCone:
        """Sh(j) for the join-irreducible j with cover root `root` and
        inversion set `inversions`: root-perp cut by the roots cutting root
        that j inverts."""
        cut_list = tuple(g for g in self.cut_set(root) if g in inversions)
        return self.assemble(root, cut_list)

    def shard_from_root(self, beta) -> ShardCone:
        # omega_c(g, beta) = sum_i g_i d_i omega_c(alpha_i^vee, beta), and
        # cov(g) is a positive multiple of (g_i d_i): the sign is read in ints.
        cov = self.cartan.primitive_in_coroot_lattice
        omega_beta = self.cox.omega_covector(beta)
        cut_list = tuple(g for g in self.cut_set(beta) if vdot(cov(g), omega_beta) > 0)
        return self.assemble(beta, cut_list)

    def assemble(self, beta, roots) -> ShardCone:
        """The wall cone in beta-perp on which <x, g> <= 0 for each root g of
        roots, its inequalities in the order of roots; one per (beta, roots)."""
        key = (beta, tuple(roots))
        shard = self._shard_cache.get(key)
        if shard is None:
            cov = self.cartan.primitive_in_coroot_lattice
            cone = Cone.from_constraints(
                self.cartan.n, eqs=[cov(beta)], ineqs=[cov(g) for g in key[1]]
            )
            shard = self._shard_cache[key] = ShardCone(normal=beta, cut_list=key[1], cone=cone)
        return shard


def _extreme_pair(members, beta, gamma):
    """The two extreme roots of members, positive roots in span(beta, gamma).

    The coordinates (i, j) of linalg.nonzero_minor(beta, gamma) map the plane
    isomorphically onto Z^2, so the extreme roots are those of the projected
    integer vectors; the map's orientation only swaps the two.
    """
    i, j = nonzero_minor(beta, gamma)
    lo = hi = members[0]
    for r in members[1:]:
        if r[i] * lo[j] > r[j] * lo[i]:
            lo = r
        if hi[i] * r[j] > hi[j] * r[i]:
            hi = r
    return tuple(sorted((lo, hi)))
