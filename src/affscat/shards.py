"""Rank-2 subsystems, canonical roots, the cutting relation, and shards.

gamma cuts beta when gamma is a canonical root of the rank-2 subsystem
spanned by the pair but beta is not.  Canonical roots have height strictly
below every non-canonical root of their subsystem (each non-canonical
positive root is an N-combination of both canonical roots), so cut(beta)
only needs candidates of height < height(beta); this makes cut sets exact,
not merely empirically stabilized.

A plane is named by linalg.wedge_key, the primitive integer vector of the
2x2 minors of any two vectors spanning it.  cut(beta) buckets the positive
real roots by wedge_key(beta, r) once, with the roots parallel to beta in
every bucket, and reads the canonical pair of each plane through beta off
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
"""

from __future__ import annotations

from dataclasses import dataclass

from .cones import Cone
from .coxeter import CoxeterContext
from .linalg import nonzero_minor, vdot, wedge_key
from .weyl import GroupElement, WeylContext, is_join_irreducible, weak_leq


class NotFoundWithinL(RuntimeError):
    pass


@dataclass(frozen=True)
class Rank2Subsystem:
    roots: tuple  # positive real roots in the plane, up to the height used
    canonical: tuple  # the two canonical roots


@dataclass(frozen=True)
class ShardCone:
    normal: tuple  # positive root beta
    cut_list: tuple  # roots gamma with <x, gamma> <= 0 on the shard
    cone: Cone


class ShardContext:
    def __init__(self, weyl: WeylContext):
        self.weyl = weyl
        self.cartan = weyl.cartan
        self._roots_cache: tuple = (0, set())
        self._cut_cache: dict = {}

    # -- root inventory ---------------------------------------------------------

    def positive_real_roots(self, height_cap: int):
        cached_h, cached = self._roots_cache
        if height_cap > cached_h:
            cached = set(self.cartan.real_roots_up_to_height(height_cap))
            self._roots_cache = (height_cap, cached)
            cached_h = height_cap
        return {r for r in cached if sum(r) <= height_cap}

    # -- rank-2 subsystems --------------------------------------------------------

    def _planes(self, beta, height_cap):
        """Positive real roots up to the cap, bucketed by the plane they span
        with beta; the roots parallel to beta are in every bucket."""
        buckets = {}
        parallel = []
        for r in self.positive_real_roots(height_cap):
            key = wedge_key(beta, r)
            if key is None:
                parallel.append(r)
            else:
                buckets.setdefault(key, []).append(r)
        for members in buckets.values():
            members.extend(parallel)
        return buckets

    def rank2_subsystem(self, beta, gamma, height_cap=None) -> Rank2Subsystem:
        height = max(sum(beta), sum(gamma))
        if height_cap is None:
            height_cap = height
        if height_cap < height:
            raise ValueError(f"height cap {height_cap} is below the pair's height {height}")
        key = wedge_key(beta, gamma)
        if key is None:
            raise ValueError("need two independent roots")
        members = self._planes(beta, height_cap)[key]
        return Rank2Subsystem(
            roots=tuple(sorted(members)),
            canonical=_extreme_pair(members, beta, gamma),
        )

    # -- cutting -----------------------------------------------------------------

    def cut_set(self, beta, height_cap=None):
        """All positive roots cutting beta.  Complete for the default cap
        height(beta) - 1; a larger cap only re-verifies stabilization."""
        key = (beta, height_cap)
        if key in self._cut_cache:
            return self._cut_cache[key]
        cap = sum(beta) - 1 if height_cap is None else height_cap
        out = []
        for members in self._planes(beta, max(cap, sum(beta))).values():
            # members[0] spans the plane with beta: parallel roots come last
            pair = _extreme_pair(members, beta, members[0])
            if beta not in pair:
                out.extend(gamma for gamma in pair if sum(gamma) <= cap)
        result = tuple(sorted(out))
        self._cut_cache[key] = result
        return result

    # -- shard cones ----------------------------------------------------------------

    def shard_from_ji(self, j: GroupElement) -> ShardCone:
        root = is_join_irreducible(self.weyl, j)
        if root is None:
            raise ValueError("element is not join-irreducible")
        cut_list = tuple(g for g in self.cut_set(root) if g in j.inversions)
        return self._assemble(root, cut_list)

    def shard_from_root(self, beta, cox: CoxeterContext) -> ShardCone:
        # omega_c(g, beta) = sum_i g_i d_i omega_c(alpha_i^vee, beta), and
        # cov(g) is a positive multiple of (g_i d_i): the sign is read in ints.
        cov = self.cartan.primitive_in_coroot_lattice
        omega_beta = cox.omega_covector(beta)
        cut_list = tuple(g for g in self.cut_set(beta) if vdot(cov(g), omega_beta) > 0)
        return self._assemble(beta, cut_list)

    def _assemble(self, beta, cut_list) -> ShardCone:
        cov = self.cartan.primitive_in_coroot_lattice
        cone = Cone.from_constraints(
            self.cartan.n, eqs=[cov(beta)], ineqs=[cov(g) for g in cut_list]
        )
        return ShardCone(normal=beta, cut_list=tuple(sorted(cut_list)), cone=cone)

    # -- shards to join-irreducibles ----------------------------------------------

    def chamber(self, w: GroupElement) -> Cone:
        """wD as a cone in V*."""
        n = self.cartan.n
        ineqs = []
        for i in range(n):
            img = tuple(w.matrix[r][i] for r in range(n))  # w(alpha_i)
            ineqs.append(self.cartan.primitive_in_coroot_lattice(tuple(-c for c in img)))
        return Cone.from_constraints(n, ineqs=ineqs)

    def upper_elements(self, shard: ShardCone, elements):
        """Elements w with beta in inv(w) and wD meeting the shard in codim 1."""
        n = self.cartan.n
        out = []
        for w in elements:
            if shard.normal not in w.inversions:
                continue
            cols = set()
            for i in range(n):
                img = tuple(w.matrix[r][i] for r in range(n))
                cols.add(img)
                cols.add(tuple(-c for c in img))
            if shard.normal not in cols:
                continue  # beta-perp does not support a facet of wD
            meet = self.chamber(w).intersect(shard.cone)
            if meet.dim == n - 1:
                out.append(w)
        return out

    def ji_of_shard(self, shard: ShardCone, length_cap: int) -> GroupElement:
        from .weyl import enumerate_up_to_length

        elements = enumerate_up_to_length(self.weyl, length_cap)
        uppers = self.upper_elements(shard, elements)
        if not uppers:
            raise NotFoundWithinL(f"no upper elements of the shard within length {length_cap}")
        minimal = [w for w in uppers if not any(weak_leq(v, w) and v != w for v in uppers)]
        assert len(minimal) == 1, "shard must have a unique minimal upper element"
        j = minimal[0]
        assert is_join_irreducible(self.weyl, j) is not None
        return j


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
