"""Rank-2 subsystems, canonical roots, the cutting relation, and shards.

gamma cuts beta when gamma is a canonical root of the rank-2 subsystem
spanned by the pair but beta is not.  Canonical roots have height strictly
below every non-canonical root of their subsystem (each non-canonical
positive root is an N-combination of both canonical roots), so cut(beta)
only needs candidates of height < height(beta); this makes cut sets exact,
not merely empirically stabilized.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cones import Cone
from .coxeter import CoxeterContext
from .linalg import is_zero_vec, primitive_vector, rank, reduce_mod_rref, rref, solve_linear
from .weyl import GroupElement, WeylContext, is_join_irreducible, weak_leq


class HeightInsufficient(RuntimeError):
    pass


class NotFoundWithinL(RuntimeError):
    pass


@dataclass(frozen=True)
class Rank2Subsystem:
    plane: tuple  # two spanning roots
    roots: tuple  # positive roots (and delta multiples) in the plane, up to the height used
    canonical: tuple  # the two canonical roots
    certified: bool


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
        self._plane_cache: dict = {}
        self._cut_cache: dict = {}
        self._delta = None
        info = self.cartan.classify()
        if info.kind == "affine":
            self._delta = info.delta

    # -- root inventory ---------------------------------------------------------

    def positive_real_roots(self, height_cap: int):
        cached_h, cached = self._roots_cache
        if height_cap > cached_h:
            cached = set(self.cartan.real_roots_up_to_height(height_cap))
            self._roots_cache = (height_cap, cached)
            cached_h = height_cap
        return {r for r in cached if sum(r) <= height_cap}

    # -- rank-2 subsystems --------------------------------------------------------

    def rank2_subsystem(self, beta, gamma, height_cap=None) -> Rank2Subsystem:
        if rank([list(beta), list(gamma)]) != 2:
            raise ValueError("need two independent roots")
        if height_cap is None:
            height_cap = max(sum(beta), sum(gamma))
        key = self._plane_key(beta, gamma)
        cached = self._plane_cache.get((key, height_cap))
        if cached is not None:
            return cached
        members = []
        for r in self.positive_real_roots(height_cap):
            if self._in_plane(key, r):
                members.append(r)
        if self._delta is not None and self._in_plane(key, self._delta):
            k = 1
            while k * sum(self._delta) <= height_cap:
                members.append(tuple(k * c for c in self._delta))
                k += 1
        canonical, certified = _extreme_pair(members, beta, gamma)
        if not certified:
            raise HeightInsufficient(
                f"cannot certify canonical roots of plane({beta}, {gamma}) at height {height_cap}"
            )
        sub = Rank2Subsystem(
            plane=(beta, gamma),
            roots=tuple(sorted(members)),
            canonical=canonical,
            certified=certified,
        )
        self._plane_cache[(key, height_cap)] = sub
        return sub

    def _plane_key(self, beta, gamma):
        return tuple(tuple(r) for r in rref([list(beta), list(gamma)]))

    def _in_plane(self, key, r):
        return is_zero_vec(reduce_mod_rref(r, key))

    # -- cutting -----------------------------------------------------------------

    def cut_set(self, beta, height_cap=None):
        """All positive roots cutting beta.  Complete for the default cap
        height(beta) - 1; a larger cap only re-verifies stabilization."""
        key = (beta, height_cap)
        if key in self._cut_cache:
            return self._cut_cache[key]
        cap = sum(beta) - 1 if height_cap is None else height_cap
        out = []
        for gamma in sorted(self.positive_real_roots(cap)):
            if rank([list(beta), list(gamma)]) != 2:
                continue
            sub = self.rank2_subsystem(beta, gamma, max(sum(beta), sum(gamma)))
            if gamma in sub.canonical and beta not in sub.canonical:
                out.append(gamma)
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
        cut_list = tuple(g for g in self.cut_set(beta) if cox.omega(g, beta) > 0)
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
    """Two extreme directions of the listed plane roots, certified when all
    other listed roots are strictly inside their span."""
    coords = {}
    directions = []
    for r in members:
        ab = _plane_coords(r, beta, gamma)
        key = primitive_vector(ab)
        if key not in coords:
            coords[key] = r  # lowest root in each direction wins (sorted callers)
            directions.append(key)
        elif sum(coords[key]) > sum(r):
            coords[key] = r
    lo = [d for d in directions if all(_cross(d, o) >= 0 for o in directions)]
    hi = [d for d in directions if all(_cross(o, d) >= 0 for o in directions)]
    if len(lo) != 1 or len(hi) != 1 or lo == hi:
        return (), False
    u, v = coords[lo[0]], coords[hi[0]]
    strict = all(
        _cross(lo[0], d) > 0 and _cross(d, hi[0]) > 0
        for d in directions
        if d != lo[0] and d != hi[0]
    )
    return tuple(sorted((u, v))), strict or len(directions) == 2


def _plane_coords(r, beta, gamma):
    rows = [list(col) for col in zip(beta, gamma)]
    sol = solve_linear(rows, list(r))
    assert sol is not None
    return sol


def _cross(a, b):
    return a[0] * b[1] - a[1] * b[0]
