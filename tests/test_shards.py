from dataclasses import dataclass
from itertools import combinations, permutations

import pytest
from test_cones import negate
from test_linalg import _reference_solve_linear
from test_weyl import ReferenceWeyl, is_identity, is_join_irreducible, left_descents, weak_leq

from affscat.cartan import CartanMatrix, ExchangeMatrix, classify
from affscat.cones import Cone
from affscat.coxeter import CoxeterContext, coxeter_context
from affscat.linalg import primitive_vector, rank, wedge_key
from affscat.shards import ShardCone, ShardContext, _extreme_pair
from affscat.weyl import GroupElement, enumerate_up_to_length


class NotFoundWithinL(RuntimeError):
    pass


@dataclass(frozen=True)
class Rank2Subsystem:
    roots: tuple  # positive real roots in the plane, up to the height used
    canonical: tuple  # the two canonical roots


# Rank-2 subsystems and the map from a shard back to its join-irreducible,
# which the scattering construction does not use: kept here verbatim, as the
# oracles of the cutting relation and of the ji -> shard -> ji round trip.
# shard_of_element is the shard map on a GroupElement, finding the cover
# root by is_join_irreducible.
class ReferenceShards(ShardContext):
    def __init__(self, cox: CoxeterContext, weyl: ReferenceWeyl):
        super().__init__(cox)
        self.weyl = weyl

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

    def shard_of_element(self, j: GroupElement) -> ShardCone:
        root = is_join_irreducible(self.weyl, j)
        if root is None:
            raise ValueError("element is not join-irreducible")
        return self.shard_from_ji(root, j.inversions)

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
        elements = enumerate_up_to_length(self.weyl, length_cap)
        uppers = self.upper_elements(shard, elements)
        if not uppers:
            raise NotFoundWithinL(f"no upper elements of the shard within length {length_cap}")
        minimal = [w for w in uppers if not any(weak_leq(v, w) and v != w for v in uppers)]
        assert len(minimal) == 1, "shard must have a unique minimal upper element"
        j = minimal[0]
        assert is_join_irreducible(self.weyl, j) is not None
        return j


def make(rows):
    b = ExchangeMatrix.from_rows(rows)
    cox = coxeter_context(b)
    return ReferenceShards(cox, ReferenceWeyl(cox.cartan)), cox


SH_A11, COX_A11 = make([[0, 2], [-2, 0]])
SH_A2T, COX_A2T = make([[0, 1, 1], [-1, 0, 1], [-1, -1, 0]])
SH_A2, COX_A2 = make([[0, 1], [-1, 0]])
SH_G21, _ = make([[0, 1, 0], [-1, 0, 1], [0, -3, 0]])
SH_A31, _ = make([[0, 1, 0, 1], [-1, 0, 1, 0], [0, -1, 0, -1], [-1, 0, 1, 0]])


def test_canonical_roots_finite_a2():
    sub = SH_A2.rank2_subsystem((1, 0), (0, 1), height_cap=3)
    assert sub.canonical == ((0, 1), (1, 0))
    assert (1, 1) in sub.roots


def test_canonical_roots_affine_plane():
    # plane of alpha_1 and delta in A_1^(1): canonical pair is the simples
    sub = SH_A11.rank2_subsystem((1, 0), (1, 1), height_cap=4)
    assert sub.canonical == ((0, 1), (1, 0))


def test_canonical_roots_orthogonal_pair():
    cm = CartanMatrix.from_rows([[2, 0], [0, 2]])
    ctx = ReferenceShards(CoxeterContext(cm, (0, 1)), ReferenceWeyl(cm))
    sub = ctx.rank2_subsystem((1, 0), (0, 1))
    assert sub.canonical == ((0, 1), (1, 0))
    assert len(sub.roots) == 2


def test_cut_of_simple_is_empty():
    for sh in (SH_A11, SH_A2T, SH_A2):
        n = sh.cartan.n
        for i in range(n):
            assert sh.cut_set(sh.cartan.simple_root(i)) == ()


def test_cut_examples():
    assert SH_A11.cut_set((2, 1)) == ((0, 1), (1, 0))
    assert SH_A2.cut_set((1, 1)) == ((0, 1), (1, 0))


def test_canonical_roots_need_the_pairs_height():
    with pytest.raises(ValueError):
        SH_A2T.rank2_subsystem((1, 0, 0), (1, 1, 0), height_cap=1)
    with pytest.raises(ValueError):
        SH_A11.rank2_subsystem((1, 2), (2, 1), height_cap=2)


def cut_set_at_cap(sh, beta, height_cap):
    """ShardContext.cut_set with the height cap it took before the cap was
    fixed at height(beta) - 1 (with self as sh, and no cache): the roots up
    to the cap that cut beta, read off the plane buckets at that cap."""
    cap = height_cap
    out = []
    for members in sh._planes(beta, max(cap, sum(beta))).values():
        # members[0] spans the plane with beta: parallel roots come last
        pair = _extreme_pair(members, beta, members[0])
        if beta not in pair:
            out.extend(gamma for gamma in pair if sum(gamma) <= cap)
    return tuple(sorted(out))


def test_cut_stabilizes_with_bigger_cap():
    cases = [(SH_A11, beta) for beta in [(2, 1), (1, 2), (3, 2)]]
    cases += [
        (sh, beta) for sh in (SH_G21, SH_A31) for beta in sorted(sh.cartan.real_roots_up_to_height(8))
    ]
    for sh, beta in cases:
        assert sh.cut_set(beta) == cut_set_at_cap(sh, beta, sum(beta) + 6), beta


# The benchmark's six orientations (A_1^(1), A_2^(2), A_2^(1), G_2^(1),
# A_3^(1), D_4^(1)), with the height the oracle below checks every root up to.
BENCHMARK_INSTANCES = (
    ([[0, 2], [-2, 0]], 16),
    ([[0, 1], [-4, 0]], 16),
    ([[0, 1, 1], [-1, 0, 1], [-1, -1, 0]], 16),
    ([[0, 1, 0], [-1, 0, 1], [0, -3, 0]], 16),
    ([[0, 1, 0, 1], [-1, 0, 1, 0], [0, -1, 0, -1], [-1, 0, 1, 0]], 12),
    (
        [
            [0, 1, 1, 1, 1],
            [-1, 0, 0, 0, 0],
            [-1, 0, 0, 0, 0],
            [-1, 0, 0, 0, 0],
            [-1, 0, 0, 0, 0],
        ],
        8,
    ),
)


def _reference_planes(roots, delta, height):
    """Each ordered pair of roots mapped to every root of the plane they span
    up to the height, delta multiples included; plane membership is decided
    by Fraction rank."""
    imaginary = [tuple(k * c for c in delta) for k in range(1, height // sum(delta) + 1)]
    planes = {}
    for beta, gamma in combinations(roots, 2):
        if (beta, gamma) in planes or rank([beta, gamma]) != 2:
            continue
        # a root already in another plane through beta is not in this one
        candidates = [r for r in roots + imaginary if (beta, r) not in planes]
        members = tuple(r for r in candidates if rank([beta, gamma, r]) == 2)
        # distinct positive real roots are never parallel
        planes.update((pair, members) for pair in permutations(set(roots) & set(members), 2))
    return planes


def _reference_canonical(members, height):
    """The two extreme directions of the plane's roots up to the height, in
    Fraction coordinates over two of them, the lowest root standing for each;
    both extremes must be unique."""
    members = sorted((r for r in members if sum(r) <= height), key=sum)
    basis = next((a, b) for a, b in combinations(members, 2) if rank([a, b]) == 2)
    cols = [list(col) for col in zip(*basis)]
    lowest = {}
    for r in members:
        lowest.setdefault(primitive_vector(_reference_solve_linear(cols, list(r))), r)
    dirs = list(lowest)
    lo = [d for d in dirs if all(d[0] * o[1] - d[1] * o[0] >= 0 for o in dirs)]
    hi = [d for d in dirs if all(o[0] * d[1] - o[1] * d[0] >= 0 for o in dirs)]
    assert len(lo) == 1 and len(hi) == 1 and lo != hi
    return {lowest[lo[0]], lowest[hi[0]]}


def _reference_cut_set(planes, roots, beta, cap, canonical):
    """The roots up to the cap that are canonical in their plane with beta
    at height max(ht beta, ht gamma) while beta is not."""
    out = []
    for gamma in roots:
        if sum(gamma) > cap or (beta, gamma) not in planes:
            continue
        key = (planes[beta, gamma], max(sum(beta), sum(gamma)))
        if key not in canonical:
            canonical[key] = _reference_canonical(*key)
        pair = canonical[key]
        if gamma in pair and beta not in pair:
            out.append(gamma)
    return tuple(out)


def test_cut_set_matches_fraction_reference():
    for rows, height in BENCHMARK_INSTANCES:
        sh, _ = make(rows)
        delta = classify(sh.cartan).delta
        roots = sorted(sh.cartan.real_roots_up_to_height(height))
        planes = _reference_planes(roots, delta, height)
        canonical = {}
        for beta in roots:
            # Below height(beta), then at the larger cap: no root of height
            # height(beta) or more cuts beta (the stabilisation theorem).
            for ref_cap in (sum(beta) - 1, height):
                expected = _reference_cut_set(planes, roots, beta, ref_cap, canonical)
                assert sh.cut_set(beta) == expected, (rows, beta, ref_cap)


def test_shard_of_simple_is_full_hyperplane():
    shard = SH_A11.shard_from_ji((1, 0), frozenset({(1, 0)}))
    assert shard.cut_list == ()
    lin, rays = shard.cone.generators
    assert len(lin) == 1 and rays == ()  # a full line in rank 2


def test_shard_s1s2_example():
    j = SH_A11.weyl.from_word((0, 1))
    shard = SH_A11.shard_of_element(j)
    assert shard is SH_A11.shard_from_ji((2, 1), j.inversions)
    assert shard.normal == (2, 1)
    assert shard.cut_list == ((1, 0),)
    # same cone from the root side
    other = SH_A11.shard_from_root((2, 1))
    assert shard.cone.generators == other.cone.generators
    assert shard.cut_list == other.cut_list


def test_nonsimple_shard_strictly_smaller():
    j = SH_A11.weyl.from_word((0, 1))
    shard = SH_A11.shard_of_element(j)
    cov = SH_A11.cartan.primitive_in_coroot_lattice
    full = Cone.from_constraints(2, eqs=[cov(shard.normal)])
    assert full.contains_cone(shard.cone)
    assert shard.cone.generators != full.generators


def test_shard_modes_agree_on_sortable_ji():
    from affscat.sortable import SortableContext

    for sh, cox in ((SH_A11, COX_A11), (SH_A2T, COX_A2T)):
        sc = SortableContext(cox)
        for root, wit in sc.ji_sortables(height_cap=4, length_cap=6).items():
            a = sh.shard_from_ji(root, wit.inversions)
            b = sh.shard_from_root(root)
            assert a.cone.generators == b.cone.generators, (root, a.cut_list, b.cut_list)


def test_d_beta_antipodal_for_inverse_coxeter():
    for sh, cox in ((SH_A11, COX_A11), (SH_A2T, COX_A2T)):
        inv = cox.inverse()
        for beta in sh.cartan.real_roots_up_to_height(4):
            a = sh.shard_from_root(beta)
            b = inv.shards.shard_from_root(beta)
            assert a.cone.generators in (negate(b.cone).generators, b.cone.generators)
            if sh.cut_set(beta):
                assert a.cone.generators == negate(b.cone).generators
                assert a.cone.generators != b.cone.generators


def test_sigma_j_jprime_antipodal():
    # When the same reflection has a c-sortable ji j and a c^{-1}-sortable ji j',
    # Sh(j') = -Sh(j).
    from affscat.sortable import SortableContext

    for sh, cox in ((SH_A11, COX_A11), (SH_A2T, COX_A2T)):
        sc = SortableContext(cox)
        sc_inv = SortableContext(cox.inverse())
        ji = sc.ji_sortables(height_cap=4, length_cap=8)
        ji_inv = sc_inv.ji_sortables(height_cap=4, length_cap=8)
        both = set(ji) & set(ji_inv)
        assert both, "expected some shared cover roots"
        for root in both:
            a = sh.shard_from_ji(root, ji[root].inversions)
            b = sh.shard_from_ji(root, ji_inv[root].inversions)
            assert b.cone.generators == negate(a.cone).generators


def test_sigma_sj_gluing():
    # (s Sh(sj)) and Sh(j) agree on the <x, alpha_s> <= 0 side, for s < j.
    for sh, cox in ((SH_A11, COX_A11), (SH_A2T, COX_A2T)):
        n = sh.cartan.n
        cov = sh.cartan.primitive_in_coroot_lattice
        for j in enumerate_up_to_length(sh.weyl, 5):
            if is_join_irreducible(sh.weyl, j) is None:
                continue
            for s in left_descents(sh.weyl, j):
                sj = sh.weyl.left_div(j, s)
                if is_identity(sj) or is_join_irreducible(sh.weyl, sj) is None:
                    continue
                shard_j = sh.shard_of_element(j)
                shard_sj = sh.shard_of_element(sj)
                reflected = Cone.from_constraints(
                    n,
                    eqs=[cov(sh.cartan.reflect_root(s, shard_sj.normal))],
                    ineqs=[cov(sh.cartan.reflect_root(s, g)) for g in shard_sj.cut_list],
                )
                half = [cov(sh.cartan.simple_root(s))]
                lhs = reflected.intersect(Cone.from_constraints(n, ineqs=half))
                rhs = shard_j.cone.intersect(Cone.from_constraints(n, ineqs=half))
                assert lhs.generators == rhs.generators


def test_ji_of_shard_simple():
    shard = SH_A11.shard_of_element(SH_A11.weyl.from_word((0,)))
    j = SH_A11.ji_of_shard(shard, length_cap=4)
    assert j == SH_A11.weyl.from_word((0,))


def test_ji_of_shard_round_trip():
    for sh, max_len in ((SH_A11, 6), (SH_A2T, 5)):
        for j in enumerate_up_to_length(sh.weyl, max_len):
            if is_identity(j) or is_join_irreducible(sh.weyl, j) is None:
                continue
            shard = sh.shard_of_element(j)
            back = sh.ji_of_shard(shard, length_cap=max_len + 1)
            assert back == j
