from dataclasses import dataclass

import pytest
from test_orientation_sweep import ORIENTATIONS as SWEEP_ORIENTATIONS
from test_orientation_sweep import RANK5

from affscat.cartan import ExchangeMatrix
from affscat.coxeter import coxeter_context
from affscat.sortable import SortableContext, _drop, _rotate
from affscat.weyl import (
    CapExceeded,
    GroupElement,
    WeylContext,
    enumerate_up_to_length,
    is_join_irreducible,
    weak_leq,
)


def make(rows):
    b = ExchangeMatrix.from_rows(rows)
    cox = coxeter_context(b)
    return SortableContext(WeylContext(cox.cartan), cox)


# Used by the tests alone, so kept here (with self as cartan).
def act_word_on_weight(cartan, word, x):
    for i in reversed(word):
        x = cartan.reflect_weight(i, x)
    return x


SC_A11 = make([[0, 2], [-2, 0]])
SC_A2T = make([[0, 1, 1], [-1, 0, 1], [-1, -1, 0]])


def test_identity_sortable():
    assert SC_A11.sorting_word(frozenset()) == ()


def test_s2s1_not_sortable():
    w = SC_A11.weyl.from_word((1, 0))
    assert SC_A11.is_sortable(w) is None


def test_s1s2s1_sortable():
    w = SC_A11.weyl.from_word((0, 1, 0))
    wit = SC_A11.is_sortable(w)
    assert wit is not None
    assert wit.sorting_word == (0, 1, 0)


def test_s2_alone_sortable():
    w = SC_A11.weyl.from_word((1,))
    assert SC_A11.is_sortable(w) is not None


def test_pi_down_fixes_sortables():
    for wit in SC_A11.sortables_up_to_length(6):
        assert SC_A11.pi_down(wit.element) == wit.element


def test_pi_down_example():
    w = SC_A11.weyl.from_word((1, 0))
    assert SC_A11.pi_down(w) == SC_A11.weyl.from_word((1,))


def test_pi_down_matches_brute_force():
    for sc in (SC_A11, SC_A2T):
        elems = enumerate_up_to_length(sc.weyl, 5)
        sortable = [w.element for w in sc.sortables_up_to_length(5)]
        for w in elems:
            below = [v for v in sortable if weak_leq(v, w)]
            best = max(below, key=lambda v: v.length)
            # the maximum is unique: every other candidate is weakly below it
            assert all(weak_leq(v, best) for v in below)
            got = sc.pi_down(w)
            assert got == best
            assert weak_leq(got, w)


def test_cone_base_case():
    e = SC_A11.weyl.identity()
    assert SC_A11.cone_normals(e.inversions) == frozenset({(1, 0), (0, 1)})
    cone = SC_A11.cambrian_cone(e)
    assert cone.contains((1, 1))
    assert not cone.contains((-1, 1))


def test_cone_s1_example():
    w = SC_A11.weyl.from_word((0,))
    assert SC_A11.cone_normals(w.inversions) == frozenset({(-1, 0), (2, 1)})


def test_cones_disjoint_interiors():
    for sc in (SC_A11, SC_A2T):
        cones = [sc.cambrian_cone(w.element) for w in sc.sortables_up_to_length(4)]
        for i, c1 in enumerate(cones):
            assert c1.dim == sc.cartan.n  # full-dimensional simplicial
            for c2 in cones[i + 1 :]:
                meet = c1.intersect(c2)
                assert meet.dim < sc.cartan.n


def test_pidown_cone_theorem():
    # wD lies in Cone_c(pi_down(w)): check the interior point w(sum of rhos).
    for sc in (SC_A11, SC_A2T):
        n = sc.cartan.n
        interior = tuple(1 for _ in range(n))
        for w in enumerate_up_to_length(sc.weyl, 5):
            p = act_word_on_weight(sc.cartan, w.word, interior)
            cone = sc.cambrian_cone(sc.pi_down(w))
            assert cone.contains(p)


def test_above_below_alpha_perp():
    # Cone_c(v) is above alpha_s-perp iff s <= v.
    for sc in (SC_A11, SC_A2T):
        n = sc.cartan.n
        for wit in sc.sortables_up_to_length(4):
            v = wit.element
            cone = sc.cambrian_cone(v)
            lin, rays = cone.generators
            gens = list(rays) + [l for l in lin] + [tuple(-c for c in l) for l in lin]
            for s in range(n):
                alpha_cov = sc.cartan.primitive_in_coroot_lattice(sc.cartan.simple_root(s))
                vals = [sum(a * b for a, b in zip(g, alpha_cov)) for g in gens]
                if sc.cartan.simple_root(s) in v.inversions:
                    assert all(x <= 0 for x in vals)  # above
                else:
                    assert all(x >= 0 for x in vals)  # below


def test_wall_cov_facet_normals():
    # negative entries of C_c(v) are exactly the cover roots of v.
    from affscat.weyl import covers

    for sc in (SC_A11, SC_A2T):
        for wit in sc.sortables_up_to_length(5):
            v = wit.element
            neg_normals = {
                tuple(-c for c in b)
                for b in sc.cone_normals(v.inversions)
                if any(c < 0 for c in b)
            }
            cover_roots = {root for _, root in covers(sc.weyl, v)}
            assert neg_normals == cover_roots


def test_join_of_sortables_is_sortable():
    for sc in (SC_A11, SC_A2T):
        sortable = [w.element for w in sc.sortables_up_to_length(4)]
        universe = enumerate_up_to_length(sc.weyl, 8)
        for v in sortable:
            for w in sortable:
                union = v.inversions | w.inversions
                bounds = [u for u in universe if union <= u.inversions]
                if not bounds:
                    continue
                join = min(bounds, key=lambda u: u.length)
                if all(weak_leq(join, u) for u in bounds):
                    assert sc.is_sortable(join) is not None


def test_ji_sortables_a11():
    ji = SC_A11.ji_sortables(height_cap=3, length_cap=6)
    assert set(ji) == {(1, 0), (0, 1), (2, 1)}
    assert ji[(2, 1)] == SC_A11.weyl.from_word((0, 1))


def test_ji_unique_per_root_finite_a2():
    sc = make([[0, 1], [-1, 0]])
    ji = sc.ji_sortables(height_cap=2, length_cap=3)
    assert set(ji) == {(1, 0), (0, 1), (1, 1)}


def test_sortable_iff_aligned():
    # Independent oracle for the sortable recursion: w is c-sortable iff it is
    # c-aligned with respect to every parabolic rank-2 subsystem (Weyl
    # conjugates of the standard rank-2 parabolics; all finite here).
    from itertools import combinations

    from affscat.linalg import rank, rref
    from affscat.shards import ShardContext
    from affscat.weyl import enumerate_up_to_length

    for sc in (SC_A11, SC_A2T):
        sh = ShardContext(sc.weyl)
        cox = sc.cox
        cm = sc.cartan
        n = cm.n
        plane_keys = set()
        for w in enumerate_up_to_length(sc.weyl, 7):
            for i, j in combinations(range(n), 2):
                u = tuple(w.matrix[r][i] for r in range(n))
                v = tuple(w.matrix[r][j] for r in range(n))
                plane_keys.add(tuple(tuple(r) for r in rref([list(u), list(v)])))
        subsystems = {}
        for b1, b2 in combinations(sorted(sh.cartan.real_roots_up_to_height(8)), 2):
            if rank([list(b1), list(b2)]) != 2:
                continue
            key = tuple(tuple(r) for r in rref([list(b1), list(b2)]))
            if key in subsystems or key not in plane_keys:
                continue
            cap = 3 * (sum(b1) + sum(b2))
            subsystems[key] = sh.rank2_subsystem(b1, b2, height_cap=cap)

        def aligned(w):
            for sub in subsystems.values():
                u, v = sub.canonical
                om = cox.omega(u, v)
                members = frozenset(r for r in sub.roots if cm.k_form(r, r) > 0)
                hit = w.inversions & members
                if om == 0:
                    ok = hit <= {u, v}
                elif om > 0:
                    ok = (v not in w.inversions) or hit == {v} or members <= w.inversions
                else:
                    ok = (u not in w.inversions) or hit == {u} or members <= w.inversions
                if not ok:
                    return False
            return True

        for w in enumerate_up_to_length(sc.weyl, 5):
            assert (sc.is_sortable(w) is not None) == aligned(w), w.word


# The orientations of the benchmark's instances, with the lengths the oracle
# below enumerates W up to.
ORIENTATIONS = (
    ([[0, 2], [-2, 0]], 8),
    ([[0, 1], [-4, 0]], 8),
    ([[0, 1, 1], [-1, 0, 1], [-1, -1, 0]], 7),
    ([[0, 1, 0], [-1, 0, 1], [0, -3, 0]], 7),
    ([[0, 1, 0, 1], [-1, 0, 1, 0], [0, -1, 0, -1], [-1, 0, 1, 0]], 6),
    (
        [
            [0, 1, 1, 1, 1],
            [-1, 0, 0, 0, 0],
            [-1, 0, 0, 0, 0],
            [-1, 0, 0, 0, 0],
            [-1, 0, 0, 0, 0],
        ],
        6,
    ),
)


@pytest.mark.parametrize(
    "rows, max_len", ORIENTATIONS, ids=["A1_1", "A2_2", "A2_1", "G2_1", "A3_1", "D4_1"]
)
def test_generated_sortables_match_filtered_enumeration(rows, max_len):
    from affscat.weyl import covers, is_join_irreducible

    cox = coxeter_context(ExchangeMatrix.from_rows(rows))
    weyl = WeylContext(cox.cartan)
    elements = enumerate_up_to_length(weyl, max_len)
    for c in (cox, cox.inverse()):
        sc = SortableContext(weyl, c)
        generated = sc.sortables_up_to_length(max_len)
        filtered = {w.inversions for w in elements if sc.is_sortable(w) is not None}
        assert len(generated) == len(filtered) > 1
        assert {wit.element.inversions for wit in generated} == filtered
        for wit in generated:
            assert wit.sorting_word == sc.sorting_word(wit.element.inversions)
        keys = [(wit.element.length, wit.sorting_word) for wit in generated]
        assert keys == sorted(keys)
    for w in elements:
        cov = covers(weyl, w)
        root = is_join_irreducible(weyl, w)
        assert (root is not None) == (len(cov) == 1)
        if root is not None:
            assert root == cov[0][1]


# The witness of the reference generators below: an element and its
# c-sorting word, both built eagerly.
@dataclass(frozen=True)
class SortableWitness:
    element: GroupElement
    sorting_word: tuple


# The Reading-Speyer level recursion that generated the sortables before the
# nested-block generator, with the left multiplication it used, kept verbatim
# as the reference for the generator's elements, words and order.
class ReferenceWeyl(WeylContext):
    def left_mul_up(self, w: GroupElement, s: int) -> GroupElement:
        """s w when s is not <= w (length goes up)."""
        alpha = self.simple_root(s)
        assert alpha not in w.inversions, "left_mul_up requires s not <= w"
        inv = frozenset({self.cartan.reflect_root(s, b) for b in w.inversions} | {alpha})
        mat = self._left_reflect(s, w.matrix)
        return GroupElement((s,) + w.word, inv, mat)


class _LevelRecursion(SortableContext):
    def __init__(self, weyl: ReferenceWeyl, cox):
        super().__init__(weyl, cox)
        self._level_cache: dict = {}

    def sortables_up_to_length(self, max_len: int):
        """Witnesses for the c-sortable elements of length <= max_len, in
        (length, sorting word) order; each element's word is its c-sorting word."""
        out = []
        for length in range(max_len + 1):
            level = self._sortables_of_length(self.cox.order, length)
            out.extend(SortableWitness(w, w.word) for w in sorted(level, key=lambda w: w.word))
        return out

    def _sortables_of_length(self, order, length):
        """The order-sortable elements of the parabolic on the letters of
        order, of exactly the given length.  sortables_up_to_length fills
        lengths in increasing order, so a call recurses only through keys
        still missing, at most one per order reachable from c."""
        key = (order, length)
        if key in self._level_cache:
            return self._level_cache[key]
        if length == 0:
            level = [self.weyl.identity()]
        elif not order:
            level = []
        else:
            s = order[0]
            alpha = self.cartan.simple_root(s)
            up = [
                self.weyl.left_mul_up(v, s)
                for v in self._sortables_of_length(_rotate(order, s), length - 1)
                if alpha not in v.inversions
            ]
            self._generated += len(up)
            if self._generated > self._cap:
                raise CapExceeded(
                    f"element cap AFFSCAT_CAP={self._cap} exceeded by sortable "
                    f"generation at length {length}"
                )
            level = self._sortables_of_length(_drop(order, s), length) + up
        self._level_cache[key] = level
        return level


def _witness_keys(witnesses):
    return [(wit.sorting_word, wit.element.inversions, wit.element.matrix) for wit in witnesses]


@pytest.mark.parametrize(
    "rows, max_len",
    [(o[2], 8) for o in SWEEP_ORIENTATIONS] + list(ORIENTATIONS),
    ids=[f"{o[0]}-{o[1]}" for o in SWEEP_ORIENTATIONS] + ["A1_1", "A2_2", "A2_1", "G2_1", "A3_1", "D4_1"],
)
def test_generator_matches_level_recursion(rows, max_len):
    # Same elements, same c-sorting words and the same (length, word) order
    # as the level recursion, for c and c^-1.
    cox = coxeter_context(ExchangeMatrix.from_rows([list(r) for r in rows]))
    weyl = WeylContext(cox.cartan)
    ref_weyl = ReferenceWeyl(cox.cartan)
    for c in (cox, cox.inverse()):
        got = SortableContext(weyl, c).sortables_up_to_length(max_len)
        want = _LevelRecursion(ref_weyl, c).sortables_up_to_length(max_len)
        assert len(got) > max_len
        assert _witness_keys(got) == _witness_keys(want)


A2T_ROWS = [[0, 1, 1], [-1, 0, 1], [-1, -1, 0]]


def test_cap_counts_each_sortable_once(monkeypatch):
    # A_2^(1) has 16 non-identity c-sortables of length <= 6, for c = s_1 s_2 s_3.
    monkeypatch.setenv("AFFSCAT_CAP", "16")
    assert len(make(A2T_ROWS).sortables_up_to_length(6)) == 17
    monkeypatch.setenv("AFFSCAT_CAP", "15")
    with pytest.raises(CapExceeded, match=r"AFFSCAT_CAP=15 .*at length 6$"):
        make(A2T_ROWS).sortables_up_to_length(6)


def test_generation_resumes_where_it_stopped():
    sc = make(A2T_ROWS)
    for max_len in (4, 8, 6):
        got = sc.sortables_up_to_length(max_len)
        assert _witness_keys(got) == _witness_keys(make(A2T_ROWS).sortables_up_to_length(max_len))
    assert sc._generated == len(sc.sortables_up_to_length(8)) - 1 == 20


# The nested-block generator as it was before its witnesses were stored lean:
# GroupElement levels built by right_mul, each with its word and inversion
# set, and join-irreducibles found by is_join_irreducible's descent scan of
# every sortable.  Kept verbatim as the reference for ji_sortables.
class _GroupElementGenerator(SortableContext):
    def __init__(self, weyl: WeylContext, cox):
        super().__init__(weyl, cox)
        identity = weyl.identity()
        self._levels = [[SortableWitness(identity, ())]]  # witnesses by length
        self._frontier = [(identity, -1, (1 << self.cartan.n) - 1, 0)]

    def _extend(self):
        """Build the next length from the frontier of (element, position of
        its last letter, previous block, current block) states, blocks as
        letter bitmasks.  The frontier is in word order and letters are tried
        in increasing order, so each new level comes out in word order."""
        pos = self.cox.position
        frontier = []
        for w, last, prev, cur in self._frontier:
            for t in range(self.cartan.n):
                bit = 1 << t
                if cur & bit:
                    blocks = (cur, bit)  # t opens a new block
                elif prev & bit and pos[t] > last:
                    blocks = (prev, cur | bit)
                else:
                    continue
                if min(row[t] for row in w.matrix) >= 0:  # w(alpha_t) > 0
                    frontier.append((self.weyl.right_mul(w, t), pos[t], *blocks))
        if self._generated + len(frontier) > self._cap:
            raise CapExceeded(
                f"element cap AFFSCAT_CAP={self._cap} exceeded by sortable "
                f"generation at length {len(self._levels)}"
            )
        self._generated += len(frontier)
        self._frontier = frontier
        self._levels.append([SortableWitness(w, w.word) for w, *_ in frontier])

    def ji_sortables(self, height_cap: int, length_cap: int):
        """Map cover root -> join-irreducible c-sortable element, for cover
        roots of height at most height_cap, among elements of length at most
        length_cap.  Uniqueness per root is enforced.
        """
        found: dict = {}
        for wit in self.sortables_up_to_length(length_cap):
            w = wit.element
            if w.is_identity():
                continue
            root = is_join_irreducible(self.weyl, w)
            if root is None or sum(root) > height_cap:
                continue
            if root in found:
                raise AssertionError(
                    f"two join-irreducible sortables share cover root {root}"
                )
            found[root] = w
        return found


def _ji_keys(found):
    return {root: (w.word, w.inversions, w.matrix) for root, w in found.items()}


def _assert_ji_maps_agree(rows, height_cap):
    cox = coxeter_context(ExchangeMatrix.from_rows([list(r) for r in rows]))
    weyl = WeylContext(cox.cartan)
    length_cap = 2 * height_cap
    for c in (cox, cox.inverse()):
        sc, ref = SortableContext(weyl, c), _GroupElementGenerator(weyl, c)
        got = sc.ji_sortables(height_cap, length_cap)
        assert got and _ji_keys(got) == _ji_keys(ref.ji_sortables(height_cap, length_cap))
        for root, w in got.items():
            assert is_join_irreducible(weyl, w) == root
        # the witnesses scanned are the reference's, element for element
        assert _witness_keys(sc.sortables_up_to_length(length_cap)) == _witness_keys(
            ref.sortables_up_to_length(length_cap)
        )


@pytest.mark.parametrize(
    "rows", [o[2] for o in SWEEP_ORIENTATIONS + RANK5],
    ids=[f"{o[0]}-{o[1]}" for o in SWEEP_ORIENTATIONS + RANK5],
)
def test_ji_map_matches_descent_scan(rows):
    # At the sweep's caps H = max(4, |delta|), for c and c^-1.
    cox = coxeter_context(ExchangeMatrix.from_rows([list(r) for r in rows]))
    _assert_ji_maps_agree(rows, max(4, sum(cox.type_info.delta)))


E61_ROWS = [
    [0, 0, 0, 0, 0, 0, 1],
    [0, 0, 1, 0, 0, 0, 0],
    [0, -1, 0, 1, 0, 0, 0],
    [0, 0, -1, 0, 1, 0, 1],
    [0, 0, 0, -1, 0, 1, 0],
    [0, 0, 0, 0, -1, 0, 0],
    [-1, 0, 0, -1, 0, 0, 0],
]
E71_ROWS = [
    [0, 1, 0, 0, 0, 0, 0, 0],
    [-1, 0, 1, 0, 0, 0, 0, 0],
    [0, -1, 0, 1, 0, 0, 0, 0],
    [0, 0, -1, 0, 1, 0, 0, 1],
    [0, 0, 0, -1, 0, 1, 0, 0],
    [0, 0, 0, 0, -1, 0, 1, 0],
    [0, 0, 0, 0, 0, -1, 0, 0],
    [0, 0, 0, -1, 0, 0, 0, 0],
]


@pytest.mark.parametrize(
    "rows, height_cap", [(E61_ROWS, 12), (E71_ROWS, 18)], ids=["E6_1", "E7_1"]
)
def test_ji_map_matches_descent_scan_exceptional(rows, height_cap):
    _assert_ji_maps_agree(rows, height_cap)
