import pytest

from affscat.cartan import CartanMatrix, ExchangeMatrix, exchange_to_cartan
from affscat.coxeter import coxeter_context
from affscat.weyl import (
    CapExceeded,
    GroupElement,
    WeylContext,
    enumerate_up_to_length,
    word_from_inversions,
)


# The weak order, covers, join-irreducibility and left multiplication of
# GroupElements, which the scattering construction does not use: kept here
# verbatim, as the reference the sortable generator and the shard map are
# checked against.
class ReferenceWeyl(WeylContext):
    def _left_reflect(self, s: int, m: tuple) -> tuple:
        """s m: row s becomes m[s] - sum_j a_sj m[j]; the other rows are kept."""
        row = m[s]
        for j, c in enumerate(self.cartan.a[s]):
            if c:
                row = tuple(x - c * y for x, y in zip(row, m[j]))
        return m[:s] + (row,) + m[s + 1 :]

    def simple_root(self, i: int):
        return self.cartan.simple_root(i)

    def from_word(self, word) -> GroupElement:
        w = self.identity()
        for s in word:
            w = self.right_mul(w, s)
        return w

    def left_div(self, w: GroupElement, s: int) -> GroupElement:
        """s w for s <= w: inv(sw) = s.(inv(w) \\ {alpha_s})."""
        assert self.simple_root(s) in w.inversions, "left_div requires s <= w"
        inv = self.cartan.peel(s, w.inversions)
        mat = self._left_reflect(s, w.matrix)
        return GroupElement(word_from_inversions(self, inv), inv, mat)

    def left_mul_up(self, w: GroupElement, s: int) -> GroupElement:
        """s w when s is not <= w (length goes up)."""
        alpha = self.simple_root(s)
        assert alpha not in w.inversions, "left_mul_up requires s not <= w"
        inv = frozenset({self.cartan.reflect_root(s, b) for b in w.inversions} | {alpha})
        mat = self._left_reflect(s, w.matrix)
        return GroupElement((s,) + w.word, inv, mat)


def is_identity(w: GroupElement) -> bool:
    return not w.inversions


def weak_leq(v: GroupElement, w: GroupElement) -> bool:
    return v.inversions <= w.inversions


def covers(ctx: WeylContext, w: GroupElement):
    """Lower covers [(ws, beta_t)] over right descents; beta_t = -w(alpha_s)."""
    out = []
    for s in ctx.right_descents(w):
        root = tuple(-w.matrix[r][s] for r in range(ctx.n))
        out.append((ctx.right_mul(w, s), root))
    return out


def is_join_irreducible(ctx: WeylContext, w: GroupElement):
    """The unique cover root beta_t = -w(alpha_s) if s is the only right
    descent of w (so w covers exactly one element), else None."""
    descents = ctx.right_descents(w)
    if len(descents) != 1:
        return None
    s = descents[0]
    return tuple(-w.matrix[r][s] for r in range(ctx.n))


# Used by the tests alone, so kept here (with self as ctx).
def left_descents(ctx, w):
    """Letters s with s <= w, i.e. alpha_s in inv(w)."""
    return [s for s in range(ctx.n) if ctx.simple_root(s) in w.inversions]


A11 = ReferenceWeyl(exchange_to_cartan(ExchangeMatrix.from_rows([[0, 2], [-2, 0]])))
A2 = ReferenceWeyl(CartanMatrix.from_rows([[2, -1], [-1, 2]]))
A1A1 = ReferenceWeyl(CartanMatrix.from_rows([[2, 0], [0, 2]]))


def test_simple_generator():
    w = A11.from_word((0,))
    assert w.length == 1
    assert w.inversions == frozenset({(1, 0)})


def test_inversion_sequence_s1s2s1():
    # Inversion sequence of (s_1, s_2, s_1): alpha_1, s_1 alpha_2, s_1 s_2 alpha_1.
    w = A11.from_word((0, 1, 0))
    assert w.length == 3
    assert w.inversions == frozenset({(1, 0), (2, 1), (3, 2)})


def test_right_mul_involution():
    w = A11.from_word((0, 1))
    u = A11.right_mul(A11.right_mul(w, 0), 0)
    assert u == w
    assert u.word == w.word


def test_weak_order_identity_below_all():
    e = A2.identity()
    for w in enumerate_up_to_length(A2, 3):
        assert weak_leq(e, w)


def test_covers_join_irreducible_dihedral():
    w = A11.from_word((0, 1))
    cov = covers(A11, w)
    assert len(cov) == 1
    below, root = cov[0]
    assert below == A11.from_word((0,))
    assert root == (2, 1)  # cover root of s_1 s_2 is s_1(alpha_2)
    assert is_join_irreducible(A11, w) == (2, 1)


def test_covers_commuting_case():
    w = A1A1.from_word((0, 1))
    assert len(covers(A1A1, w)) == 2
    assert is_join_irreducible(A1A1, w) is None


def test_identity_not_join_irreducible():
    assert is_join_irreducible(A11, A11.identity()) is None


def test_every_dihedral_nonidentity_is_ji():
    for w in enumerate_up_to_length(A11, 6):
        if not is_identity(w):
            assert is_join_irreducible(A11, w) is not None


def test_longest_element_a2_two_covers():
    w0 = A2.from_word((0, 1, 0))
    assert w0.length == 3
    assert is_join_irreducible(A2, w0) is None


def test_enumerate_counts():
    assert len(enumerate_up_to_length(A11, 0)) == 1
    assert len(enumerate_up_to_length(A11, 3)) == 7  # 1 + 2 + 2 + 2
    assert len(enumerate_up_to_length(A2, 3)) == 6  # all of S_3


def test_enumerate_cap():
    with pytest.raises(CapExceeded):
        enumerate_up_to_length(A11, 10, cap=5)


def test_order_embedding_on_pairs():
    elems = enumerate_up_to_length(A2, 3)
    for v in elems:
        for w in elems:
            # v <= w iff inv(v) subset of inv(w) -- definitional here; check
            # consistency with word lengths instead.
            if weak_leq(v, w):
                assert v.length <= w.length


def test_cover_reflections_remove_single_inversion():
    for w in enumerate_up_to_length(A11, 5):
        for below, root in covers(A11, w):
            assert w.inversions - below.inversions == {root}


def test_word_from_inversions_reduced():
    for w in enumerate_up_to_length(A11, 6):
        word = word_from_inversions(A11, w.inversions)
        assert len(word) == w.length
        assert A11.from_word(word) == w


def test_rank2_biconvexity():
    # In rank-2 A_2: if both simples invert, the whole positive system inverts.
    w0 = A2.from_word((0, 1, 0))
    assert {(1, 0), (0, 1)} <= w0.inversions
    assert (1, 1) in w0.inversions


def test_element_cap_env(monkeypatch):
    from affscat.weyl import element_cap

    monkeypatch.setenv("AFFSCAT_CAP", "123")
    assert element_cap() == 123
    monkeypatch.delenv("AFFSCAT_CAP")
    assert element_cap() == 10**6


def test_biconvexity_of_inversion_sets():
    # Canonical roots of a rank-2 subsystem both inverted forces the whole
    # positive subsystem to be inverted.
    from test_cartan import k_form
    from test_shards import ReferenceShards

    cox = coxeter_context(ExchangeMatrix.from_rows([[0, 2], [-2, 0]]))
    ctx = ReferenceWeyl(cox.cartan)
    sh = ReferenceShards(cox, ctx)
    elements = enumerate_up_to_length(ctx, 6)
    roots = sorted(sh.cartan.real_roots_up_to_height(5))
    for i, b1 in enumerate(roots):
        for b2 in roots[i + 1 :]:
            sub = sh.rank2_subsystem(b1, b2, height_cap=max(sum(b1), sum(b2)) + 4)
            u, v = sub.canonical
            for w in elements:
                if u in w.inversions and v in w.inversions:
                    for r in sub.roots:
                        if sum(r) <= 6 and k_form(sh.cartan, r, r) > 0:
                            assert r in w.inversions, (w.word, r)



def _reference_product(a, b):
    """The plain matrix product a b."""
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def _simple_mats(cartan):
    """The matrices of the simple reflections; column j is s_i(alpha_j)."""
    n = cartan.n
    mats = []
    for i in range(n):
        cols = [cartan.reflect_root(i, cartan.simple_root(j)) for j in range(n)]
        mats.append(tuple(tuple(cols[j][r] for j in range(n)) for r in range(n)))
    return mats


# A_2^(1), G_2^(1) and D_4^(1) (the star with vertex 0 a source).
REFLECTION_UPDATE_INSTANCES = (
    [[0, 1, 1], [-1, 0, 1], [-1, -1, 0]],
    [[0, 1, 0], [-1, 0, 1], [0, -3, 0]],
    [[0, 1, 1, 1, 1]] + [[-1, 0, 0, 0, 0]] * 4,
)


@pytest.mark.parametrize("rows", REFLECTION_UPDATE_INSTANCES, ids=["A2_1", "G2_1", "D4_1"])
def test_reflection_updates_match_matrix_products(rows):
    # right_mul, left_div and the reference left_mul_up update one row or
    # apply a rank-1 update; they must give the full products with the simple
    # reflections.
    ctx = ReferenceWeyl(exchange_to_cartan(ExchangeMatrix.from_rows(rows)))
    sims = _simple_mats(ctx.cartan)

    def check(u, expected):
        assert u.matrix == expected, (u.word, expected)
        assert all(type(x) is int for row in u.matrix for x in row)

    for w in enumerate_up_to_length(ctx, 6):
        expected = ctx.identity().matrix
        for s in w.word:
            expected = _reference_product(expected, sims[s])
        check(w, expected)
        for s in range(ctx.n):
            check(ctx.right_mul(w, s), _reference_product(w.matrix, sims[s]))
            left = _reference_product(sims[s], w.matrix)
            if s in left_descents(ctx, w):
                check(ctx.left_div(w, s), left)
            else:
                check(ctx.left_mul_up(w, s), left)
