import random
from fractions import Fraction

from test_cartan import k_form, reflect_weight
from test_linalg import _reference_solve_linear
from test_orientation_sweep import acyclic_orientations

from affscat.cartan import ExchangeMatrix
from affscat.coxeter import CoxeterContext, coxeter_context

CTX_A11 = coxeter_context(ExchangeMatrix.from_rows([[0, 2], [-2, 0]]))
CTX_A22 = coxeter_context(ExchangeMatrix.from_rows([[0, 1], [-4, 0]]))
CTX_A2T = coxeter_context(ExchangeMatrix.from_rows([[0, 1, 1], [-1, 0, 1], [-1, -1, 0]]))

ALL = [CTX_A11, CTX_A22, CTX_A2T]


# Used by the tests alone, so kept here (with self as ctx).
def conjugate(ctx, s):
    """scs: rotate an initial s to the end, or a final s to the front."""
    rest = tuple(i for i in ctx.order if i != s)
    if ctx.is_initial(s):
        return CoxeterContext(ctx.cartan, rest + (s,))
    if ctx.is_final(s):
        return CoxeterContext(ctx.cartan, (s,) + rest)
    raise ValueError(f"{s} is neither initial nor final in {ctx.order}")


def coroot(ctx, i):
    return tuple(
        Fraction(1, 1) / ctx.cartan.d[i] if j == i else Fraction(0) for j in range(ctx.n)
    )


def gamma_c(ctx):
    """The Fraction solution of (c - 1) gamma = delta with a zero coordinate at
    the affine index: the reference for CoxeterContext.defect."""
    info = ctx.type_info
    n = ctx.n
    aff = info.aff_index
    c_mat = tuple(
        zip(*(ctx.cartan.act_word_on_root(ctx.order, ctx.cartan.simple_root(j)) for j in range(n)))
    )
    # Solve (c - 1) gamma = delta with gamma supported off the affine index.
    cols = [j for j in range(n) if j != aff]
    rows = [[c_mat[i][j] - (1 if i == j else 0) for j in cols] for i in range(n)]
    sol = _reference_solve_linear(rows, list(info.delta))
    assert sol is not None, "affine gamma_c system must be solvable"
    gamma = [Fraction(0)] * n
    for j, val in zip(cols, sol):
        gamma[j] = val
    return tuple(gamma)


# Every acyclic orientation of every affine diagram of rank 2 to 6.
ORIENTATIONS_TO_RANK6 = [o for n in range(2, 7) for o in acyclic_orientations(n)]


def _contexts_to_rank6():
    for _, _, rows in ORIENTATIONS_TO_RANK6:
        yield coxeter_context(ExchangeMatrix.from_rows([list(r) for r in rows]))


def test_omega_matches_b():
    bmats = {
        id(CTX_A11): [[0, 2], [-2, 0]],
        id(CTX_A22): [[0, 1], [-4, 0]],
        id(CTX_A2T): [[0, 1, 1], [-1, 0, 1], [-1, -1, 0]],
    }
    for ctx in ALL:
        b = bmats[id(ctx)]
        for i in range(ctx.n):
            for j in range(ctx.n):
                assert ctx.omega(coroot(ctx, i), ctx.cartan.simple_root(j)) == b[i][j]


def test_omega_skew_and_e_relation():
    rng = random.Random(7)
    for ctx in ALL:
        for _ in range(20):
            u = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(ctx.n))
            v = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(ctx.n))
            assert ctx.omega(u, v) == -ctx.omega(v, u)
            assert ctx.omega(v, v) == 0
            # omega = E - E^T and E + E^T = K
            assert ctx.omega(u, v) == ctx.e_form(u, v) - ctx.e_form(v, u)
            assert ctx.e_form(u, v) + ctx.e_form(v, u) == k_form(ctx.cartan, u, v)


def test_e_table_a11():
    # c = s_1 s_2: E_c(alpha_2^vee, alpha_1) = a_21 = -2, E_c(alpha_1^vee, alpha_2) = 0.
    assert CTX_A11.e_entry(1, 0) == -2
    assert CTX_A11.e_entry(0, 1) == 0
    assert CTX_A11.e_entry(0, 0) == 1


def test_omega_delta_example():
    # omega_c(alpha_1^vee, delta) = 2 in A_1^(1) with c = s_1 s_2.
    delta = CTX_A11.type_info.delta
    assert CTX_A11.omega(coroot(CTX_A11, 0), delta) == 2


def test_nu_on_negative_simples():
    for ctx in ALL:
        for i in range(ctx.n):
            neg = tuple(-1 if j == i else 0 for j in range(ctx.n))
            rho = tuple(1 if j == i else 0 for j in range(ctx.n))
            assert ctx.nu(neg) == rho


def test_nu_delta_is_half_x_c():
    for ctx in ALL:
        delta = ctx.type_info.delta
        nu_delta = ctx.nu(delta)
        assert tuple(2 * v for v in nu_delta) == ctx.affine.x_c
    assert CTX_A11.nu(CTX_A11.type_info.delta) == (-1, 1)


def test_nu_alpha1_a11():
    assert CTX_A11.nu((1, 0)) == (-1, 2)


def test_affine_vectors_a11():
    aff = CTX_A11.affine
    # With the smallest-index affine-node convention (aff = 0), gamma_c lives
    # on alpha_2; it differs from the alpha_1-supported representative by a
    # multiple of delta, so H_c is the same either way.
    assert gamma_c(CTX_A11) == (0, Fraction(-1, 2))
    assert aff.x_c == (-2, 2)
    assert aff.h == (1, -1)
    assert CTX_A11.in_h_c(CTX_A11.type_info.delta)
    assert not CTX_A11.in_h_c((1, 0))


def test_gamma_c_defining_property():
    for ctx in ALL:
        gamma = gamma_c(ctx)
        delta = ctx.type_info.delta
        c_gamma = ctx.cartan.act_word_on_root(ctx.order, gamma)
        assert tuple(c_gamma[i] - gamma[i] for i in range(ctx.n)) == tuple(
            map(Fraction, delta)
        )
        assert gamma[ctx.type_info.aff_index] == 0


def test_defect_is_a_positive_multiple_of_k_gamma_c():
    # K(gamma_c, .) = t h with t > 0, h the primitive integer covector of the
    # defect: the identity omega_c(., delta) = 2 K(gamma_c, .).
    assert len(ORIENTATIONS_TO_RANK6) == 496
    for ctx in _contexts_to_rank6():
        h = ctx.affine.h
        assert all(type(x) is int for x in h) and any(h)
        gamma = gamma_c(ctx)
        k = [k_form(ctx.cartan, gamma, ctx.cartan.simple_root(j)) for j in range(ctx.n)]
        t = next(Fraction(x) / y for x, y in zip(k, h) if y)
        assert t > 0 and tuple(k) == tuple(t * y for y in h), ctx.order
        assert ctx.defect(gamma) > 0  # a positive multiple of K(gamma_c, gamma_c)


def test_e_form_conventions_of_the_defect():
    # E_c(c u, v) = -E_c(v, u), and beta_p = s_1 ... s_{p-1} alpha_p has
    # E_c(beta_p, alpha_q) = d_p [p = q] and a positive defect: the two facts
    # CoxeterContext.defect and APContext._orbit rest on.
    rng = random.Random(13)
    for ctx in _contexts_to_rank6():
        cartan = ctx.cartan
        for _ in range(3):
            u = tuple(rng.randint(-3, 3) for _ in range(ctx.n))
            v = tuple(rng.randint(-3, 3) for _ in range(ctx.n))
            assert ctx.e_form(cartan.act_word_on_root(ctx.order, u), v) == -ctx.e_form(v, u)
        for p, i in enumerate(ctx.order):
            beta = cartan.act_word_on_root(ctx.order[:p], cartan.simple_root(i))
            for j in range(ctx.n):
                assert ctx.e_form(beta, cartan.simple_root(j)) == (cartan.d[i] if j == i else 0)
            assert ctx.defect(beta) > 0


def test_omega_invariance_under_conjugation():
    # omega_c(b, b') = omega_{scs}(s b, s b') for s initial or final.
    for ctx in ALL:
        roots = ctx.cartan.real_roots_up_to_height(4)
        for s in range(ctx.n):
            if not (ctx.is_initial(s) or ctx.is_final(s)):
                continue
            moved = conjugate(ctx, s)
            for b1 in roots:
                for b2 in roots:
                    sb1 = ctx.cartan.reflect_root(s, b1)
                    sb2 = ctx.cartan.reflect_root(s, b2)
                    assert ctx.omega(b1, b2) == moved.omega(sb1, sb2)


def test_nu_scs_relation():
    # nu_{scs}(s beta) = s . nu_c(beta) for s initial, beta positive, beta != alpha_s.
    for ctx in ALL:
        for s in range(ctx.n):
            if not ctx.is_initial(s):
                continue
            moved = conjugate(ctx, s)
            for beta in ctx.cartan.real_roots_up_to_height(4):
                if beta == ctx.cartan.simple_root(s):
                    continue
                lhs = moved.nu(ctx.cartan.reflect_root(s, beta))
                rhs = reflect_weight(ctx.cartan, s, ctx.nu(beta))
                assert lhs == rhs


def test_nu_linear_on_orthants():
    rng = random.Random(3)
    for ctx in ALL:
        for _ in range(10):
            signs = [rng.choice([1, -1]) for _ in range(ctx.n)]
            a = tuple(signs[i] * rng.randint(0, 5) for i in range(ctx.n))
            b = tuple(signs[i] * rng.randint(0, 5) for i in range(ctx.n))
            lhs = ctx.nu(tuple(x + y for x, y in zip(a, b)))
            rhs = tuple(x + y for x, y in zip(ctx.nu(a), ctx.nu(b)))
            assert lhs == rhs


def test_nu_injective_on_samples():
    rng = random.Random(11)
    for ctx in ALL:
        seen = {}
        for _ in range(200):
            v = tuple(rng.randint(-6, 6) for _ in range(ctx.n))
            img = ctx.nu(v)
            if img in seen:
                assert seen[img] == v
            seen[img] = v


def test_initial_final_detection():
    assert CTX_A2T.is_initial(0)
    assert not CTX_A2T.is_initial(1)
    assert CTX_A2T.is_final(2)
    two_moves = conjugate(CTX_A2T, 0)
    assert two_moves.order == (1, 2, 0)


def test_x_c_for_a4_2_path_orientation():
    # Path-oriented A_4^(2): B has superdiagonal 1 and subdiagonal -2, -1, ..., -2;
    # x_c = -B delta = (-2, 0, 4) in fundamental-weight coordinates, which is
    # -2 rho_1 on the finite part.
    b = ExchangeMatrix.from_rows([[0, 1, 0], [-2, 0, 1], [0, -2, 0]])
    ctx = coxeter_context(b)
    assert ctx.type_info.label == "A_4^(2)"
    assert ctx.type_info.is_a2k2
    assert ctx.type_info.delta == (1, 2, 2)
    assert ctx.affine.x_c == (-2, 0, 4)


def test_one_context_per_matrix_instance():
    # coxeter_context keeps its context on the ExchangeMatrix instance, so
    # every stage run on one matrix shares the root data; an equal matrix read
    # separately gets its own, because nothing is cached by value.
    from affscat.jsonio import read_exchange_matrix

    data = '{"n": 3, "b": [[0, 1, 1], [-1, 0, 1], [-1, -1, 0]]}'
    b, again = read_exchange_matrix(data), read_exchange_matrix(data)
    assert b == again and b is not again
    cox = coxeter_context(b)
    assert coxeter_context(b) is cox
    assert coxeter_context(again) is not cox
    assert coxeter_context(again) == cox
    assert coxeter_context(again).cartan is not cox.cartan
