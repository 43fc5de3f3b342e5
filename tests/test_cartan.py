import collections
import itertools
from fractions import Fraction
from operator import mul

import pytest

from affscat.cartan import (
    CartanMatrix,
    ExchangeMatrix,
    NotSkewSymmetrizable,
    TypeInfo,
    _affine_table,
    _match_affine_label,
    classify,
    exchange_to_cartan,
)
from affscat.linalg import integer_kernel, primitive_vector
from test_linalg import det


class NotRealRoot(ValueError):
    pass


# Used by the tests alone, so kept here (with self as cartan).
def a_times(cartan, v):
    """(A v)_i = sum_j a_ij v_j, i.e. K(alpha_i^vee, v) coordinatewise."""
    return tuple(sum(cartan.a[i][j] * v[j] for j in range(cartan.n)) for i in range(cartan.n))


def coroot(cartan, beta):
    """beta^vee = 2 beta / K(beta, beta) for a real root beta, in integer
    alpha^vee coordinates 2 d'_i beta_i / K'(beta, beta).

    CartanMatrix.coroot as it was before primitive_in_coroot_lattice took
    its place (without its per-matrix cache): the oracle of that identity."""
    kk = sum(map(mul, map(mul, beta, cartan.d_int), a_times(cartan, beta)))
    if kk <= 0:
        raise NotRealRoot(f"{beta} is not a real root (K(b,b) = {kk})")
    cv = []
    for di, c in zip(cartan.d_int, beta):
        q, r = divmod(2 * di * c, kk)
        assert r == 0, "a real coroot lies in Q^vee"
        cv.append(q)
    return tuple(cv)


def k_form(cartan, u, v):
    """K(u, v) with K(alpha_i, alpha_j) = d_i a_ij."""
    av = a_times(cartan, v)
    return sum(u[i] * cartan.d[i] * av[i] for i in range(cartan.n))


def reflect_weight(cartan, k, x):
    """Dual action on V*: s_k(x)_i = x_i - a_ik x_k on rho coordinates."""
    xk = x[k]
    return tuple(x[i] - cartan.a[i][k] * xk for i in range(cartan.n))


def reflect_by_root(cartan, beta, v):
    """t_beta(v) = v - K(beta^vee, v) beta for a real root beta, with
    K(beta^vee, v) = sum_i c_i (A v)_i for c = coroot(beta)."""
    kv = sum(map(mul, coroot(cartan, beta), a_times(cartan, v)))
    return tuple(x - kv * b for x, b in zip(v, beta))


B_A11 = ExchangeMatrix.from_rows([[0, 2], [-2, 0]])
B_A22 = ExchangeMatrix.from_rows([[0, 1], [-4, 0]])
B_A2TILDE = ExchangeMatrix.from_rows([[0, 1, 1], [-1, 0, 1], [-1, -1, 0]])


def test_exchange_to_cartan_symmetric_case():
    cm = exchange_to_cartan(B_A11)
    assert cm.a == ((2, -2), (-2, 2))
    assert cm.d == (Fraction(1), Fraction(1))


def test_exchange_to_cartan_skew_symmetrizable():
    cm = exchange_to_cartan(B_A22)
    assert cm.a == ((2, -1), (-4, 2))
    # d solves d_i b_ij = -d_j b_ji under the gcd convention.
    assert cm.d == (Fraction(1), Fraction(1, 4))
    assert cm.d[0] * B_A22.b[0][1] == -cm.d[1] * B_A22.b[1][0]
    # d_i^{-1} integral with gcd 1
    invs = [1 / x for x in cm.d]
    assert all(x.denominator == 1 for x in invs)


def test_exchange_to_cartan_simply_laced():
    cm = exchange_to_cartan(B_A2TILDE)
    assert all(cm.a[i][j] == -1 for i in range(3) for j in range(3) if i != j)
    assert cm.d == (Fraction(1),) * 3


def test_rejects_non_skew_symmetrizable():
    with pytest.raises(NotSkewSymmetrizable):
        ExchangeMatrix.from_rows([[0, 1], [1, 0]])
    with pytest.raises(NotSkewSymmetrizable):
        ExchangeMatrix.from_rows([[0, 1, -1], [-1, 0, 1], [2, -1, 0]])


@pytest.mark.parametrize("rows", [[[0, 2.9], [-2, 0]], [[0, True], [-1, 0]], [[0, "2"], [-2, 0]]])
def test_exchange_from_rows_rejects_non_ints(rows):
    # int() would truncate 2.9 to A_1^(1) and read True as A_2.
    with pytest.raises(ValueError):
        ExchangeMatrix.from_rows(rows)


@pytest.mark.parametrize("rows", [[[2, -1.0], [-1, 2]], [[2, 0], [False, 2]], [[2.5, -1], [-1, 2]]])
def test_cartan_from_rows_rejects_non_ints(rows):
    with pytest.raises(ValueError):
        CartanMatrix.from_rows(rows)


def test_coxeter_order_respects_signs():
    assert B_A11.coxeter_order() == (0, 1)
    assert B_A2TILDE.coxeter_order() == (0, 1, 2)
    rev = ExchangeMatrix.from_rows([[0, -2], [2, 0]])
    assert rev.coxeter_order() == (1, 0)


def test_classify_affine_a11():
    info = classify(exchange_to_cartan(B_A11))
    assert info.kind == "affine"
    assert info.label == "A_1^(1)"
    assert info.delta == (1, 1)
    assert not info.is_a2k2


def test_classify_affine_a22():
    info = classify(exchange_to_cartan(B_A22))
    assert info.kind == "affine"
    assert info.label == "A_2^(2)"
    assert info.delta == (1, 2)
    assert info.is_a2k2


def test_classify_finite_and_indefinite():
    a2 = CartanMatrix.from_rows([[2, -1], [-1, 2]])
    assert classify(a2).kind == "finite"
    wild = CartanMatrix.from_rows([[2, -3], [-3, 2]])
    assert classify(wild).kind == "indefinite"


def test_classify_affine_a2_tilde():
    info = classify(exchange_to_cartan(B_A2TILDE))
    assert info.kind == "affine"
    assert info.label == "A_2^(1)"
    assert info.delta == (1, 1, 1)


def test_builtin_affine_table_is_valid():
    # Every builtin diagram must be affine: kernel vector delta positive, A delta = 0.
    for n in range(2, 10):
        for label, a in _affine_table(n):
            cm = CartanMatrix.from_rows(a)
            info = classify(cm)
            assert info.kind == "affine", label
            assert info.label == label
            assert not any(a_times(cm, info.delta))
            assert all(c > 0 for c in info.delta)


def test_delta_fixed_by_reflections():
    cm = exchange_to_cartan(B_A2TILDE)
    delta = classify(cm).delta
    for i in range(3):
        assert cm.reflect_root(i, delta) == delta


def test_reflection_examples_a11():
    cm = exchange_to_cartan(B_A11)
    # s_1(rho_1) = -rho_1 + 2 rho_2 (0-based index 0)
    assert reflect_weight(cm, 0, (1, 0)) == (-1, 2)
    # s_1(alpha_2) = alpha_2 + 2 alpha_1
    assert cm.reflect_root(0, (0, 1)) == (2, 1)


def test_root_reflection_negates_root():
    cm = exchange_to_cartan(B_A2TILDE)
    for beta in cm.real_roots_up_to_height(4):
        assert reflect_by_root(cm, beta, beta) == tuple(-c for c in beta)


def test_reflect_involution():
    cm = exchange_to_cartan(B_A22)
    vecs = [(1, 0), (0, 1), (3, -2), (Fraction(1, 2), Fraction(5, 3))]
    for v in vecs:
        for i in range(2):
            assert cm.reflect_root(i, cm.reflect_root(i, v)) == tuple(map(Fraction, v))
            assert reflect_weight(cm, i, reflect_weight(cm, i, v)) == tuple(map(Fraction, v))


def test_real_roots_a11_height3():
    cm = exchange_to_cartan(B_A11)
    roots = cm.real_roots_up_to_height(3)
    assert set(roots) == {(1, 0), (0, 1), (2, 1), (1, 2)}
    for beta in roots:
        assert k_form(cm, beta, beta) > 0


def test_real_roots_height1_is_simples():
    cm = exchange_to_cartan(B_A2TILDE)
    assert set(cm.real_roots_up_to_height(1)) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_real_roots_finite_a2():
    cm = CartanMatrix.from_rows([[2, -1], [-1, 2]])
    assert set(cm.real_roots_up_to_height(2)) == {(1, 0), (0, 1), (1, 1)}


def test_roots_closed_under_reflections():
    cm = exchange_to_cartan(B_A11)
    high = set(cm.real_roots_up_to_height(9))
    for beta in cm.real_roots_up_to_height(5):
        for i in range(2):
            img = cm.reflect_root(i, beta)
            if all(c >= 0 for c in img):
                assert img in high
            else:
                assert tuple(-c for c in img) in high


def test_k_form_conventions():
    cm = exchange_to_cartan(B_A22)
    for i in range(2):
        for j in range(2):
            ei = cm.simple_root(i)
            ej = cm.simple_root(j)
            # K(alpha_i^vee, alpha_j) = a_ij
            assert k_form(cm, tuple(Fraction(x) / cm.d[i] for x in ei), ej) == cm.a[i][j]
            # symmetry of d_i a_ij
            assert cm.d[i] * cm.a[i][j] == cm.d[j] * cm.a[j][i]


def test_real_roots_after_a_larger_cap_match_a_fresh_enumeration():
    # A warm matrix answers a smaller cap from its last, larger enumeration;
    # a fresh one enumerates at exactly that cap.
    g21 = ExchangeMatrix.from_rows([[0, 1, 0], [-1, 0, 1], [0, -3, 0]])
    a31 = ExchangeMatrix.from_rows([[0, 1, 0, 1], [-1, 0, 1, 0], [0, -1, 0, -1], [-1, 0, 1, 0]])
    for bmat in (B_A11, B_A22, B_A2TILDE, g21, a31):
        warm = exchange_to_cartan(bmat)
        warm.real_roots_up_to_height(12)
        for h in (-1, 0, 1, 2, 3, 5, 8, 11, 12, 7, 14, 13):
            fresh = exchange_to_cartan(bmat).real_roots_up_to_height(h)
            assert warm.real_roots_up_to_height(h) == fresh, (bmat.b, h)
            assert fresh == sorted(fresh, key=lambda v: (sum(v), v))


def test_real_roots_are_a_fresh_list_each_time():
    cm = exchange_to_cartan(B_A2TILDE)
    for h in (6, 3, 6):  # the full enumeration, then a prefix of it
        first = cm.real_roots_up_to_height(h)
        expect = list(first)
        first.append((9, 9, 9))
        first[0] = (0, 0, 0)
        assert cm.real_roots_up_to_height(h) == expect
        first.clear()
        assert cm.real_roots_up_to_height(h) == expect
    fresh = exchange_to_cartan(B_A2TILDE)
    assert cm.real_roots_up_to_height(6) == fresh.real_roots_up_to_height(6)


def test_coroot_normalization():
    cm = exchange_to_cartan(B_A22)
    for beta in cm.real_roots_up_to_height(6):
        # the coroot in alpha^vee coordinates; alpha_i^vee = d_i^{-1} alpha_i
        cv = cm.primitive_in_coroot_lattice(beta)
        bv = tuple(Fraction(c) / d for c, d in zip(cv, cm.d))
        assert k_form(cm, bv, beta) == 2


def _root_data_instances():
    """(Cartan matrix, height cap) for every acyclic orientation of rank 2
    to 6 at 2 |delta|, and the E_6^(1), E_7^(1) and E_8^(1) matrices at
    |delta|."""
    from test_orientation_sweep import acyclic_orientations

    for n in range(2, 7):
        for _, _, rows in acyclic_orientations(n):
            cm = exchange_to_cartan(ExchangeMatrix.from_rows([list(r) for r in rows]))
            yield cm, 2 * sum(classify(cm).delta)
    for n in (7, 8, 9):
        cm = CartanMatrix.from_rows(_affine_table(n)[-1][1])
        yield cm, sum(classify(cm).delta)


def test_primitive_coroot_lattice_vector_is_the_coroot():
    # A real coroot is a W-image of a simple coroot, so it is primitive in
    # Q^vee: the primitive vector on the ray through a real root is its
    # coroot, for the positive real roots and their negatives alike.
    checked = 0
    for cm, cap in _root_data_instances():
        for beta in cm.real_roots_up_to_height(cap):
            neg = tuple(-c for c in beta)
            assert cm.primitive_in_coroot_lattice(beta) == coroot(cm, beta), beta
            assert cm.primitive_in_coroot_lattice(neg) == coroot(cm, neg), neg
            checked += 1
    assert checked > 10_000


def test_reflection_by_imaginary_root_rejected():
    import pytest

    cm = exchange_to_cartan(B_A11)
    delta = classify(cm).delta
    with pytest.raises(NotRealRoot):
        reflect_by_root(cm, delta, (1, 0))


def test_real_roots_zero_cap_empty():
    cm = exchange_to_cartan(B_A11)
    assert cm.real_roots_up_to_height(0) == []


# classify as it was before the affine test moved to the kernel of A: n
# proper principal minors, on the Fraction matrix diag(d)A.  Kept here
# verbatim (with cm.symmetrized() inlined) as the oracle of the new rule.
def _principal_submatrix(s, keep):
    return [[s[i][j] for j in keep] for i in keep]


def _is_positive_definite(sym) -> bool:
    n = len(sym)
    for k in range(1, n + 1):
        if det([row[:k] for row in sym[:k]]) <= 0:
            return False
    return True


def reference_classify(cm: CartanMatrix) -> TypeInfo:
    """Finite / Affine / Indefinite trichotomy via exact principal minors.

    Affine means positive semidefinite with all proper principal minors
    positive; delta is then the primitive integer kernel generator.
    """
    sym = [[cm.d[i] * cm.a[i][j] for j in range(cm.n)] for i in range(cm.n)]
    n = cm.n
    if _is_positive_definite(sym):
        return TypeInfo(kind="finite")
    proper_pd = all(
        _is_positive_definite(_principal_submatrix(sym, [i for i in range(n) if i != k]))
        for k in range(n)
    )
    if not (proper_pd and det(sym) == 0):
        return TypeInfo(kind="indefinite")
    _, ker = integer_kernel([list(row) for row in cm.a])
    assert len(ker) == 1, "affine Cartan matrix must have 1-dimensional kernel"
    delta = primitive_vector(ker[0])
    if any(c < 0 for c in delta):
        delta = tuple(-c for c in delta)
    assert all(c > 0 for c in delta)
    label, aff_index = _match_affine_label(cm, delta)
    is_a2k2 = label.startswith("A_") and label.endswith("^(2)") and int(label[2:-4]) % 2 == 0
    return TypeInfo(kind="affine", label=label, delta=delta, aff_index=aff_index, is_a2k2=is_a2k2)


# The symmetrizable pairs (a_ij, a_ji) with entries in {0, -1, ..., -4}.
EDGE_PAIRS = [(0, 0)] + [(-x, -y) for x in range(1, 5) for y in range(1, 5)]


def _symmetrizable(rows):
    try:
        return CartanMatrix.from_rows(rows)
    except ValueError:
        return None


def _gcms():
    """Symmetrizable GCMs, each once: every one of rank 2 and 3 with
    off-diagonal entries in {0, ..., -4}; each affine diagram of rank 4 to
    9 and each of its one-node deletions; each matrix one edge pair (in
    EDGE_PAIRS) away from an affine diagram of rank 4 to 6; and direct sums
    of two rank-2 matrices."""
    seen = set()
    for rows in _gcm_candidates():
        key = tuple(map(tuple, rows))
        if key not in seen:
            seen.add(key)
            cm = _symmetrizable(rows)
            if cm is not None:
                yield cm


def _gcm_candidates():
    for n in (2, 3):
        slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for pairs in itertools.product(EDGE_PAIRS, repeat=len(slots)):
            rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
            for (i, j), (x, y) in zip(slots, pairs):
                rows[i][j], rows[j][i] = x, y
            yield rows
    for n in range(4, 10):
        for _, a in _affine_table(n):
            yield [list(r) for r in a]
            for k in range(n):
                yield [[a[i][j] for j in range(n) if j != k] for i in range(n) if i != k]
            if n > 6:
                continue
            for i, j in itertools.combinations(range(n), 2):
                for x, y in EDGE_PAIRS:
                    rows = [list(r) for r in a]
                    rows[i][j], rows[j][i] = x, y
                    yield rows
    for (x, y), (u, v) in itertools.product(EDGE_PAIRS[1:], repeat=2):
        yield [[2, x, 0, 0], [y, 2, 0, 0], [0, 0, 2, u], [0, 0, v, 2]]


def test_classify_matches_the_principal_minor_rule():
    kinds = collections.Counter()
    for cm in _gcms():
        info = classify(cm)
        assert info == reference_classify(cm), cm.a
        kinds[info.kind] += 1
    assert min(kinds[kind] for kind in ("finite", "affine", "indefinite")) > 50, kinds
