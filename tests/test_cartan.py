from fractions import Fraction
from operator import mul

import pytest

from affscat.cartan import (
    CartanMatrix,
    ExchangeMatrix,
    NotSkewSymmetrizable,
    _affine_table,
    classify,
    exchange_to_cartan,
)



# Used by the tests alone, so kept here (with self as cartan).
def reflect_by_root(cartan, beta, v):
    """t_beta(v) = v - K(beta^vee, v) beta for a real root beta, with
    K(beta^vee, v) = sum_i c_i (A v)_i for c = coroot(beta)."""
    kv = sum(map(mul, cartan.coroot(beta), cartan.a_times(v)))
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
            assert not any(cm.a_times(info.delta))
            assert all(c > 0 for c in info.delta)


def test_delta_fixed_by_reflections():
    cm = exchange_to_cartan(B_A2TILDE)
    delta = classify(cm).delta
    for i in range(3):
        assert cm.reflect_root(i, delta) == delta


def test_reflection_examples_a11():
    cm = exchange_to_cartan(B_A11)
    # s_1(rho_1) = -rho_1 + 2 rho_2 (0-based index 0)
    assert cm.reflect_weight(0, (1, 0)) == (-1, 2)
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
            assert cm.reflect_weight(i, cm.reflect_weight(i, v)) == tuple(map(Fraction, v))


def test_real_roots_a11_height3():
    cm = exchange_to_cartan(B_A11)
    roots = cm.real_roots_up_to_height(3)
    assert set(roots) == {(1, 0), (0, 1), (2, 1), (1, 2)}
    for beta in roots:
        assert cm.k_form(beta, beta) > 0


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
            assert cm.k_form(tuple(Fraction(x) / cm.d[i] for x in ei), ej) == cm.a[i][j]
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
        # coroot gives alpha^vee coordinates; alpha_i^vee = d_i^{-1} alpha_i
        bv = tuple(Fraction(c) / d for c, d in zip(cm.coroot(beta), cm.d))
        assert cm.k_form(bv, beta) == 2


def test_reflection_by_imaginary_root_rejected():
    import pytest

    from affscat.cartan import NotRealRoot

    cm = exchange_to_cartan(B_A11)
    delta = classify(cm).delta
    with pytest.raises(NotRealRoot):
        reflect_by_root(cm, delta, (1, 0))


def test_real_roots_zero_cap_empty():
    cm = exchange_to_cartan(B_A11)
    assert cm.real_roots_up_to_height(0) == []
