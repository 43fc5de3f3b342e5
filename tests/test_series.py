from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affscat.series import (
    CrossingData,
    MonomialExpr,
    NonIntegerExponent,
    TruncatedSeries,
    f_inf_series,
    _series_power,
    path_product,
    series_root,
    wall_cross,
)


# Series operations that only the tests use.


class MixedNormals(ValueError):
    pass


# TruncatedSeries.mul with its _check, and geometric_inverse_square, as they
# were before f_inf_series took its closed form (with self as a series):
# the oracles of _series_power and of f_inf_series.
def _check(self, other: "TruncatedSeries"):
    if self.normal != other.normal or self.k != other.k:
        raise MixedNormals("series must share normal and truncation")


def series_mul(self, other: "TruncatedSeries") -> "TruncatedSeries":
    _check(self, other)
    out = [0] * (self.k + 1)
    for i, a in enumerate(self.coeffs):
        if a == 0:
            continue
        for j in range(min(self.k - i, other.k) + 1):
            b = other.coeffs[j]
            if b != 0:
                out[i + j] += a * b
    return TruncatedSeries.make(self.normal, self.k, out)


def geometric_inverse_square(normal, k) -> TruncatedSeries:
    """(1 - q)^{-2} = sum (m+1) q^m."""
    return TruncatedSeries.make(normal, k, [m + 1 for m in range(k + 1)])


def reference_f_inf_series(delta, is_a2k2: bool, ydeg: int) -> TruncatedSeries:
    """Scattering term on the imaginary wall, truncated at total yhat-degree ydeg.

    (1 - yhat^delta)^{-2}, with an extra factor (1 + yhat^delta) in type
    A_{2k}^(2).
    """
    k = ydeg // sum(delta)
    base = geometric_inverse_square(delta, k)
    if is_a2k2:
        base = series_mul(base, TruncatedSeries.one_plus_q(delta, k))
    return base


def one(normal, k) -> TruncatedSeries:
    return TruncatedSeries.make(normal, k, [1])


def int_pow(f, e: int) -> TruncatedSeries:
    """f^e by Miller's recurrence; requires constant term 1."""
    return TruncatedSeries(f.normal, f.k, _series_power(f.coeffs, e))


def add(expr: MonomialExpr, other: MonomialExpr) -> MonomialExpr:
    d = dict(expr.terms)
    for key, c in other.terms:
        d[key] = d.get(key, 0) + c
    return MonomialExpr.from_dict(expr.n, expr.k, d)


def mul(expr: MonomialExpr, other: MonomialExpr) -> MonomialExpr:
    d: dict = {}
    for (l1, p1), c1 in expr.terms:
        for (l2, p2), c2 in other.terms:
            phi = tuple(a + b for a, b in zip(p1, p2))
            if sum(phi) > expr.k:
                continue
            lam = tuple(a + b for a, b in zip(l1, l2))
            key = (lam, phi)
            d[key] = d.get(key, 0) + c1 * c2
    return MonomialExpr.from_dict(expr.n, expr.k, d)


def x_monomial(n, k, lam) -> MonomialExpr:
    return MonomialExpr.from_dict(n, k, {(tuple(lam), (0,) * n): 1})


def yhat_monomial(n, k, phi) -> MonomialExpr:
    return MonomialExpr.from_dict(n, k, {((0,) * n, tuple(phi)): 1})


B_KRONECKER = ((0, 2), (-2, 0))
B_A2 = ((0, 1), (-1, 0))


def test_square_of_one_plus_q():
    f = TruncatedSeries.one_plus_q((1, 0), 4)
    assert series_mul(f, f).coeffs == (1, 2, 1, 0, 0)


def test_geometric_inverse():
    f = TruncatedSeries.make((1, 0), 3, [1, -1])
    assert int_pow(f, -1).coeffs == (1, 1, 1, 1)


def test_inverse_square_matches_repeated_multiplication():
    f = TruncatedSeries.make((1, 1), 4, [1, -1])
    by_power = int_pow(f, -2)
    assert by_power.coeffs == (1, 2, 3, 4, 5)
    assert by_power == geometric_inverse_square((1, 1), 4)
    assert by_power == f_inf_series((1, 1), False, 8)


def reference_inverse(f):
    inv = [1] + [0] * f.k
    for m in range(1, f.k + 1):
        inv[m] = -sum(f.coeffs[i] * inv[m - i] for i in range(1, m + 1))
    return TruncatedSeries.make(f.normal, f.k, inv)


def reference_power(f, e):
    """f^e by |e| multiplications (of f^-1 when e < 0)."""
    base = f if e >= 0 else reference_inverse(f)
    out = one(f.normal, f.k)
    for _ in range(abs(e)):
        out = series_mul(out, base)
    return out


MILLER_CASES = [
    ((1, 0), 12, [1, 1]),
    ((1, 1), 12, [m + 1 for m in range(13)]),  # (1 - q)^-2
    ((2, 1), 9, [1, 1, 3]),
    ((1, 2), 7, [1, Fraction(1, 2), 0, Fraction(-2, 3)]),
    ((1, 0), 12, [1, 0, 0, 2]),  # interior zeros skipped by the support-only recurrence
    ((0, 1), 12, [1, 0, Fraction(1, 3)]),
]


@pytest.mark.parametrize("normal, k, coeffs", MILLER_CASES)
def test_miller_power_matches_repeated_multiplication(normal, k, coeffs):
    f = TruncatedSeries.make(normal, k, coeffs)
    unit = one(normal, k)
    for e in range(-12, 13):
        by_mul = reference_power(f, abs(e))
        if e >= 0:
            assert int_pow(f, e) == by_mul
        else:
            assert series_mul(int_pow(f, e), by_mul) == unit


@pytest.mark.parametrize("normal, k, coeffs", MILLER_CASES)
def test_series_root_inverts_the_power(normal, k, coeffs):
    g = TruncatedSeries.make(normal, k, coeffs).coeffs
    for e in [*range(-12, 0), *range(1, 13)]:
        f = series_root(g, e)
        assert _series_power(f, e) == g
        assert f == _series_power(g, Fraction(1, e))


def test_series_root_stays_in_int_when_exact():
    for e in (-7, -2, 1, 3, 12):
        for f in ((1, 1, 0, 0, 0, 0), (1, 2, 3, 4, 5, 6), (1, -1, 0, 2, 0, -5)):
            root = series_root(_series_power(f, e), e)
            assert root == f and all(type(c) is int for c in root)
    assert series_root((1, 1, 0, 0), 2) == (1, Fraction(1, 2), Fraction(-1, 8), Fraction(1, 16))


def test_series_root_rejects_bad_input():
    for coeffs, e in (((2, 1), 2), ((0, 1), -1), ((1, 1), 0)):
        with pytest.raises(ValueError):
            series_root(coeffs, e)


def test_ray_coeffs_reads_the_multiples_of_beta():
    terms = {
        ((1, 0), (0, 0)): 1,
        ((1, 0), (1, 2)): 3,
        ((1, 0), (2, 4)): -2,
        ((1, 0), (1, 1)): 5,
        ((0, 1), (1, 2)): 7,
    }
    expr = MonomialExpr.from_dict(2, 6, terms)
    assert expr.ray_coeffs((1, 0), (1, 2)) == (1, 3, -2)
    assert expr.ray_coeffs((1, 0), (1, 1)) == (1, 5, 0, 0)
    assert expr.ray_coeffs((0, 1), (1, 2)) == (0, 7, 0)
    assert expr.ray_coeffs((1, 1), (1, 0)) == (0,) * 7


def test_int_pow_needs_constant_term_one():
    for coeffs in ([2, 1], [0, 1], [-1, 1]):
        f = TruncatedSeries.make((1, 0), 4, coeffs)
        for e in (-2, 0, 3):
            with pytest.raises(ValueError):
                int_pow(f, e)


def test_mixed_normals_rejected():
    a = one((1, 0), 3)
    b = one((0, 1), 3)
    with pytest.raises(MixedNormals):
        series_mul(a, b)


def test_f_inf_closed_form_matches_the_product():
    # The coefficients m + 1 of (1 - q)^-2, and 2m + 1 of (1 + q)(1 - q)^-2
    # in type A_2k^(2), against the product they replace and against
    # Miller's recurrence, for every q-degree below 40 on every delta of
    # the affine diagrams of rank 2 to 9.
    from affscat.cartan import CartanMatrix, _affine_table, classify

    deltas = {
        classify(CartanMatrix.from_rows(a)).delta for n in range(2, 10) for _, a in _affine_table(n)
    }
    for delta in deltas:
        ht = sum(delta)
        for a2k2 in (False, True):
            for ydeg in range(40 * ht):
                got = f_inf_series(delta, a2k2, ydeg)
                assert got == reference_f_inf_series(delta, a2k2, ydeg), (delta, a2k2, ydeg)
        qdeg = 39
        inverse_square = _series_power((1, -1) + (0,) * (qdeg - 1), -2)
        assert f_inf_series(delta, False, qdeg * ht).coeffs == inverse_square
        times = series_mul(
            TruncatedSeries.make(delta, qdeg, inverse_square), TruncatedSeries.one_plus_q(delta, qdeg)
        )
        assert f_inf_series(delta, True, qdeg * ht + ht - 1) == times


def test_f_inf_branches():
    assert f_inf_series((1, 1), False, 6).coeffs == (1, 2, 3, 4)
    assert f_inf_series((1, 1), True, 6).coeffs == (1, 3, 5, 7)
    assert f_inf_series((1, 2), False, 9).coeffs == (1, 2, 3, 4)
    assert f_inf_series((1, 1), True, 0).coeffs == (1,)


coeff = st.integers(min_value=-3, max_value=3).map(Fraction)


def small_expr(n=2, k=3):
    lam = st.tuples(*[st.integers(-2, 2)] * n)
    phi = st.tuples(*[st.integers(0, 2)] * n)
    return st.dictionaries(st.tuples(lam, phi), coeff, max_size=4).map(
        lambda d: MonomialExpr.from_dict(n, k, d)
    )


@given(small_expr(), small_expr(), small_expr())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert mul(a, mul(b, c)) == mul(mul(a, b), c)
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert add(a, b) == add(b, a)


def test_truncation_drops_high_terms():
    e = MonomialExpr.from_dict(2, 2, {((0, 0), (2, 1)): 1, ((0, 0), (1, 1)): 1})
    assert len(e.terms) == 1


def cross_initial(expr, i, sign, k, b=B_KRONECKER):
    n = len(b)
    beta = tuple(1 if j == i else 0 for j in range(n))
    data = CrossingData(
        f=TruncatedSeries.one_plus_q(beta, k), coroot=beta, b_rows=b
    )
    return wall_cross(expr, data, sign, k)


def test_trivial_wall_is_identity():
    k = 4
    expr = x_monomial(2, k, (1, -2))
    data = CrossingData(f=one((1, 0), k), coroot=(1, 0), b_rows=B_KRONECKER)
    assert wall_cross(expr, data, 1, k) == expr


def test_orthogonal_monomial_unchanged():
    # <rho_2, alpha_1^vee> = 0, so x^{rho_2} passes through the alpha_1 wall.
    k = 4
    expr = x_monomial(2, k, (0, 1))
    assert cross_initial(expr, 0, 1, k) == expr


def test_crossing_example_spec():
    # B = [[0,2],[-2,0]], wall (alpha_1-perp, 1 + yhat_1), m = yhat^{alpha_2},
    # crossing against alpha_1^vee: picks up (1 + yhat^{alpha_1})^2.
    k = 4
    expr = yhat_monomial(2, k, (0, 1))
    got = cross_initial(expr, 0, 1, k)
    d = got.as_dict()
    assert d[((0, 0), (0, 1))] == 1
    assert d[((0, 0), (1, 1))] == 2
    assert d[((0, 0), (2, 1))] == 1


def test_cross_and_recross_is_identity():
    k = 5
    for lam, phi in [((1, 0), (0, 0)), ((0, -1), (1, 1)), ((2, -1), (0, 1))]:
        expr = MonomialExpr.from_dict(2, k, {(lam, phi): 1})
        once = cross_initial(expr, 0, 1, k)
        back = cross_initial(once, 0, -1, k)
        assert back == expr


def test_wall_cross_multiplicative():
    k = 4
    a = x_monomial(2, k, (1, 0))
    b = yhat_monomial(2, k, (1, 1))
    lhs = cross_initial(mul(a, b), 0, 1, k)
    rhs = mul(cross_initial(a, 0, 1, k), cross_initial(b, 0, 1, k))
    assert lhs == rhs


def pentagon_walls(k):
    """Counterclockwise loop around the origin in the finite A_2 scattering
    diagram: the two initial lines are crossed twice, the outgoing middle ray
    (at -omega(. , alpha_1+alpha_2)) once."""
    def data(beta):
        return CrossingData(
            f=TruncatedSeries.one_plus_q(beta, k // max(1, sum(beta))),
            coroot=beta,
            b_rows=B_A2,
        )

    return [
        (data((1, 0)), 1),
        (data((1, 1)), 1),
        (data((0, 1)), 1),
        (data((1, 0)), -1),
        (data((0, 1)), -1),
    ]


def test_pentagon_loop_identity():
    k = 4
    walls = pentagon_walls(k)
    for gen in [
        x_monomial(2, k, (1, 0)),
        x_monomial(2, k, (0, 1)),
        yhat_monomial(2, k, (1, 0)),
        yhat_monomial(2, k, (0, 1)),
    ]:
        assert path_product(gen, walls, k) == gen


def test_pentagon_fails_without_middle_wall():
    k = 4
    walls = [w for w in pentagon_walls(k) if sum(w[0].f.normal) == 1]
    bad = 0
    for lam in [(1, 0), (0, 1)]:
        gen = x_monomial(2, k, lam)
        if path_product(gen, walls, k) != gen:
            bad += 1
    assert bad > 0


def test_height_filter_soundness():
    # Walls with normal height > k act trivially mod m^{k+1}.
    k = 2
    beta = (2, 1)
    data = CrossingData(f=TruncatedSeries.one_plus_q(beta, 1), coroot=(1, 1), b_rows=B_KRONECKER)
    for lam in [(1, 0), (0, 1), (2, -1)]:
        expr = x_monomial(2, k, lam)
        assert wall_cross(expr, data, 1, k) == expr


def test_non_integer_exponent_raised():
    k = 3
    data = CrossingData(f=TruncatedSeries.one_plus_q((1, 0), k), coroot=(1, 0), b_rows=B_KRONECKER)
    half = x_monomial(2, k, (Fraction(1, 2), 0))
    with pytest.raises(NonIntegerExponent):
        wall_cross(half, data, 1, k)
    whole = x_monomial(2, k, (Fraction(2, 1), 0))
    assert wall_cross(whole, data, 1, k) == cross_initial(
        x_monomial(2, k, (2, 0)), 0, 1, k
    )


def test_non_integer_omega_raised():
    # omega(alpha_1^vee, .) = (0, 1/2): yhat^(0,1) has exponent 1/2, yhat^(0,2) exponent 1.
    k = 3
    b = ((0, Fraction(1, 2)), (Fraction(-1, 2), 0))
    data = CrossingData(f=TruncatedSeries.one_plus_q((1, 0), k), coroot=(1, 0), b_rows=b)
    with pytest.raises(NonIntegerExponent):
        wall_cross(yhat_monomial(2, k, (0, 1)), data, 1, k)
    got = wall_cross(yhat_monomial(2, k, (0, 2)), data, 1, k)
    assert got == MonomialExpr.from_dict(2, k, {((0, 0), (0, 2)): 1, ((0, 0), (1, 2)): 1})


def reference_wall_cross(expr, data, sign, k):
    """The per-term formula: exponent <lambda, s beta^vee> + omega(s beta^vee,
    phi) summed over all i, j, and f^exponent by repeated multiplication."""
    n = expr.n
    beta = data.f.normal
    ht = sum(beta)
    f = TruncatedSeries.make(beta, k // ht, data.f.coeffs)
    out = {}
    for (lam, phi), c in expr.terms:
        e_x = sum(l * bv for l, bv in zip(lam, data.coroot))
        e_y = sum(
            data.coroot[i] * data.b_rows[i][j] * phi[j] for i in range(n) for j in range(n)
        )
        for m, a in enumerate(reference_power(f, sign * (e_x + e_y)).coeffs):
            if m * ht <= k - sum(phi):
                key = (lam, tuple(p + m * b for p, b in zip(phi, beta)))
                out[key] = out.get(key, 0) + c * a
    return MonomialExpr.from_dict(n, k, out)


@st.composite
def crossing_data(draw, n, k):
    beta = draw(st.tuples(*[st.integers(0, 2)] * n).filter(any))
    qdeg = k // sum(beta)
    coeff = st.builds(Fraction, st.integers(-2, 2), st.sampled_from([1, 2]))
    tail = draw(st.lists(coeff, max_size=qdeg))
    f = TruncatedSeries.make(beta, qdeg, [1, *tail])
    coroot = draw(st.tuples(*[st.integers(-2, 2)] * n))
    b_rows = draw(st.tuples(*[st.tuples(*[st.integers(-2, 2)] * n)] * n))
    return CrossingData(f=f, coroot=coroot, b_rows=b_rows)


@st.composite
def crossings(draw, n):
    k = draw(st.integers(1, 5))
    data = draw(crossing_data(n, k))
    expr = draw(small_expr(n, k))
    sign = draw(st.sampled_from([1, -1]))
    return expr, data, sign, k


@pytest.mark.parametrize("n", [2, 3])
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_wall_cross_matches_reference(n, data):
    expr, crossing, sign, k = data.draw(crossings(n))
    assert wall_cross(expr, crossing, sign, k) == reference_wall_cross(expr, crossing, sign, k)


def reference_path_product(expr, crossings, k):
    for data, sign in crossings:
        expr = reference_wall_cross(expr, data, sign, k)
    return expr


@st.composite
def paths(draw, n):
    """An expression over at least two lambdas with Fraction coefficients, and
    1-5 crossings at one truncation."""
    k = draw(st.integers(1, 5))
    lam = st.tuples(*[st.integers(-2, 2)] * n)
    phi = st.tuples(*[st.integers(0, 2)] * n)
    frac = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.sampled_from([1, 2, 3]))
    terms = draw(
        st.dictionaries(st.tuples(lam, phi), frac, min_size=2, max_size=6).filter(
            lambda d: len({key[0] for key in d}) >= 2
        )
    )
    walls = draw(
        st.lists(st.tuples(crossing_data(n, k), st.sampled_from([1, -1])), min_size=1, max_size=5)
    )
    return MonomialExpr.from_dict(n, k, terms), walls, k


@pytest.mark.parametrize("n", [2, 3])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_path_product_matches_reference_fold(n, data):
    expr, walls, k = data.draw(paths(n))
    assert path_product(expr, walls, k) == reference_path_product(expr, walls, k)


def test_yhat_exponents_and_normals_must_be_nonnegative_integers():
    for phi in [(-1, 2), (Fraction(1, 2), 0)]:
        with pytest.raises(ValueError):
            yhat_monomial(2, 4, phi)
    assert yhat_monomial(2, 4, (Fraction(2), 0)) == yhat_monomial(2, 4, (2, 0))
    data = CrossingData(f=TruncatedSeries.one_plus_q((2, -1), 4), coroot=(2, -1), b_rows=B_KRONECKER)
    with pytest.raises(ValueError):
        wall_cross(x_monomial(2, 4, (1, 0)), data, 1, 4)


def test_wall_cross_at_another_truncation():
    expr = MonomialExpr.from_dict(2, 5, {((1, 0), (0, 1)): 2, ((0, 1), (2, 2)): 3, ((1, 1), (0, 0)): 1})
    data = CrossingData(f=TruncatedSeries.one_plus_q((1, 1), 5), coroot=(1, 1), b_rows=B_KRONECKER)
    for k in (2, 3, 7):
        assert wall_cross(expr, data, -1, k) == reference_wall_cross(expr, data, -1, k)


def test_prepared_kernel_matches_fresh_data():
    # One CrossingData crossed at both signs and two truncations, in an order
    # that alternates both, gives what fresh data gives each time; its kernel
    # is prepared once per (sign, k).
    expr = MonomialExpr.from_dict(
        2, 7, {((1, 0), (0, 1)): 2, ((0, 1), (2, 2)): 3, ((1, -1), (0, 0)): 1, ((2, 1), (1, 0)): -1}
    )

    def fresh():
        f = TruncatedSeries.make((1, 2), 3, [1, 2, 0, -1])
        return CrossingData(f=f, coroot=(1, 2), b_rows=B_KRONECKER)

    shared = fresh()
    for k, sign in [(5, 1), (7, -1), (7, 1), (5, -1)] * 2:
        got = wall_cross(expr, shared, sign, k)
        assert got == wall_cross(expr, fresh(), sign, k) == reference_wall_cross(expr, fresh(), sign, k)
    assert shared.kernel(1, 5) is shared.kernel(1, 5)
    assert len(shared._kernels) == 4
