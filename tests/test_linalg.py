import random
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from affscat.linalg import (
    echelon,
    integer_kernel,
    integral_multiple,
    nonzero_minor,
    primitive_vector,
    rank,
    rref,
    vdot,
    wedge_key,
)

F = Fraction


# The determinant on echelon, which no module of the package calls: the
# Cartan classification reads its minors off echelon directly.  Kept here
# with its tests, and imported by tests/test_cartan.py.
def det(m: list[list]) -> Fraction:
    """Determinant of a square matrix: sign * d from echelon, divided by the
    factors that cleared the rows of denominators."""
    _, pivots, d, sign = echelon(m)
    if len(pivots) < len(m):
        return Fraction(0)
    return Fraction(sign * d, prod(lcm(*(x.denominator for x in row)) for row in m))


def test_integral_multiple():
    assert integral_multiple((0, 0, 0)) == (0, 0, 0)
    assert integral_multiple((F(0), F(0))) == (0, 0)
    assert integral_multiple((2, -4, 6)) == (2, -4, 6)
    assert integral_multiple((F(-5, 2), 3, F(1, 3), F(4, 2))) == (-15, 18, 2, 12)
    assert integral_multiple((F(1, 2), F(-1, 2), F(3, 4))) == (2, -2, 3)
    assert all(type(a) is int for a in integral_multiple((F(1, 2), F(3))))


def test_primitive_vector():
    assert primitive_vector((2, -4, 6)) == (1, -2, 3)
    assert primitive_vector((F(-5, 2), 3, F(1, 3), F(4, 2))) == (-15, 18, 2, 12)
    assert primitive_vector((F(2, 3), F(4, 3))) == (1, 2)
    with pytest.raises(ValueError):
        primitive_vector((F(0), 0))


def test_vdot():
    assert vdot((1, -2, 3), (4, 5, F(1, 3))) == -5
    assert vdot((), ()) == 0
    for u, v in (((1, 2), (1, 2, 3)), ((1, 2, 3), (1,)), ((), (0,))):
        with pytest.raises(ValueError):
            vdot(u, v)


# integral_multiple and primitive_vector as they were before the int fast
# paths, kept verbatim as the reference.
def _reference_integral_multiple(v):
    m = 1
    for a in v:
        m = lcm(m, a.denominator)
    return tuple(a.numerator * (m // a.denominator) for a in v)


def _reference_primitive_vector(v):
    ints = _reference_integral_multiple(v)
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(a // g for a in ints)


_entries = st.one_of(
    st.integers(-50, 50),
    st.booleans(),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
)
_vectors = st.one_of(
    st.lists(st.integers(-50, 50), max_size=6),
    st.lists(st.booleans(), max_size=6),
    st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=12), max_size=6),
    st.lists(_entries, max_size=6),
    st.lists(st.sampled_from([0, F(0), False]), max_size=6),
)


@given(v=_vectors, as_tuple=st.booleans())
def test_integral_multiple_and_primitive_vector_match_reference(v, as_tuple):
    # int, bool, Fraction, mixed and zero vectors, as tuples and as lists.
    if as_tuple:
        v = tuple(v)
    got = integral_multiple(v)
    assert got == _reference_integral_multiple(v)
    assert type(got) is tuple and all(type(a) is int for a in got)
    try:
        expected = _reference_primitive_vector(v)
    except ValueError:
        with pytest.raises(ValueError):
            primitive_vector(v)
        return
    got = primitive_vector(v)
    assert got == expected
    assert type(got) is tuple and all(type(a) is int for a in got)


def _random_pairs(seed, count, dim, entries):
    rng = random.Random(seed)
    return [
        tuple(tuple(rng.choice(entries) for _ in range(dim)) for _ in range(2))
        for _ in range(count)
    ]


def test_wedge_key_names_the_plane():
    # small entries in dimension 3 make many pairs share a plane
    pairs = [p for p in _random_pairs(0, 120, 3, (-1, 0, 1, 2)) if rank(list(p)) == 2]
    shared = 0
    for (u, v), (x, y) in combinations(pairs, 2):
        same = rank([u, v, x, y]) == 2
        shared += same
        assert (wedge_key(u, v) == wedge_key(x, y)) == same, (u, v, x, y)
    assert shared > 50


def test_wedge_key_is_none_exactly_for_parallel_pairs():
    for dim in (2, 3, 5):
        for u, v in _random_pairs(dim, 200, dim, (-2, -1, 0, 0, 1, 2)):
            assert (wedge_key(u, v) is None) == (rank([u, v]) < 2), (u, v)
    assert wedge_key((2, -4, 6), (-1, 2, -3)) is None
    assert wedge_key((0, 0, 0), (1, 2, 3)) is None


def test_wedge_key_is_primitive_and_sign_normalized():
    assert wedge_key((1, 0, 0), (0, 1, 0)) == (1, 0, 0)
    assert wedge_key((0, 1, 0), (1, 0, 0)) == (1, 0, 0)
    assert wedge_key((2, 0, 2), (0, 4, 0)) == (1, 0, -1)
    for u, v in _random_pairs(1, 200, 4, range(-5, 6)):
        key = wedge_key(u, v)
        if key is not None:
            assert all(type(a) is int for a in key)
            assert next(a for a in key if a) > 0
            assert primitive_vector(key) == key


def test_wedge_key_is_invariant_under_change_of_basis():
    rng = random.Random(7)
    for dim in (2, 3, 4, 5):
        for u, v in _random_pairs(10 + dim, 100, dim, range(-4, 5)):
            key = wedge_key(u, v)
            if key is None:
                continue
            minus_u, minus_v = tuple(-a for a in u), tuple(-a for a in v)
            assert wedge_key(minus_u, v) == wedge_key(u, minus_v) == wedge_key(v, u) == key
            a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
            if a * d == b * c:
                continue
            x = tuple(a * s + b * t for s, t in zip(u, v))
            y = tuple(c * s + d * t for s, t in zip(u, v))
            assert wedge_key(x, y) == key, (u, v, (a, b, c, d))


def test_nonzero_minor_is_the_first_nonzero_minor():
    assert nonzero_minor((1, 0, 0), (0, 1, 0)) == (0, 1)
    assert nonzero_minor((0, 1, 2), (0, 2, 5)) == (1, 2)
    assert nonzero_minor((1, 2, 0, 1), (2, 4, 0, 3)) == (0, 3)
    for dim in (2, 3, 5):
        for u, v in _random_pairs(20 + dim, 200, dim, (-2, -1, 0, 0, 1, 2)):
            nonzero = [
                (i, j)
                for i in range(dim)
                for j in range(i + 1, dim)
                if u[i] * v[j] - u[j] * v[i] != 0
            ]
            if nonzero:
                assert nonzero_minor(u, v) == nonzero[0], (u, v)


def test_nonzero_minor_rejects_parallel_vectors():
    for u, v in (((2, -4, 6), (-1, 2, -3)), ((0, 0, 0), (1, 2, 3)), ((0, 0), (0, 0))):
        with pytest.raises(ValueError):
            nonzero_minor(u, v)
    parallel = [p for p in _random_pairs(3, 200, 4, (-1, 0, 0, 1)) if rank(list(p)) < 2]
    assert len(parallel) > 5
    for u, v in parallel:
        with pytest.raises(ValueError):
            nonzero_minor(u, v)


# The Fraction eliminations that echelon replaced, kept verbatim as the
# reference: rref divides each pivot row by its pivot, the kernel basis and
# the linear solve read that rref, and det eliminates on its own.  The
# kernel basis and the solve are also the Fraction references of the cone,
# Coxeter, scattering, shard and tube tests.
def _reference_rref(rows: list[list]) -> list[list[Fraction]]:
    """Reduced row echelon form; returns only the nonzero rows."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return []
    ncols = len(m[0])
    pivot_row = 0
    for col in range(ncols):
        sel = next((r for r in range(pivot_row, len(m)) if m[r][col] != 0), None)
        if sel is None:
            continue
        m[pivot_row], m[sel] = m[sel], m[pivot_row]
        pv = m[pivot_row][col]
        m[pivot_row] = [x / pv for x in m[pivot_row]]
        for r in range(len(m)):
            if r != pivot_row and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[pivot_row])]
        pivot_row += 1
        if pivot_row == len(m):
            break
    return [row for row in m if any(x != 0 for x in row)]


def _reference_kernel_basis(rows: list[list]) -> list:
    """Basis of the right kernel {v : M v = 0}."""
    if not rows:
        return []
    ncols = len(rows[0])
    red = _reference_rref(rows)
    pivots = []
    for row in red:
        pivots.append(next(i for i, x in enumerate(row) if x != 0))
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for j in free:
        v = [Fraction(0)] * ncols
        v[j] = Fraction(1)
        for row, p in zip(red, pivots):
            v[p] = -row[j]
        basis.append(tuple(v))
    return basis


def _reference_solve_linear(rows: list[list], rhs: list):
    """One solution of M x = b, or None if inconsistent."""
    if not rows:
        return None
    ncols = len(rows[0])
    aug = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs, strict=True)]
    red = _reference_rref(aug)
    # In rref each pivot column is cleared elsewhere, so free variables = 0
    # and pivot variables read off the last column directly.
    sol = [Fraction(0)] * ncols
    for row in red:
        p = next(i for i, x in enumerate(row) if x != 0)
        if p == ncols:
            return None
        sol[p] = row[ncols]
    return tuple(sol)


def _reference_det(m: list[list]) -> Fraction:
    """Determinant by Gaussian elimination over Fraction (exact)."""
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    result = Fraction(1)
    for col in range(n):
        sel = next((r for r in range(col, n) if a[r][col] != 0), None)
        if sel is None:
            return Fraction(0)
        if sel != col:
            a[col], a[sel] = a[sel], a[col]
            result = -result
        result *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                factor = a[r][col] * inv
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return result


ENTRIES = (0, 0, 0, 1, -1, 2, -3, F(1, 2), F(-3, 4), F(5, 3))


def _random_matrix(rng, rows, cols):
    """A random rows x cols matrix, often rank-deficient: a zero row, or a
    row that is a combination of two others, may replace a random row."""
    m = [[rng.choice(ENTRIES) for _ in range(cols)] for _ in range(rows)]
    if rows >= 1 and rng.random() < 0.25:
        m[rng.randrange(rows)] = [0] * cols
    if rows >= 3 and rng.random() < 0.4:
        i, j, k = rng.sample(range(rows), 3)
        a, b = rng.choice((1, -2, F(1, 3))), rng.choice((1, -1, 3))
        m[k] = [a * x + b * y for x, y in zip(m[i], m[j])]
    return m


def _matrices(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        yield _random_matrix(rng, rng.randint(0, 6), rng.randint(1, 7))


def test_echelon_is_integral_gauss_jordan():
    for m in _matrices(31, 600):
        red, pivots, d, sign = echelon(m)
        assert d > 0 and sign in (1, -1)
        assert all(type(x) is int for row in red for x in row)
        assert len(red) == len(pivots) and pivots == sorted(set(pivots))
        for i, row in enumerate(red):
            assert [row[p] for p in pivots] == [d if k == i else 0 for k in range(len(pivots))]
            assert all(x == 0 for x in row[: pivots[i]])


def test_reduction_matches_fraction_reference():
    for m in _matrices(32, 600):
        assert rref(m) == _reference_rref(m), m
        assert rank(m) == len(_reference_rref(m)), m
        if m and len(m) == len(m[0]):
            assert det(m) == _reference_det(m), m


def test_det_matches_fraction_reference():
    rng = random.Random(33)
    signs = set()
    assert det([]) == _reference_det([]) == 1
    for _ in range(600):
        n = rng.randint(1, 6)
        m = _random_matrix(rng, n, n)
        assert det(m) == _reference_det(m), m
        signs.add((det(m) > 0) - (det(m) < 0))
    assert signs == {-1, 0, 1}


def test_negative_last_pivot_is_normalized():
    # Before d is made positive, the last pivot of each of these is negative.
    assert echelon([[-1, 3, 3, 1]]) == ([(1, -3, -3, -1)], [0], 1, -1)
    assert echelon([[0, -2], [0, 0]]) == ([(0, 2)], [1], 2, -1)
    assert echelon([[1, 2], [3, 4]]) == ([(2, 0), (0, 2)], [0, 1], 2, -1)
    for m in ([[-1, 3, 3, 1]], [[0, -2], [0, 0]], [[1, 0], [0, -1]], [[1, 2], [3, 4]]):
        assert rref(m) == _reference_rref(m)
        assert integer_kernel(m)[1] == [
            tuple(echelon(m)[2] * x for x in v) for v in _reference_kernel_basis(m)
        ]
    assert det([[1, 0], [0, -1]]) == -1 and det([[1, 2], [3, 4]]) == -2
    assert det([[0, 1], [1, 0]]) == -1


def test_integer_kernel_is_d_times_the_reference():
    for m in _matrices(34, 600):
        if not m:
            continue
        free, basis = integer_kernel(m)
        ref = _reference_kernel_basis(m)
        assert len(basis) == len(ref) == len(free)
        d = echelon(m)[2]
        for j, v, r in zip(free, basis, ref):
            assert all(type(x) is int for x in v)
            assert [v[k] for k in free] == [d if k == j else 0 for k in free]
            assert v == tuple(d * x for x in r), m


def test_reference_solve_linear_solves_or_finds_none():
    # None exactly when b raises the rank; otherwise a solution of M x = b.
    rng = random.Random(35)
    consistent = inconsistent = 0
    assert _reference_solve_linear([], []) is None
    for _ in range(800):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = _random_matrix(rng, rows, cols)
        if rng.random() < 0.5:
            # b in the column space: consistent by construction
            x = [rng.choice(ENTRIES) for _ in range(cols)]
            b = [sum(a * c for a, c in zip(row, x)) for row in m]
        else:
            b = [rng.choice(ENTRIES) for _ in range(rows)]
        got = _reference_solve_linear(m, b)
        assert (got is None) == (rank([[*row, y] for row, y in zip(m, b)]) > rank(m)), (m, b)
        if got is None:
            inconsistent += 1
        else:
            consistent += 1
            assert all(sum(a * c for a, c in zip(row, got)) == y for row, y in zip(m, b))
    assert consistent > 100 and inconsistent > 100
