import random
from fractions import Fraction
from itertools import combinations

import pytest

from affscat.linalg import integral_multiple, nonzero_minor, primitive_vector, rank, wedge_key

F = Fraction


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
