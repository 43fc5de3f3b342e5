from fractions import Fraction

import pytest

from affscat.linalg import integral_multiple, primitive_vector

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
