"""Exact linear algebra on tuples of ints and Fractions.

Vectors are plain tuples whose entries are ints or Fractions; all results
are exact.  Nothing here knows about root systems.  One elimination does all
the row reduction: echelon runs fraction-free Gauss-Jordan on rows cleared
of denominators, in integers alone, and rank, integer_kernel, kernel_basis,
solve_linear, det and rref read its rows, pivots and common pivot value;
only kernel_basis, solve_linear, det and rref divide, once per entry, to
return Fractions.  The cones canonicalize their generators on echelon's
integer rows; rref is kept for the benchmark's tracing and for the tests,
which use it as a reference.  The kernels take integers as they come:
vdot pairs with one map(mul), integral_multiple returns a tuple whose
entries are all ints unchanged, and primitive_vector returns it unchanged
when its gcd is 1; other entries (bools and Fractions among them) take the
general path that clears denominators.  wedge_key names the plane spanned
by two integer vectors without any division, and nonzero_minor picks two
coordinates on which that plane projects isomorphically.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul

Vec = tuple  # tuple of int | Fraction
Mat = tuple  # tuple of row tuples


def vdot(u: Vec, v: Vec):
    """Plain coordinatewise dot product (no bilinear form)."""
    if len(u) != len(v):
        raise ValueError(f"vdot of vectors of lengths {len(u)} and {len(v)}")
    return sum(map(mul, u, v))


def identity_mat(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def integral_multiple(v: Vec) -> Vec:
    """v times the lcm of its entries' denominators, as a tuple of ints.

    The zero vector is allowed.  The factor is positive, so every test that is
    invariant under positive scaling (cone membership, signs of linear
    functionals) gives the same answer on the result as on v.  A tuple of
    ints is returned as it is.
    """
    if type(v) is tuple:
        for a in v:
            if type(a) is not int:
                break
        else:
            return v
    m = 1
    for a in v:
        m = lcm(m, a.denominator)
    return tuple(a.numerator * (m // a.denominator) for a in v)


def primitive_vector(v: Vec) -> Vec:
    """Scale a nonzero rational vector to a primitive integer vector, preserving direction."""
    ints = integral_multiple(v)
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    if g == 1:
        return ints
    return tuple(a // g for a in ints)


def nonzero_minor(u: Vec, v: Vec) -> tuple:
    """The first (i, j), i < j in lexicographic order, with u_i v_j != u_j v_i.

    For exactly these (i, j), projecting onto coordinates i, j maps span(u, v)
    isomorphically onto a plane, and span(e_i, e_j) meets the common kernel
    {x : <x, u> = <x, v> = 0} only at 0.  Raises ValueError when u and v are
    parallel.
    """
    n = len(u)
    for i in range(n):
        for j in range(i + 1, n):
            if u[i] * v[j] != u[j] * v[i]:
                return i, j
    raise ValueError("parallel vectors have no nonzero minor")


def wedge_key(u: Vec, v: Vec) -> Vec | None:
    """The plane span(u, v) of two integer vectors as a primitive integer vector.

    The entries are the 2x2 minors u_i v_j - u_j v_i (i < j), divided by their
    gcd and signed so that the first nonzero entry is positive.  Two
    independent pairs get the same key exactly when they span the same plane
    (a change of basis scales every minor by its determinant).  None when u
    and v are parallel.
    """
    n = len(u)
    minors = [u[i] * v[j] - u[j] * v[i] for i in range(n) for j in range(i + 1, n)]
    g = gcd(*minors)
    if g == 0:
        return None
    if next(m for m in minors if m != 0) < 0:
        g = -g
    return tuple(m // g for m in minors)


def echelon(rows: list[list]) -> tuple:
    """Fraction-free Gauss-Jordan elimination: (rows, pivots, d, sign).

    Each row is first cleared of denominators (integral_multiple).  At each
    pivot p every other row, above and below, becomes (p x - f y) // prev,
    with f its entry in the pivot column and prev the previous pivot; every
    entry is then a minor of the cleared matrix, so the division is exact
    (Bareiss, Math. Comp. 1968; Nakos-Turner-Williams, SIGSAM Bull. 1997) and
    every value stays an integer.  The result holds only the nonzero rows:
    row i has the entry d > 0 at column pivots[i] and every pivot column is
    zero elsewhere, so the rows divided by d are the reduced row echelon form.
    sign * d is the determinant of the cleared matrix when it is square and
    of full rank; sign is -1 per row swap, and flips when d is made positive.
    """
    m = [integral_multiple(row) for row in rows]
    pivots: list = []
    prev = sign = 1
    for col in range(len(m[0]) if m else 0):
        r = len(pivots)
        sel = next((i for i in range(r, len(m)) if m[i][col]), None)
        if sel is None:
            continue
        if sel != r:
            m[r], m[sel] = m[sel], m[r]
            sign = -sign
        pivot_row = m[r]
        p = pivot_row[col]
        for i, row in enumerate(m):
            if i != r:
                f = row[col]
                m[i] = tuple((p * x - f * y) // prev for x, y in zip(row, pivot_row))
        prev = p
        pivots.append(col)
        if len(pivots) == len(m):
            break
    m = m[: len(pivots)]
    if prev < 0:
        m = [tuple(-x for x in row) for row in m]
        prev, sign = -prev, -sign
    return m, pivots, prev, sign


def rref(rows: list[list]) -> list[list[Fraction]]:
    """Reduced row echelon form; returns only the nonzero rows."""
    red, _, d, _ = echelon(rows)
    return [[Fraction(x, d) for x in row] for row in red]


def rank(rows: list[list]) -> int:
    """The number of pivots of echelon(rows)."""
    return len(echelon(rows)[1])


def integer_kernel(rows: list[list]) -> tuple:
    """(free columns, integer kernel basis) of a nonempty matrix.

    For each free column j of echelon(rows) the vector is
    d e_j - sum over pivots p of row_p[j] e_p: it is d > 0 at j and 0 at
    every other free column, and divided by d it is the vector kernel_basis
    returns.
    """
    red, pivots, d, _ = echelon(rows)
    ncols = len(rows[0])
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for j in free:
        v = [0] * ncols
        v[j] = d
        for row, p in zip(red, pivots):
            v[p] = -row[j]
        basis.append(tuple(v))
    return free, basis


def kernel_basis(rows: list[list]) -> list[Vec]:
    """Basis of the right kernel {v : M v = 0}: one vector per free column,
    1 there and 0 at the other free columns."""
    if not rows:
        return []
    free, basis = integer_kernel(rows)
    return [tuple(Fraction(x, v[j]) for x in v) for j, v in zip(free, basis)]


def solve_linear(rows: list[list], rhs: list) -> Vec | None:
    """One solution of M x = b, or None if inconsistent."""
    if not rows:
        return None
    ncols = len(rows[0])
    aug = [[*row, b] for row, b in zip(rows, rhs, strict=True)]
    red, pivots, d, _ = echelon(aug)
    if pivots and pivots[-1] == ncols:
        return None
    # Each pivot column is cleared elsewhere, so free variables = 0 and pivot
    # variables read off the last column directly.
    sol = [Fraction(0)] * ncols
    for row, p in zip(red, pivots):
        sol[p] = Fraction(row[ncols], d)
    return tuple(sol)


def det(m: list[list]) -> Fraction:
    """Determinant of a square matrix: sign * d from echelon, divided by the
    factors that cleared the rows of denominators."""
    _, pivots, d, sign = echelon(m)
    if len(pivots) < len(m):
        return Fraction(0)
    return Fraction(sign * d, prod(lcm(*(x.denominator for x in row)) for row in m))
