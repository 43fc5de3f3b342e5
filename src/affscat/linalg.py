"""Exact linear algebra on tuples of ints and Fractions.

Vectors are plain tuples whose entries are ints or Fractions; all results
are exact.  Nothing here knows about root systems.  Three helpers work in
integers alone: rank eliminates fraction-free (Bareiss) on rows cleared of
denominators, wedge_key names the plane spanned by two integer vectors
without any division, and nonzero_minor picks two coordinates on which
that plane projects isomorphically.  rref, kernel_basis, solve_linear and
det eliminate over Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Vec = tuple  # tuple of int | Fraction
Mat = tuple  # tuple of row tuples


def vsub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vscale(c, u: Vec) -> Vec:
    return tuple(c * a for a in u)


def vdot(u: Vec, v: Vec):
    """Plain coordinatewise dot product (no bilinear form)."""
    return sum(a * b for a, b in zip(u, v, strict=True))


def mat_vec(m: Mat, v: Vec) -> Vec:
    return tuple(vdot(row, v) for row in m)


def identity_mat(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def integral_multiple(v: Vec) -> Vec:
    """v times the lcm of its entries' denominators, as a tuple of ints.

    The zero vector is allowed.  The factor is positive, so every test that is
    invariant under positive scaling (cone membership, signs of linear
    functionals) gives the same answer on the result as on v.
    """
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


def rref(rows: list[list]) -> list[list[Fraction]]:
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


def reduce_mod_rref(v: Vec, rref_rows) -> Vec:
    """v minus a combination of rref_rows that clears every pivot column of v.

    The rows must be in reduced row echelon form (pivots 1, pivot columns
    cleared elsewhere), as returned by rref; v is zero on return exactly when
    it lies in their span.
    """
    out = list(v)
    for row in rref_rows:
        p = next(i for i, x in enumerate(row) if x != 0)
        coef = out[p]
        if coef != 0:
            out = [a - coef * b for a, b in zip(out, row)]
    return tuple(out)


def rank(rows: list[list]) -> int:
    """Rank by Bareiss fraction-free elimination on the rows cleared of
    denominators (integral_multiple).

    After k pivots every entry below them is a (k+1) x (k+1) minor of the
    cleared matrix, so the division by the previous pivot is exact (Bareiss,
    Math. Comp. 1968) and every value stays an integer.
    """
    m = [integral_multiple(row) for row in rows if any(row)]
    prev = 1
    r = 0
    for col in range(len(m[0]) if m else 0):
        sel = next((i for i in range(r, len(m)) if m[i][col]), None)
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        pivot_row = m[r]
        p = pivot_row[col]
        for i in range(r + 1, len(m)):
            row = m[i]
            f = row[col]
            m[i] = tuple((p * x - f * y) // prev for x, y in zip(row, pivot_row))
        prev = p
        r += 1
        if r == len(m):
            break
    return r


def kernel_basis(rows: list[list]) -> list[Vec]:
    """Basis of the right kernel {v : M v = 0}."""
    if not rows:
        return []
    ncols = len(rows[0])
    red = rref(rows)
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


def solve_linear(rows: list[list], rhs: list) -> Vec | None:
    """One solution of M x = b, or None if inconsistent."""
    if not rows:
        return None
    ncols = len(rows[0])
    aug = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs, strict=True)]
    red = rref(aug)
    # In rref each pivot column is cleared elsewhere, so free variables = 0
    # and pivot variables read off the last column directly.
    sol = [Fraction(0)] * ncols
    for row in red:
        p = next(i for i, x in enumerate(row) if x != 0)
        if p == ncols:
            return None
        sol[p] = row[ncols]
    return tuple(sol)


def det(m: list[list]) -> Fraction:
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
