"""Truncated formal power series and wall-crossing automorphisms.

Scattering terms are univariate series in q = yhat^beta, truncated at a fixed
q-degree.  Path-ordered products act on truncated elements of the ring
k[x^{\\pm}][[yhat]]: finite sums of terms x^lambda yhat^phi with lambda in the
weight lattice and phi a nonnegative root-lattice vector, graded by the total
yhat-degree (coordinate sum of phi) and cut off above degree k.

Every scattering term has constant term 1, so any integer power f^e, negative
ones included, is computed in O(k^2) by J. C. P. Miller's recurrence (Knuth,
TAOCP vol. 2, 4.7): g_0 = 1, m g_m = sum_{j=1..m} ((e+1) j - m) f_j g_{m-j}.
The sum runs over the nonzero f_j only (most walls carry 1 + q), and the
division by m is exact, staying in the integers when f is integral.  Powers
are cached by (coefficient tuple, exponent), so equal terms on different walls
share their entries.  series_root runs the same recurrence with exponent 1/e,
multiplied through by e, to recover f from f^e.  The imaginary wall's term
needs no product: f_inf_series writes its coefficients down.

A MonomialExpr holds the table the crossing kernel works on: its terms grouped
by lambda, and within a group phi stored by its base-(k+1) index
sum_j phi_j (k+1)^(n-1-j).  A term of degree at most k has every phi_j at
most k, so multiplying by q^m = yhat^(m beta) within the truncation adds m
times the index of beta, with no digit carry and no tuple built per term.  A
crossing multiplies x^lambda yhat^phi by f^(s(<lambda, beta^vee> +
omega(beta^vee, phi))); the lambda part and its integrality are settled once
per lambda group, and the omega part is checked per term only when omega is
not integral.  A path product hands the table from crossing to crossing, and
the sorted `terms` tuple is built only when read.

What a crossing needs of its wall alone, at a given sign s and truncation k,
is its kernel: s beta^vee, the omega row, f truncated at q-degree
k // ht(beta), and for each degree the index offsets of the q^m that stay
within the truncation.  CrossingData.kernel prepares it on first use and keeps
it, so a loop check that builds one CrossingData per wall prepares each
wall's kernel once per sign, however many loops cross the wall.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from operator import mul


class NonIntegerExponent(ValueError):
    pass


def _num(c):
    """Exact coefficient, kept as a plain int when integral (much faster)."""
    if isinstance(c, int):
        return c
    f = Fraction(c)
    return int(f) if f.denominator == 1 else f


@dataclass(frozen=True)
class TruncatedSeries:
    """Series sum_m coeffs[m] q^m with q = yhat^normal, truncated at q-degree k."""

    normal: tuple
    k: int
    coeffs: tuple

    @staticmethod
    def make(normal, k, coeffs) -> "TruncatedSeries":
        cs = [_num(c) for c in coeffs[: k + 1]]
        cs += [0] * (k + 1 - len(cs))
        return TruncatedSeries(tuple(normal), k, tuple(cs))

    @staticmethod
    def one_plus_q(normal, k) -> "TruncatedSeries":
        return TruncatedSeries.make(normal, k, [1, 1])

    def is_one(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:]) and self.coeffs[0] == 1


def f_inf_series(delta, is_a2k2: bool, ydeg: int) -> TruncatedSeries:
    """Scattering term on the imaginary wall, truncated at total yhat-degree ydeg.

    (1 - yhat^delta)^{-2} = sum (m + 1) q^m with q = yhat^delta, times
    (1 + q) in type A_{2k}^(2), which gives sum (2m + 1) q^m.
    """
    k = ydeg // sum(delta)
    step = 2 if is_a2k2 else 1
    return TruncatedSeries.make(delta, k, [step * m + 1 for m in range(k + 1)])


class MonomialExpr:
    """Truncated element of k[x^{\\pm}][[yhat]]: terms x^lambda yhat^phi with
    phi >= 0 of total yhat-degree at most k.

    The terms are held as the kernel table {lambda: {index(phi): coeff}}, with
    phi at its base-(k+1) index and no zero coefficients; `terms`, the sorted
    tuple of ((lambda, phi), coeff), is built only when read.
    """

    __slots__ = ("n", "k", "_table", "_terms")

    def __init__(self, n: int, k: int, table: dict):
        self.n, self.k, self._table, self._terms = n, k, table, None

    @staticmethod
    def from_dict(n, k, d) -> "MonomialExpr":
        table: dict = {}
        for (lam, phi), c in d.items():
            if c == 0 or sum(phi) > k:
                continue
            table.setdefault(tuple(lam), {})[_index(phi, k + 1)] = _num(c)
        return MonomialExpr(n, k, table)

    @property
    def terms(self) -> tuple:
        """Sorted tuple of ((lambda, phi), coeff)."""
        if self._terms is None:
            phis = _phis(self.n, self.k + 1)
            self._terms = tuple(
                sorted(
                    ((lam, phis[i][1]), _num(c))
                    for lam, row in self._table.items()
                    for i, c in row.items()
                )
            )
        return self._terms

    def as_dict(self):
        return dict(self.terms)

    def ray_coeffs(self, lam, beta) -> tuple:
        """Coefficients of x^lam yhat^(m beta) for m = 0..k // ht(beta)."""
        row = self._table.get(tuple(lam), {})
        step = _index(beta, self.k + 1)
        return tuple(row.get(m * step, 0) for m in range(self.k // sum(beta) + 1))

    def __eq__(self, other):
        return (
            isinstance(other, MonomialExpr)
            and self.n == other.n
            and self.k == other.k
            and self._table == other._table
        )

    def __hash__(self):
        return hash((self.n, self.k, self.terms))

    def __repr__(self):
        return f"MonomialExpr(n={self.n}, k={self.k}, terms={self.terms!r})"


def _index(phi, radix: int) -> int:
    """Base-radix index of phi, phi_0 the leading digit; every phi_j must be a
    nonnegative integer below radix."""
    idx = 0
    for p in phi:
        p = _num(p)
        if not isinstance(p, int) or not 0 <= p < radix:
            raise ValueError(f"yhat exponent {tuple(phi)} is not a nonnegative integer vector")
        idx = idx * radix + p
    return idx


class _Phis(dict):
    """index -> (degree, phi) for phi in Z_{>=0}^n in base radix, filled on demand."""

    def __init__(self, n: int, radix: int):
        super().__init__()
        self.n, self.radix = n, radix

    def __missing__(self, idx):
        digits, rest = [], idx
        for _ in range(self.n):
            rest, d = divmod(rest, self.radix)
            digits.append(d)
        phi = tuple(reversed(digits))
        self[idx] = entry = (sum(phi), phi)
        return entry


@lru_cache(maxsize=64)
def _phis(n: int, radix: int) -> _Phis:
    return _Phis(n, radix)


@dataclass(frozen=True)
class CrossingData:
    """Everything wall_cross needs about one wall: the scattering term, the
    primitive-normal data, and the exchange matrix pairing.  Its crossing
    kernel at each (sign, truncation) is prepared on first use and kept."""

    f: TruncatedSeries
    coroot: tuple  # crossing normal, alpha^vee coordinates, primitive in Q^vee
    b_rows: tuple  # exchange matrix, for omega(alpha_i^vee, alpha_j) = b_ij
    _kernels: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def kernel(self, sign: int, k: int) -> tuple:
        """(s beta^vee, omega row, whether it is integral, f truncated at
        q-degree k // ht(beta), the index offsets of the q^m that stay within
        degree k from each degree 0..k, phi by index): the parts of
        wall_cross that depend only on this wall, s = sign and k."""
        kernel = self._kernels.get((sign, k))
        if kernel is not None:
            return kernel
        assert sign in (1, -1)
        beta = self.f.normal
        if min(beta) < 0:
            raise ValueError(f"wall normal {beta} has a negative coordinate")
        n = len(beta)
        ht = sum(beta)
        qdeg = k // ht
        fkey = self.f.coeffs[: qdeg + 1]
        fkey += (0,) * (qdeg + 1 - len(fkey))
        coroot = tuple(sign * c for c in self.coroot)
        # omega(s beta^vee, phi) = sum_j omega_j phi_j with omega_j = s sum_i beta^vee_i b_ij
        omega = tuple(sum(c * row[j] for c, row in zip(coroot, self.b_rows)) for j in range(n))
        integral = all(isinstance(w, int) for w in omega)
        step = sum(b * (k + 1) ** (n - 1 - j) for j, b in enumerate(beta))  # index of beta
        # q^m with m ht > k - deg falls past the truncation
        shifts = tuple(tuple(m * step for m in range((k - deg) // ht + 1)) for deg in range(k + 1))
        kernel = coroot, omega, integral, fkey, shifts, _phis(n, k + 1)
        self._kernels[sign, k] = kernel
        return kernel


@lru_cache(maxsize=4096)
def _series_power(coeffs: tuple, exponent: int, root: int = 1) -> tuple:
    """f^(exponent / root) for f = sum_m coeffs[m] q^m with coeffs[0] = 1,
    truncated at q-degree len(coeffs) - 1, by Miller's recurrence over the
    nonzero f_j, multiplied through by root:
    root m g_m = sum_{j=1..m} ((exponent + root) j - root m) f_j g_{m-j}.
    The division by root m stays in the integers wherever it is exact, which
    it always is for root = 1 and f integral."""
    if coeffs[0] != 1:
        raise ValueError("powers require constant term 1")
    if root == 0:
        raise ValueError("the root exponent must be nonzero")
    support = [(j, c) for j, c in enumerate(coeffs) if j and c]
    g = [1]
    for m in range(1, len(coeffs)):
        acc = 0
        for j, c in support:
            if j > m:
                break
            acc += ((exponent + root) * j - root * m) * c * g[m - j]
        div = root * m
        if isinstance(acc, int) and acc % div == 0:
            g.append(acc // div)
        else:
            assert root != 1 or not isinstance(acc, int), "Miller division must be exact"
            g.append(_num(Fraction(acc) / div))
    return tuple(g)


def series_root(coeffs: tuple, e: int) -> tuple:
    """The f with f^e = g for g = sum_m coeffs[m] q^m with coeffs[0] = 1 and
    e a nonzero integer, truncated like g: Miller's recurrence with exponent
    1/e, in the integers wherever the division by e m is exact."""
    return _series_power(tuple(coeffs), 1, e)


def wall_cross(expr: MonomialExpr, data: CrossingData, sign: int, k: int) -> MonomialExpr:
    """Apply one wall-crossing automorphism, truncated at yhat-degree k.

    x^lambda yhat^phi maps to itself times f^(<lambda, s beta^vee> +
    omega(s beta^vee, phi)) with s = +1 against the normal, -1 with it.
    """
    coroot, omega, integral, fkey, shifts, phis = data.kernel(sign, k)
    n = expr.n
    table = expr._table if expr.k == k else MonomialExpr.from_dict(n, k, expr.as_dict())._table
    out = {}
    for lam, row in table.items():
        e_x = sum(map(mul, lam, coroot))
        if _nonint(e_x):
            raise NonIntegerExponent(f"non-integer crossing exponent at lambda = {lam}")
        e_x = int(e_x)
        new: dict = {}
        for idx, c in row.items():
            deg, phi = phis[idx]
            e_y = sum(map(mul, omega, phi))
            if not integral:
                if _nonint(e_y):
                    raise NonIntegerExponent(f"non-integer crossing exponent at {(lam, phi)}")
                e_y = int(e_y)
            for a, shift in zip(_series_power(fkey, e_x + e_y), shifts[deg]):
                if a:
                    i = idx + shift
                    new[i] = new.get(i, 0) + c * a
        new = {i: c for i, c in new.items() if c}
        if new:
            out[lam] = new
    return MonomialExpr(n, k, out)


def _nonint(x) -> bool:
    return not isinstance(x, int) and Fraction(x).denominator != 1


def path_product(expr: MonomialExpr, crossings, k: int) -> MonomialExpr:
    """Left-to-right composition of wall crossings: crossings is a sequence of
    (CrossingData, sign) in the order the path meets the walls."""
    for data, sign in crossings:
        expr = wall_cross(expr, data, sign, k)
    return expr
