"""Truncated formal power series and wall-crossing automorphisms.

Scattering terms are univariate series in q = yhat^beta, truncated at a fixed
q-degree.  Path-ordered products act on truncated elements of the ring
k[x^{\\pm}][[yhat]]: finite sums of terms x^lambda yhat^phi with lambda in the
weight lattice and phi a nonnegative root-lattice vector, graded by the total
yhat-degree (coordinate sum of phi) and cut off above degree k.

Every scattering term has constant term 1, so any integer power f^e, negative
ones included, is computed in O(k^2) by J. C. P. Miller's recurrence (Knuth,
TAOCP vol. 2, 4.7): g_0 = 1, m g_m = sum_{j=1..m} ((e+1) j - m) f_j g_{m-j}.
The division by m is exact, and stays in the integers when f is integral.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul


class MixedNormals(ValueError):
    pass


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
    def one(normal, k) -> "TruncatedSeries":
        return TruncatedSeries.make(normal, k, [1])

    @staticmethod
    def one_plus_q(normal, k) -> "TruncatedSeries":
        return TruncatedSeries.make(normal, k, [1, 1])

    def is_one(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:]) and self.coeffs[0] == 1

    def retruncate(self, k: int) -> "TruncatedSeries":
        return TruncatedSeries.make(self.normal, k, self.coeffs)

    def _check(self, other: "TruncatedSeries"):
        if self.normal != other.normal or self.k != other.k:
            raise MixedNormals("series must share normal and truncation")

    def add(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        return TruncatedSeries.make(
            self.normal, self.k, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def mul(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        out = [0] * (self.k + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j in range(min(self.k - i, other.k) + 1):
                b = other.coeffs[j]
                if b != 0:
                    out[i + j] += a * b
        return TruncatedSeries.make(self.normal, self.k, out)

    def int_pow(self, e: int) -> "TruncatedSeries":
        """f^e by Miller's recurrence; requires constant term 1."""
        f = self.coeffs
        if f[0] != 1:
            raise ValueError("powers require constant term 1")
        g = [1] + [0] * self.k
        for m in range(1, self.k + 1):
            acc = 0
            for j in range(1, m + 1):
                if f[j] != 0 and g[m - j] != 0:
                    acc += ((e + 1) * j - m) * f[j] * g[m - j]
            if isinstance(acc, int):
                assert acc % m == 0, "Miller division must be exact"
                g[m] = acc // m
            else:
                g[m] = acc / m
        return TruncatedSeries.make(self.normal, self.k, g)


def geometric_inverse_square(normal, k) -> TruncatedSeries:
    """(1 - q)^{-2} = sum (m+1) q^m."""
    return TruncatedSeries.make(normal, k, [m + 1 for m in range(k + 1)])


def f_inf_series(delta, is_a2k2: bool, ydeg: int) -> TruncatedSeries:
    """Scattering term on the imaginary wall, truncated at total yhat-degree ydeg.

    (1 - yhat^delta)^{-2}, with an extra factor (1 + yhat^delta) in type
    A_{2k}^(2).
    """
    k = ydeg // sum(delta)
    base = geometric_inverse_square(delta, k)
    if is_a2k2:
        base = base.mul(TruncatedSeries.one_plus_q(delta, k))
    return base


@dataclass(frozen=True)
class MonomialExpr:
    """Truncated element of k[x^{\\pm}][[yhat]]: {(lambda, phi): coeff} with
    total yhat-degree of phi at most k."""

    n: int
    k: int
    terms: tuple  # sorted tuple of ((lambda, phi), coeff)

    @staticmethod
    def from_dict(n, k, d) -> "MonomialExpr":
        cleaned = {}
        for (lam, phi), c in d.items():
            if c == 0 or sum(phi) > k:
                continue
            cleaned[(tuple(lam), tuple(phi))] = _num(c)
        return MonomialExpr(n, k, tuple(sorted(cleaned.items())))

    @staticmethod
    def x_monomial(n, k, lam) -> "MonomialExpr":
        zero = tuple(0 for _ in range(n))
        return MonomialExpr.from_dict(n, k, {(tuple(lam), zero): 1})

    @staticmethod
    def yhat_monomial(n, k, phi) -> "MonomialExpr":
        zero = tuple(0 for _ in range(n))
        return MonomialExpr.from_dict(n, k, {(zero, tuple(phi)): 1})

    @staticmethod
    def one(n, k) -> "MonomialExpr":
        zero = tuple(0 for _ in range(n))
        return MonomialExpr.from_dict(n, k, {(zero, zero): 1})

    def as_dict(self):
        return dict(self.terms)

    def add(self, other: "MonomialExpr") -> "MonomialExpr":
        d = dict(self.terms)
        for key, c in other.terms:
            d[key] = d.get(key, 0) + c
        return MonomialExpr.from_dict(self.n, self.k, d)

    def mul(self, other: "MonomialExpr") -> "MonomialExpr":
        d: dict = {}
        for (l1, p1), c1 in self.terms:
            for (l2, p2), c2 in other.terms:
                phi = tuple(a + b for a, b in zip(p1, p2))
                if sum(phi) > self.k:
                    continue
                lam = tuple(a + b for a, b in zip(l1, l2))
                key = (lam, phi)
                d[key] = d.get(key, 0) + c1 * c2
        return MonomialExpr.from_dict(self.n, self.k, d)

    def __eq__(self, other):
        return (
            isinstance(other, MonomialExpr)
            and self.n == other.n
            and self.k == other.k
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n, self.k, self.terms))


@dataclass(frozen=True)
class CrossingData:
    """Everything wall_cross needs about one wall: the scattering term, the
    primitive-normal data, and the exchange matrix pairing."""

    f: TruncatedSeries
    coroot: tuple  # crossing normal, alpha^vee coordinates, primitive in Q^vee
    b_rows: tuple  # exchange matrix, for omega(alpha_i^vee, alpha_j) = b_ij


from functools import lru_cache


@lru_cache(maxsize=4096)
def _series_power(f: TruncatedSeries, exponent: int) -> TruncatedSeries:
    return f.int_pow(exponent)


def wall_cross(expr: MonomialExpr, data: CrossingData, sign: int, k: int) -> MonomialExpr:
    """Apply one wall-crossing automorphism, truncated at yhat-degree k.

    x^lambda yhat^phi maps to itself times f^(<lambda, s beta^vee> +
    omega(s beta^vee, phi)) with s = +1 against the normal, -1 with it.
    """
    assert sign in (1, -1)
    beta = data.f.normal
    ht = sum(beta)
    qdeg = k // ht
    f = data.f.retruncate(qdeg)
    coroot = data.coroot
    # omega(beta^vee, phi) = sum_j omega_j phi_j with omega_j = sum_i beta^vee_i b_ij
    omega = tuple(
        sum(c * row[j] for c, row in zip(coroot, data.b_rows)) for j in range(expr.n)
    )
    shifts = [tuple(m * b for b in beta) for m in range(qdeg + 1)]
    out: dict = {}
    for (lam, phi), c in expr.terms:
        e_x = sum(map(mul, lam, coroot))
        e_y = sum(map(mul, omega, phi))
        if _nonint(e_x) or _nonint(e_y):
            raise NonIntegerExponent(f"non-integer crossing exponent at {(lam, phi)}")
        coeffs = _series_power(f, int(sign * (e_x + e_y))).coeffs
        for m in range(min(qdeg, (k - sum(phi)) // ht) + 1):
            a = coeffs[m]
            if a == 0:
                continue
            key = (lam, tuple(map(add, phi, shifts[m])))
            out[key] = out.get(key, 0) + c * a
    return MonomialExpr.from_dict(expr.n, k, out)


def _nonint(x) -> bool:
    return not isinstance(x, int) and Fraction(x).denominator != 1


def path_product(expr: MonomialExpr, crossings, k: int) -> MonomialExpr:
    """Left-to-right composition of wall crossings: crossings is a sequence of
    (CrossingData, sign) in the order the path meets the walls."""
    for data, sign in crossings:
        expr = wall_cross(expr, data, sign, k)
    return expr
