"""Coxeter element data: the forms omega_c and E_c, the piecewise-linear map
nu_c, and the affine vectors gamma_c and x_c.

A Coxeter element is carried as an index order (a linear extension of the
sign digraph of B), so that "initial" and "final" letters are decided by
commutation rather than by one fixed word.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .cartan import CartanMatrix, NotAffine, TypeInfo, classify
from .linalg import Vec, integral_multiple, solve_linear, vdot, vsub


@dataclass(frozen=True)
class CoxeterContext:
    cartan: CartanMatrix
    order: tuple  # 0-based index order; c = s_{order[0]} ... s_{order[-1]}

    @cached_property
    def position(self) -> tuple:
        pos = [0] * self.cartan.n
        for p, i in enumerate(self.order):
            pos[i] = p
        return tuple(pos)

    @property
    def n(self) -> int:
        return self.cartan.n

    # -- initial / final letters and moves -----------------------------------

    def is_initial(self, s: int) -> bool:
        """s is initial iff every letter before it commutes with it."""
        pos = self.position
        return all(
            self.cartan.a[s][i] == 0
            for i in range(self.n)
            if i != s and pos[i] < pos[s]
        )

    def is_final(self, s: int) -> bool:
        pos = self.position
        return all(
            self.cartan.a[s][i] == 0
            for i in range(self.n)
            if i != s and pos[i] > pos[s]
        )

    def conjugate(self, s: int) -> "CoxeterContext":
        """scs: rotate an initial s to the end, or a final s to the front."""
        rest = tuple(i for i in self.order if i != s)
        if self.is_initial(s):
            return CoxeterContext(self.cartan, rest + (s,))
        if self.is_final(s):
            return CoxeterContext(self.cartan, (s,) + rest)
        raise ValueError(f"{s} is neither initial nor final in {self.order}")

    def inverse(self) -> "CoxeterContext":
        return CoxeterContext(self.cartan, tuple(reversed(self.order)))

    # -- the forms ------------------------------------------------------------

    def omega_entry(self, i: int, j: int):
        """omega_c(alpha_i^vee, alpha_j)."""
        if i == j:
            return 0
        return self.cartan.a[i][j] if self.position[i] > self.position[j] else -self.cartan.a[i][j]

    def e_entry(self, i: int, j: int):
        """E_c(alpha_i^vee, alpha_j)."""
        if i == j:
            return 1
        return self.cartan.a[i][j] if self.position[i] > self.position[j] else 0

    def omega(self, u: Vec, v: Vec):
        """omega_c(u, v) for u, v in V (alpha coordinates)."""
        d = self.cartan.d
        return sum(
            u[i] * d[i] * self.omega_entry(i, j) * v[j]
            for i in range(self.n)
            for j in range(self.n)
            if u[i] != 0 and v[j] != 0
        )

    def e_form(self, u: Vec, v: Vec):
        d = self.cartan.d
        return sum(
            u[i] * d[i] * self.e_entry(i, j) * v[j]
            for i in range(self.n)
            for j in range(self.n)
            if u[i] != 0 and v[j] != 0
        )

    def omega_covector(self, beta: Vec) -> Vec:
        """omega_c(. , beta) as a weight vector: i-th rho coordinate is
        omega_c(alpha_i^vee, beta)."""
        return tuple(
            sum(self.omega_entry(i, j) * beta[j] for j in range(self.n) if beta[j] != 0)
            for i in range(self.n)
        )

    # -- nu_c ------------------------------------------------------------------

    def nu(self, beta: Vec) -> Vec:
        """The piecewise-linear homeomorphism V -> V*, in rho coordinates.

        On nonnegative beta this is -E_c(. , beta); negative coordinates flip
        to fundamental weights.
        """
        neg = [i for i in range(self.n) if beta[i] < 0]
        beta_plus = tuple(0 if i in neg else beta[i] for i in range(self.n))
        out = []
        for i in range(self.n):
            val = -sum(
                self.e_entry(i, j) * beta_plus[j] for j in range(self.n) if beta_plus[j] != 0
            )
            if i in neg:
                val -= beta[i]  # contributes -<rho_i^vee, beta> rho_i with beta_i < 0
            out.append(val)
        return tuple(out)

    # -- affine vectors ----------------------------------------------------------

    @cached_property
    def type_info(self) -> TypeInfo:
        return classify(self.cartan)

    @cached_property
    def coxeter_matrix(self) -> tuple:
        """Matrix of c acting on V (alpha coordinates)."""
        cols = [
            self.cartan.act_word_on_root(self.order, self.cartan.simple_root(j))
            for j in range(self.n)
        ]
        return tuple(zip(*cols))

    @cached_property
    def affine(self) -> "AffineVectors":
        info = self.type_info
        if info.kind != "affine":
            raise NotAffine("affine vectors require an affine Cartan matrix")
        n = self.n
        aff = info.aff_index
        c_mat = self.coxeter_matrix
        # Solve (c - 1) gamma = delta with gamma supported off the affine index.
        cols = [j for j in range(n) if j != aff]
        rows = [[c_mat[i][j] - (1 if i == j else 0) for j in cols] for i in range(n)]
        sol = solve_linear(rows, list(info.delta))
        assert sol is not None, "affine gamma_c system must be solvable"
        gamma = [Fraction(0)] * n
        for j, val in zip(cols, sol):
            gamma[j] = val
        gamma_c = tuple(gamma)
        c_gamma = tuple(
            sum(c_mat[i][j] * gamma_c[j] for j in range(n)) for i in range(n)
        )
        assert vsub(c_gamma, gamma_c) == tuple(map(Fraction, info.delta))
        x_c = tuple(-v for v in self.omega_covector(info.delta))
        assert self.cartan.pairing(x_c, info.delta) == 0
        h_functional = integral_multiple(
            tuple(self.cartan.k_form(gamma_c, self.cartan.simple_root(j)) for j in range(n))
        )
        return AffineVectors(gamma_c=gamma_c, x_c=x_c, h_functional=h_functional)

    def in_h_c(self, v: Vec) -> bool:
        """Whether K(gamma_c, v) = 0."""
        return vdot(self.affine.h_functional, v) == 0


@dataclass(frozen=True)
class AffineVectors:
    gamma_c: Vec  # in V, zero coordinate at the affine index, c gamma = delta + gamma
    x_c: Vec  # -omega_c(. , delta) in rho coordinates
    h_functional: Vec  # integers, a positive multiple of (K(gamma_c, alpha_j))_j; kernel is H_c


def coxeter_context(bmat) -> CoxeterContext:
    """Coxeter element attached to an acyclic exchange matrix."""
    from .cartan import exchange_to_cartan

    return CoxeterContext(exchange_to_cartan(bmat), bmat.coxeter_order())
