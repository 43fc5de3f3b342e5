"""Coxeter element data: the forms omega_c and E_c, the piecewise-linear map
nu_c, the affine vector x_c and the defect.

The defect of v is <h, v> for one primitive integer covector h, a positive
multiple of omega_c(v, delta) and of K(gamma_c, v), where c gamma_c -
gamma_c = delta (see CoxeterContext.defect).  Its kernel is the hyperplane
H_c of the tube roots, and its sign splits the other real roots: the sides
of the imaginary wall, and the direction, tau_c or tau_c^{-1}, in which a
root's orbit reaches a negative simple (APContext._orbit).  gamma_c itself
is never computed.

A Coxeter element is carried as an index order (a linear extension of the
sign digraph of B).  The form omega_c is one cached integer table,
omega_rows, with omega_c(alpha_i^vee, alpha_j) = b_ij: the shard cuts, the
imaginary wall and the wall crossings of the consistency check all read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .cartan import CartanMatrix, NotAffine, TypeInfo, classify
from .linalg import Vec, vdot


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

    def inverse(self) -> "CoxeterContext":
        return CoxeterContext(self.cartan, tuple(reversed(self.order)))

    # -- the forms ------------------------------------------------------------

    @cached_property
    def omega_rows(self) -> tuple:
        """omega_c(alpha_i^vee, alpha_j) as integer rows: a_ij when j precedes
        i in c, -a_ij when it follows.  This is b_ij, as the order of c is a
        linear extension of the sign digraph of B."""
        a, pos, n = self.cartan.a, self.position, self.n
        return tuple(
            tuple(0 if i == j else a[i][j] if pos[i] > pos[j] else -a[i][j] for j in range(n))
            for i in range(n)
        )

    def e_entry(self, i: int, j: int):
        """E_c(alpha_i^vee, alpha_j)."""
        if i == j:
            return 1
        return self.cartan.a[i][j] if self.position[i] > self.position[j] else 0

    def omega(self, u: Vec, v: Vec):
        """omega_c(u, v) for u, v in V (alpha coordinates)."""
        d = self.cartan.d
        return sum(u[i] * d[i] * vdot(row, v) for i, row in enumerate(self.omega_rows) if u[i])

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
        return tuple(vdot(row, beta) for row in self.omega_rows)

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
    def affine(self) -> "AffineVectors":
        info = self.type_info
        if info.kind != "affine":
            raise NotAffine("affine vectors require an affine Cartan matrix")
        omega_delta = self.omega_covector(info.delta)
        x_c = tuple(-v for v in omega_delta)
        assert self.cartan.pairing(x_c, info.delta) == 0
        h = self.cartan.primitive_in_coroot_lattice(omega_delta)
        return AffineVectors(x_c=x_c, h=h)

    def defect(self, v: Vec) -> int:
        """<h, v>: a positive multiple of omega_c(v, delta) = 2 K(gamma_c, v).

        cov(u) is a positive multiple of (u_i d_i), so <h, v> is one of
        sum_i v_i d_i omega_c(alpha_i^vee, delta) = omega_c(v, delta).

        The identity: K(delta, .) = 0, so E_c(v, delta) = -E_c(delta, v) and
        omega_c(v, delta) = E_c(v, delta) - E_c(delta, v) = -2 E_c(delta, v).
        Write E_c(u, w) = u^T D L w, where L is the lower unitriangular part
        of the Cartan matrix in the order of c (e_entry) and U the upper one,
        so that U^T D = D L.  Then c = -U^{-1} L, and E_c(c u, w) =
        -u^T L^T U^{-T} D L w = -u^T L^T D w = -E_c(w, u) (checked against
        e_entry in tests/test_coxeter.py).  With delta = c gamma_c -
        gamma_c, E_c(delta, v) = -E_c(v, gamma_c) - E_c(gamma_c, v) =
        -K(gamma_c, v).  So the kernel of h is H_c, and no gamma_c is solved
        for.  The defect is c-invariant: K(gamma_c, c v) = K(c^{-1} gamma_c,
        v) = K(gamma_c - delta, v) = K(gamma_c, v).
        """
        return vdot(self.affine.h, v)

    def in_h_c(self, v: Vec) -> bool:
        """Whether K(gamma_c, v) = 0, i.e. the defect of v is 0."""
        return self.defect(v) == 0


@dataclass(frozen=True)
class AffineVectors:
    x_c: Vec  # -omega_c(. , delta) in rho coordinates
    h: Vec  # primitive integers, a positive multiple of omega_c(., delta); kernel is H_c


def coxeter_context(bmat) -> CoxeterContext:
    """Coxeter element attached to an acyclic exchange matrix.

    One context per ExchangeMatrix instance: it is built on the first call
    and kept on the matrix, as functools.cached_property keeps a value (and
    as ExchangeMatrix.mutation_tree is kept), so every stage run on one
    matrix shares it, with the root data its CartanMatrix computes and the
    build contexts that scattering keeps on it.  An equal matrix built
    separately, say from a second read of the same JSON, gets a context of
    its own: nothing is cached by value."""
    from .cartan import exchange_to_cartan

    cox = vars(bmat).get("coxeter_context")
    if cox is None:
        cox = CoxeterContext(exchange_to_cartan(bmat), bmat.coxeter_order())
        vars(bmat)["coxeter_context"] = cox
    return cox
