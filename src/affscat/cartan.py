"""Exchange matrices, symmetrizable Cartan matrices, and their root data.

Conventions: roots live in V with coordinates on the simple-root basis
alpha_1..alpha_n; weights live in V* with coordinates on the fundamental
weights rho_1..rho_n, where <rho_i, alpha_j^vee> = delta_ij.  All arithmetic
is exact rational; no floats anywhere.

A CartanMatrix keeps the root data both constructions read, in integers,
computed once per matrix: the positive real roots up to the largest height
cap asked so far (a smaller cap reads a prefix of them) and the primitive
coroot-lattice covector of each vector, read on the simple coroot basis
alpha_i^vee = d_i^{-1} alpha_i, where v has coordinates d_i v_i; with the
symmetrizer cleared to the positive integers d'_i, a positive multiple of
d_i, it is (d'_i v_i) made primitive.  On a real root beta this is the
coroot beta^vee = 2 beta / K(beta, beta): a real coroot is a W-image of a
simple coroot, so it is primitive in Q^vee.

classify reads the type off two integer tests: Sylvester's criterion on
diag(d')A for finite type, and for affine type the integer kernel of A,
which must be one line spanned by a strictly positive vector delta (Kac,
Infinite-dimensional Lie algebras, Thm 4.3).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul

from .linalg import Vec, echelon, integer_kernel, integral_multiple, primitive_vector


class NotSkewSymmetrizable(ValueError):
    pass


class NotAcyclic(ValueError):
    pass


class NotAffine(ValueError):
    pass


def is_int(x) -> bool:
    """An int proper: bools (and floats, strings, ...) are not matrix entries."""
    return isinstance(x, int) and not isinstance(x, bool)


def _int_rows(rows) -> tuple:
    """The rows as tuples of ints; any other entry is rejected, never truncated."""
    out = tuple(tuple(row) for row in rows)
    for row in out:
        for x in row:
            if not is_int(x):
                raise ValueError(f"matrix entries must be ints, got {x!r}")
    return out


@dataclass(frozen=True)
class ExchangeMatrix:
    """Skew-symmetrizable integer matrix B = [b_ij]."""

    n: int
    b: tuple

    @staticmethod
    def from_rows(rows) -> "ExchangeMatrix":
        n = len(rows)
        b = _int_rows(rows)
        for row in b:
            if len(row) != n:
                raise ValueError("B must be square")
        mat = ExchangeMatrix(n, b)
        mat.symmetrizer()  # raises NotSkewSymmetrizable on bad input
        return mat

    @cached_property
    def mutation_tree(self) -> dict:
        """Word -> the rows of B mutated along it, grown lazily by
        mutation.b_class_probe and kept as long as this matrix.  The probe
        reads row k of a word's matrix for the step at k: its entries of one
        sign are the coordinates that step changes."""
        return {(): self.b}

    def transpose(self) -> "ExchangeMatrix":
        return ExchangeMatrix(self.n, tuple(zip(*self.b)))

    def negate(self) -> "ExchangeMatrix":
        return ExchangeMatrix(self.n, tuple(tuple(-x for x in row) for row in self.b))

    def symmetrizer(self) -> tuple:
        """Positive rationals d with d_i b_ij = -d_j b_ji, normalized so that
        every d_i^{-1} is a positive integer and gcd of the d_i^{-1} is 1
        (per connected component of the support graph)."""
        n, b = self.n, self.b
        for i in range(n):
            if b[i][i] != 0:
                raise NotSkewSymmetrizable("nonzero diagonal")
            for j in range(n):
                if (b[i][j] == 0) != (b[j][i] == 0):
                    raise NotSkewSymmetrizable(f"sign pattern broken at ({i},{j})")
                if b[i][j] * b[j][i] > 0:
                    raise NotSkewSymmetrizable(f"entries {i},{j} have equal signs")
        # With the sign pattern checked, d_i b_ij = -d_j b_ji iff d_i |b_ij| = d_j |b_ji|.
        try:
            return _solve_symmetrizer([[abs(x) for x in row] for row in b])
        except ValueError as exc:
            raise NotSkewSymmetrizable("inconsistent symmetrizer cycle") from exc

    def is_acyclic(self) -> bool:
        """No directed cycle in the sign digraph (edge i -> j iff b_ij > 0)."""
        n = self.n
        adj = {i: [j for j in range(n) if self.b[i][j] > 0] for i in range(n)}
        state = [0] * n  # 0 unseen, 1 in progress, 2 done

        def visit(i) -> bool:
            state[i] = 1
            for j in adj[i]:
                if state[j] == 1:
                    return False
                if state[j] == 0 and not visit(j):
                    return False
            state[i] = 2
            return True

        return all(state[i] == 2 or visit(i) for i in range(n))

    def coxeter_order(self) -> tuple:
        """Lexicographically smallest linear extension of the sign digraph.

        The returned index sequence (0-based) is the order in which the simple
        reflections multiply to form the Coxeter element attached to B.
        """
        if not self.is_acyclic():
            raise NotAcyclic("B has a directed cycle; no Coxeter element")
        n = self.n
        indeg = [sum(1 for i in range(n) if self.b[i][j] > 0) for j in range(n)]
        order = []
        used = [False] * n
        for _ in range(n):
            i = min(v for v in range(n) if not used[v] and indeg[v] == 0)
            used[i] = True
            order.append(i)
            for j in range(n):
                if self.b[i][j] > 0:
                    indeg[j] -= 1
        return tuple(order)


@dataclass(frozen=True)
class CartanMatrix:
    """Symmetrizable generalized Cartan matrix with fixed symmetrizers d.

    d follows the convention d_i a_ij = d_j a_ji with every d_i^{-1} a positive
    integer and gcd(d_i^{-1}) = 1.
    """

    n: int
    a: tuple
    d: tuple

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_rows(rows, d=None) -> "CartanMatrix":
        n = len(rows)
        a = _int_rows(rows)
        for i in range(n):
            if a[i][i] != 2:
                raise ValueError("Cartan diagonal must be 2")
            for j in range(n):
                if i != j and a[i][j] > 0:
                    raise ValueError("off-diagonal Cartan entries must be <= 0")
                if i != j and (a[i][j] == 0) != (a[j][i] == 0):
                    raise ValueError("zero pattern must be symmetric")
        if d is None:
            d = _solve_symmetrizer(a)
        cm = CartanMatrix(n, a, tuple(Fraction(x) for x in d))
        for i in range(n):
            for j in range(n):
                if cm.d[i] * a[i][j] != cm.d[j] * a[j][i]:
                    raise ValueError("d does not symmetrize A")
        return cm

    # -- basic linear data --------------------------------------------------

    def simple_root(self, i: int) -> Vec:
        return tuple(1 if j == i else 0 for j in range(self.n))

    def pairing(self, x: Vec, v: Vec):
        """<x, v> for x in V* (rho coordinates) and v in V (alpha coordinates)."""
        return sum(x[i] * self.d[i] * v[i] for i in range(self.n))

    # -- integer root data, computed once per matrix -------------------------

    @cached_property
    def d_int(self) -> Vec:
        """The symmetrizer cleared to integers: a positive multiple of d."""
        return integral_multiple(self.d)

    @cached_property
    def _covectors(self) -> dict:
        return {}

    @cached_property
    def _roots(self) -> list:
        return [0, []]  # the largest height cap enumerated, and its roots

    def primitive_in_coroot_lattice(self, v: Vec) -> Vec:
        """The primitive vector of Q^vee on the ray through v, in alpha^vee
        coordinates: (d'_i v_i) made primitive.  On a real root it is the
        coroot."""
        v = tuple(v)
        cov = self._covectors.get(v)
        if cov is None:
            cov = self._covectors[v] = primitive_vector(tuple(map(mul, self.d_int, v)))
        return cov

    def reflect_root(self, i: int, v: Vec) -> Vec:
        """s_i(v) = v - K(alpha_i^vee, v) alpha_i on V; only coordinate i changes."""
        coef = sum(map(mul, self.a[i], v))
        return v[:i] + (v[i] - coef,) + v[i + 1 :]

    def peel(self, s: int, inversions) -> frozenset:
        """s.(inversions \\ {alpha_s}): the inversion set of s w from that of w, for s <= w."""
        alpha = self.simple_root(s)
        return frozenset(self.reflect_root(s, b) for b in inversions if b != alpha)

    def act_word_on_root(self, word, v: Vec) -> Vec:
        """Apply s_{word[0]} ... s_{word[-1]} to v (rightmost letter acts first)."""
        for i in reversed(word):
            v = self.reflect_root(i, v)
        return v

    # -- real roots ----------------------------------------------------------

    def real_roots_up_to_height(self, height_cap: int) -> list:
        """All positive real roots of coordinate sum <= height_cap, sorted by
        (height, root), as a fresh list.

        Orbit closure of the simple roots under simple reflections, pruned at
        the height cap; complete because every positive nonsimple real root has
        a height-decreasing simple reflection.  It runs only when the cap
        exceeds every cap asked before; a smaller cap reads the prefix of
        the roots up to its height, which is exactly its own closure.
        """
        memo = self._roots
        if height_cap > memo[0]:
            frontier = [self.simple_root(i) for i in range(self.n)]
            seen = set(frontier)
            while frontier:
                nxt = []
                for v in frontier:
                    for i in range(self.n):
                        w = self.reflect_root(i, v)
                        if w in seen or any(c < 0 for c in w) or sum(w) > height_cap:
                            continue
                        seen.add(w)
                        nxt.append(w)
                frontier = nxt
            memo[:] = height_cap, sorted(seen, key=lambda v: (sum(v), v))
        roots = memo[1]
        return roots[: bisect_right(roots, height_cap, key=sum)]


def _solve_symmetrizer(a) -> tuple:
    """Positive d with d_i a_ij = d_j a_ji, for a with a_ij a_ji > 0 off the zero
    pattern, normalized per connected component so that the d_i^{-1} are
    coprime positive integers."""
    n = len(a)
    d: list = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        stack = [start]
        comp = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if a[i][j] == 0 or i == j:
                    continue
                val = d[i] * Fraction(a[i][j], a[j][i])
                if d[j] is None:
                    d[j] = val
                    stack.append(j)
                    comp.append(j)
                elif d[j] != val:
                    raise ValueError("A is not symmetrizable")
        for i, x in zip(comp, primitive_vector([1 / d[i] for i in comp])):
            d[i] = Fraction(1, x)
    return tuple(d)


def exchange_to_cartan(bmat: ExchangeMatrix) -> CartanMatrix:
    """Cartan companion: a_ii = 2, a_ij = -|b_ij|, with d from the gcd convention."""
    n = bmat.n
    a = tuple(
        tuple(2 if i == j else -abs(bmat.b[i][j]) for j in range(n)) for i in range(n)
    )
    return CartanMatrix.from_rows(a, d=bmat.symmetrizer())


@dataclass(frozen=True)
class TypeInfo:
    """Result of classifying a Cartan matrix: finite, affine, or indefinite."""

    kind: str  # "finite" | "affine" | "indefinite"
    label: str | None = None
    delta: Vec | None = None
    aff_index: int | None = None  # 0-based
    is_a2k2: bool = False


def _is_positive_definite(sym) -> bool:
    """Sylvester's criterion on an integer matrix: each leading principal
    minor, sign * d from echelon (0 below full rank), is positive."""
    for k in range(1, len(sym) + 1):
        _, pivots, d, sign = echelon([row[:k] for row in sym[:k]])
        if len(pivots) < k or sign * d <= 0:
            return False
    return True


def classify(cm: CartanMatrix) -> TypeInfo:
    """Finite / Affine / Indefinite trichotomy in integers.

    Finite means diag(d')A is positive definite (Sylvester).  Affine means
    the integer kernel of A is one line spanned by a strictly positive
    vector, delta, its primitive generator (Kac, Thm 4.3).  A decomposable
    A with a strictly positive kernel vector has one on each component, so
    its kernel has dimension at least 2: the rule also keeps those out.
    """
    a = cm.a
    if _is_positive_definite([[di * x for x in row] for di, row in zip(cm.d_int, a)]):
        return TypeInfo(kind="finite")
    _, ker = integer_kernel([list(row) for row in a])
    if len(ker) != 1:
        return TypeInfo(kind="indefinite")
    # the kernel vector is d > 0 at its free column (linalg.integer_kernel),
    # so a line with a positive vector gives a positive one
    delta = primitive_vector(ker[0])
    if min(delta) <= 0:
        return TypeInfo(kind="indefinite")
    label, aff_index = _match_affine_label(cm, delta)
    is_a2k2 = label.startswith("A_") and label.endswith("^(2)") and int(label[2:-4]) % 2 == 0
    return TypeInfo(kind="affine", label=label, delta=delta, aff_index=aff_index, is_a2k2=is_a2k2)


# -- builtin affine diagram table --------------------------------------------
#
# Each entry is the standard affine Cartan matrix with Kac's node numbering
# (node 0 = the affine node).  classify() matches the input against these up
# to simultaneous row/column permutation; the permutation also locates the
# affine node in the input's indexing.


def _path(n, edges):
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j, aij, aji in edges:
        a[i][j] = aij
        a[j][i] = aji
    return tuple(tuple(row) for row in a)


def _affine_table(n: int) -> list:
    """All standard affine Cartan matrices with n nodes, as (label, matrix)."""
    single = lambda i, j: (i, j, -1, -1)
    out = []
    if n == 2:
        out.append(("A_1^(1)", _path(2, [(0, 1, -2, -2)])))
        # Kac A_2^(2): alpha_0 short, a_01 = -4, a_10 = -1.
        out.append(("A_2^(2)", _path(2, [(0, 1, -4, -1)])))
        return out
    ell = n - 1
    # A_ell^(1): cycle.
    out.append((f"A_{ell}^(1)", _path(n, [single(i, (i + 1) % n) for i in range(n)])))
    if ell >= 3:
        # B_ell^(1): fork 0,1 at 2; chain; double edge toward the short end node ell.
        edges = [single(0, 2), single(1, 2)] + [single(i, i + 1) for i in range(2, ell - 1)]
        edges.append((ell - 1, ell, -1, -2))
        out.append((f"B_{ell}^(1)", _path(n, edges)))
        # A_{2ell-1}^(2): same shape, arrow reversed.
        edges = [single(0, 2), single(1, 2)] + [single(i, i + 1) for i in range(2, ell - 1)]
        edges.append((ell - 1, ell, -2, -1))
        out.append((f"A_{2 * ell - 1}^(2)", _path(n, edges)))
    if ell >= 2:
        # C_ell^(1): path, long roots at both ends pointing inward.
        edges = [(0, 1, -1, -2)] + [single(i, i + 1) for i in range(1, ell - 1)] + [
            (ell - 1, ell, -2, -1)
        ]
        out.append((f"C_{ell}^(1)", _path(n, edges)))
        # D_{ell+1}^(2): path, both arrows outward.
        edges = [(0, 1, -2, -1)] + [single(i, i + 1) for i in range(1, ell - 1)] + [
            (ell - 1, ell, -1, -2)
        ]
        out.append((f"D_{ell + 1}^(2)", _path(n, edges)))
        # A_{2ell}^(2): path with node 0 the short end (mark 2) and node ell the
        # mark-1 long end; three root lengths when ell >= 2.
        edges = [(0, 1, -2, -1)] + [single(i, i + 1) for i in range(1, ell - 1)] + [
            (ell - 1, ell, -2, -1)
        ]
        out.append((f"A_{2 * ell}^(2)", _path(n, edges)))
    if ell >= 4:
        # D_ell^(1): forks at both ends.
        edges = [single(0, 2), single(1, 2)] + [single(i, i + 1) for i in range(2, ell - 2)]
        edges += [single(ell - 2, ell - 1), single(ell - 2, ell)]
        out.append((f"D_{ell}^(1)", _path(n, edges)))
    if n == 3:
        out.append(("G_2^(1)", _path(3, [single(0, 1), (1, 2, -1, -3)])))
        out.append(("D_4^(3)", _path(3, [single(0, 1), (1, 2, -3, -1)])))
    if n == 5:
        out.append(("F_4^(1)", _path(5, [single(0, 1), single(1, 2), (2, 3, -1, -2), single(3, 4)])))
        out.append(("E_6^(2)", _path(5, [single(0, 1), single(1, 2), (2, 3, -2, -1), single(3, 4)])))
    if n == 7:
        # E_6^(1): path 1-2-3-4-5 with branch 3-6-0; node 0 is the affine end.
        e6 = [single(1, 2), single(2, 3), single(3, 4), single(4, 5), single(3, 6), single(6, 0)]
        out.append(("E_6^(1)", _path(7, e6)))
    if n == 8:
        e7 = [single(0, 1)] + [single(i, i + 1) for i in range(1, 6)] + [single(3, 7)]
        out.append(("E_7^(1)", _path(8, e7)))
    if n == 9:
        e8 = [single(i, i + 1) for i in range(0, 7)] + [single(5, 8)]
        out.append(("E_8^(1)", _path(9, e8)))
    return out


def _find_isomorphism(a_in, a_ref) -> list | None:
    """All permutations p with a_in[p(i)][p(j)] == a_ref[i][j]; returns the list
    of images of reference node 0, or None if no isomorphism exists."""
    n = len(a_in)
    ref_rows = [tuple(sorted(a_ref[i][j] for j in range(n) if j != i)) for i in range(n)]
    in_rows = [tuple(sorted(a_in[i][j] for j in range(n) if j != i)) for i in range(n)]
    images = set()

    def backtrack(mapping, used):
        i = len(mapping)
        if i == n:
            images.add(mapping[0])
            return
        for cand in range(n):
            if used[cand] or in_rows[cand] != ref_rows[i]:
                continue
            ok = True
            for prev in range(i):
                q = mapping[prev]
                if a_in[cand][q] != a_ref[i][prev] or a_in[q][cand] != a_ref[prev][i]:
                    ok = False
                    break
            if ok:
                used[cand] = True
                backtrack(mapping + [cand], used)
                used[cand] = False

    backtrack([], [False] * n)
    return sorted(images) if images else None


def _match_affine_label(cm: CartanMatrix, delta: Vec):
    for label, ref in _affine_table(cm.n):
        images = _find_isomorphism(cm.a, ref)
        if images is not None:
            return label, images[0]
    raise AssertionError("affine Cartan matrix matches no standard affine diagram")
