r"""Weyl group elements with inversion-set bookkeeping and weak order.

An element is identified by its inversion set inv(w) = {beta > 0 :
w^{-1}(beta) < 0}; reduced words are witnesses, never identities.  With this
convention the inversion sequence of a reduced word a_1...a_k lists inv(w)
incrementally: right multiplication by s appends or removes w(alpha_s), and
for s <= w, inv(sw) = s.(inv(w) \ {alpha_s}).  The weak order is containment
of inversion sets, with covers w <. ws.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .cartan import CartanMatrix
from .linalg import Vec, identity_mat

DEFAULT_ELEMENT_CAP = 10**6


class CapExceeded(RuntimeError):
    pass


def element_cap() -> int:
    """AFFSCAT_CAP as a positive int (default DEFAULT_ELEMENT_CAP); ValueError otherwise."""
    env = os.environ.get("AFFSCAT_CAP") or str(DEFAULT_ELEMENT_CAP)
    if not (env.isdecimal() and int(env) > 0):
        raise ValueError(f"AFFSCAT_CAP must be a positive integer, got {env!r}")
    return int(env)


@dataclass(frozen=True)
class GroupElement:
    word: tuple
    inversions: frozenset
    matrix: tuple  # action on V in alpha coordinates, columns are images of simples

    def __eq__(self, other):
        return isinstance(other, GroupElement) and self.inversions == other.inversions

    def __hash__(self):
        return hash(self.inversions)

    @property
    def length(self) -> int:
        return len(self.inversions)

    def is_identity(self) -> bool:
        return not self.inversions


class WeylContext:
    """Element constructors for one Cartan matrix.

    s_i(alpha_j) = alpha_j - a_ij alpha_i, so the matrix of s_i is the identity
    except in row i, which is e_i - a_i for the Cartan row a_i.  So s_i M
    changes only row i of M, to M[i] - sum_j a_ij M[j], and M s_i is the
    rank-1 update M[r] - M[r][i] a_i of every row: O(n^2) integer operations,
    not O(n^3).
    """

    def __init__(self, cartan: CartanMatrix):
        self.cartan = cartan
        self.n = cartan.n

    def _left_reflect(self, s: int, m: tuple) -> tuple:
        """s m: row s becomes m[s] - sum_j a_sj m[j]; the other rows are kept."""
        row = m[s]
        for j, c in enumerate(self.cartan.a[s]):
            if c:
                row = tuple(x - c * y for x, y in zip(row, m[j]))
        return m[:s] + (row,) + m[s + 1 :]

    def _right_reflect(self, m: tuple, s: int) -> tuple:
        """m s: every row r becomes r - r[s] a_s."""
        a = self.cartan.a[s]
        return tuple(tuple(x - r[s] * c for x, c in zip(r, a)) if r[s] else r for r in m)

    def identity(self) -> GroupElement:
        return GroupElement((), frozenset(), identity_mat(self.n))

    def simple_root(self, i: int) -> Vec:
        return self.cartan.simple_root(i)

    def from_word(self, word) -> GroupElement:
        w = self.identity()
        for s in word:
            w = self.right_mul(w, s)
        return w

    def right_mul(self, w: GroupElement, s: int) -> GroupElement:
        """w s, maintaining the reduced word and inversion set."""
        root = tuple(w.matrix[r][s] for r in range(self.n))  # w(alpha_s)
        mat = self._right_reflect(w.matrix, s)
        if all(c >= 0 for c in root):
            return GroupElement(w.word + (s,), w.inversions | {root}, mat)
        removed = tuple(-c for c in root)
        inv = w.inversions - {removed}
        assert len(inv) == len(w.inversions) - 1
        return GroupElement(word_from_inversions(self, inv), inv, mat)

    def inverse(self, w: GroupElement) -> GroupElement:
        return self.from_word(tuple(reversed(w.word)))

    def right_descents(self, w: GroupElement):
        """Letters s with ws <. w, i.e. w(alpha_s) negative."""
        out = []
        for s in range(self.n):
            if any(w.matrix[r][s] < 0 for r in range(self.n)):
                out.append(s)
        return out

    def left_div(self, w: GroupElement, s: int) -> GroupElement:
        """s w for s <= w: inv(sw) = s.(inv(w) \\ {alpha_s})."""
        assert self.simple_root(s) in w.inversions, "left_div requires s <= w"
        inv = self.cartan.peel(s, w.inversions)
        mat = self._left_reflect(s, w.matrix)
        return GroupElement(word_from_inversions(self, inv), inv, mat)


def word_from_inversions(ctx: WeylContext, inv: frozenset) -> tuple:
    """Canonical reduced word (greedy smallest left-peel) for the element with
    the given inversion set."""
    word = []
    current = inv
    while current:
        s = min(s for s in range(ctx.n) if ctx.simple_root(s) in current)
        word.append(s)
        current = ctx.cartan.peel(s, current)
    return tuple(word)


def weak_leq(v: GroupElement, w: GroupElement) -> bool:
    return v.inversions <= w.inversions


def covers(ctx: WeylContext, w: GroupElement):
    """Lower covers [(ws, beta_t)] over right descents; beta_t = -w(alpha_s)."""
    out = []
    for s in ctx.right_descents(w):
        root = tuple(-w.matrix[r][s] for r in range(ctx.n))
        out.append((ctx.right_mul(w, s), root))
    return out


def is_join_irreducible(ctx: WeylContext, w: GroupElement):
    """The unique cover root beta_t = -w(alpha_s) if s is the only right
    descent of w (so w covers exactly one element), else None."""
    descents = ctx.right_descents(w)
    if len(descents) != 1:
        return None
    s = descents[0]
    return tuple(-w.matrix[r][s] for r in range(ctx.n))


def enumerate_up_to_length(ctx: WeylContext, max_len: int, cap: int | None = None):
    """BFS over right multiplication; deduplicated by inversion set."""
    cap = cap if cap is not None else element_cap()
    out = {ctx.identity()}
    frontier = [ctx.identity()]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            descents = ctx.right_descents(w)
            for s in range(ctx.n):
                if s in descents:
                    continue
                u = ctx.right_mul(w, s)
                if u not in out:
                    out.add(u)
                    nxt.append(u)
                    if len(out) > cap:
                        raise CapExceeded(f"element cap {cap} exceeded")
        frontier = nxt
    return sorted(out, key=lambda w: (w.length, w.word))

