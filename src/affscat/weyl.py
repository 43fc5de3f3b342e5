r"""Weyl group elements with inversion-set bookkeeping, the breadth-first walk
of W by length, and the element cap.

An element is identified by its inversion set inv(w) = {beta > 0 :
w^{-1}(beta) < 0}; reduced words are witnesses, never identities.  With this
convention the inversion sequence of a reduced word a_1...a_k lists inv(w)
incrementally: right multiplication by s appends or removes w(alpha_s), and
for s <= w, inv(sw) = s.(inv(w) \ {alpha_s}).

The scattering construction never builds a GroupElement: it generates the
sortables it needs as lean sortable.SortableWitness records.  The walk of W,
enumerate_up_to_length, stays because perfbench/tracing.py wraps it; the weak
order, covers, join-irreducibility and left division live in the tests, where
they check the sortable generator and the shard map.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .cartan import CartanMatrix
from .linalg import identity_mat

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


class WeylContext:
    """Element constructors for one Cartan matrix.

    s_i(alpha_j) = alpha_j - a_ij alpha_i, so the matrix of s_i is the identity
    except in row i, which is e_i - a_i for the Cartan row a_i.  So M s_i is
    the rank-1 update M[r] - M[r][i] a_i of every row: O(n^2) integer
    operations, not O(n^3).
    """

    def __init__(self, cartan: CartanMatrix):
        self.cartan = cartan
        self.n = cartan.n

    def _right_reflect(self, m: tuple, s: int) -> tuple:
        """m s: every row r becomes r - r[s] a_s."""
        a = self.cartan.a[s]
        return tuple(tuple(x - r[s] * c for x, c in zip(r, a)) if r[s] else r for r in m)

    def identity(self) -> GroupElement:
        return GroupElement((), frozenset(), identity_mat(self.n))

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

    def right_descents(self, w: GroupElement):
        """Letters s with ws <. w, i.e. w(alpha_s) negative."""
        out = []
        for s in range(self.n):
            if any(w.matrix[r][s] < 0 for r in range(self.n)):
                out.append(s)
        return out


def word_from_inversions(ctx: WeylContext, inv: frozenset) -> tuple:
    """Canonical reduced word (greedy smallest left-peel) for the element with
    the given inversion set."""
    word = []
    current = inv
    while current:
        s = min(s for s in range(ctx.n) if ctx.cartan.simple_root(s) in current)
        word.append(s)
        current = ctx.cartan.peel(s, current)
    return tuple(word)


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

