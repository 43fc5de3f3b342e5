"""c-sortable elements, pi-down projection, Cambrian cones, and the
join-irreducible sortable inventory.

The sortability, pi-down and cone recursions work on (inversion set, index
order) pairs; the order is a linear extension whose first letter is always
initial in the current Coxeter element, and parabolic descent drops letters
from the order.

The c-sortable elements themselves are generated breadth first, each exactly
once, by right multiplication along subwords of c^infinity with nested blocks
(Reading, "Sortable elements and Cambrian lattices").  A state is an element
w, whose word is its c-sorting word, the position in c of its last letter,
and the letter sets of its previous and current blocks (the first block's
previous set is every letter).  A letter t after the last position stays in
the current block and must lie in the previous one; a letter at or before it
opens a new block and must lie in the current one.  w t is built only when
w(alpha_t) is positive, so the word stays reduced.

Every word so built is the c-sorting word of its element.  Embed it leftmost
in c^infinity, so a block ends exactly where the positions stop increasing.
Greedy c-sorting takes each of its letters, because the rest of the word
starts with that letter.  It skips every letter the word omits: a letter left
out of one block is absent from every later block, so it is not in the
support of what remains.  Conversely the c-sorting word of a c-sortable
element is reduced with nested blocks, and so is each of its prefixes.  Hence
every c-sortable element is generated, and exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cones import Cone
from .coxeter import CoxeterContext
from .weyl import (
    CapExceeded,
    GroupElement,
    WeylContext,
    element_cap,
    is_join_irreducible,
)


@dataclass(frozen=True)
class SortableWitness:
    element: GroupElement
    sorting_word: tuple


def _rotate(order, s):
    return tuple(i for i in order if i != s) + (s,)


def _drop(order, s):
    return tuple(i for i in order if i != s)


class SortableContext:
    def __init__(self, weyl: WeylContext, cox: CoxeterContext):
        assert weyl.cartan is cox.cartan
        self.weyl = weyl
        self.cox = cox
        self.cartan = weyl.cartan
        self._sort_cache: dict = {}
        self._cone_cache: dict = {}
        identity = weyl.identity()
        self._levels = [[SortableWitness(identity, ())]]  # witnesses by length
        self._frontier = [(identity, -1, (1 << self.cartan.n) - 1, 0)]
        self._generated = 0  # non-identity sortables built, against the cap
        self._cap = element_cap()

    # -- sortability ----------------------------------------------------------

    def sorting_word(self, inversions: frozenset, order=None):
        """The c-sorting word if the element is c-sortable, else None."""
        order = self.cox.order if order is None else order
        key = (inversions, order)
        if key in self._sort_cache:
            return self._sort_cache[key]
        result = self._sorting_word(inversions, order)
        self._sort_cache[key] = result
        return result

    def _sorting_word(self, inversions, order):
        if not inversions:
            return ()
        if not order:
            return None  # nonidentity element of the trivial parabolic
        s = order[0]
        if self.cartan.simple_root(s) in inversions:
            tail = self.sorting_word(self.cartan.peel(s, inversions), _rotate(order, s))
            return None if tail is None else (s,) + tail
        if any(b[s] != 0 for b in inversions):
            return None  # not in the parabolic W_<s>
        return self.sorting_word(inversions, _drop(order, s))

    def is_sortable(self, w: GroupElement) -> SortableWitness | None:
        word = self.sorting_word(w.inversions)
        if word is None:
            return None
        return SortableWitness(w, word)

    # -- pi-down ----------------------------------------------------------------

    def pi_down(self, w: GroupElement) -> GroupElement:
        inv = self._pi_down(w.inversions, self.cox.order)
        from .weyl import word_from_inversions

        return self.weyl.from_word(word_from_inversions(self.weyl, inv))

    def _pi_down(self, inversions, order) -> frozenset:
        if not inversions or not order:
            return frozenset()
        s = order[0]
        alpha = self.cartan.simple_root(s)
        if alpha in inversions:
            below = self._pi_down(self.cartan.peel(s, inversions), _rotate(order, s))
            assert alpha not in below
            return frozenset({self.cartan.reflect_root(s, b) for b in below} | {alpha})
        restricted = frozenset(b for b in inversions if b[s] == 0)
        return self._pi_down(restricted, _drop(order, s))

    # -- Cambrian cones -----------------------------------------------------------

    def cone_normals(self, inversions: frozenset, order=None):
        """C_c(v) for sortable v: n roots whose >=0 side cuts out Cone_c(v)."""
        order = self.cox.order if order is None else order
        key = (inversions, order)
        if key in self._cone_cache:
            return self._cone_cache[key]
        if not inversions:
            result = frozenset(self.cartan.simple_root(i) for i in order)
        else:
            s = order[0]
            alpha = self.cartan.simple_root(s)
            if alpha in inversions:
                inner = self.cone_normals(self.cartan.peel(s, inversions), _rotate(order, s))
                result = frozenset(self.cartan.reflect_root(s, b) for b in inner)
            else:
                inner = self.cone_normals(inversions, _drop(order, s))
                result = inner | {alpha}
        self._cone_cache[key] = result
        return result

    def cambrian_cone(self, v: GroupElement) -> Cone:
        """Cone_c(v) = {x : <x, beta> >= 0 for beta in C_c(v)} in V*."""
        normals = self.cone_normals(v.inversions)
        cov = self.cartan.primitive_in_coroot_lattice
        covs = [cov(tuple(-c for c in b)) for b in normals]
        return Cone.from_constraints(self.cartan.n, ineqs=covs)

    # -- enumeration ----------------------------------------------------------------

    def sortables_up_to_length(self, max_len: int):
        """Witnesses for the c-sortable elements of length <= max_len, in
        (length, sorting word) order; each element's word is its c-sorting word."""
        while len(self._levels) <= max_len:
            self._extend()
        return [wit for level in self._levels[: max_len + 1] for wit in level]

    def _extend(self):
        """Build the next length from the frontier of (element, position of
        its last letter, previous block, current block) states, blocks as
        letter bitmasks.  The frontier is in word order and letters are tried
        in increasing order, so each new level comes out in word order."""
        pos = self.cox.position
        frontier = []
        for w, last, prev, cur in self._frontier:
            for t in range(self.cartan.n):
                bit = 1 << t
                if cur & bit:
                    blocks = (cur, bit)  # t opens a new block
                elif prev & bit and pos[t] > last:
                    blocks = (prev, cur | bit)
                else:
                    continue
                if min(row[t] for row in w.matrix) >= 0:  # w(alpha_t) > 0
                    frontier.append((self.weyl.right_mul(w, t), pos[t], *blocks))
        if self._generated + len(frontier) > self._cap:
            raise CapExceeded(
                f"element cap AFFSCAT_CAP={self._cap} exceeded by sortable "
                f"generation at length {len(self._levels)}"
            )
        self._generated += len(frontier)
        self._frontier = frontier
        self._levels.append([SortableWitness(w, w.word) for w, *_ in frontier])

    def ji_sortables(self, height_cap: int, length_cap: int):
        """Map cover root -> join-irreducible c-sortable element, for cover
        roots of height at most height_cap, among elements of length at most
        length_cap.  Uniqueness per root is enforced.
        """
        found: dict = {}
        for wit in self.sortables_up_to_length(length_cap):
            w = wit.element
            if w.is_identity():
                continue
            root = is_join_irreducible(self.weyl, w)
            if root is None or sum(root) > height_cap:
                continue
            if root in found:
                raise AssertionError(
                    f"two join-irreducible sortables share cover root {root}"
                )
            found[root] = w
        return found
