"""c-sortable elements, pi-down projection, Cambrian cones, and the
join-irreducible sortable inventory.

All recursions work on (inversion set, index order) pairs; the order is a
linear extension whose first letter is always initial in the current Coxeter
element, and parabolic descent drops letters from the order.

The same recursion (Reading-Speyer, valid in any Coxeter group) generates the
c-sortable elements directly: with s initial in c, w is c-sortable iff either
s <= w and sw is scs-sortable, or w lies in W_<s> and is sc-sortable there.
So the c-sortables of a given length are the sc-sortables of W_<s> of that
length plus s v for each scs-sortable v one shorter with s not <= v, and
no element outside the sortable set is ever built.
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
        self._level_cache: dict = {}
        self._generated = 0  # elements built by the generator, against the cap
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
        out = []
        for length in range(max_len + 1):
            level = self._sortables_of_length(self.cox.order, length)
            out.extend(SortableWitness(w, w.word) for w in sorted(level, key=lambda w: w.word))
        return out

    def _sortables_of_length(self, order, length):
        """The order-sortable elements of the parabolic on the letters of
        order, of exactly the given length.  sortables_up_to_length fills
        lengths in increasing order, so a call recurses only through keys
        still missing, at most one per order reachable from c."""
        key = (order, length)
        if key in self._level_cache:
            return self._level_cache[key]
        if length == 0:
            level = [self.weyl.identity()]
        elif not order:
            level = []
        else:
            s = order[0]
            alpha = self.cartan.simple_root(s)
            up = [
                self.weyl.left_mul_up(v, s)
                for v in self._sortables_of_length(_rotate(order, s), length - 1)
                if alpha not in v.inversions
            ]
            self._generated += len(up)
            if self._generated > self._cap:
                raise CapExceeded(
                    f"element cap AFFSCAT_CAP={self._cap} exceeded by sortable "
                    f"generation at length {length}"
                )
            level = self._sortables_of_length(_drop(order, s), length) + up
        self._level_cache[key] = level
        return level

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
