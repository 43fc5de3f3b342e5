"""c-sortable elements and their join-irreducibles, generated directly.

The c-sortable elements are generated breadth first, each exactly once, by
right multiplication along subwords of c^infinity with nested blocks
(Reading, "Sortable elements and Cambrian lattices").  A state is an element
w, built along its c-sorting word, the position in c of its last letter,
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

Each generated element is stored lean, as a SortableWitness: the columns
of its matrix (column j is w(alpha_j)), its right descents as a bitmask,
the witness it extends by one letter and that letter.  w t negates column t
and changes only the columns j with a_tj != 0, so the descents of w t are
those of w plus t, with each neighbour's bit read off the sign of its new
column.  The candidate letters of a state are read off the mask, and w is
join-irreducible when the mask has exactly one bit s, with cover root
-w(alpha_s).  Its inversion set is read off the parent chain only when asked
for: the shard of a join-irreducible needs it, the other elements scanned do
not.  The recursive sortability test, pi-down and the Cambrian cones of
Reading's lattice theory are kept in the tests, as the oracles of this
generator.
"""

from __future__ import annotations

from .coxeter import CoxeterContext
from .linalg import identity_mat
from .weyl import CapExceeded, element_cap


class SortableWitness:
    """A c-sortable element w, stored lean: the columns of its matrix (column
    j is the root w(alpha_j)), its right descents as a bitmask (bit s set
    when w(alpha_s) < 0), the witness one letter shorter (None for the
    identity) and the last letter of its c-sorting word."""

    __slots__ = ("columns", "descents", "parent", "letter")

    def __init__(self, columns, descents, parent=None, letter=None):
        self.columns = columns
        self.descents = descents
        self.parent = parent
        self.letter = letter

    @property
    def inversions(self) -> frozenset:
        """inv(w), read off the parent chain.  Each step of the chain
        multiplies u by a letter t with u(alpha_t) > 0 on the right, which
        adds u(alpha_t), column t of u's matrix, to the inversion set."""
        inversions = []
        wit = self
        while wit.parent is not None:
            inversions.append(wit.parent.columns[wit.letter])
            wit = wit.parent
        return frozenset(inversions)


class SortableContext:
    def __init__(self, cox: CoxeterContext):
        self.cox = cox
        self.cartan = cox.cartan
        n = self.cartan.n
        identity = SortableWitness(identity_mat(n), 0)
        self._levels = [[identity]]  # witnesses by length
        self._frontier = [(identity, -1, (1 << n) - 1, 0)]
        # (j, a_tj) for the columns j != t that a right multiplication by t changes
        a = self.cartan.a
        self._neighbours = [
            [(j, a[t][j]) for j in range(n) if j != t and a[t][j]] for t in range(n)
        ]
        # the letters after position p of c, for p = -1, ..., n - 1
        pos = cox.position
        self._after = {p: sum(1 << t for t in range(n) if pos[t] > p) for p in range(-1, n)}
        self._generated = 0  # non-identity sortables built, against the cap
        self._cap = element_cap()

    def sortables_up_to_length(self, max_len: int):
        """Witnesses for the c-sortable elements of length <= max_len, in
        (length, sorting word) order; each element's word is its c-sorting word."""
        while len(self._levels) <= max_len:
            self._extend()
        return [wit for level in self._levels[: max_len + 1] for wit in level]

    def _child(self, wit: SortableWitness, t: int) -> SortableWitness:
        """w t, for a letter t with w(alpha_t) > 0.  Column j of w s_t is
        w(alpha_j) - a_tj w(alpha_t): column t is negated, so t becomes a
        descent, and of the others only those of t's neighbours change.  A
        root is negative exactly when it has a negative coordinate."""
        columns = list(wit.columns)
        col_t = columns[t]
        columns[t] = tuple([-x for x in col_t])
        descents = wit.descents | 1 << t
        for j, a in self._neighbours[t]:
            col = columns[j] = tuple([x - a * y for x, y in zip(columns[j], col_t)])
            if min(col) < 0:
                descents |= 1 << j
            else:
                descents &= ~(1 << j)
        return SortableWitness(tuple(columns), descents, wit, t)

    def _extend(self):
        """Build the next length from the frontier of (witness, position of
        its last letter, previous block, current block) states, blocks as
        letter bitmasks.  A letter t extends w when w(alpha_t) > 0 (t is off
        the descent mask) and it either opens a new block (t in the current
        one) or continues the current block (t later in c than the last
        letter, and in the previous block).  The frontier is in word order
        and letters are tried in increasing order, so each new level comes
        out in word order."""
        pos, after = self.cox.position, self._after
        frontier = []
        for wit, last, prev, cur in self._frontier:
            letters = ~wit.descents & (cur | prev & after[last])
            while letters:
                bit = letters & -letters
                letters ^= bit
                t = bit.bit_length() - 1
                blocks = (cur, bit) if cur & bit else (prev, cur | bit)
                frontier.append((self._child(wit, t), pos[t], *blocks))
        if self._generated + len(frontier) > self._cap:
            raise CapExceeded(
                f"element cap AFFSCAT_CAP={self._cap} exceeded by sortable "
                f"generation at length {len(self._levels)}"
            )
        self._generated += len(frontier)
        self._frontier = frontier
        self._levels.append([wit for wit, *_ in frontier])

    def ji_sortables(self, height_cap: int, length_cap: int):
        """Map cover root -> witness of the join-irreducible c-sortable
        element, for cover roots of height at most height_cap, among elements
        of length at most length_cap.  Uniqueness per root is enforced.  A
        join-irreducible has exactly one right descent s, and its cover root
        is -w(alpha_s).
        """
        found: dict = {}
        for wit in self.sortables_up_to_length(length_cap):
            d = wit.descents
            if not d or d & (d - 1):
                continue  # the identity, or more than one right descent
            s = d.bit_length() - 1
            root = tuple([-x for x in wit.columns[s]])
            if sum(root) > height_cap:
                continue
            if root in found:
                raise AssertionError(
                    f"two join-irreducible sortables share cover root {root}"
                )
            found[root] = wit
        return found
