"""The affine almost-positive roots model.

AP_c = negative simples, positive real roots off the hyperplane H_c, the
finite tube set APT_c, and the imaginary root delta.  The compatibility
degree is evaluated by the tube formulas on tube pairs and otherwise by
tau_c-iteration down to the negative-simple base cases.

The tubes are one integer table, built once (APContext.tube): c permutes
the tube generators xi in cycles, APT_c is the set of proper arcs of those
cycles (sums of consecutive generators short of a whole cycle, whose sum
is a multiple of delta), and each arc is stored with its xi-support, which
the tube formulas look up.

The degree is tau_c-invariant, so a pair (a, b) may be read at any common
step (tau_c^t a, tau_c^t b).  Rather than walk both roots step by step for
every pair, each root's tau_c-orbit (and tau_c^{-1}-orbit) is walked once,
lazily, into a table that also records the first step at which the orbit is
a negative simple.  A pair is answered at the smaller of its two roots'
first steps, which is exactly where the joint walk would stop.

The defect (CoxeterContext.defect), a positive multiple of omega_c(beta,
delta), tells in advance which orbit can hit: a positive real root reaches a
negative simple under tau_c only if its defect is negative, under
tau_c^{-1} only if it is positive, and a root of defect 0 (a tube root, or
delta) never does (see APContext._orbit).  So each root is walked in one
direction only, to its hit or the step cap, and an orbit that cannot hit is
not walked at all: when a pair needs one of its entries, the stored prefix
is stepped on to it.  The base cases read coroots: the Cartan matrix's
primitive coroot-lattice vector of each root, computed once, in integers.

Compatibility is symmetric: a degree is zero exactly when its transpose is
(Reading-Stella, An affine almost positive roots model).  So the
compatibility graph tests each unordered pair of roots once.  The graph
and one enumeration of its cliques, the compatible sets, are kept per
height cap and serve both the fan, one simplicial cone per compatible set,
and the clusters, which are the maximal compatible sets: those whose
members have no common partner.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .cartan import NotAffine
from .cones import Cone
from .coxeter import CoxeterContext
from .linalg import rank


class ResolutionCapExceeded(RuntimeError):
    pass


@dataclass(frozen=True)
class TubeStructure:
    xi: tuple  # the tube generators: extreme rays of the cone on the tube roots
    cycles: tuple  # the c-orbits of xi, as xi indices in the order c moves them
    supp: dict  # each proper arc -> its xi-support, a frozenset of xi indices
    apt_real: tuple  # APT_c, the real tube roots: the proper arcs, sorted


class APContext:
    """Almost-positive root data for one affine Coxeter context."""

    def __init__(self, cox: CoxeterContext):
        if cox.type_info.kind != "affine":
            raise NotAffine("almost-positive model needs affine type")
        self.cox = cox
        self.cartan = cox.cartan
        self.n = cox.n
        self.delta = cox.type_info.delta
        self._compat_cache: dict = {}
        # per direction (tau, tau^{-1}): root -> (orbit walked so far, the
        # step of its first negative simple, which ends it, or None)
        self._orbits: tuple = ({}, {})
        self._graphs: dict = {}  # height cap -> compatibility_graph(height cap)

    # -- tubes -------------------------------------------------------------------

    @cached_property
    def tube(self) -> TubeStructure:
        """The tube generators xi, their c-cycles and APT_c with each root's
        xi-support, in integers.

        The generators xi are the extreme rays of the cone on the tube roots
        (delta is interior whenever any real tube roots exist), and c permutes
        them; a cycle lists one c-orbit as xi_i, c xi_i, c^2 xi_i, ...  A
        proper arc of a cycle of m generators is the sum of 1 to m - 1
        consecutive ones, and its xi-support is the set of generators it
        sums.  The paper's APT_c is the union of the c-orbits of the finite
        tube roots, those with affine coordinate 0.  It is the set of proper
        arcs, by two checks made here:

        (A) the arcs with affine coordinate 0 are exactly the tube roots with
            affine coordinate 0;
        (B) exactly one generator of each cycle has a nonzero affine
            coordinate.

        c maps the arc of length l that starts at xi_i to the one that starts
        at c xi_i, so the m arcs of each length l form one c-orbit.  By (A)
        every finite tube root is an arc, so APT_c holds only proper arcs.
        By (B), for each l <= m - 1 the arc of length l that starts just after
        the one generator with a nonzero affine coordinate ends before it: its
        generators all have affine coordinate 0, so it is a finite tube root
        by (A), and its c-orbit, all m arcs of length l, lies in APT_c.  Hence
        APT_c is the set of proper arcs, each a real root in H_c."""
        cartan, cox, delta = self.cartan, self.cox, self.delta
        aff = cox.type_info.aff_index
        tube_roots = [
            r for r in cartan.real_roots_up_to_height(2 * sum(delta)) if cox.in_h_c(r)
        ]
        if not tube_roots:
            return TubeStructure(xi=(), cycles=(), supp={}, apt_real=())
        gens = Cone.from_rays(self.n, tube_roots + [delta]).rays
        xi = tuple(sorted(g for g in gens if tuple(g) != tuple(delta)))
        index = {g: i for i, g in enumerate(xi)}
        c_next = []
        for g in xi:
            assert g in tube_roots, "tube generator must be a real root"
            image = cartan.act_word_on_root(cox.order, g)
            assert image in index, "c must permute the tube generators"
            c_next.append(index[image])
        cycles = []
        for i in range(len(xi)):
            if not any(i in cycle for cycle in cycles):
                cycle = [i]
                while c_next[cycle[-1]] != i:
                    cycle.append(c_next[cycle[-1]])
                cycles.append(tuple(cycle))
        assert all(
            sum(xi[i][aff] != 0 for i in cycle) == 1 for cycle in cycles
        ), "(B): one generator per tube cycle must have a nonzero affine coordinate"
        supp = {}
        for cycle in cycles:
            m = len(cycle)
            for start in range(m):
                members = [cycle[(start + k) % m] for k in range(m - 1)]
                arc = (0,) * self.n
                for length, i in enumerate(members, 1):
                    arc = tuple(a + b for a, b in zip(arc, xi[i]))
                    supp[arc] = frozenset(members[:length])
        assert {a for a in supp if a[aff] == 0} == {
            r for r in tube_roots if r[aff] == 0
        }, "(A): the arcs with affine coordinate 0 must be the finite tube roots"
        return TubeStructure(
            xi=xi, cycles=tuple(cycles), supp=supp, apt_real=tuple(sorted(supp))
        )

    # -- the AP set ----------------------------------------------------------------

    def ap_positive_real(self, height_cap: int):
        """Positive real roots of AP_c up to the height cap (tube reals enter
        regardless of the cap: APT_c is finite and fixed)."""
        out = {
            r
            for r in self.cartan.real_roots_up_to_height(height_cap)
            if not self.cox.in_h_c(r)
        }
        out.update(self.tube.apt_real)
        return sorted(out)

    def ap_roots(self, height_cap: int):
        """The AP_c inventory: negative simples, positive reals, delta."""
        neg = [tuple(-1 if j == i else 0 for j in range(self.n)) for i in range(self.n)]
        return neg + self.ap_positive_real(height_cap) + [self.delta]

    def is_tube_real(self, root) -> bool:
        return root in self.tube.supp

    # -- tau ---------------------------------------------------------------------------

    def _sigma(self, s: int, root):
        # sigma_s: the identity on negative simples other than -alpha_s,
        # else the reflection s
        if all(c <= 0 for c in root) and sum(root) == -1 and root[s] == 0:
            return root
        return self.cartan.reflect_root(s, root)

    def tau(self, root):
        """tau_c = sigma_{s_1} ... sigma_{s_n} (rightmost acts first; each
        letter is final in the Coxeter element current at its step)."""
        for s in reversed(self.cox.order):
            root = self._sigma(s, root)
        return root

    def tau_inverse(self, root):
        for s in self.cox.order:
            root = self._sigma(s, root)
        return root

    # -- compatibility degree --------------------------------------------------------

    def _negative_simple_index(self, root):
        if all(c <= 0 for c in root) and sum(root) == -1:
            return next(i for i, c in enumerate(root) if c == -1)
        return None

    def tube_degree(self, a, b) -> int:
        """Compatibility degree on tube reals: -1 on the diagonal, 0 on strict
        nesting, else the adjacency count."""
        if a == b:
            return -1
        supp = self.tube.supp
        sa, sb = supp[a], supp[b]
        if sa < sb or sb < sa:
            return 0
        ca = supp[self.cartan.act_word_on_root(self.cox.order, a)]
        ca_inv = supp[self.cartan.act_word_on_root(tuple(reversed(self.cox.order)), a)]
        adjacent = (ca | ca_inv) - sa
        return len(sb & adjacent)

    def compatibility_degree(self, a, b) -> int:
        """The c-compatibility degree on AP_c x AP_c, once per pair, with
        at most 4n(h + 4) tau steps, h the larger of the two heights."""
        key = (a, b)
        if key not in self._compat_cache:
            cap = 4 * self.n * (max(sum(map(abs, a)), sum(map(abs, b))) + 4)
            self._compat_cache[key] = self._compat(a, b, cap)
        return self._compat_cache[key]

    def _orbit(self, root, direction, limit):
        """(orbit, t): root's tau-orbit (direction 0) or tau^{-1}-orbit
        (direction 1) and the first step t < limit at which it is a negative
        simple, else t = None.  A negative simple hits at step 0.  Any other
        root is walked only in the direction its defect picks, tau when it is
        negative and tau^{-1} when it is positive, once, lazily: the walk
        ends at its first negative simple or at step limit - 1.  In the other
        direction, and for a defect of 0, the orbit has no hit and is stored
        as its first entry.  A stored entry is never changed, only replaced
        by a longer one, so a concurrent reader always sees a true prefix of
        the orbit.

        Why only that direction can hit.  Let c = s_1 ... s_n in the order of
        c.  Until a walk hits, every entry is a positive root and each tau
        step is c (each tau^{-1} step c^{-1}): within one step each letter
        acts once, and sigma_s is the plain reflection s on a positive root,
        whose image is negative only when the root is alpha_s; that gives
        -alpha_s, which the later letters keep, so the step ends on a hit.
        The defect is c-invariant, so it is the same at every entry before
        the hit.  A tau-walk that hits -alpha_p at step t >= 1 is at
        tau^{-1}(-alpha_p) = s_n ... s_{p+1} alpha_p = -c^{-1} beta_p one step
        before, with beta_p = s_1 ... s_{p-1} alpha_p; a tau^{-1}-walk is at
        tau(-alpha_p) = beta_p.  The beta_p are the columns of U^{-1} (see
        CoxeterContext.defect), so E_c(beta_p, alpha_q) = d_p [p = q] (checked
        in tests/test_coxeter.py) and omega_c(beta_p, delta) =
        2 E_c(beta_p, delta) = 2 d_p delta_p > 0.  So beta_p has a positive
        defect and -c^{-1} beta_p a negative one: a tau-walk hits only from a
        negative defect, a tau^{-1}-walk only from a positive one, and a root
        of defect 0 never hits.  Conversely,
        c acts on V / R delta through the finite Weyl group, so some power
        c^m is v -> v + f(v) delta with f linear and c-invariant, hence a
        multiple of the defect (the fixed space of c is R delta).  c^m
        gamma_c = gamma_c + m delta and the defect of gamma_c is a positive
        multiple of K(gamma_c, gamma_c) > 0, so f is a positive multiple of
        the defect: in the direction the defect picks, every m steps take a
        positive multiple of delta off the entry, and the walk must leave the
        positive roots, which only a hit does."""
        orbits = self._orbits[direction]
        if root not in orbits:
            orbits[root] = ((root,), 0 if self._negative_simple_index(root) is not None else None)
        orbit, hit = orbits[root]
        if hit is None and len(orbit) < limit:
            defect = self.cox.defect(root)
            if defect > 0 if direction else defect < 0:
                step = self.tau_inverse if direction else self.tau
                walk = list(orbit)
                while hit is None and len(walk) < limit:
                    walk.append(step(walk[-1]))
                    if self._negative_simple_index(walk[-1]) is not None:
                        hit = len(walk) - 1
                orbit = tuple(walk)
                orbits[root] = (orbit, hit)
        return orbit, hit if hit is not None and hit < limit else None

    def _entry(self, root, direction, t):
        """Step t of root's stored orbit, stepping the stored prefix on to step
        t.  _compat reads past a stored prefix only on an orbit that the
        defect leaves unwalked, which has no hit to find."""
        orbits = self._orbits[direction]
        orbit, hit = orbits[root]
        if t >= len(orbit):
            step = self.tau_inverse if direction else self.tau
            walk = list(orbit)
            while len(walk) <= t:
                walk.append(step(walk[-1]))
            orbit = tuple(walk)
            orbits[root] = (orbit, hit)
        return orbit[t]

    def _compat(self, a, b, cap):
        """Tube formulas on tube pairs; otherwise the base case at the first
        step t below the cap at which tau^t a or tau^t b is a negative simple,
        trying tau^{-1} when tau finds none.  The degree is tau-invariant, so
        (a, b) has the degree of (tau^t a, tau^t b).  t is the smaller of the
        two roots' first hits, read off their orbit tables, and a hit by
        tau^t a wins a tie: the answer of walking both roots together step
        by step, with each root's orbit walked once for all its pairs."""
        in_tube_a = a == self.delta or self.is_tube_real(a)
        in_tube_b = b == self.delta or self.is_tube_real(b)
        if in_tube_a and in_tube_b:
            if a == self.delta or b == self.delta:
                return 0
            return self.tube_degree(a, b)
        for direction in (0, 1):
            orbit_a, ta = self._orbit(a, direction, cap)
            # b's orbit must reach step ta, where a tie goes to a.
            orbit_b, tb = self._orbit(b, direction, cap if ta is None else ta + 1)
            if tb is not None and (ta is None or tb < ta):
                # [[beta, -alpha_j]] = <rho_j, beta^vee>, beta^vee the coroot
                # of beta, or for delta the primitive vector of Q^vee on its ray.
                j = self._negative_simple_index(orbit_b[tb])
                return self.cartan.primitive_in_coroot_lattice(self._entry(a, direction, tb))[j]
            if ta is not None:
                # [[-alpha_i, beta]] = <rho_i^vee, beta>: the alpha_i coordinate.
                i = self._negative_simple_index(orbit_a[ta])
                return self._entry(b, direction, ta)[i]
        raise ResolutionCapExceeded(f"no base case within {cap} tau steps for {(a, b)}")

    # -- clusters and the fan -----------------------------------------------------------

    def compatibility_graph(self, height_cap: int):
        """(roots, edges, cliques): the height-capped AP_c, its compatible
        pairs (root -> partners) and its cliques, the compatible sets (see
        _cliques), once per height cap.  Compatibility is symmetric, so each
        unordered pair is tested once."""
        if height_cap not in self._graphs:
            roots = self.ap_roots(height_cap)
            edges = {r: set() for r in roots}
            for i, r in enumerate(roots):
                for s in roots[i + 1 :]:
                    if self.compatibility_degree(r, s) == 0:
                        edges[r].add(s)
                        edges[s].add(r)
            self._graphs[height_cap] = roots, edges, _cliques(roots, edges)
        return self._graphs[height_cap]

    def clusters(self, height_cap: int):
        """Maximal pairwise-compatible sets, split into real clusters (n
        independent roots) and imaginary clusters (containing delta).

        Imaginary clusters are exact; real clusters are maximal relative to
        the height cap.
        """
        _, edges, cliques = self.compatibility_graph(height_cap)
        real, imaginary, frontier = [], [], []
        for cl in cliques:
            if not cl or set.intersection(*(edges[r] for r in cl)):
                continue  # empty, or not maximal: its members have a common partner
            members = tuple(sorted(cl))
            if self.delta in cl:
                assert len(cl) == self.n - 1, "imaginary clusters have n-1 roots"
                assert all(
                    r == self.delta or self.is_tube_real(r) for r in cl
                ), "imaginary clusters consist of tube roots and delta"
                imaginary.append(members)
            elif len(cl) == self.n:
                assert rank([list(r) for r in cl]) == self.n
                real.append(members)
            else:
                # maximal only because the height cut hides larger partners
                frontier.append(members)
        return sorted(real), sorted(imaginary), sorted(frontier)

    def fan_cones(self, height_cap: int):
        """All cones of nu_c(Fan_c) from height-capped compatible sets, with
        their generating root sets: the nu_c images of a compatible set are
        linearly independent and span a simplicial cone, and distinct
        compatible sets span distinct cones.  nu_c is evaluated once per
        root."""
        roots, _, cliques = self.compatibility_graph(height_cap)
        nu = {r: self.cox.nu(r) for r in roots}
        return [(subset, Cone.simplicial(self.n, [nu[r] for r in subset])) for subset in cliques]


def _cliques(roots, edges):
    """Every clique of the graph as a tuple in roots order, the empty one
    first, each extended only by later roots so that it is built once."""
    out = [()]
    stack = [((), list(roots))]
    while stack:
        base, candidates = stack.pop()
        for idx, r in enumerate(candidates):
            subset = base + (r,)
            out.append(subset)
            rest = [s for s in candidates[idx + 1 :] if s in edges[r]]
            stack.append((subset, rest))
    return out
