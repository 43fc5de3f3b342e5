"""The affine almost-positive roots model.

AP_c = negative simples, positive real roots off the hyperplane H_c, the
finite tube set APT_c, and the imaginary root delta.  The compatibility
degree is evaluated by the tube formulas on tube pairs and otherwise by
tau_c-iteration down to the negative-simple base cases.

The degree is tau_c-invariant, so a pair (a, b) may be read at any common
step (tau_c^t a, tau_c^t b).  Rather than walk both roots step by step for
every pair, each root's tau_c-orbit (and tau_c^{-1}-orbit) is walked once,
lazily, into a table that also records the first step at which the orbit is
a negative simple.  A pair is answered at the smaller of its two roots'
first steps, which is exactly where the joint walk would stop.

An orbit that never reaches a negative simple is not walked to the step
cap: its walk stops for good at the first entry y_t with an earlier
nonnegative entry y_s and y_t - y_s = k delta, k >= 0.  Until a walk hits,
each tau step is a product of plain reflections (sigma_s differs from s only
on negative simples, and a step that makes alpha_s negative ends on
-alpha_s, a hit).  Reflections fix delta, so from step s on the orbit
repeats its block y_s, ..., y_{t-1} shifted by k delta, every entry a
positive root plus a nonnegative multiple of delta, and never hits (see
APContext._orbit).  When a pair needs an entry past such a stop, the stored
orbit is stepped on to it.  The base cases read coroots, which the Cartan
matrix computes once per root, in integers.

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
from .linalg import rank, solve_linear, vdot


class ResolutionCapExceeded(RuntimeError):
    pass


@dataclass(frozen=True)
class TubeStructure:
    xi: tuple  # minimal positive generators of the tube roots, grouped meaning lost
    cycles: tuple  # xi indices grouped into Dynkin cycles of the tube system
    apt_real: tuple  # finite set of real tube roots (c-orbits of Phi^T_fin positives)
    c_action: dict  # xi index -> xi index under c


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
        # step of its first negative simple, which ends it, or None, and
        # whether the walk stopped for good at a repeat modulo delta)
        self._orbits: tuple = ({}, {})
        self._graphs: dict = {}  # height cap -> compatibility_graph(height cap)

    # -- tubes -------------------------------------------------------------------

    @cached_property
    def tube(self) -> TubeStructure:
        cartan, cox = self.cartan, self.cox
        n, delta = self.n, self.delta
        aff = cox.type_info.aff_index
        height_cap = 2 * sum(delta)
        tube_roots = [
            r for r in cartan.real_roots_up_to_height(height_cap) if cox.in_h_c(r)
        ]
        # Minimal positive generators: extreme rays of the cone on the tube
        # roots (delta is interior whenever any real tube roots exist).
        if not tube_roots:
            return TubeStructure(xi=(), cycles=(), apt_real=(), c_action={})
        gens = Cone.from_rays(n, tube_roots + [delta]).rays
        xi = tuple(sorted(g for g in gens if tuple(g) != tuple(delta)))
        for g in xi:
            assert g in tube_roots, "tube generator must be a real root"
        # Phi^T_fin: tube roots supported off the affine index; APT^re is the
        # union of their c-orbits.
        fin_pos = [r for r in tube_roots if r[aff] == 0]
        apt = set()
        for r in fin_pos:
            orbit = self._c_orbit(r)
            apt.update(orbit)
        for r in apt:
            assert all(c >= 0 for c in r), "tube orbits must stay positive"
            assert cox.in_h_c(r)
        cycles = self._xi_cycles(xi)
        c_action = {}
        for idx, g in enumerate(xi):
            img = cartan.act_word_on_root(cox.order, g)
            assert img in xi, "c must permute the tube generators"
            c_action[idx] = xi.index(img)
        return TubeStructure(
            xi=xi, cycles=cycles, apt_real=tuple(sorted(apt)), c_action=c_action
        )

    def _c_orbit(self, root):
        seen = [root]
        current = root
        while True:
            current = self.cartan.act_word_on_root(self.cox.order, current)
            if current == root:
                return seen
            seen.append(current)
            assert len(seen) < 10**4, "tube orbit failed to close"

    def _xi_cycles(self, xi):
        if not xi:
            return ()
        # K(u, v) = sum_i u_i d_i (A v)_i, and cov(u) is a positive multiple
        # of (u_i d_i): K(xi_i, xi_j) != 0 is tested in ints.
        cov = self.cartan.primitive_in_coroot_lattice
        adj = {
            i: {
                j
                for j in range(len(xi))
                if j != i and vdot(cov(xi[i]), self.cartan.a_times(xi[j])) != 0
            }
            for i in range(len(xi))
        }
        unseen = set(range(len(xi)))
        cycles = []
        while unseen:
            start = min(unseen)
            comp = {start}
            stack = [start]
            while stack:
                v = stack.pop()
                for u in adj[v]:
                    if u not in comp:
                        comp.add(u)
                        stack.append(u)
            unseen -= comp
            cycles.append(tuple(sorted(comp)))
        return tuple(cycles)

    def supp_xi(self, root) -> frozenset:
        """Support of a real tube root on the xi generators.

        A real tube root lies in a single Dynkin cycle of the tube system and
        is the sum of an arc of that cycle (all coefficients 0 or 1; within a
        cycle the generators are independent since only the full-cycle sum is
        isotropic).
        """
        xi = self.tube.xi
        for cycle in self.tube.cycles:
            rows = [[xi[i][j] for i in cycle] for j in range(self.n)]
            sol = solve_linear(rows, list(root))
            if sol is None:
                continue
            assert all(c in (0, 1) for c in sol), f"tube root {root} is not an arc"
            return frozenset(cycle[t] for t, c in enumerate(sol) if c == 1)
        raise AssertionError(f"{root} is not supported on one tube cycle")

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
        return root in self.tube.apt_real

    # -- sigma and tau ----------------------------------------------------------------

    def sigma(self, s: int, root):
        """sigma_s: AP_c -> AP_{scs}, for s initial or final in c."""
        if not (self.cox.is_initial(s) or self.cox.is_final(s)):
            raise ValueError(f"sigma_{s} needs an initial or final letter")
        return self._sigma(s, root)

    def _sigma(self, s: int, root):
        # identity on negative simples other than -alpha_s, else the reflection
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

    def _coroot_coords(self, root):
        """Integer alpha^vee coordinates of root^vee: the real coroot, or for
        delta the primitive coroot-lattice vector on its ray."""
        if root == self.delta:
            return self.cartan.primitive_in_coroot_lattice(root)
        return self.cartan.coroot(root)

    def tube_degree(self, a, b) -> int:
        """Compatibility degree on tube reals: -1 on the diagonal, 0 on strict
        nesting, else the adjacency count."""
        if a == b:
            return -1
        sa, sb = self.supp_xi(a), self.supp_xi(b)
        if sa < sb or sb < sa:
            return 0
        ca = self.supp_xi(self.cartan.act_word_on_root(self.cox.order, a))
        ca_inv = self.supp_xi(
            self.cartan.act_word_on_root(tuple(reversed(self.cox.order)), a)
        )
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
        simple, else t = None.  Each orbit is walked once, lazily: it ends at
        its first negative simple, at step limit - 1, or, for good, at its
        first repeat modulo delta, whichever comes first.  A stored entry is
        never changed, only replaced by a longer one, so a concurrent reader
        always sees a true prefix of the orbit.

        The walk at y_t stops for good when an earlier nonnegative entry y_s
        has y_t - y_s = k delta with k >= 0.  This is exact.  Until the walk
        hits, every entry is a positive root: within one tau step each letter
        acts once, and sigma_s is the plain reflection s on a positive root,
        whose image is negative only when the root is alpha_s; that gives
        -alpha_s, which the later letters keep, so the step ends on a hit.  So
        the steps from s to t are pure reflections, which fix delta, and
        y_{t+j} = y_{s+j} + k delta.  Each such entry is a positive root plus
        a nonnegative multiple of delta, so never a negative simple, and by
        induction over blocks of t - s steps the orbit never hits.  The test
        keeps the integer key delta_0 y - y_0 delta of each nonnegative entry
        (delta_0 > 0): y_t - y_s is a multiple of delta exactly when the keys
        agree, and k >= 0 exactly when y_t[0] >= y_s[0].  A repeat with k < 0
        does not stop the walk: that orbit still descends towards its hit."""
        orbits = self._orbits[direction]
        orbit, hit, stopped = orbits.get(root, ((), None, False))
        if hit is None and not stopped and len(orbit) < limit:
            step = self.tau_inverse if direction else self.tau
            delta, d0 = self.delta, self.delta[0]
            lowest: dict = {}  # key -> least y_0 of the entries with that key
            walk = list(orbit)  # its entries are replayed to rebuild the keys
            t = 0
            while hit is None and not stopped and t < limit:
                if t == len(walk):
                    walk.append(step(walk[-1]) if walk else root)
                y = walk[t]
                if self._negative_simple_index(y) is not None:
                    hit = t
                elif min(y) >= 0:
                    key = tuple(d0 * c - y[0] * e for c, e in zip(y, delta))
                    low = lowest.get(key)
                    if low is not None and y[0] >= low:
                        stopped = True
                    else:
                        lowest[key] = y[0]
                t += 1
            orbit = tuple(walk)
            orbits[root] = (orbit, hit, stopped)
        return orbit, hit if hit is not None and hit < limit else None

    def _entry(self, root, direction, t):
        """Step t of root's stored orbit, stepping a walk that stopped at a
        repeat modulo delta on to step t (it has no hit to find there)."""
        orbits = self._orbits[direction]
        orbit, hit, stopped = orbits[root]
        if t >= len(orbit):
            step = self.tau_inverse if direction else self.tau
            walk = list(orbit)
            while len(walk) <= t:
                walk.append(step(walk[-1]))
            orbit = tuple(walk)
            orbits[root] = (orbit, hit, stopped)
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
                # [[beta, -alpha_j]] = <rho_j, beta^vee>.
                j = self._negative_simple_index(orbit_b[tb])
                return self._coroot_coords(self._entry(a, direction, tb))[j]
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
