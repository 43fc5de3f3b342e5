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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .cartan import NotAffine
from .cones import Cone
from .coxeter import CoxeterContext
from .linalg import rank, solve_linear


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
        # step of its first negative simple, which ends it, or None)
        self._orbits: tuple = ({}, {})

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
        adj = {
            i: {
                j
                for j in range(len(xi))
                if j != i and self.cartan.k_form(xi[i], xi[j]) != 0
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

    def in_ap(self, root) -> bool:
        if root == self.delta:
            return True
        if all(c <= 0 for c in root):
            return sum(root) == -1  # negative simple
        if any(c < 0 for c in root):
            return False
        if not self.cox.in_h_c(root):
            return True
        return root in self.tube.apt_real

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

    def tau(self, root, order=None):
        """tau_c = sigma_{s_1} ... sigma_{s_n} (rightmost acts first; each
        letter is final in the Coxeter element current at its step)."""
        order = self.cox.order if order is None else order
        for s in reversed(order):
            root = self._sigma(s, root)
        return root

    def tau_inverse(self, root, order=None):
        order = self.cox.order if order is None else order
        for s in order:
            root = self._sigma(s, root)
        return root

    # -- compatibility degree --------------------------------------------------------

    def _negative_simple_index(self, root):
        if all(c <= 0 for c in root) and sum(root) == -1:
            return next(i for i, c in enumerate(root) if c == -1)
        return None

    def _coroot_coords(self, root):
        """Integer alpha^vee coordinates of root^vee (delta^vee is the primitive
        coroot-lattice vector on the delta ray)."""
        if root == self.delta:
            return self.cartan.primitive_in_coroot_lattice(self.delta)
        neg = all(c <= 0 for c in root)
        base = tuple(-c for c in root) if neg else root
        cv = self.cartan.coroot_coords(self.cartan.coroot(base))
        assert all(c.denominator == 1 for c in cv), "a real coroot lies in Q^vee"
        cv = tuple(map(int, cv))
        return tuple(-c for c in cv) if neg else cv

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

    def compatibility_degree(self, a, b, step_cap=None) -> int:
        """The c-compatibility degree on AP_c x AP_c."""
        key = (a, b)
        if key in self._compat_cache:
            return self._compat_cache[key]
        val = self._compat(a, b, step_cap)
        self._compat_cache[key] = val
        return val

    def _orbit(self, root, direction, limit):
        """(orbit, t): root's tau-orbit (direction 0) or tau^{-1}-orbit
        (direction 1) and the first step t < limit at which it is a negative
        simple, else t = None.  Each orbit is walked once, lazily: it ends at
        its first negative simple or at step limit - 1, whichever comes first.
        A stored entry is never changed, only replaced by a longer one, so a
        concurrent reader always sees a true prefix of the orbit."""
        orbits = self._orbits[direction]
        orbit, hit = orbits.get(root, ((), None))
        if hit is None and len(orbit) < limit:
            step = self.tau_inverse if direction else self.tau
            walk = list(orbit)
            while hit is None and len(walk) < limit:
                walk.append(step(walk[-1]) if walk else root)
                if self._negative_simple_index(walk[-1]) is not None:
                    hit = len(walk) - 1
            orbit = tuple(walk)
            orbits[root] = (orbit, hit)
        return orbit, hit if hit is not None and hit < limit else None

    def _compat(self, a, b, step_cap):
        """Tube formulas on tube pairs; otherwise the base case at the first
        step t below the cap at which tau^t a or tau^t b is a negative simple,
        trying tau^{-1} when tau finds none.  The degree is tau-invariant, so
        (a, b) has the degree of (tau^t a, tau^t b).  t is the smaller of the
        two roots' first hits, read off their orbit tables, and a hit by
        tau^t a wins a tie: the answer of walking both roots together step
        by step, with each root's orbit walked once for all its pairs."""
        n = self.n
        cap = step_cap if step_cap is not None else 4 * n * (max(sum(map(abs, a)), sum(map(abs, b))) + 4)
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
                return self._coroot_coords(orbit_a[tb])[j]
            if ta is not None:
                # [[-alpha_i, beta]] = <rho_i^vee, beta>: the alpha_i coordinate.
                i = self._negative_simple_index(orbit_a[ta])
                return int(orbit_b[ta][i])
        raise ResolutionCapExceeded(f"no base case within {cap} tau steps for {(a, b)}")

    def compatible(self, a, b) -> bool:
        return self.compatibility_degree(a, b) == 0

    # -- clusters and the fan -----------------------------------------------------------

    def compatibility_graph(self, height_cap: int):
        roots = self.ap_roots(height_cap)
        edges = {
            r: {s for s in roots if s != r and self.compatible(r, s)} for r in roots
        }
        return roots, edges

    def clusters(self, height_cap: int):
        """Maximal pairwise-compatible sets, split into real clusters (n
        independent roots) and imaginary clusters (containing delta).

        Imaginary clusters are exact; real clusters are maximal relative to
        the height cap.
        """
        roots, edges = self.compatibility_graph(height_cap)
        cliques = []
        _bron_kerbosch(set(), set(roots), set(), edges, cliques)
        real, imaginary, frontier = [], [], []
        for cl in cliques:
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

    def compatible_subsets(self, height_cap: int):
        """All pairwise-compatible subsets of the height-capped AP_c."""
        roots, edges = self.compatibility_graph(height_cap)
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

    def fan_cone(self, members) -> Cone:
        """nu_c image of the cone spanned by a compatible set, whose images
        are linearly independent."""
        return Cone.simplicial(self.n, [self.cox.nu(r) for r in members])

    def fan_cones(self, height_cap: int):
        """All cones of nu_c(Fan_c) from height-capped compatible sets, with
        their generating root sets."""
        out = []
        seen = set()
        for subset in self.compatible_subsets(height_cap):
            cone = self.fan_cone(subset)
            key = cone.generators
            if key not in seen:
                seen.add(key)
                out.append((subset, cone))
        return out


def _bron_kerbosch(r, p, x, edges, out):
    if not p and not x:
        out.append(set(r))
        return
    pivot = max(p | x, key=lambda v: len(edges[v] & p))
    for v in list(p - edges[pivot]):
        _bron_kerbosch(r | {v}, p & edges[v], x & edges[v], edges, out)
        p.remove(v)
        x.add(v)
