import dataclasses
import functools
import inspect
import textwrap
from fractions import Fraction

import pytest
from test_cartan import a_times, coroot
from test_coxeter import ORIENTATIONS_TO_RANK6, is_final, is_initial
from test_linalg import _reference_solve_linear
from test_orientation_sweep import ORIENTATIONS, RANK5, _id

import affscat.almost_positive as almost_positive
from affscat.almost_positive import APContext
from affscat.cartan import ExchangeMatrix, _affine_table
from affscat.cones import Cone
from affscat.coxeter import CoxeterContext, coxeter_context
from affscat.linalg import vdot


def make(rows):
    return APContext(coxeter_context(ExchangeMatrix.from_rows(rows)))


AP_A11 = make([[0, 2], [-2, 0]])
AP_A2T = make([[0, 1, 1], [-1, 0, 1], [-1, -1, 0]])
AP_A22 = make([[0, 1], [-4, 0]])

ALL = [AP_A11, AP_A2T, AP_A22]


def in_ap(ap, root) -> bool:
    """Whether root lies in AP_c: delta, a negative simple, a positive real
    root off H_c, or a real tube root."""
    if root == ap.delta:
        return True
    if all(c <= 0 for c in root):
        return sum(root) == -1  # negative simple
    if any(c < 0 for c in root):
        return False
    if not ap.cox.in_h_c(root):
        return True
    return root in ap.tube.apt_real


def c_action(ap):
    """xi index -> xi index under c: c permutes the tube generators."""
    xi = ap.tube.xi
    return {i: xi.index(ap.cartan.act_word_on_root(ap.cox.order, g)) for i, g in enumerate(xi)}


def fan_cone(ap, members):
    """nu_c image of the cone spanned by a compatible set, whose images
    are linearly independent."""
    return Cone.simplicial(ap.n, [ap.cox.nu(r) for r in members])


def test_tube_empty_in_rank2():
    for ap in (AP_A11, AP_A22):
        assert ap.tube.xi == ()
        assert ap.tube.apt_real == ()


def test_tube_a2_tilde():
    tube = AP_A2T.tube
    assert len(tube.xi) == 2
    assert len(tube.cycles) == 1
    # the two generators sum to delta and c swaps them
    s = tuple(a + b for a, b in zip(*tube.xi))
    assert s == AP_A2T.delta
    c_xi = c_action(AP_A2T)
    assert sorted(c_xi.values()) == [0, 1]
    assert c_xi[0] != 0
    # APT^re is the c-orbit of the finite tube roots: here exactly xi
    assert set(tube.apt_real) == set(tube.xi)
    for r in tube.apt_real:
        assert AP_A2T.cox.in_h_c(r)


def test_supp_xi_arcs():
    tube = AP_A2T.tube
    for i, g in enumerate(tube.xi):
        assert tube.supp[g] == {i}


# The tube construction that the arc table replaced, kept verbatim as the
# oracle: APT_c as the union of the c-orbits of the finite tube roots, the
# cycles as the components of K-adjacency on the generators, and each
# support by a Fraction solve on one cycle.
def _reference_apt(ap, xi):
    cartan, cox = ap.cartan, ap.cox
    aff = cox.type_info.aff_index
    tube_roots = [
        r for r in cartan.real_roots_up_to_height(2 * sum(ap.delta)) if cox.in_h_c(r)
    ]
    fin_pos = [r for r in tube_roots if r[aff] == 0]
    apt = set()
    for r in fin_pos:
        orbit = _c_orbit(ap, r)
        apt.update(orbit)
    for r in apt:
        assert all(c >= 0 for c in r), "tube orbits must stay positive"
        assert cox.in_h_c(r)
    for g in xi:
        assert cartan.act_word_on_root(cox.order, g) in xi, "c must permute the tube generators"
    return tuple(sorted(apt))


def _c_orbit(ap, root):
    seen = [root]
    current = root
    while True:
        current = ap.cartan.act_word_on_root(ap.cox.order, current)
        if current == root:
            return seen
        seen.append(current)
        assert len(seen) < 10**4, "tube orbit failed to close"


def _xi_cycles(ap, xi):
    if not xi:
        return ()
    # K(u, v) = sum_i u_i d_i (A v)_i, and cov(u) is a positive multiple
    # of (u_i d_i): K(xi_i, xi_j) != 0 is tested in ints.
    cov = ap.cartan.primitive_in_coroot_lattice
    adj = {
        i: {
            j
            for j in range(len(xi))
            if j != i and vdot(cov(xi[i]), a_times(ap.cartan, xi[j])) != 0
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


def _supp_xi(ap, xi, cycles, root) -> frozenset:
    """Support of a real tube root on the xi generators.

    A real tube root lies in a single Dynkin cycle of the tube system and
    is the sum of an arc of that cycle (all coefficients 0 or 1; within a
    cycle the generators are independent since only the full-cycle sum is
    isotropic).
    """
    for cycle in cycles:
        rows = [[xi[i][j] for i in cycle] for j in range(ap.n)]
        sol = _reference_solve_linear(rows, list(root))
        if sol is None:
            continue
        assert all(c in (0, 1) for c in sol), f"tube root {root} is not an arc"
        return frozenset(cycle[t] for t, c in enumerate(sol) if c == 1)
    raise AssertionError(f"{root} is not supported on one tube cycle")


def _linear_orientations(label, n):
    """The two orientations of a tree diagram with every edge i - j, i < j,
    pointing the same way."""
    (a,) = [a for name, a in _affine_table(n) if name == label]
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if a[i][j]]
    out = []
    for s in (1, -1):
        rows = [[0] * n for _ in range(n)]
        for i, j in edges:
            rows[i][j], rows[j][i] = s * abs(a[i][j]), -s * abs(a[j][i])
        out.append(rows)
    return out


def test_arc_table_matches_the_orbit_construction():
    # On every acyclic orientation of rank 2 to 6 and on the linear ones of
    # E_7^(1) and E_8^(1): the same APT_c, the same cycles as sets and the
    # same supports as the orbit, adjacency and solve construction.
    instances = [rows for _, _, rows in ORIENTATIONS_TO_RANK6]
    instances += _linear_orientations("E_7^(1)", 8) + _linear_orientations("E_8^(1)", 9)
    assert len(instances) == 500
    tubes = 0
    for rows in instances:
        ap = make([list(r) for r in rows])
        tube = ap.tube
        assert tube.apt_real == _reference_apt(ap, tube.xi), rows
        cycles = _xi_cycles(ap, tube.xi)
        assert {frozenset(c) for c in tube.cycles} == {frozenset(c) for c in cycles}, rows
        for r in tube.apt_real:
            assert tube.supp[r] == _supp_xi(ap, tube.xi, cycles, r), (rows, r)
        tubes += len(tube.cycles)
    assert tubes > 500


def test_a_moved_affine_node_fails_check_b():
    # C_2^(1) orientation 0 with the affine node moved to node 1, whose
    # delta coordinate is 2: two generators of a tube cycle are then off the
    # node, and the tube build refuses it.
    rows = [[0, 1, 0], [-2, 0, 2], [0, -1, 0]]
    assert make(rows).tube.apt_real
    cox = coxeter_context(ExchangeMatrix.from_rows(rows))
    info = cox.type_info
    assert info.label == "C_2^(1)" and info.aff_index != 1 and info.delta[1] == 2
    vars(cox)["type_info"] = dataclasses.replace(info, aff_index=1)  # the cached value
    with pytest.raises(AssertionError, match=r"\(B\)"):
        APContext(cox).tube


def test_ap_a11_height3():
    roots = AP_A11.ap_roots(3)
    assert set(roots) == {
        (-1, 0),
        (0, -1),
        (1, 0),
        (0, 1),
        (2, 1),
        (1, 2),
        (1, 1),
    }


def test_delta_always_in_ap():
    for ap in ALL:
        assert in_ap(ap, ap.delta)
        for i in range(ap.n):
            assert in_ap(ap, tuple(-1 if j == i else 0 for j in range(ap.n)))


def test_ap_excludes_nontube_hc_roots():
    # In A_2-tilde, roots in H_c that are not tube roots are excluded.
    ap = AP_A2T
    excluded = [
        r
        for r in ap.cartan.real_roots_up_to_height(6)
        if ap.cox.in_h_c(r) and r not in ap.tube.apt_real
    ]
    assert excluded, "expected some excluded tube-plane roots"
    for r in excluded:
        assert not in_ap(ap, r)


# APContext.sigma, which tau does not need (it calls _sigma): used by the
# tests alone, so kept here (with self as ap).
def sigma(ap, s: int, root):
    """sigma_s: AP_c -> AP_{scs}, for s initial or final in c."""
    if not (is_initial(ap.cox, s) or is_final(ap.cox, s)):
        raise ValueError(f"sigma_{s} needs an initial or final letter")
    return ap._sigma(s, root)


def test_sigma_examples():
    for ap in ALL:
        for s in range(ap.n):
            if not (is_initial(ap.cox, s) or is_final(ap.cox, s)):
                continue
            neg = tuple(-1 if j == s else 0 for j in range(ap.n))
            assert sigma(ap, s, neg) == tuple(-c for c in neg)
            for i in range(ap.n):
                if i != s:
                    other = tuple(-1 if j == i else 0 for j in range(ap.n))
                    assert sigma(ap, s, other) == other


def test_tau_fixes_delta():
    for ap in ALL:
        assert ap.tau(ap.delta) == ap.delta
        assert ap.tau_inverse(ap.delta) == ap.delta


def test_tau_word_independent():
    # A_3^(1) with a source-sink orientation: orders (0,2,1,3) and (2,0,1,3)
    # are reduced words for the same Coxeter element.
    b = ExchangeMatrix.from_rows(
        [[0, 1, 0, 1], [-1, 0, 1, 0], [0, -1, 0, -1], [-1, 0, 1, 0]]
    )
    ap = APContext(coxeter_context(b))
    order = ap.cox.order
    assert order == (0, 1, 3, 2)
    assert ap.cartan.a[1][3] == 0  # the two middle letters commute
    swapped = APContext(CoxeterContext(ap.cartan, (0, 3, 1, 2)))
    for r in ap.ap_roots(3):
        assert ap.tau(r) == swapped.tau(r)
    for ctx in ALL:
        for r in ctx.ap_roots(3):
            assert ctx.tau_inverse(ctx.tau(r)) == r
            assert ctx.tau(ctx.tau_inverse(r)) == r


def test_tau_preserves_ap():
    for ap in ALL:
        for r in ap.ap_roots(4):
            img = ap.tau(r)
            assert in_ap(ap, img), (r, img)


def test_nontube_orbit_reaches_negative_simple():
    for ap in ALL:
        for r in ap.ap_positive_real(4):
            if ap.is_tube_real(r):
                continue
            found = False
            cur = r
            for _ in range(60):
                if ap._negative_simple_index(cur) is not None:
                    found = True
                    break
                cur = ap.tau(cur)
            if not found:
                cur = r
                for _ in range(60):
                    if ap._negative_simple_index(cur) is not None:
                        found = True
                        break
                    cur = ap.tau_inverse(cur)
            assert found, r


def test_compat_base_examples():
    # [[-alpha_1, delta]] = 1 in A_1^(1)
    assert AP_A11.compatibility_degree((-1, 0), AP_A11.delta) == 1
    assert AP_A11.compatibility_degree(AP_A11.delta, (-1, 0)) == 1


def test_self_degree():
    for ap in ALL:
        for r in ap.ap_roots(3):
            if r == ap.delta:
                assert ap.compatibility_degree(r, r) == 0
            else:
                assert ap.compatibility_degree(r, r) == -1


def test_tube_self_degree_minus_one():
    for r in AP_A2T.tube.apt_real:
        assert AP_A2T.compatibility_degree(r, r) == -1


def test_delta_compatible_with_tube():
    for r in AP_A2T.tube.apt_real:
        assert AP_A2T.compatibility_degree(AP_A2T.delta, r) == 0
        assert AP_A2T.compatibility_degree(r, AP_A2T.delta) == 0


def test_compat_tau_invariance():
    for ap in ALL:
        roots = ap.ap_roots(4)
        for a in roots:
            for b in roots:
                d = ap.compatibility_degree(a, b)
                assert d == ap.compatibility_degree(ap.tau(a), ap.tau(b))


def test_compatibility_symmetric():
    for ap in ALL:
        roots = ap.ap_roots(4)
        for a in roots:
            for b in roots:
                lhs = ap.compatibility_degree(a, b) == 0
                rhs = ap.compatibility_degree(b, a) == 0
                assert lhs == rhs, (a, b)


def test_negative_simples_form_real_cluster():
    for ap in ALL:
        real, imaginary, _ = ap.clusters(3)
        negs = tuple(
            sorted(tuple(-1 if j == i else 0 for j in range(ap.n)) for i in range(ap.n))
        )
        assert negs in real


def test_a11_unique_imaginary_cluster():
    real, imaginary, _ = AP_A11.clusters(3)
    assert imaginary == [(AP_A11.delta,)]


def test_a2t_imaginary_clusters():
    real, imaginary, _ = AP_A2T.clusters(4)
    assert len(imaginary) == 2
    for cl in imaginary:
        assert AP_A2T.delta in cl
        assert len(cl) == 2


def test_nested_or_spaced_iff_compatible():
    ap = AP_A2T
    for a in ap.tube.apt_real:
        for b in ap.tube.apt_real:
            if a == b:
                continue
            supp = ap.tube.supp
            sa, sb = supp[a], supp[b]
            nested = sa <= sb or sb <= sa
            ca = supp[ap.cartan.act_word_on_root(ap.cox.order, a)]
            ca_inv = supp[ap.cartan.act_word_on_root(tuple(reversed(ap.cox.order)), a)]
            spaced = not ((sa | ca | ca_inv) & sb)
            assert (ap.compatibility_degree(a, b) == 0) == (nested or spaced)


def test_compute_in_tubes():
    # E_c(alpha^vee, beta) = |supp(a) & supp(b)| - #{i in supp(a): c xi_i in supp(b)}
    ap = AP_A2T
    c_xi = c_action(ap)
    for a in ap.tube.apt_real:
        for b in ap.tube.apt_real:
            sa, sb = ap.tube.supp[a], ap.tube.supp[b]
            shift = sum(1 for i in sa if c_xi[i] in sb)
            # the coroot in alpha^vee coordinates; alpha_i^vee = d_i^{-1} alpha_i
            avee = tuple(Fraction(c) / d for c, d in zip(coroot(ap.cartan, a), ap.cartan.d))
            assert ap.cox.e_form(avee, b) == len(sa & sb) - shift


def test_ap_equals_ap_of_inverse():
    for ap in ALL:
        inv = APContext(ap.cox.inverse())
        assert set(ap.ap_roots(4)) == set(inv.ap_roots(4))


def test_fan_dominant_chamber():
    for ap in ALL:
        negs = [tuple(-1 if j == i else 0 for j in range(ap.n)) for i in range(ap.n)]
        cone = fan_cone(ap, negs)
        # nu_c(-alpha_i) = rho_i: the dominant chamber
        assert set(cone.rays) == {
            tuple(1 if j == i else 0 for j in range(ap.n)) for i in range(ap.n)
        }


def _minimal_face_at(cone, p):
    from affscat.cones import Cone

    tight = [g for g in cone.ineqs if sum(a * b for a, b in zip(p, g)) == 0]
    return Cone.from_constraints(
        cone.dim_ambient, eqs=list(cone.eqs) + tight, ineqs=list(cone.ineqs)
    )


def test_fan_property_pairwise_intersection_in_face():
    for ap, H in ((AP_A11, 3), (AP_A2T, 3)):
        cones = [c for _, c in ap.fan_cones(H)]
        for i, c1 in enumerate(cones):
            for c2 in cones[i + 1 :]:
                meet = c1.intersect(c2)
                if meet.dim == 0:
                    continue
                p = tuple(map(sum, zip(*meet.rays)))  # in the relative interior
                for c in (c1, c2):
                    face = _minimal_face_at(c, p)
                    assert face.generators == meet.generators, (c1.rays, c2.rays)


def test_real_cluster_cones_are_doubled_cambrian_cones():
    from test_sortable import ReferenceSortable, witness_element
    from test_weyl import ReferenceWeyl

    for ap, H, max_len in ((AP_A11, 4, 9), (AP_A2T, 4, 9)):
        weyl = ReferenceWeyl(ap.cartan)
        sc = ReferenceSortable(weyl, ap.cox)
        sc_inv = ReferenceSortable(weyl, ap.cox.inverse())
        cambrian = {
            sc.cambrian_cone(witness_element(w)).generators
            for w in sc.sortables_up_to_length(max_len)
        } | {
            sc_inv.cambrian_cone(witness_element(w)).negate().generators
            for w in sc_inv.sortables_up_to_length(max_len)
        }
        real, _, _ = ap.clusters(H)
        for cluster in real:
            cone = fan_cone(ap, cluster)
            assert cone.generators in cambrian, cluster


def test_nu_linear_on_cluster_cones():
    import random

    rng = random.Random(5)
    for ap, H in ((AP_A11, 3), (AP_A2T, 3)):
        real, imaginary, _ = ap.clusters(H)
        for cluster in real + imaginary:
            for _ in range(6):
                coeffs = [rng.randint(0, 4) for _ in cluster]
                combo = tuple(
                    sum(c * r[j] for c, r in zip(coeffs, cluster))
                    for j in range(ap.n)
                )
                expect = tuple(
                    sum(c * v for c, v in zip(coeffs, vals))
                    for vals in zip(*(ap.cox.nu(r) for r in cluster))
                )
                assert ap.cox.nu(combo) == expect, cluster


def test_sigma_precondition():
    import pytest

    # In the A_3^(1) orientation with order (0,1,3,2), letter 1 is neither
    # initial nor final.
    b = ExchangeMatrix.from_rows(
        [[0, 1, 0, 1], [-1, 0, 1, 0], [0, -1, 0, -1], [-1, 0, 1, 0]]
    )
    ap = APContext(coxeter_context(b))
    assert not is_initial(ap.cox, 1) and not is_final(ap.cox, 1)
    with pytest.raises(ValueError):
        sigma(ap, 1, ap.delta)
    assert sigma(ap, 0, ap.delta) == ap.delta


def test_resolution_cap_error():
    import pytest

    from affscat.almost_positive import ResolutionCapExceeded

    fresh = make([[0, 2], [-2, 0]])  # bypass the degree memo
    with pytest.raises(ResolutionCapExceeded):
        fresh._compat((2, 1), (1, 2), 0)


# The perfbench orientations of the fans and clusters instances, with their
# height caps.  D_4^(1) is the star with vertex 0 a source.
FAN_INSTANCES = (
    ([[0, 1, 1], [-1, 0, 1], [-1, -1, 0]], 6),
    ([[0, 1, 0], [-1, 0, 1], [0, -3, 0]], 6),
    ([[0, 1, 0, 1], [-1, 0, 1, 0], [0, -1, 0, -1], [-1, 0, 1, 0]], 4),
    ([[0, 1, 1, 1, 1]] + [[-1, 0, 0, 0, 0]] * 4, 4),
)


def _tau_walk_degree(ap, a, b, step_cap=None):
    """The compatibility degree by walking both roots together, one tau step
    at a time, then tau^{-1}: the reference for the orbit table.  Returns
    (degree, direction), direction 0 for tau, 1 for tau^{-1}, None for tubes."""
    from affscat.almost_positive import ResolutionCapExceeded

    cap = step_cap if step_cap is not None else 4 * ap.n * (max(sum(map(abs, a)), sum(map(abs, b))) + 4)
    in_tube_a = a == ap.delta or ap.is_tube_real(a)
    in_tube_b = b == ap.delta or ap.is_tube_real(b)
    if in_tube_a and in_tube_b:
        if a == ap.delta or b == ap.delta:
            return 0, None
        return ap.tube_degree(a, b), None
    for direction, step in enumerate((ap.tau, ap.tau_inverse)):
        x, y = a, b
        for _ in range(cap):
            i = ap._negative_simple_index(x)
            if i is not None:
                return int(y[i]), direction
            j = ap._negative_simple_index(y)
            if j is not None:
                val = Fraction(ap.cartan.primitive_in_coroot_lattice(x)[j])
                assert val.denominator == 1
                return int(val), direction
            x, y = step(x), step(y)
    raise ResolutionCapExceeded(f"no base case within {cap} tau steps for {(a, b)}")


def _outcome(degree):
    from affscat.almost_positive import ResolutionCapExceeded

    try:
        return degree()
    except ResolutionCapExceeded:
        return "cap exceeded"


def test_orbit_table_matches_tau_walk():
    for rows, H in FAN_INSTANCES:
        ap = make(rows)
        directions = set()
        roots = ap.ap_roots(H)
        for a in roots:
            for b in roots:
                expect, direction = _tau_walk_degree(ap, a, b)
                directions.add(direction)
                assert ap.compatibility_degree(a, b) == expect, (rows, a, b)
        assert {0, 1} <= directions, rows  # tau^{-1} decides some pairs


def test_orbit_table_step_cap_boundary():
    # Caps 0-4 raise on some pairs, and decide others by tau or by tau^{-1}.
    # A fresh context walks no orbit past the cap.  A warm one, whose orbits
    # were walked at the default caps, asked past its degree memo, must still
    # ignore a negative simple at or beyond the cap.
    for rows, H in FAN_INSTANCES:
        warm = make(rows)
        roots = warm.ap_roots(H)
        for a in roots:
            for b in roots:
                warm.compatibility_degree(a, b)
        seen = set()
        for cap in range(5):
            fresh = make(rows)  # a fresh degree memo and orbit table per cap
            for a in roots:
                for b in roots:
                    walk = _outcome(lambda: _tau_walk_degree(fresh, a, b, cap))
                    seen.add(walk if walk == "cap exceeded" else walk[1])
                    expect = walk if walk == "cap exceeded" else walk[0]
                    got = _outcome(lambda: fresh._compat(a, b, cap))
                    assert got == expect, (rows, cap, a, b)
                    assert _outcome(lambda: warm._compat(a, b, cap)) == expect, (rows, cap, a, b)
        assert {0, 1, "cap exceeded"} <= seen, rows


def _walk_reference(rows):
    """A context for _tau_walk_degree that memoizes its tau steps: the walk
    still goes step by step, to the cap when no base case comes first."""
    ref = make(rows)
    ref.tau, ref.tau_inverse = functools.cache(ref.tau), functools.cache(ref.tau_inverse)
    ref._negative_simple_index = functools.cache(ref._negative_simple_index)
    return ref


def _walk_outcome(ref, a, b, step_cap=None):
    walk = _outcome(lambda: _tau_walk_degree(ref, a, b, step_cap))
    return walk if walk == "cap exceeded" else walk[0]


@pytest.mark.parametrize("orientation", ORIENTATIONS, ids=_id)
def test_orbit_table_matches_tau_walk_on_the_sweep(orientation):
    rows = [list(r) for r in orientation[2]]
    ap, ref = make(rows), _walk_reference(rows)
    roots = ap.ap_roots(4)
    for a in roots:
        for b in roots:
            got = _outcome(lambda: ap.compatibility_degree(a, b))
            assert got == _walk_outcome(ref, a, b), (a, b)


def test_clusters_and_fan_cones_share_one_graph_per_height(monkeypatch):
    # One compatibility graph and one clique enumeration per height cap
    # serve both layers, with the answers of contexts that ask for one only.
    found = []
    cliques = almost_positive._cliques

    def counted(roots, edges):
        found.append(len(roots))
        return cliques(roots, edges)

    monkeypatch.setattr(almost_positive, "_cliques", counted)
    for rows, H in FAN_INSTANCES[:3]:
        ap = make(rows)
        heights = (H - 2, H, H - 2)
        got = [(ap.clusters(h), ap.fan_cones(h), ap.compatibility_graph(h)[0]) for h in heights]
        assert len(found) == 2, rows
        for h, (clusters, fan, roots) in zip(heights, got):
            assert roots == ap.ap_roots(h)
            assert clusters == make(rows).clusters(h)
            assert fan == make(rows).fan_cones(h)
        found.clear()


def _stored_orbits(ap):
    """Every orbit in ap's orbit table, in both directions."""
    return [orbit for table in ap._orbits for orbit, _ in table.values()]


def test_hit_free_orbits_are_not_walked_to_the_step_cap():
    # Every orbit that never reaches a negative simple stays within a few
    # steps instead of being walked to the default step cap 4n(h + 4), 108
    # to 200 here.
    for rows, H in FAN_INSTANCES:
        ap = make(rows)
        roots = ap.ap_roots(H)
        for a in roots:
            for b in roots:
                ap.compatibility_degree(a, b)
        assert sum(map(len, _stored_orbits(ap))) <= 100


def _hits(ap, root, step, step_cap):
    """Whether root's orbit under step is a negative simple at some step
    t < step_cap, walked one step at a time as _tau_walk_degree does."""
    for _ in range(step_cap):
        if ap._negative_simple_index(root) is not None:
            return True
        root = step(root)
    return False


@pytest.mark.parametrize("orientation", ORIENTATIONS + RANK5, ids=_id)
def test_only_the_direction_the_defect_picks_hits(orientation):
    # Each non-tube positive real root of AP_c reaches a negative simple
    # within the default step cap under tau when its defect is negative and
    # under tau^{-1} when it is positive, never both; tube roots and delta
    # reach none in either direction.
    rows = [list(r) for r in orientation[2]]
    ref = _walk_reference(rows)
    for r in ref.ap_positive_real(max(4, sum(ref.delta))) + [ref.delta]:
        cap = 4 * ref.n * (sum(r) + 4)
        hits = tuple(_hits(ref, r, step, cap) for step in (ref.tau, ref.tau_inverse))
        defect = ref.cox.defect(r)
        if r == ref.delta or ref.is_tube_real(r):
            assert defect == 0 and hits == (False, False), r
        else:
            assert hits == (defect < 0, defect > 0), r


def _walk_against_the_defect(rows):
    """A copy of APContext whose orbit walks go in the direction opposite to
    the one the defect picks."""
    source = textwrap.dedent(inspect.getsource(APContext._orbit))
    rule = "if defect > 0 if direction else defect < 0:"
    assert source.count(rule) == 1
    namespace = {}
    flipped = source.replace(rule, "if defect < 0 if direction else defect > 0:")
    exec(flipped, vars(almost_positive), namespace)
    broken = type("AgainstTheDefect", (APContext,), {"_orbit": namespace["_orbit"]})
    return broken(coxeter_context(ExchangeMatrix.from_rows(rows)))


def test_orbit_oracle_sees_a_walk_that_stops_while_descending():
    # On A_1^(1), tau^{-1} climbs from -alpha_0 through (1,2), (3,4), ... by
    # 2 delta a step, so tau walks (21,22) down to -alpha_0 in 11 steps; its
    # defect is negative.  Paired with delta, which never hits, that descent
    # decides the degree; a walk in the direction opposite to the defect's
    # leaves the descent unwalked and finds no hit.
    rows = [[0, 2], [-2, 0]]
    ap, ref, broken = make(rows), _walk_reference(rows), _walk_against_the_defect(rows)
    assert ap.tau((21, 22)) == (19, 20) and ap.cox.defect((21, 22)) < 0
    roots = ap.ap_roots(4) + [(21, 22), (22, 21)]
    wrong = []
    for a in roots:
        for b in roots:
            expect = _walk_outcome(ref, a, b)
            assert _outcome(lambda: ap.compatibility_degree(a, b)) == expect, (a, b)
            if _outcome(lambda: broken.compatibility_degree(a, b)) != expect:
                wrong.append((a, b))
    assert _walk_outcome(ref, (21, 22), ap.delta) != "cap exceeded"
    assert ((21, 22), ap.delta) in wrong
