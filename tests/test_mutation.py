import random
from fractions import Fraction
from functools import reduce
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affscat.almost_positive import APContext
from affscat.cartan import ExchangeMatrix
from affscat.coxeter import coxeter_context
from affscat.linalg import integral_multiple
from affscat.mutation import _integer_point, _mutate_row, _same_signs, b_class_probe, eta, mutate
from affscat.weyl import CapExceeded, element_cap

B_A11 = ExchangeMatrix.from_rows([[0, 2], [-2, 0]])
B_A2T = ExchangeMatrix.from_rows([[0, 1, 1], [-1, 0, 1], [-1, -1, 0]])


def random_ext(rng, n=3, extra=2):
    """The rows of a random skew-symmetric B, then extra rational rows."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = rng.randint(-3, 3)
            rows[i][j] = v
            rows[j][i] = -v
    ext = [
        [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]
        for _ in range(extra)
    ]
    return tuple(tuple(r) for r in rows) + tuple(tuple(r) for r in ext)


def test_mutation_involution_random():
    rng = random.Random(2024)
    for _ in range(1000):
        ext = random_ext(rng)
        k = rng.randrange(3)
        assert mutate(mutate(ext, k), k) == ext


def test_mu_c_identity():
    # mu_{12...n}(B) = B for acyclic B with c = s_1...s_n (apply n first).
    for b in (B_A11, B_A2T):
        seq = list(reversed(b.coxeter_order()))
        assert reduce(mutate, seq, b.b) == b.b


def test_extra_row_example():
    moved = mutate(B_A11.b + ((1, 0),), 0)
    assert moved[-1] == (-1, 2)


def test_eta_on_single_index():
    # eta_1^{B^T}(rho_1) = -rho_1; eta_1^{B^T}(-rho_1) = s_1(-rho_1) = rho_1 - 2 rho_2.
    bt = B_A11.transpose()
    assert eta(bt, [0], (1, 0)) == (-1, 0)
    assert eta(bt, [0], (-1, 0)) == (1, -2)


def test_eta_empty_word():
    x = (Fraction(3, 2), Fraction(-1))
    assert eta(B_A11, [], x) == x


def test_eta_nice_identity():
    # eta^{B^T}_{12...n} o nu_c = nu_c o tau_c on AP_c (apply index n first).
    for b in (B_A11, B_A2T):
        cox = coxeter_context(b)
        ap = APContext(cox)
        bt = b.transpose()
        seq = list(reversed(cox.order))
        for beta in ap.ap_roots(4):
            lhs = eta(bt, seq, cox.nu(beta))
            rhs = cox.nu(ap.tau(beta))
            assert lhs == rhs, beta


def test_b_class_probe_equal_points():
    x = (Fraction(1), Fraction(2))
    assert b_class_probe(B_A11, x, x, 6)["verdict"] == "indistinct_up_to_cap"


def test_b_class_probe_adjacent_chambers():
    # interior points of adjacent Cambrian cones are distinguished quickly
    bt = B_A11.transpose()
    out = b_class_probe(bt, (1, 1), (-1, 3), 4)
    assert out["verdict"] == "distinguished"


_coord = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 3))
_positive = st.builds(Fraction, st.integers(1, 12), st.integers(1, 5))


@settings(max_examples=80, deadline=None)
@given(
    p=st.tuples(_coord, _coord, _coord),
    q=st.tuples(_coord, _coord, _coord),
    a=_positive,
    b=_positive,
    on_ray=st.booleans(),
)
def test_b_class_probe_is_invariant_under_positive_scaling(p, q, a, b, on_ray):
    # Mutation maps are positively homogeneous, so each point may be scaled
    # by its own positive factor; on_ray makes the pair indistinct.
    if on_ray:
        q = p
    bt = B_A2T.transpose()
    scaled = b_class_probe(bt, tuple(a * c for c in p), tuple(b * c for c in q), 5)
    assert scaled == b_class_probe(bt, p, q, 5)


def test_b_class_probe_cap_names_itself(monkeypatch):
    # An indistinct pair builds 3 + 6 + ... + 96 = 189 words at --L 6 on a
    # rank-3 matrix, and 3 (2^8 - 1) = 765 at --L 8.
    bt = B_A2T.transpose()
    x = (1, -2, 3)
    monkeypatch.setenv("AFFSCAT_CAP", "189")
    assert b_class_probe(bt, x, x, 6)["verdict"] == "indistinct_up_to_cap"
    monkeypatch.setenv("AFFSCAT_CAP", "188")
    with pytest.raises(CapExceeded, match=r"AFFSCAT_CAP=188 .*--L 6"):
        b_class_probe(bt, x, x, 6)
    monkeypatch.setenv("AFFSCAT_CAP", "50")
    with pytest.raises(CapExceeded, match=r"AFFSCAT_CAP=50 .*--L 8"):
        b_class_probe(bt, x, x, 8)


# The probe that mutated the whole extended matrix for every word, with the
# mutation step it used, kept verbatim as the reference for the shared
# mutation tree and the two-row update.
def sgn(x) -> int:
    return (x > 0) - (x < 0)


def _reference_mutate(rows, k: int) -> tuple:
    """One mutation step: b'_ij = -b_ij if i = k or j = k, else
    b_ij + sgn(b_kj) max(b_ik b_kj, 0), applied to every row."""
    n = len(rows[k])
    row_k = rows[k]
    out = []
    for i, row in enumerate(rows):
        new_row = []
        for j in range(n):
            if i == k or j == k:
                new_row.append(-row[j])
            else:
                new_row.append(row[j] + sgn(row_k[j]) * max(row[k] * row_k[j], 0))
        out.append(tuple(new_row))
    return tuple(out)


def _sign_vector(x):
    return tuple(sgn(c) for c in x)


def _reference_b_class_probe(bmat: ExchangeMatrix, x, y, length_cap: int) -> dict:
    """Compare sign vectors of eta over all words of length <= length_cap
    (immediate repeats pruned: mutation is an involution).

    "distinguished" proves different B-classes; "indistinct" is only evidence
    relative to the cap.  An indistinct pair builds n (n-1)^(l-1) words of
    each length l, so more than AFFSCAT_CAP words raise CapExceeded.
    """
    n = bmat.n
    cap = element_cap()
    built = 0
    start = bmat.b + (tuple(x), tuple(y))
    if _sign_vector(start[-2]) != _sign_vector(start[-1]):
        return {"verdict": "distinguished", "witness": ()}
    frontier = [((), start)]
    for _ in range(length_cap):
        nxt = []
        for word, ext in frontier:
            for k in range(n):
                if word and word[-1] == k:
                    continue
                built += 1
                if built > cap:
                    raise CapExceeded(
                        f"element cap AFFSCAT_CAP={cap} exceeded by the mutation probe "
                        f"at word length {len(word) + 1} of --L {length_cap}"
                    )
                moved = _reference_mutate(ext, k)
                if _sign_vector(moved[-2]) != _sign_vector(moved[-1]):
                    return {"verdict": "distinguished", "witness": word + (k,)}
                nxt.append((word + (k,), moved))
        frontier = nxt
    return {"verdict": "indistinct_up_to_cap", "witness": None}


# The probe as it was before each step touched only the coordinates it
# changes, kept verbatim as the reference: the shared mutation tree, and both
# extra rows mutated whole at every step and compared in full.
def _two_row_b_class_probe_reference(bmat: ExchangeMatrix, x, y, length_cap: int) -> dict:
    """Compare sign vectors of eta over all words of length <= length_cap
    (immediate repeats pruned: mutation is an involution), breadth first.

    "distinguished" proves different B-classes; "indistinct" is only evidence
    relative to the cap.  An indistinct pair builds n (n-1)^(l-1) words of
    each length l, so more than AFFSCAT_CAP words raise CapExceeded.

    B mutated along a word does not depend on x and y, so it comes from
    bmat.mutation_tree, which keeps it for every word expanded so far and is
    shared by all pairs probed on bmat.  Each word then moves only the two
    extra rows, with row k of the mutated B: mutating the extended matrix
    leaves the rows of B as they would be without x and y.
    """
    n = bmat.n
    cap = element_cap()
    built = 0
    tree = bmat.mutation_tree
    x, y = tuple(x), tuple(y)
    if not _same_signs(x, y):
        return {"verdict": "distinguished", "witness": ()}
    frontier = [((), x, y)]
    for _ in range(length_cap):
        nxt = []
        for word, u, v in frontier:
            b = tree.get(word)
            if b is None:
                b = tree[word] = mutate(tree[word[:-1]], word[-1])
            for k in range(n):
                if word and word[-1] == k:
                    continue
                built += 1
                if built > cap:
                    raise CapExceeded(
                        f"element cap AFFSCAT_CAP={cap} exceeded by the mutation probe "
                        f"at word length {len(word) + 1} of --L {length_cap}"
                    )
                mu, mv = _mutate_row(u, b[k], k), _mutate_row(v, b[k], k)
                if not _same_signs(mu, mv):
                    return {"verdict": "distinguished", "witness": word + (k,)}
                nxt.append((word + (k,), mu, mv))
        frontier = nxt
    return {"verdict": "indistinct_up_to_cap", "witness": None}


def test_mutate_matches_reference():
    rng = random.Random(2025)
    for _ in range(500):
        ext = random_ext(rng, n=rng.randint(2, 4), extra=rng.randint(0, 2))
        if rng.random() < 0.5:
            ext = tuple(map(integral_multiple, ext))
        k = rng.randrange(len(ext[0]))
        assert mutate(ext, k) == _reference_mutate(ext, k)


def _reference_eta(bmat: ExchangeMatrix, seq, x) -> tuple:
    """eta by the whole extended matrix: adjoin x as a row, mutate every row
    along seq (first entry first), read off the last row."""
    rows = bmat.b + (tuple(x),)
    for k in seq:
        rows = _reference_mutate(rows, k)
    return rows[-1]


def test_eta_matches_whole_matrix_reference():
    rng = random.Random(2026)
    for _ in range(500):
        n = rng.randint(2, 4)
        top = random_ext(rng, n=n, extra=0)
        bmat = ExchangeMatrix.from_rows(top)
        x = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n))
        seq = [rng.randrange(n) for _ in range(rng.randint(0, 6))]
        assert eta(bmat, seq, x) == _reference_eta(bmat, seq, x), (top, seq, x)
        xi = integral_multiple(x)
        assert eta(bmat, seq, xi) == _reference_eta(bmat, seq, xi)


B_A31 = ExchangeMatrix.from_rows([[0, 1, 0, 1], [-1, 0, 1, 0], [0, -1, 0, -1], [-1, 0, 1, 0]])
PROBE_INSTANCES = (
    B_A11,
    B_A2T,
    ExchangeMatrix.from_rows([[0, 1, 0], [-1, 0, 1], [0, -3, 0]]),  # G_2^(1)
    B_A31,
)


def _probe_pairs(rng, bmat, count):
    """Seeded (p, q, L) for probes on bmat: unrelated points, points with
    equal sign vectors (which only a mutation can tell apart), nearby
    directions (told apart, if at all, by long words) and points on one ray.
    Each pair with equal sign vectors also gives two more, without further
    draws: one with a zero coordinate in both points (a step there changes
    neither), and one whose points differ at one coordinate j alone, which
    the step at some k with b_kj != 0 moves to opposite signs."""
    n = bmat.n

    def coord():
        return Fraction(rng.randint(-12, 12), rng.choice([1, 2, 3]))

    for i in range(count):
        p = tuple(coord() for _ in range(n))
        kind = i % 4
        if kind == 0:
            q = tuple(coord() for _ in range(n))
        elif kind == 1:
            q = tuple(sgn(c) * Fraction(rng.randint(1, 12), rng.choice([1, 2, 3])) for c in p)
        elif kind == 2:
            m = rng.randint(3, 12)
            q = tuple(m * c + Fraction(rng.randint(-2, 2), 3) for c in p)
        else:
            q = tuple(Fraction(rng.randint(1, 6), rng.randint(1, 4)) * c for c in p)
        cap = rng.randint(0, 6)
        yield p, q, cap
        if kind == 1:
            z = (i // 4) % n
            yield p[:z] + (0,) + p[z + 1 :], q[:z] + (0,) + q[z + 1 :], cap
            # u_k = s m with s the sign of b_kj, so the step at k adds
            # c = |b_kj| m to both j-th coordinates: -c s / 2 goes to c s / 2
            # and -2 c s to -c s.
            k = z
            row = bmat.b[k]
            j = [j for j in range(n) if row[j]][i % 3 % sum(map(bool, row))]
            s, m = sgn(row[j]), abs(p[k]) or 1
            c = abs(row[j]) * m
            u = p[:k] + (s * m,) + p[k + 1 :]
            near, far = -c * s * Fraction(1, 2), -2 * c * s
            yield u[:j] + (near,) + u[j + 1 :], u[:j] + (far,) + u[j + 1 :], cap


def _outcome(probe, *args):
    try:
        return probe(*args)
    except CapExceeded as exc:
        return str(exc)


def test_b_class_probe_matches_whole_matrix_reference(monkeypatch):
    rng = random.Random(17)
    seen = set()
    for b in PROBE_INSTANCES:
        bt = b.transpose()
        for p, q, cap in _probe_pairs(rng, bt, 60):
            for x, y in ((p, q), (integral_multiple(p), integral_multiple(q))):
                got = b_class_probe(bt, x, y, cap)
                assert got == _reference_b_class_probe(bt, x, y, cap), (b, x, y, cap)
                assert got == _two_row_b_class_probe_reference(bt, x, y, cap), (b, x, y, cap)
                seen.add((got["verdict"], len(got["witness"] or ())))
    assert ("indistinct_up_to_cap", 0) in seen
    assert {0, 1, 2, 3} <= {depth for verdict, depth in seen if verdict == "distinguished"}
    # The shared tree counts words against the cap as the whole-matrix probe does.
    monkeypatch.setenv("AFFSCAT_CAP", "40")
    capped = 0
    for b in PROBE_INSTANCES:
        bt = b.transpose()
        for p, q, cap in _probe_pairs(rng, bt, 12):
            args = (bt, integral_multiple(p), integral_multiple(q), cap)
            got = _outcome(b_class_probe, *args)
            assert got == _outcome(_reference_b_class_probe, *args), args
            assert got == _outcome(_two_row_b_class_probe_reference, *args), args
            capped += isinstance(got, str)
    assert capped > 0


def test_b_class_probe_inside_d_inf():
    # points interior to d_inf on the same side of every nu_c(Xi) wall are
    # indistinct: in A_1^(1) the relative interior of d_inf is one ray.
    cox = coxeter_context(B_A11)
    x_c = cox.affine.x_c
    p = tuple(Fraction(c) for c in x_c)
    q = tuple(Fraction(2 * c, 3) for c in x_c)
    out = b_class_probe(B_A11.transpose(), p, q, 8)
    assert out["verdict"] == "indistinct_up_to_cap"


def test_eta_transports_cambrian_cones():
    # eta_k^{B^T} carries enumerated Cambrian cones of B onto Cambrian cones
    # of mu_k(B), injectively (normal-set transport at desk scale).
    from affscat.cones import Cone
    from affscat.sortable import SortableContext
    from affscat.weyl import WeylContext

    b = B_A2T
    k = 0
    b2 = ExchangeMatrix.from_rows([list(r) for r in mutate(b.b, k)])
    assert b2.is_acyclic()
    cox1, cox2 = coxeter_context(b), coxeter_context(b2)
    sc1 = SortableContext(WeylContext(cox1.cartan), cox1)
    sc2 = SortableContext(WeylContext(cox2.cartan), cox2)
    sc2_inv = SortableContext(WeylContext(cox2.cartan), cox2.inverse())
    # the g-vector fan is the doubled Cambrian fan: include the antipodal half
    target_keys = {
        sc2.cambrian_cone(w.element).generators
        for w in sc2.sortables_up_to_length(7)
    } | {
        sc2_inv.cambrian_cone(w.element).negate().generators
        for w in sc2_inv.sortables_up_to_length(7)
    }
    bt = b.transpose()
    images = set()
    for wit in sc1.sortables_up_to_length(4):
        cone = sc1.cambrian_cone(wit.element)
        lin, rays = cone.generators
        assert lin == ()
        image = Cone.from_rays(3, [eta(bt, [k], r) for r in rays])
        assert image.generators in target_keys, wit.element.word
        assert image.generators not in images
        images.add(image.generators)


def test_d_inf_subsectors_rank3():
    # Inside d_inf the fan is subdivided by the traces of the tube walls
    # (through the nu_c(delta) ray): points in the same subsector are
    # scattering-equivalent and sign-indistinct at depth 8; points in
    # opposite subsectors are separated.
    from affscat.almost_positive import APContext
    from affscat.scattering import build_dcscat, scat_cone_eq

    cox = coxeter_context(B_A2T)
    ap = APContext(cox)
    d = build_dcscat(B_A2T, 4, 4)
    nu_xi = [cox.nu(g) for g in ap.tube.xi]
    assert len(nu_xi) == 2
    same1 = tuple(3 * a + b for a, b in zip(*nu_xi))
    same2 = tuple(2 * a + b for a, b in zip(*nu_xi))
    across = tuple(a + 2 * b for a, b in zip(*nu_xi))
    on_ray = tuple(3 * a for a in nu_xi[0])
    assert scat_cone_eq(d, same1, same2)
    assert b_class_probe(B_A2T.transpose(), same1, same2, 8)["verdict"] == (
        "indistinct_up_to_cap"
    )
    assert not scat_cone_eq(d, same1, across)
    assert b_class_probe(B_A2T.transpose(), same1, across, 8)["verdict"] == (
        "distinguished"
    )
    assert not scat_cone_eq(d, same1, on_ray)


B_G21 = ExchangeMatrix.from_rows([[0, 1, 0], [-1, 0, 1], [0, -3, 0]])


def test_separating_heights_counts_a_hyperplane_through_one_point():
    # The sampled pairs of compare at H=k=6: p lies on the hyperplane of an
    # almost-positive root above the height cap (A_2^(1) seed 122: (3,2,2);
    # G_2^(1) seed 113: (2,3,3)).  That root separates p from q; it does not
    # separate p from 2p, which lies on the same hyperplane.
    from affscat.mutation import _separating_heights

    cases = [
        (B_A2T, (-Fraction(11, 3), Fraction(1, 2), 5), (-Fraction(11, 3), Fraction(1, 2), 6), 7),
        (B_G21, (-1, -1, 5), (-Fraction(3, 2), -Fraction(7, 3), 11), 8),
    ]
    for b, p, q, height in cases:
        cox = coxeter_context(b)
        ap = APContext(cox)
        far_cap = 6 + 2 * sum(cox.type_info.delta)
        assert _separating_heights(ap, p, q, far_cap) == [height]
        assert _separating_heights(ap, p, tuple(2 * c for c in p), far_cap) == []
        assert _separating_heights(ap, p, p, far_cap) == []


def test_fans_compare_reports_a_missing_wall(monkeypatch):
    # Negative control for frontier censoring: with the height-1 wall
    # (1,0,0) removed, pairs that it alone separates are still reported.
    from dataclasses import replace

    import affscat.mutation as mu

    build = mu.build_dcscat

    def without_wall(bmat, height_cap, truncation):
        d = build(bmat, height_cap, truncation)
        return replace(d, walls=tuple(w for w in d.walls if w.normal != (1, 0, 0)))

    monkeypatch.setattr(mu, "build_dcscat", without_wall)
    report = mu.fans_compare(B_A2T, 6, 6, 6, 200, 122)
    # reported as the sampled rational points, not their integer multiples
    assert len(report["pair_disagreements"]) == 9
    first = report["pair_disagreements"][0]
    assert first == {"p": ["-5/2", "-3", "-8"], "q": ["5", "-3", "-12"]}
    assert not report["clean"]


def test_integer_sample_point_is_the_integral_multiple_of_the_rational_one():
    # Every draw fans_compare can make in rank 2 and 3: a numerator in
    # [-12, 12] over a denominator in {1, 2, 3} per coordinate.
    draws = [(a, d) for a in range(-12, 13) for d in (1, 2, 3)]
    point = {ad: Fraction(*ad) for ad in draws}
    for n in (2, 3):
        for x in product(draws, repeat=n):
            assert _integer_point(x) == integral_multiple(tuple(point[c] for c in x)), x
