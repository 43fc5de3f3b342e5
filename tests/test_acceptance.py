"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every check is exact rational arithmetic; the stated budgets are
wall-clock ceilings.
"""

import random
import time
from fractions import Fraction
from functools import reduce

from test_shards import ReferenceShards
from test_sortable import ReferenceSortable
from test_weyl import ReferenceWeyl, is_identity, is_join_irreducible

from affscat.almost_positive import APContext
from affscat.cartan import ExchangeMatrix
from affscat.coxeter import coxeter_context
from affscat.linalg import primitive_vector
from affscat.mutation import eta, fans_compare, mutate
from affscat.scattering import (
    ORIGIN_INITIAL,
    build_dcscat,
    build_easy_scat,
    check_consistency,
    classify_wall,
    rank2_complete,
)
from affscat.sortable import SortableContext
from affscat.weyl import enumerate_up_to_length

B_A11 = ExchangeMatrix.from_rows([[0, 2], [-2, 0]])
B_A2T = ExchangeMatrix.from_rows([[0, 1, 1], [-1, 0, 1], [-1, -1, 0]])
INSTANCES = [("A_1^(1)", B_A11), ("A_2~", B_A2T)]


def _report(num, label, t0, budget):
    elapsed = time.monotonic() - t0
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {num}: PASS ({elapsed:.1f}s) — {label}")


def test_criterion_1_rank2_limiting_walls():
    t0 = time.monotonic()
    # yhat-degree 16/24 gives both limiting series through q-degree 8,
    # comfortably past the required yhat-degree 8.
    d = rank2_complete(B_A11, truncation=16)
    (lim,) = d.wall_by_normal((1, 1))
    assert lim.f.coeffs == (1, 2, 3, 4, 5, 6, 7, 8, 9)  # (1 - y1 y2)^{-2}
    d = rank2_complete(ExchangeMatrix.from_rows([[0, 1], [-4, 0]]), truncation=24)
    (lim,) = d.wall_by_normal((1, 2))
    # (1 + y1 y2^2)(1 - y1 y2^2)^{-2}
    assert lim.f.coeffs == (1, 3, 5, 7, 9, 11, 13, 15, 17)
    _report(1, "rank-2 limiting series exact through q-degree 8", t0, 10)


def test_criterion_2_construction_identity():
    t0 = time.monotonic()
    for name, b in INSTANCES:
        d1 = build_dcscat(b, height_cap=5, truncation=5)
        d2 = build_easy_scat(b, height_cap=5, truncation=5)
        assert d1.same_walls(d2), name
    _report(2, "build_dcscat == build_easy_scat at H = k = 5 (exact walls)", t0, 60)


def test_criterion_3_consistency_with_negative_control():
    t0 = time.monotonic()
    for name, b in INSTANCES:
        cox = coxeter_context(b)
        d = build_dcscat(b, height_cap=5, truncation=5)
        report = check_consistency(d, 5, cox)
        assert report["consistent"], (name, report["failures"])
        broken = check_consistency(d.drop_imaginary(), 5, cox)
        assert not broken["consistent"], name
    _report(3, "all small loops identity mod m^6; deleting d_inf breaks one", t0, 300)


def test_criterion_4_wall_classification():
    t0 = time.monotonic()
    for name, b in INSTANCES:
        cox = coxeter_context(b)
        d = build_dcscat(b, height_cap=5, truncation=5)
        normals = [w.normal for w in d.walls]
        assert len(set(normals)) == len(normals), "one wall per hyperplane"
        for w in d.walls:
            verdict = classify_wall(w, cox)
            if w.origin == ORIGIN_INITIAL:
                assert verdict["incoming"], (name, w.normal)
            else:
                assert verdict["outgoing"] and verdict["gregarious"], (name, w.normal)
    _report(4, "initial walls incoming; all others outgoing and gregarious", t0, 60)


def test_criterion_5_normal_set_identity():
    t0 = time.monotonic()
    for name, b in INSTANCES:
        cox = coxeter_context(b)
        ap = APContext(cox)
        for H in (4, 5):
            d = build_dcscat(b, height_cap=H, truncation=4)
            got = {w.normal for w in d.walls}
            expected = set(ap.ap_positive_real(H)) | {tuple(ap.delta)}
            assert got == expected, name
    _report(5, "wall normals equal AP_c intersect Phi+ up to each height cap", t0, 60)


def test_criterion_6_d_inf_geometry():
    t0 = time.monotonic()
    for name, b in INSTANCES:
        cox = coxeter_context(b)
        ap = APContext(cox)
        d = build_dcscat(b, height_cap=4, truncation=4)
        (dinf,) = d.wall_by_normal(tuple(ap.delta))
        lin, rays = dinf.cone.generators
        assert lin == ()
        xi = ap.tube.xi
        if xi:
            expected_rays = {primitive_vector(cox.nu(g)) for g in xi}
        else:
            expected_rays = {primitive_vector(cox.nu(ap.delta))}
        assert set(rays) == expected_rays, name
        # nu_c(delta) = x_c / 2 exactly
        assert tuple(2 * v for v in cox.nu(ap.delta)) == cox.affine.x_c
    _report(6, "extreme rays of d_inf are nu_c(Xi_c); nu_c(delta) = x_c/2", t0, 60)


def test_criterion_7_compatibility_degree_axioms():
    t0 = time.monotonic()
    H = 4
    for name, b in INSTANCES:
        cox = coxeter_context(b)
        ap = APContext(cox)
        roots = ap.ap_roots(H)
        n = cox.n
        deg = ap.compatibility_degree
        for a in roots:
            for bb in roots:
                val = deg(a, bb)
                # (compat tau)
                assert val == deg(ap.tau(a), ap.tau(bb)), (name, a, bb)
                # symmetry of compatibility
                assert (val == 0) == (deg(bb, a) == 0), (name, a, bb)
        for i in range(n):
            neg = tuple(-1 if j == i else 0 for j in range(n))
            for bb in roots:
                # (compat base)
                assert deg(neg, bb) == bb[i], (name, i, bb)
                # (compat cobase)
                cv = ap._coroot_coords(bb)
                assert deg(bb, neg) == cv[i], (name, i, bb)
        tube = [r for r in roots if ap.is_tube_real(r)]
        for a in tube:
            assert deg(a, a) == -1  # self-degree on tube roots
            for bb in tube:
                assert deg(a, bb) == ap.tube_degree(a, bb)  # (compat U)
            # (compat delta U)
            assert deg(ap.delta, a) == 0 and deg(a, ap.delta) == 0
        assert deg(ap.delta, ap.delta) == 0
    _report(7, "all five compatibility-degree conditions hold exhaustively at H=4", t0, 120)


def test_criterion_8_fan_coincidence_evidence():
    t0 = time.monotonic()
    settings = [("A_1^(1)", B_A11, 5, 5), ("A_2~", B_A2T, 4, 4)]
    for name, b, H, k in settings:
        report = fans_compare(
            b, height_cap=H, truncation=k, probe_cap=6, sample_count=200, seed=11
        )
        assert report["pair_samples"] >= 200, name
        assert not report["skeleton_unmatched"], (name, report)
        assert not report["normals_missing_from_fan"], (name, report)
        assert not report["pair_disagreements"], (name, report)
        assert not report["probe_contradictions"], (name, report)
        assert report["clean"], name
    _report(8, "zero fan/scattering discrepancies, zero probe contradictions (L=6)", t0, 600)


def test_criterion_9_sortable_shard_round_trips():
    t0 = time.monotonic()
    for name, b, max_len in [("A_1^(1)", B_A11, 12), ("A_2~", B_A2T, 10)]:
        cox = coxeter_context(b)
        weyl = ReferenceWeyl(cox.cartan)
        shards = ReferenceShards(weyl)
        elements = enumerate_up_to_length(weyl, max_len + 1)
        for orientation in (cox, cox.inverse()):
            sc = ReferenceSortable(weyl, orientation)
            count = 0
            for w in elements:
                if is_identity(w) or w.length > max_len:
                    continue
                if sc.is_sortable(w) is None or is_join_irreducible(weyl, w) is None:
                    continue
                shard = shards.shard_of_element(w)
                assert shards.ji_of_shard(shard, length_cap=max_len + 1) == w, (
                    name,
                    w.word,
                )
                count += 1
            assert count > 0, name
        # antipodal identity wherever both families exist
        sc = SortableContext(cox)
        sc_inv = SortableContext(cox.inverse())
        ji = sc.ji_sortables(height_cap=2 * max_len, length_cap=max_len)
        ji_inv = sc_inv.ji_sortables(height_cap=2 * max_len, length_cap=max_len)
        shared = set(ji) & set(ji_inv)
        assert shared, name
        for root in shared:
            a = shards.shard_from_ji(root, ji[root].inversions)
            bb = shards.shard_from_ji(root, ji_inv[root].inversions)
            assert bb.cone.generators == a.cone.negate().generators, (name, root)
    _report(9, "ji -> Sh -> ji round trips and antipodal shard identity", t0, 300)


def test_criterion_10_mutation_algebra():
    t0 = time.monotonic()
    rng = random.Random(99)
    for trial in range(1000):
        n = rng.choice([2, 3, 4])
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = rng.randint(-3, 3)
                rows[i][j] = v
                rows[j][i] = -v
        extra = [
            [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]
            for _ in range(rng.randint(0, 2))
        ]
        ext = tuple(tuple(r) for r in rows) + tuple(tuple(r) for r in extra)
        k = rng.randrange(n)
        assert mutate(mutate(ext, k), k) == ext
    for name, b in INSTANCES:
        cox = coxeter_context(b)
        seq = list(reversed(cox.order))
        assert reduce(mutate, seq, b.b) == b.b  # mu_{12...n}(B) = B
        ap = APContext(cox)
        bt = b.transpose()
        for beta in ap.ap_roots(4):
            lhs = eta(bt, seq, cox.nu(beta))
            rhs = cox.nu(ap.tau(beta))
            assert lhs == rhs, (name, beta)  # eta o nu_c = nu_c o tau_c
    _report(10, "mutation involution, mu_c identity, eta o nu = nu o tau", t0, 120)
