"""Every acyclic orientation of every affine diagram of rank at most 5.

Each matrix of cartan._affine_table(n), n <= 5, gives an exchange matrix for
each choice of b_ij = +-|a_ij| on its edges (b_ji then has the opposite sign
and |a_ji|); the acyclic ones are the 84 orientations of rank at most 4 and
the 158 of rank 5 checked here, at H = k = max(4, |delta|).  Below |delta|
the imaginary wall d_inf lies in no loop, so neither the consistency check
nor its negative control would say anything about it.

At that cap a loop sees only the q^1 coefficient of f_inf, q = yhat^delta:
q^m enters a loop only once the caps reach m |delta|.  So the rank <= 4
orientations are also checked at H = k = m |delta| for m = 2 and 3, where
f_inf's q^2 and q^3 coefficients (which differ from those of (1 - q)^-2 in
type A_2k^(2)) are checked: the two constructions agree, the diagram is
consistent, and it turns inconsistent once the q^m coefficient moves by 1.
tests/sweep_deep.py, which tier-1 does not collect, runs the same three
checks on rank 5 at m = 2 and on all rank-6 orientations at m = 1.
"""

import functools
import itertools
from dataclasses import replace

import pytest

from affscat.almost_positive import APContext
from affscat.cartan import ExchangeMatrix, _affine_table
from affscat.coxeter import coxeter_context
from affscat.linalg import rank
from affscat.mutation import fans_compare
from affscat.scattering import (
    ORIGIN_IMAGINARY,
    build_dcscat,
    build_easy_scat,
    check_consistency,
)
from affscat.series import TruncatedSeries


def acyclic_orientations(n):
    """(label, index, rows) for the acyclic orientations of each affine
    Cartan matrix with n nodes; index counts every orientation of the
    matrix's edges, acyclic or not, in itertools.product order."""
    out = []
    for label, a in _affine_table(n):
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if a[i][j]]
        for index, signs in enumerate(itertools.product((1, -1), repeat=len(edges))):
            rows = [[0] * n for _ in range(n)]
            for (i, j), s in zip(edges, signs):
                rows[i][j] = s * abs(a[i][j])
                rows[j][i] = -s * abs(a[j][i])
            if ExchangeMatrix.from_rows(rows).is_acyclic():
                out.append((label, index, tuple(map(tuple, rows))))
    return out


ORIENTATIONS = [o for n in (2, 3, 4) for o in acyclic_orientations(n)]
RANK5 = acyclic_orientations(5)


def _id(orientation):
    label, index, _ = orientation
    return f"{label}-{index}"


@functools.cache
def _instance(rows):
    bmat = ExchangeMatrix.from_rows([list(r) for r in rows])
    cox = coxeter_context(bmat)
    cap = max(4, sum(cox.type_info.delta))
    return bmat, cox, cap, build_dcscat(bmat, cap, cap)


@functools.cache
def _deep_instance(rows, m):
    """_instance at H = k = m |delta|, cached per (matrix, cap)."""
    bmat = ExchangeMatrix.from_rows([list(r) for r in rows])
    cox = coxeter_context(bmat)
    cap = m * sum(cox.type_info.delta)
    return bmat, cox, cap, build_dcscat(bmat, cap, cap)


def _moved_f_inf(diagram, m):
    """The diagram with the q^m coefficient of f_inf moved by 1."""
    walls = []
    for w in diagram.walls:
        if w.origin == ORIGIN_IMAGINARY:
            coeffs = list(w.f.coeffs)
            coeffs[m] += 1
            w = replace(w, f=TruncatedSeries.make(w.normal, w.f.k, coeffs))
        walls.append(w)
    return replace(diagram, walls=tuple(walls))


def check_imaginary_wall_to(rows, m):
    """At H = k = m |delta|: both constructions agree, the diagram is
    consistent, and it is inconsistent once f_inf's q^m coefficient moves."""
    bmat, cox, cap, diagram = _deep_instance(rows, m)
    assert diagram.same_walls(build_easy_scat(bmat, cap, cap))
    report = check_consistency(diagram, cap, cox)
    assert report["consistent"] and report["checked"] == report["faces"] > 0, report
    assert not check_consistency(_moved_f_inf(diagram, m), cap, cox)["consistent"]


def test_orientation_count():
    assert len(ORIENTATIONS) == 84
    assert len({_id(o) for o in ORIENTATIONS}) == 84
    assert len(RANK5) == len({_id(o) for o in RANK5}) == 158


@pytest.mark.parametrize("orientation", ORIENTATIONS, ids=_id)
def test_constructions_agree_and_d_inf_is_needed(orientation):
    bmat, cox, cap, diagram = _instance(orientation[2])
    assert diagram.same_walls(build_easy_scat(bmat, cap, cap))
    report = fans_compare(
        bmat, height_cap=cap, truncation=cap, probe_cap=4, sample_count=30, seed=3
    )
    assert report["clean"], report
    assert not check_consistency(diagram.drop_imaginary(), cap, cox)["consistent"]


@pytest.mark.parametrize("orientation", RANK5, ids=_id)
def test_rank5_constructions_agree_and_d_inf_is_needed(orientation):
    # compare is left out here: it takes about 0.4 s per rank-5 orientation.
    bmat, cox, cap, diagram = _instance(orientation[2])
    assert diagram.same_walls(build_easy_scat(bmat, cap, cap))
    assert not check_consistency(diagram.drop_imaginary(), cap, cox)["consistent"]


@pytest.mark.parametrize("orientation", ORIENTATIONS + RANK5, ids=_id)
def test_consistent(orientation):
    _, cox, cap, diagram = _instance(orientation[2])
    report = check_consistency(diagram, cap, cox)
    assert report["consistent"] and report["checked"] == report["faces"] > 0, report


@pytest.mark.parametrize("m", (2, 3))
@pytest.mark.parametrize("orientation", ORIENTATIONS, ids=_id)
def test_imaginary_wall_past_its_first_term(orientation, m):
    check_imaginary_wall_to(orientation[2], m)


# Clusters as they were found before the compatibility graph tested each
# unordered pair once: Bron-Kerbosch with pivoting on the graph of ordered
# pairs, then the same split, kept verbatim as the reference.
def _bron_kerbosch(r, p, x, edges, out):
    if not p and not x:
        out.append(set(r))
        return
    pivot = max(p | x, key=lambda v: len(edges[v] & p))
    for v in list(p - edges[pivot]):
        _bron_kerbosch(r | {v}, p & edges[v], x & edges[v], edges, out)
        p.remove(v)
        x.add(v)


def _reference_clusters(ap, height_cap):
    roots = ap.ap_roots(height_cap)
    edges = {
        r: {s for s in roots if s != r and ap.compatibility_degree(r, s) == 0}
        for r in roots
    }
    cliques = []
    _bron_kerbosch(set(), set(roots), set(), edges, cliques)
    real, imaginary, frontier = [], [], []
    for cl in cliques:
        members = tuple(sorted(cl))
        if ap.delta in cl:
            assert len(cl) == ap.n - 1, "imaginary clusters have n-1 roots"
            assert all(
                r == ap.delta or ap.is_tube_real(r) for r in cl
            ), "imaginary clusters consist of tube roots and delta"
            imaginary.append(members)
        elif len(cl) == ap.n:
            assert rank([list(r) for r in cl]) == ap.n
            real.append(members)
        else:
            frontier.append(members)
    return sorted(real), sorted(imaginary), sorted(frontier)


@pytest.mark.parametrize("orientation", ORIENTATIONS, ids=_id)
def test_compatibility_is_symmetric_and_clusters_are_maximal_compatible_sets(orientation):
    bmat = ExchangeMatrix.from_rows([list(r) for r in orientation[2]])
    ap = APContext(coxeter_context(bmat))
    roots = ap.ap_roots(4)
    zero = [[ap.compatibility_degree(a, b) == 0 for b in roots] for a in roots]
    assert zero == [list(col) for col in zip(*zero)]
    assert ap.clusters(4) == _reference_clusters(ap, 4)
    # The compatible sets are the subsets of the maximal ones.
    fan = ap.fan_cones(4)
    compatible = {
        frozenset(s)
        for cl in itertools.chain(*_reference_clusters(ap, 4))
        for k in range(len(cl) + 1)
        for s in itertools.combinations(cl, k)
    }
    assert len(fan) == len(compatible) == len({frozenset(m) for m, _ in fan})
    assert {frozenset(m) for m, _ in fan} == compatible
    assert len({cone.generators for _, cone in fan}) == len(fan)
