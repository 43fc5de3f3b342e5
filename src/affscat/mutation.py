"""Matrix mutation, mutation maps, B-class probing, and the three-fan
comparison (scattering cones, nu_c fan cones, mutation-map sign vectors).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .almost_positive import APContext
from .cartan import ExchangeMatrix
from .coxeter import coxeter_context
from .linalg import integral_multiple, primitive_vector
from .scattering import build_dcscat, rampart_set, scat_cone_eq
from .weyl import CapExceeded, element_cap


@dataclass(frozen=True)
class ExtendedExchangeMatrix:
    n: int
    rows: tuple  # first n rows are the exchange matrix; the rest are ints or Fractions

    @staticmethod
    def from_matrix(bmat: ExchangeMatrix, extra=()) -> "ExtendedExchangeMatrix":
        rows = tuple(tuple(x for x in row) for row in bmat.b)
        rows += tuple(tuple(row) for row in extra)
        return ExtendedExchangeMatrix(bmat.n, rows)

    def top(self):
        return self.rows[: self.n]


def sgn(x) -> int:
    return (x > 0) - (x < 0)


def mutate(ext: ExtendedExchangeMatrix, k: int) -> ExtendedExchangeMatrix:
    """One mutation step: b'_ij = -b_ij if i = k or j = k, else
    b_ij + sgn(b_kj) max(b_ik b_kj, 0), applied to every row."""
    n = ext.n
    rows = ext.rows
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
    return ExtendedExchangeMatrix(n, tuple(out))


def mutate_sequence(ext: ExtendedExchangeMatrix, seq) -> ExtendedExchangeMatrix:
    """Apply mutations with seq[0] acting first."""
    for k in seq:
        ext = mutate(ext, k)
    return ext


def eta(bmat: ExchangeMatrix, seq, x) -> tuple:
    """Mutation map eta_seq^B on V* (rho coordinates): adjoin x as an extra row,
    mutate along seq (first entry first), read off the transformed row."""
    ext = ExtendedExchangeMatrix.from_matrix(bmat, extra=[tuple(x)])
    ext = mutate_sequence(ext, seq)
    return ext.rows[-1]


def _sign_vector(x):
    return tuple(sgn(c) for c in x)


def b_class_probe(bmat: ExchangeMatrix, x, y, length_cap: int) -> dict:
    """Compare sign vectors of eta over all words of length <= length_cap
    (immediate repeats pruned: mutation is an involution).

    "distinguished" proves different B-classes; "indistinct" is only evidence
    relative to the cap.  An indistinct pair builds n (n-1)^(l-1) words of
    each length l, so more than AFFSCAT_CAP words raise CapExceeded.
    """
    n = bmat.n
    cap = element_cap()
    built = 0
    start = ExtendedExchangeMatrix.from_matrix(bmat, extra=[tuple(x), tuple(y)])
    if _sign_vector(start.rows[-2]) != _sign_vector(start.rows[-1]):
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
                moved = mutate(ext, k)
                if _sign_vector(moved.rows[-2]) != _sign_vector(moved.rows[-1]):
                    return {"verdict": "distinguished", "witness": word + (k,)}
                nxt.append((word + (k,), moved))
        frontier = nxt
    return {"verdict": "indistinct_up_to_cap", "witness": None}


# -- fan comparison ----------------------------------------------------------------


def _fan_profile(cones, point):
    return frozenset(i for i, (_, cone) in enumerate(cones) if cone.contains(point))


def _separating_heights(ap: APContext, p, q, far_cap: int):
    """Heights of AP roots whose hyperplane separates p from q, counting a
    hyperplane through one point (but not through both) as separating."""
    out = []
    for beta in ap.ap_positive_real(far_cap):
        a, b = ap.cartan.pairing(p, beta), ap.cartan.pairing(q, beta)
        if a * b <= 0 and (a, b) != (0, 0):
            out.append(sum(beta))
    return out


def fans_compare(
    bmat: ExchangeMatrix,
    height_cap: int,
    truncation: int,
    probe_cap: int,
    sample_count: int,
    seed: int,
) -> dict:
    """Exact evidence that the scattering fan, the nu_c cluster fan, and the
    mutation fan coincide on a desk-scale affine instance.

    (a) every codimension-1 fan cone lies in the wall with the same normal and
    the two normal inventories agree; (b) sampled point pairs agree between
    scattering-diagram equivalence and fan-cone co-membership; (c) no pair in
    the same cone is distinguished by mutation-map sign vectors.  Pairs whose
    verdict is decided only by walls beyond the height cap are counted as
    frontier-censored, not as discrepancies.
    """
    cox = coxeter_context(bmat)
    ap = APContext(cox)
    n = cox.n
    diagram = build_dcscat(bmat, height_cap, truncation)
    fan = ap.fan_cones(height_cap)
    report = {
        "skeleton_faces": 0,
        "skeleton_unmatched": [],
        "skeleton_frontier": 0,
        "normals_missing_from_fan": [],
        "pair_samples": 0,
        "pair_disagreements": [],
        "pair_frontier_censored": 0,
        "probe_checked": 0,
        "probe_contradictions": [],
        "probe_separations": 0,
    }

    # (a) codim-1 skeleton against walls.  A wall's fan faces may need roots
    # up to one delta-height beyond the wall normal, so the missing-normals
    # direction is certified only below the frontier band.
    wall_by_normal = {w.normal: w for w in diagram.walls}
    skeleton_normals = set()
    for members, cone in fan:
        if cone.dim != n - 1:
            continue
        report["skeleton_faces"] += 1
        covs = cone.span_covectors()
        assert len(covs) == 1
        beta = primitive_vector(
            tuple(Fraction(covs[0][i]) / cox.cartan.d[i] for i in range(n))
        )
        if any(c < 0 for c in beta):
            beta = tuple(-c for c in beta)
        if beta not in wall_by_normal:
            if sum(beta) > height_cap:
                report["skeleton_frontier"] += 1
                continue
            report["skeleton_unmatched"].append({"members": members, "normal": beta})
            continue
        skeleton_normals.add(beta)
        if not wall_by_normal[beta].cone.contains_cone(cone):
            report["skeleton_unmatched"].append({"members": members, "normal": beta})
    certified_height = height_cap - sum(cox.type_info.delta)
    missing = set(wall_by_normal) - skeleton_normals
    report["normals_missing_from_fan"] = sorted(
        b for b in missing if sum(b) <= certified_height
    )
    report["normals_missing_frontier"] = sorted(
        b for b in missing if sum(b) > certified_height
    )

    # (b)+(c) sampled pairs.
    rng = random.Random(seed)
    bt = bmat.transpose()
    maximal = [(m, c) for m, c in fan if c.dim == n]
    far_cap = height_cap + 2 * sum(cox.type_info.delta)

    def sample_point():
        """A rational point for the report and its integer multiple, which
        every test below receives: each is invariant under positive scaling
        (mutation maps are positively homogeneous)."""
        for _ in range(10**4):
            x = tuple(
                Fraction(rng.randint(-12, 12), rng.choice([1, 2, 3])) for _ in range(n)
            )
            xi = integral_multiple(x)
            if rampart_set(diagram, xi):
                continue  # exclude wall loci
            if not any(cone.contains(xi) for _, cone in maximal):
                continue  # outside the height-capped fan
            return x, xi
        raise AssertionError("sampler starved")

    pairs_done = 0
    while pairs_done < sample_count:
        (p, pi), (q, qi) = sample_point(), sample_point()
        scat_eq = scat_cone_eq(diagram, pi, qi)
        fan_eq = _fan_profile(fan, pi) == _fan_profile(fan, qi)
        if scat_eq != fan_eq:
            seps = _separating_heights(ap, pi, qi, far_cap)
            if any(h > height_cap for h in seps):
                report["pair_frontier_censored"] += 1
                continue
            report["pair_disagreements"].append(
                {"p": [str(c) for c in p], "q": [str(c) for c in q]}
            )
            pairs_done += 1
            continue
        verdict = b_class_probe(bt, pi, qi, probe_cap)
        report["probe_checked"] += 1
        if scat_eq and verdict["verdict"] == "distinguished":
            report["probe_contradictions"].append(
                {
                    "p": [str(c) for c in p],
                    "q": [str(c) for c in q],
                    "witness": list(verdict["witness"]),
                }
            )
        if not scat_eq and verdict["verdict"] == "distinguished":
            report["probe_separations"] += 1
        pairs_done += 1
    report["pair_samples"] = pairs_done
    report["clean"] = not (
        report["skeleton_unmatched"]
        or report["normals_missing_from_fan"]
        or report["pair_disagreements"]
        or report["probe_contradictions"]
    )
    return report
