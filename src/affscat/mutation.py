"""Matrix mutation, mutation maps, B-class probing, and the three-fan
comparison (scattering cones, nu_c fan cones, mutation-map sign vectors).
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, lcm

from .almost_positive import APContext
from .cartan import ExchangeMatrix
from .cones import SignTable
from .coxeter import coxeter_context
from .linalg import primitive_vector, vdot
from .scattering import build_dcscat, rampart_set, scat_cone_eq
from .weyl import CapExceeded, element_cap


def mutate(rows, k: int) -> tuple:
    """One mutation step at k on a tuple of rows, B's rows first and any extra
    rows (ints or Fractions) after: b'_ij = -b_ij if i = k or j = k, else
    b_ij + sgn(b_kj) max(b_ik b_kj, 0)."""
    row_k = rows[k]
    return tuple(
        tuple(-c for c in row) if i == k else _mutate_row(row, row_k, k)
        for i, row in enumerate(rows)
    )


def _mutate_row(row, row_k, k) -> tuple:
    """Row i != k of one mutation step at k, given row k of the exchange
    matrix: sgn(b_kj) max(b_ik b_kj, 0) is |b_kj| b_ik when b_ik b_kj > 0,
    else 0, and b_kk = 0."""
    r = row[k]
    out = [c + abs(b) * r if r * b > 0 else c for c, b in zip(row, row_k)]
    out[k] = -r
    return tuple(out)


def eta(bmat: ExchangeMatrix, seq, x) -> tuple:
    """Mutation map eta_seq^B on V* (rho coordinates): x moves as an extra row
    beside B's rows, which are mutated along seq (first entry first)."""
    b, x = bmat.b, tuple(x)
    for k in seq:
        x = _mutate_row(x, b[k], k)
        b = mutate(b, k)
    return x


def _same_signs(u, v) -> bool:
    return all(a * b > 0 or a == b == 0 for a, b in zip(u, v))


def b_class_probe(bmat: ExchangeMatrix, x, y, length_cap: int) -> dict:
    """Compare sign vectors of eta over all words of length <= length_cap
    (immediate repeats pruned: mutation is an involution), breadth first.

    "distinguished" proves different B-classes; "indistinct" is only evidence
    relative to the cap.  An indistinct pair builds n (n-1)^(l-1) words of
    each length l, so more than AFFSCAT_CAP words raise CapExceeded.

    B mutated along a word does not depend on x and y, so it comes from
    bmat.mutation_tree, which keeps it for every word expanded so far and is
    shared by all pairs probed on bmat.  Each word then moves only the two
    extra rows u, v, with row k of the mutated B: mutating the extended
    matrix leaves the rows of B as they would be without x and y.  Every
    pair on the frontier has equal sign vectors, so u_k and v_k have one
    sign.  If it is 0 the step leaves both rows as they are.  Otherwise
    coordinate k flips in both, which keeps their signs equal, and the only
    other coordinates that move are the j with u_k b_kj > 0, to
    u_j + |b_kj| u_k and v_j + |b_kj| v_k; only those can tell the pair
    apart.
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
                s, t = u[k], v[k]
                if not s:
                    nxt.append((word + (k,), u, v))
                    continue
                mu, mv = list(u), list(v)
                mu[k], mv[k] = -s, -t
                for j, e in enumerate(b[k]):
                    if s * e > 0:
                        e = abs(e)
                        a, z = u[j] + e * s, v[j] + e * t
                        if not (a * z > 0 or a == z == 0):
                            return {"verdict": "distinguished", "witness": word + (k,)}
                        mu[j], mv[j] = a, z
                nxt.append((word + (k,), tuple(mu), tuple(mv)))
        frontier = nxt
    return {"verdict": "indistinct_up_to_cap", "witness": None}


# -- fan comparison ----------------------------------------------------------------


def _integer_point(draws) -> tuple:
    """The point (a_1/d_1, ..., a_n/d_n) times the lcm of its reduced
    denominators d_i / gcd(a_i, d_i): integral_multiple of that point,
    without building a Fraction."""
    m = lcm(*(d // gcd(a, d) for a, d in draws))
    return tuple(a * m // d for a, d in draws)


def _point_strs(draws) -> list:
    return [str(Fraction(a, d)) for a, d in draws]


def _separating_heights(ap: APContext, p, q, far_cap: int):
    """Heights of AP roots whose hyperplane separates p from q, counting a
    hyperplane through one point (but not through both) as separating.  The
    pairing <x, beta> = sum_i x_i d_i beta_i is a positive multiple of
    <x, cov(beta)>, so the signs are read off the integer covector."""
    cov = ap.cartan.primitive_in_coroot_lattice
    out = []
    for beta in ap.ap_positive_real(far_cap):
        a, b = vdot(p, cov(beta)), vdot(q, cov(beta))
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
        # Cone.simplicial stores dim - len(rays) equalities, so a codimension-1
        # fan cone has exactly one: the covector that cuts out its span.  Its
        # normal has coordinates eq_i / d_i, and each d_i^{-1} is a positive
        # integer (ExchangeMatrix.symmetrizer), the denominator of d_i.
        (eq,) = cone.eqs
        beta = primitive_vector(tuple(e * d.denominator for e, d in zip(eq, cox.cartan.d)))
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
    fan_table = SignTable([c for _, c in fan])
    maximal = sum(1 << i for i, (_, c) in enumerate(fan) if c.dim == n)
    far_cap = height_cap + 2 * sum(cox.type_info.delta)

    def sample_point():
        """A rational point for the report, as (numerator, denominator)
        draws, its integer multiple, which every test below receives (each
        is invariant under positive scaling, and mutation maps are positively
        homogeneous), and its fan profile: the bitmask of the fan cones
        containing it."""
        for _ in range(10**4):
            x = [(rng.randint(-12, 12), rng.choice([1, 2, 3])) for _ in range(n)]
            xi = _integer_point(x)
            if rampart_set(diagram, xi):
                continue  # exclude wall loci
            profile = fan_table.locate(xi)
            if not profile & maximal:
                continue  # outside the height-capped fan
            return x, xi, profile
        raise AssertionError("sampler starved")

    pairs_done = 0
    while pairs_done < sample_count:
        (p, pi, p_profile), (q, qi, q_profile) = sample_point(), sample_point()
        scat_eq = scat_cone_eq(diagram, pi, qi)
        fan_eq = p_profile == q_profile
        if scat_eq != fan_eq:
            seps = _separating_heights(ap, pi, qi, far_cap)
            if any(h > height_cap for h in seps):
                report["pair_frontier_censored"] += 1
                continue
            report["pair_disagreements"].append(
                {"p": _point_strs(p), "q": _point_strs(q)}
            )
            pairs_done += 1
            continue
        verdict = b_class_probe(bt, pi, qi, probe_cap)
        report["probe_checked"] += 1
        if scat_eq and verdict["verdict"] == "distinguished":
            report["probe_contradictions"].append(
                {
                    "p": _point_strs(p),
                    "q": _point_strs(q),
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
