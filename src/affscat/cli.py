"""Command-line driver.

Subcommands: classify, walls, consistency, rank2, clusters, compare, svg.
Input is a JSON file {"n": int, "b": [[int]]}.  Exit status 0 when all
requested verifications pass, 1 on a verification failure, 2 on invalid
input or an --out path that cannot be written, 3 on an internal error;
errors go to stderr as JSON, internal ones marked with "internal": true.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys

from .cartan import NotAcyclic, NotAffine, NotSkewSymmetrizable, classify, exchange_to_cartan
from .coxeter import coxeter_context
from .jsonio import (
    InputError,
    cone_json,
    diagram_json,
    dumps,
    frac_str,
    int_vec_json,
    read_exchange_matrix,
)
from .mutation import fans_compare
from .scattering import build_dcscat, build_easy_scat, check_consistency, rank2_complete
from .svg import UnsupportedRank, render_slice
from .weyl import element_cap


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="affscat",
        description="Exact cluster scattering diagrams of acyclic affine type",
    )
    p.add_argument("command", choices=[
        "classify", "walls", "consistency", "rank2", "clusters", "compare", "svg",
    ])
    p.add_argument("--input", required=True, help="JSON file with {'n':..., 'b':...}")
    p.add_argument("--H", type=int, default=4, help="root height cap (consistency reads --k alone)")
    p.add_argument("--k", type=int, default=4, help="series truncation")
    p.add_argument("--L", type=int, default=6, help="mutation probe word cap")
    p.add_argument("--samples", type=int, default=200, help="sample pairs for compare")
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    return p


def _emit(text: str, out_path):
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write --out {out_path}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _check_out(out_path) -> None:
    """Raise InputError unless the directory of out_path exists and is
    writable: checked before the stage runs, so a run that cannot write its
    result stops before computing it and creates no file."""
    folder = os.path.dirname(os.path.abspath(out_path))
    if not os.access(folder, os.W_OK):
        reason = errno.EACCES if os.path.isdir(folder) else errno.ENOENT
        raise InputError(f"cannot write --out {out_path}: {os.strerror(reason)}")


def _fail(payload, code: int) -> int:
    sys.stderr.write(dumps(payload))
    return code


def run(argv=None) -> int:
    args = make_parser().parse_args(argv)
    for name in ("H", "k", "L", "samples"):
        if getattr(args, name) <= 0:
            return _fail({"error": f"--{name} must be positive"}, 2)
    try:
        element_cap()
    except ValueError as exc:
        return _fail({"error": str(exc)}, 2)
    try:
        with open(args.input) as fh:
            bmat = read_exchange_matrix(json.load(fh))
    except (OSError, json.JSONDecodeError, InputError) as exc:
        return _fail({"error": f"invalid input: {exc}"}, 2)

    try:
        if args.out:
            _check_out(args.out)
        return _dispatch(args, bmat)
    except (NotAffine, NotAcyclic, NotSkewSymmetrizable, UnsupportedRank, InputError) as exc:
        return _fail({"error": str(exc)}, 2)
    except Exception as exc:  # a bug or an exceeded cap, never a verification result
        return _fail({"error": f"{type(exc).__name__}: {exc}", "internal": True}, 3)


def _dispatch(args, bmat) -> int:
    if args.command == "classify":
        cartan = exchange_to_cartan(bmat)
        info = classify(cartan)
        payload = {
            "type": info.kind,
            "cartan": {
                "a": [list(row) for row in cartan.a],
                "d": [frac_str(x) for x in cartan.d],
            },
            "positive_real_roots": [
                int_vec_json(r) for r in cartan.real_roots_up_to_height(args.H)
            ],
        }
        if info.kind == "affine":
            payload.update(
                {
                    "label": info.label,
                    "is_A2k2": info.is_a2k2,
                    "delta": int_vec_json(info.delta),
                    "aff_index": info.aff_index + 1,
                }
            )
        _emit(dumps(payload), args.out)
        return 0

    if args.command == "walls":
        d1 = build_dcscat(bmat, args.H, args.k)
        d2 = build_easy_scat(bmat, args.H, args.k)
        equal = d1.same_walls(d2)
        payload = {
            "dcscat": diagram_json(d1),
            "easy_scat": diagram_json(d2),
            "equal": equal,
        }
        _emit(dumps(payload), args.out)
        return 0 if equal else 1

    if args.command == "consistency":
        cox = coxeter_context(bmat)
        # the check keeps only the walls of height <= k
        diagram = build_dcscat(bmat, args.k, args.k)
        report = check_consistency(diagram, args.k, cox)
        _emit(dumps(report), args.out)
        return 0 if report["consistent"] else 1

    if args.command == "rank2":
        if bmat.n != 2:
            return _fail({"error": "rank2 requires a 2x2 exchange matrix"}, 2)
        info = coxeter_context(bmat).type_info
        if info.kind == "affine":
            ydeg = args.k * sum(info.delta)
        else:
            ydeg = 2 * args.k
        diagram = rank2_complete(bmat, ydeg)
        payload = {"walls": diagram_json(diagram)["walls"], "limiting": None}
        if info.kind == "affine":
            limit = diagram.wall_by_normal(info.delta)
            if limit:
                payload["limiting"] = [frac_str(c) for c in limit[0].f.coeffs]
        _emit(dumps(payload), args.out)
        return 0

    if args.command == "clusters":
        ap = coxeter_context(bmat).ap
        real, imaginary, frontier = ap.clusters(args.H)
        roots = ap.compatibility_graph(args.H)[0]
        table = [
            [ap.compatibility_degree(a, b) for b in roots] for a in roots
        ]
        fan = [
            {"members": [int_vec_json(r) for r in members], "cone": cone_json(cone)}
            for members, cone in ap.fan_cones(args.H)
        ]
        payload = {
            "roots": [int_vec_json(r) for r in roots],
            "compatibility": table,
            "real_clusters": [[int_vec_json(r) for r in cl] for cl in real],
            "imaginary_clusters": [[int_vec_json(r) for r in cl] for cl in imaginary],
            "height_frontier_cliques": [
                [int_vec_json(r) for r in cl] for cl in frontier
            ],
            "fan_cones": fan,
        }
        _emit(dumps(payload), args.out)
        return 0

    if args.command == "compare":
        report = fans_compare(
            bmat,
            height_cap=args.H,
            truncation=args.k,
            probe_cap=args.L,
            sample_count=args.samples,
            seed=args.seed,
        )
        _emit(dumps(report), args.out)
        return 0 if report["clean"] else 1

    if args.command == "svg":
        diagram = build_dcscat(bmat, args.H, args.k)
        text = render_slice(diagram, exchange_to_cartan(bmat))
        _emit(text, args.out)
        return 0

    raise AssertionError(f"unhandled command {args.command}")


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
