"""JSON conventions: exchange matrices in, exact rational data out.

Rationals serialize as "p/q" strings ("p" when integral); roots and weight
vectors as coordinate lists; series as {"normal": ..., "coeffs": [...]}.
"""

from __future__ import annotations

import json
from math import gcd

from .cartan import ExchangeMatrix, is_int


class InputError(ValueError):
    pass


def frac_str(x) -> str:
    """str(Fraction(x)) of an int or a Fraction, from x's own numerator and
    denominator (a Fraction is kept in lowest terms)."""
    if type(x) is int:
        return str(x)
    num, den = x.numerator, x.denominator
    return str(num) if den == 1 else f"{num}/{den}"


def vec_json(v):
    return [frac_str(c) for c in v]


def int_vec_json(v):
    return [int(c) for c in v]


def read_exchange_matrix(data) -> ExchangeMatrix:
    """Validate {"n": int, "b": n x n list of ints} and build the matrix.

    Only JSON integers are accepted: floats, booleans and strings are
    rejected rather than coerced.
    """
    if isinstance(data, (str, bytes)):
        data = json.loads(data)
    if not isinstance(data, dict) or "n" not in data or "b" not in data:
        raise InputError("expected an object with 'n' and 'b'")
    n, rows = data["n"], data["b"]
    if not is_int(n):
        raise InputError("'n' must be an integer")
    if (
        not isinstance(rows, list)
        or len(rows) != n
        or not all(isinstance(r, list) and len(r) == n and all(map(is_int, r)) for r in rows)
    ):
        raise InputError("'b' must be an n x n integer matrix")
    try:
        return ExchangeMatrix.from_rows(rows)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def series_json(f):
    return {"normal": int_vec_json(f.normal), "coeffs": [frac_str(c) for c in f.coeffs]}


def wall_json(w):
    return {
        "normal": int_vec_json(w.normal),
        "ineqs": [int_vec_json(g) for g in w.ineq_roots],
        "series": series_json(w.f),
        "origin": w.origin,
    }


def diagram_json(d):
    return {
        "n": d.cartan_n,
        "height_cap": d.height_cap,
        "truncation": d.truncation,
        "provenance": d.provenance,
        "walls": [wall_json(w) for w in d.walls],
    }


def cone_json(cone):
    """A cone's generators and constraints, each equality divided by its last
    nonzero entry."""
    lin, rays = cone.generators
    return {
        "rays": [vec_json(r) for r in rays],
        "lineality": [vec_json(v) for v in lin],
        "ineqs": [vec_json(g) for g in cone.ineqs],
        "eqs": [_last_entry_one(e) for e in cone.eqs],
    }


def _last_entry_one(e):
    """The integer vector e divided by its last nonzero entry, as the strings
    vec_json gives: each x / last in lowest terms, from g = gcd(x, last),
    with the denominator made positive; no Fraction is built."""
    last = next((x for x in reversed(e) if x), 1)
    out = []
    for x in e:
        g = gcd(x, last) if last > 0 else -gcd(x, last)
        num, den = x // g, last // g
        out.append(str(num) if den == 1 else f"{num}/{den}")
    return out


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
