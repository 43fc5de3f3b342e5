"""Static SVG slices of scattering diagrams.

Rank 2 draws the walls as rays and lines through the origin of V*; rank 3
draws the affine slice <x, delta> = 1, on which real walls become segments,
rays, or lines and the imaginary wall recedes to infinity (its extreme
directions are drawn dashed from the origin).  All geometry is exact; numbers
are rounded to six decimals only when written.
"""

from __future__ import annotations

from fractions import Fraction

from .cartan import CartanMatrix
from .scattering import ORIGIN_IMAGINARY, ScatDiagram


class UnsupportedRank(ValueError):
    pass


VIEW = 5  # half-width of the drawing window in exact coordinates
SCALE = 60  # pixels per unit


def _fmt(x) -> str:
    return f"{float(x):.6f}"


def _to_screen(x, y):
    sx = (Fraction(x) + VIEW) * SCALE
    sy = (VIEW - Fraction(y)) * SCALE
    return _fmt(sx), _fmt(sy)


def _clip_scale(direction):
    """Largest multiple of the direction staying inside the window."""
    m = max(abs(Fraction(c)) for c in direction if c != 0)
    return Fraction(VIEW) / m


def _line(points, cls):
    (x1, y1), (x2, y2) = points
    return (
        f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" class="{cls}" />'
    )


def _label(x, y, text):
    sx, sy = _to_screen(x, y)
    return f'<text x="{sx}" y="{sy}" class="lbl">{text}</text>'


HEADER = (
    '<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{w}" '
    'viewBox="0 0 {w} {w}">\n'
    "<style>.axis{{stroke:#bbb;stroke-width:1}}"
    ".wall{{stroke:#333;stroke-width:2}}"
    ".imaginary{{stroke:#c22;stroke-width:2;stroke-dasharray:6 4}}"
    ".lbl{{font:10px monospace;fill:#555}}</style>\n"
)


def render_slice(diagram: ScatDiagram, cartan: CartanMatrix | None = None) -> str:
    """The SVG drawing; rank 3 needs the Cartan matrix, whose symmetrizers
    pair V* with delta to cut the slice <x, delta> = 1."""
    if diagram.cartan_n == 2:
        return _render_rank2(diagram)
    if diagram.cartan_n == 3:
        if cartan is None:
            raise ValueError("rank-3 slices need the Cartan matrix")
        return _render_affine_slice(diagram, cartan)
    raise UnsupportedRank("SVG rendering supports rank 2 and rank 3 only")


def _render_rank2(diagram: ScatDiagram) -> str:
    parts = [HEADER.format(w=2 * VIEW * SCALE)]
    parts.append(_axes())
    for w in diagram.walls:
        cls = "imaginary" if w.origin == ORIGIN_IMAGINARY else "wall"
        lin, rays = w.cone.generators
        segments = []
        if lin:
            d = lin[0]
            t = _clip_scale(d)
            segments.append(((-t * d[0], -t * d[1]), (t * d[0], t * d[1])))
        for r in rays:
            t = _clip_scale(r)
            segments.append(((0, 0), (t * r[0], t * r[1])))
        for (a, b) in segments:
            parts.append(_line((_to_screen(*a), _to_screen(*b)), cls))
            lx, ly = (Fraction(b[0]) * Fraction(9, 10), Fraction(b[1]) * Fraction(9, 10))
            parts.append(_label(lx, ly, _root_label(w.normal)))
    parts.append("</svg>\n")
    return "\n".join(parts)


def _render_affine_slice(diagram: ScatDiagram, cartan: CartanMatrix) -> str:
    # Slice coordinates: (x_1, x_2) parametrize {<x, delta> = 1}.
    imaginary = [w for w in diagram.walls if w.origin == ORIGIN_IMAGINARY]
    assert imaginary, "affine slice rendering expects the imaginary wall"
    delta = imaginary[0].normal
    parts = [HEADER.format(w=2 * VIEW * SCALE)]
    parts.append(_axes())
    for w in diagram.walls:
        cls = "imaginary" if w.origin == ORIGIN_IMAGINARY else "wall"
        lin, rays = w.cone.generators
        dirs = list(rays) + list(lin) + [tuple(-c for c in v) for v in lin]
        points = []
        infinite = []
        for r in dirs:
            val = cartan.pairing(r, delta)
            if val > 0:
                points.append((Fraction(r[0]) / val, Fraction(r[1]) / val))
            elif val == 0:
                infinite.append((r[0], r[1]))
        if not points:
            # the imaginary wall: show its directions at infinity, dashed
            for dvec in infinite:
                if dvec == (0, 0):
                    continue
                t = _clip_scale(dvec)
                parts.append(
                    _line((_to_screen(0, 0), _to_screen(t * dvec[0], t * dvec[1])), cls)
                )
                parts.append(
                    _label(t * dvec[0] / 2, t * dvec[1] / 2, _root_label(w.normal))
                )
            continue
        points = sorted(points)
        a, b = points[0], points[-1]
        if a != b:
            parts.append(_line((_to_screen(*a), _to_screen(*b)), cls))
        along = (b[0] - a[0], b[1] - a[1])
        for dvec in infinite:
            if dvec == (0, 0):
                continue
            # extend from whichever endpoint is extreme in this direction
            forward = along[0] * dvec[0] + along[1] * dvec[1]
            anchor = b if forward >= 0 else a
            t = _clip_scale(dvec)
            end = (anchor[0] + t * dvec[0], anchor[1] + t * dvec[1])
            parts.append(_line((_to_screen(*anchor), _to_screen(*end)), cls))
        mid = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
        parts.append(_label(mid[0], mid[1], _root_label(w.normal)))
    parts.append("</svg>\n")
    return "\n".join(parts)


def _axes():
    out = []
    for a, b in [((-VIEW, 0), (VIEW, 0)), ((0, -VIEW), (0, VIEW))]:
        out.append(_line((_to_screen(*a), _to_screen(*b)), "axis"))
    return "\n".join(out)


def _root_label(root) -> str:
    return "(" + ",".join(str(int(c)) for c in root) + ")"
