"""Deterministic SVG rendering of the unfolded strip and folded trajectory.

Styling convention: reflected triangles light gray, orthic line green
dashed, channel boundaries red dotted, trajectory blue solid.  World
coordinates are used directly inside a scale(1,-1) group so the picture is
y-up; the viewBox is declared accordingly.
"""

from __future__ import annotations

from .geom import Point
from .orthic import Unfolding


def _n(x: float) -> str:
    return format(x, ".9g")


def _pts(points: list[Point]) -> str:
    return " ".join(f"{_n(p.x)},{_n(p.y)}" for p in points)


def channel_svg(unfolding: Unfolding, folded: list[Point]) -> str:
    tris = unfolding.copies
    verts = [v for t in tris for v in t.vertices]
    d = unfolding.direction
    k = unfolding.k
    # Span of the strip along the orthic-line direction, padded 5%.
    ss = [(v - k).dot(d) for v in verts]
    smin, smax = min(ss), max(ss)
    pad = 0.05 * (smax - smin)
    smin, smax = smin - pad, smax + pad

    # The orthic line, then the channel boundaries through A and A1.
    lines = [
        (p + d * smin, p + d * smax)
        for p in (k, unfolding.boundary_high[0], unfolding.boundary_low[0])
    ]
    styles = [
        'stroke="#2e8b57" stroke-dasharray="{w2} {w2}"',
        'stroke="#cc0000" stroke-dasharray="{w1} {w1}"',
        'stroke="#cc0000" stroke-dasharray="{w1} {w1}"',
    ]

    allpts = verts + [p for seg in lines for p in seg] + folded
    xs = [p.x for p in allpts]
    ys = [p.y for p in allpts]
    mx = 0.03 * (max(xs) - min(xs))
    my = 0.03 * (max(ys) - min(ys))
    x0, x1 = min(xs) - mx, max(xs) + mx
    y0, y1 = min(ys) - my, max(ys) + my
    sw = 0.004 * max(x1 - x0, y1 - y0)
    w1, w2 = _n(2.0 * sw), _n(4.0 * sw)

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{_n(x0)} {_n(-y1)} '
        f'{_n(x1 - x0)} {_n(y1 - y0)}">',
        "<!-- world coordinates, y-up, inside scale(1,-1) -->",
        '<g transform="scale(1 -1)" fill="none" stroke-linecap="round" '
        f'stroke-width="{_n(sw)}">',
    ]
    for t in tris:
        out.append(
            f'<polygon points="{_pts(list(t.vertices))}" fill="#eeeeee" stroke="#999999"/>'
        )
    for (p, q), style in zip(lines, styles):
        st = style.format(w1=w1, w2=w2)
        out.append(
            f'<line x1="{_n(p.x)}" y1="{_n(p.y)}" x2="{_n(q.x)}" y2="{_n(q.y)}" {st}/>'
        )
    closed = folded + [folded[0]]
    out.append(f'<polyline points="{_pts(closed)}" stroke="#1f4fd0"/>')
    out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"
