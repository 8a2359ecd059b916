"""Static SVG rendering of point sets and witness families."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .geometry import PointSet, Segment

SIZE = 640  # width and height of the square drawing
MARGIN = 30


def _layout(S: PointSet) -> list[tuple[float, float]]:
    """Canvas positions of the points, in [0, SIZE].

    The layout is exact, since a coordinate may lie beyond float range; only
    the canvas positions become floats.
    """
    xs = [p.x for p in S]
    ys = [p.y for p in S]
    min_x, min_y = min(xs), min(ys)
    span = max(max(xs) - min_x, max(ys) - min_y) or 1
    scale = Fraction(SIZE - 2 * MARGIN) / span
    return [
        (float(MARGIN + (x - min_x) * scale),
         float(SIZE - MARGIN - (y - min_y) * scale))  # y grows upward
        for x, y in zip(xs, ys)
    ]


def render_svg(S: PointSet, family: Sequence[Segment] = ()) -> str:
    """SVG drawing of the labelled points, with an optional highlighted segment family."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" height="{SIZE}" '
        f'viewBox="0 0 {SIZE} {SIZE}">',
        f'<rect width="{SIZE}" height="{SIZE}" fill="white"/>',
    ]
    if len(S) == 0:
        parts.append("</svg>")
        return "\n".join(parts) + "\n"
    pos = _layout(S)
    for seg in sorted(family):
        (x1, y1), (x2, y2) = pos[seg.a], pos[seg.b]
        parts.append(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            'stroke="#c0392b" stroke-width="1.8"/>'
        )
    for i, (x, y) in enumerate(pos):
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3.5" fill="#2c3e50"/>')
        parts.append(
            f'<text x="{x + 5:.2f}" y="{y - 5:.2f}" font-size="11" '
            f'font-family="sans-serif" fill="#555">{i}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
