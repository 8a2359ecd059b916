"""Static SVG rendering of point sets and witness families."""

from __future__ import annotations

from typing import Sequence

from .geometry import PointSet, Segment

SIZE = 640  # width and height of the square drawing
MARGIN = 30.0


def _layout(S: PointSet) -> list[tuple[float, float]]:
    xs = [float(p.x) for p in S]
    ys = [float(p.y) for p in S]
    min_x, max_x = min(xs), max(xs)
    min_y, max_y = min(ys), max(ys)
    span = max(max_x - min_x, max_y - min_y, 1e-9)
    scale = (SIZE - 2 * MARGIN) / span
    out = []
    for x, y in zip(xs, ys):
        px = MARGIN + (x - min_x) * scale
        py = SIZE - MARGIN - (y - min_y) * scale  # y grows upward
        out.append((px, py))
    return out


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
