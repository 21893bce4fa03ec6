"""Deterministic SVG dot diagrams of planar configurations.

One lattice unit maps to a fixed pixel pitch and points are drawn in
canonical order, so identical inputs produce byte-identical documents.
"""

import sys

from .geometry import DimensionError, PointConfig, _hull_ring

PITCH = 40
MARGIN = 30
DOT_RADIUS = 5


def render_svg(config: PointConfig, show_hull: bool = False) -> str:
    if config.dim != 2:
        raise DimensionError("only planar configurations can be rendered")
    if len(config) == 0:
        raise ValueError("nothing to render")
    xs = [p[0] for p in config]
    ys = [p[1] for p in config]
    min_x, max_x = min(xs), max(xs)
    min_y, max_y = min(ys), max(ys)
    width = (max_x - min_x) * PITCH + 2 * MARGIN
    height = (max_y - min_y) * PITCH + 2 * MARGIN
    digits = sys.get_int_max_str_digits()  # 0 when the interpreter sets no limit
    if digits and max(width, height) >= 10**digits:
        raise ValueError(f"the drawing's size has more than {digits} digits, the limit on printing an integer")

    def pixel(p: tuple[int, int]) -> tuple[int, int]:
        # SVG y grows downward
        return (
            MARGIN + (p[0] - min_x) * PITCH,
            MARGIN + (max_y - p[1]) * PITCH,
        )

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    ring = _hull_ring(config.points) if show_hull else []
    if ring:  # a single point's ring is empty, a collinear set's its two ends
        shape = "polygon" if len(ring) > 2 else "polyline"
        corners = " ".join("{},{}".format(*pixel(v)) for v in ring)
        lines.append(f'<{shape} points="{corners}" fill="none" stroke="black" stroke-width="2"/>')
    for p in config:
        cx, cy = pixel(p)
        lines.append(f'<circle cx="{cx}" cy="{cy}" r="{DOT_RADIUS}" fill="black"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
