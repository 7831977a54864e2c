"""Deterministic SVG figures: triangle, erected apexes, cevians, orbit.

The output is assembled by plain string formatting with fixed precision so
that identical inputs produce byte-identical files; no drawing toolkit is
involved.  Canvas is 800x600 with the reference triangle fitted inside a
10% margin; layers appear in a fixed order and are grouped by id.
"""

from __future__ import annotations

from .geometry import Point2, Triangle

CANVAS_W = 800
CANVAS_H = 600


def _fmt(x: float) -> str:
    s = "%.3f" % x
    return "0.000" if s == "-0.000" else s


class _Frame:
    """World-to-canvas transform fitting a bounding box with 10% margin; a
    triangle's box is never flat, as its area is above 1e-12 diameter^2."""

    def __init__(self, pts: tuple[Point2, ...]):
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
        self.scale = min(0.8 * CANVAS_W / (x1 - x0),
                         0.8 * CANVAS_H / (y1 - y0))
        self.cx = 0.5 * (x0 + x1)
        self.cy = 0.5 * (y0 + y1)

    def map_xy(self, p):
        u = CANVAS_W / 2 + (p[0] - self.cx) * self.scale
        v = CANVAS_H / 2 - (p[1] - self.cy) * self.scale
        return u, v


def _polygon(frame, pts, style: str) -> str:
    body = " ".join(",".join(map(_fmt, frame.map_xy(p))) for p in pts)
    return f'<polygon points="{body}" {style}/>'


def _line(frame, p, q, style: str) -> str:
    x1, y1 = frame.map_xy(p)
    x2, y2 = frame.map_xy(q)
    return (f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" '
            f'x2="{_fmt(x2)}" y2="{_fmt(y2)}" {style}/>')


def _dot(frame, p, r: float, style: str) -> str:
    x, y = frame.map_xy(p)
    return f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(r)}" {style}/>'


def _label(frame, p, text: str, dx: float, dy: float) -> str:
    x, y = frame.map_xy(p)
    return (f'<text x="{_fmt(x + dx)}" y="{_fmt(y + dy)}" '
            f'font-family="monospace" font-size="14">{text}</text>')


def render_scene(t: Triangle, result: tuple | None = None,
                 apollonius: list[tuple] | None = None,
                 common_points: list[Point2] | None = None) -> str:
    """Compose the figure as an SVG 1.1 document string.  result is a
    `construction.SnellOrbitResult` and apollonius a list of
    `apollonius.ApollonianCircle`s; both are tuples, annotated as such so
    that this module imports neither."""
    frame = _Frame(t.vertices)
    parts: list[str] = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{CANVAS_W}" height="{CANVAS_H}" '
        f'viewBox="0 0 {CANVAS_W} {CANVAS_H}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]

    parts.append('<g id="triangle">')
    parts.append(_polygon(frame, t.vertices,
                          'fill="none" stroke="black" stroke-width="1.5"'))
    for v, name, dx, dy in ((t.vA, "A", 6, -6), (t.vB, "B", -14, 14),
                            (t.vC, "C", 6, 14)):
        parts.append(_label(frame, v, name, dx, dy))
    parts.append('</g>')

    if result is not None and result.erected is not None:
        a1, b1, c1 = result.erected
        parts.append('<g id="erected">')
        style = 'fill="none" stroke="#999999" stroke-width="1"'
        parts.append(_polygon(frame, (t.vB, a1, t.vC), style))
        parts.append(_polygon(frame, (t.vC, b1, t.vA), style))
        parts.append(_polygon(frame, (t.vA, c1, t.vB), style))
        parts.append('</g>')
        parts.append('<g id="cevians">')
        style = ('fill="none" stroke="#3366cc" stroke-width="1" '
                 'stroke-dasharray="6,4"')
        parts.append(_line(frame, t.vA, a1, style))
        parts.append(_line(frame, t.vB, b1, style))
        parts.append(_line(frame, t.vC, c1, style))
        parts.append('</g>')

    if result is not None and result.point is not None:
        parts.append('<g id="point">')
        parts.append(_dot(frame, result.point, 4.0, 'fill="#cc2222"'))
        parts.append('</g>')

    if result is not None and result.orbit is not None:
        parts.append('<g id="orbit">')
        parts.append(_polygon(frame, result.orbit.points,
                              'fill="none" stroke="#22aa44" stroke-width="2"'))
        parts.append('</g>')

    if apollonius:
        parts.append('<g id="apollonius">')
        style = 'fill="none" stroke="#cc8800" stroke-width="1"'
        span = 2.0 * t.diameter
        for circ in apollonius:
            if circ.kind == "circle":
                parts.append(_dot(frame, circ.center,
                                  circ.radius * frame.scale, style))
            else:
                p = circ.point
                d = circ.direction
                parts.append(_line(frame,
                                   (p[0] - span * d[0], p[1] - span * d[1]),
                                   (p[0] + span * d[0], p[1] + span * d[1]),
                                   style))
        for cp in (common_points or ()):
            parts.append(_dot(frame, cp, 3.0, 'fill="#cc8800"'))
        parts.append('</g>')

    parts.append('</svg>')
    return "\n".join(parts) + "\n"
