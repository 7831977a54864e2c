"""Distance-ratio circles for vertex pairs and their common points.

For a base pair (P1, P2) and ratio r, the locus d(X,P1)/d(X,P2) = r is a
circle having the internal and external division points of P1P2 as a
diameter, except at r = 1 where it degenerates to the perpendicular
bisector.  The three loci attached to a weight triple share their common
points with the existence of the scaled "tilde" triangle of side lengths
(lam_A * a, lam_B * b, lam_C * c): both exist together.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Optional, Tuple

from .geometry import (Point2, Triangle, dist, foot_of_perpendicular,
                       intersect_lines)

# Ratios this close to 1 are treated as the bisector degeneration.
BISECTOR_EPS = 1e-12

# Relative band around zero discriminant treated as tangency (one point).
TANGENT_EPS = 1e-10


class ApollonianCircle(NamedTuple):
    """Generalized circle for a base pair and a positive ratio.

    kind is "circle" (center/radius set) or "bisector" (point/direction set,
    the line through the midpoint perpendicular to the base segment).
    """

    base1: Point2
    base2: Point2
    ratio: float
    kind: str
    center: Optional[Point2] = None
    radius: Optional[float] = None
    point: Optional[Point2] = None
    direction: Optional[Point2] = None

    def ratio_residual(self, p: Point2) -> float:
        """Relative deviation of d(p, base1)/d(p, base2) from the ratio."""
        d1, d2 = dist(p, self.base1), dist(p, self.base2)
        return abs(d1 - self.ratio * d2) / max(d1, self.ratio * d2, 1e-300)


def apollonian_circle(p1: Point2, p2: Point2, r: float,
                      bisector_eps: float = BISECTOR_EPS) -> ApollonianCircle:
    """Locus of points with d(X, p1)/d(X, p2) = r."""
    p1, p2 = Point2(*p1), Point2(*p2)
    if r <= 0.0:
        raise ValueError("ratio must be positive")
    base = p2 - p1
    if base.norm() == 0.0:
        raise ValueError("base points must be distinct")
    if abs(r - 1.0) < bisector_eps:
        mid = Point2(0.5 * (p1.x + p2.x), 0.5 * (p1.y + p2.y))
        return ApollonianCircle(p1, p2, r, "bisector",
                                point=mid, direction=base.unit().perp())
    m = p1 + (r / (1.0 + r)) * base          # internal division point
    n = p1 + (r / (r - 1.0)) * base          # external division point
    center = Point2(0.5 * (m.x + n.x), 0.5 * (m.y + n.y))
    return ApollonianCircle(p1, p2, r, "circle",
                            center=center, radius=0.5 * dist(m, n))


class TildeTriangle(NamedTuple):
    """Side lengths (lam_A*a, lam_B*b, lam_C*c) and, when they close up,
    the angles opposite those sides."""

    sides: Tuple[float, float, float]
    angles: Optional[Tuple[float, float, float]]
    exists: bool


def tilde_triangle(t: Triangle, w) -> TildeTriangle:
    """Scaled side triple for a weight triple; exists = strict inequality."""
    p = w.lam_A * t.a
    q = w.lam_B * t.b
    r = w.lam_C * t.c
    exists = (p < q + r) and (q < r + p) and (r < p + q)
    angles = None
    if exists:
        angles = (math.acos(_clamp((q * q + r * r - p * p) / (2.0 * q * r))),
                  math.acos(_clamp((r * r + p * p - q * q) / (2.0 * r * p))),
                  math.acos(_clamp((p * p + q * q - r * r) / (2.0 * p * q))))
    return TildeTriangle((p, q, r), angles, exists)


def _clamp(x: float) -> float:
    return max(-1.0, min(1.0, x))


def circumcircle(t: Triangle) -> Tuple[Point2, float]:
    """Center equidistant from the three vertices, and that distance."""
    ax, ay = t.vA
    bx, by = t.vB
    cx, cy = t.vC
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    a2, b2, c2 = ax * ax + ay * ay, bx * bx + by * by, cx * cx + cy * cy
    ux = (a2 * (by - cy) + b2 * (cy - ay) + c2 * (ay - by)) / d
    uy = (a2 * (cx - bx) + b2 * (ax - cx) + c2 * (bx - ax)) / d
    center = Point2(ux, uy)
    return center, dist(center, t.vA)


def _intersect_circle_circle(c1: ApollonianCircle,
                             c2: ApollonianCircle) -> List[Point2]:
    """Radical-line method; tangency band collapses to a single point."""
    d = dist(c1.center, c2.center)
    if d == 0.0:
        return []
    r1, r2 = c1.radius, c2.radius
    x = (d * d + r1 * r1 - r2 * r2) / (2.0 * d)
    h2 = r1 * r1 - x * x
    scale = max(r1 * r1, x * x)
    e = (c2.center - c1.center) * (1.0 / d)
    base = c1.center + x * e
    if h2 < -TANGENT_EPS * scale:
        return []
    if h2 <= TANGENT_EPS * scale:
        return [base]
    h = math.sqrt(h2)
    off = h * e.perp()
    return [base + off, base - off]


def _intersect_line_circle(point: Point2, direction: Point2,
                           circ: ApollonianCircle) -> List[Point2]:
    foot = foot_of_perpendicular(circ.center, point, point + direction)
    h2 = circ.radius ** 2 - dist(circ.center, foot) ** 2
    scale = circ.radius ** 2
    if h2 < -TANGENT_EPS * scale:
        return []
    if h2 <= TANGENT_EPS * scale:
        return [foot]
    h = math.sqrt(h2)
    e = direction.unit()
    return [foot + h * e, foot - h * e]


def intersect_apollonian(c1: ApollonianCircle,
                         c2: ApollonianCircle) -> List[Point2]:
    """Common points of two generalized circles (0, 1 or 2 of them)."""
    if c1.kind == "circle" and c2.kind == "circle":
        return _intersect_circle_circle(c1, c2)
    if c1.kind == "bisector" and c2.kind == "circle":
        return _intersect_line_circle(c1.point, c1.direction, c2)
    if c1.kind == "circle" and c2.kind == "bisector":
        return _intersect_line_circle(c2.point, c2.direction, c1)
    p = intersect_lines(c1.point, c1.point + c1.direction,
                        c2.point, c2.point + c2.direction)
    return [] if p is None else [p]


def apollonian_common_points(t: Triangle, w,
                             verify_tol: float = 1e-8) -> List[Point2]:
    """Points lying on all three weight-ratio circles of the triangle.

    Intersects the (A,B) and (B,C) loci; membership of every result in the
    (C,A) locus is a standing assertion (a failure would indicate a bug, not
    an unlucky input).
    """
    cab = apollonian_circle(t.vA, t.vB, w.lam_A / w.lam_B)
    cbc = apollonian_circle(t.vB, t.vC, w.lam_B / w.lam_C)
    cca = apollonian_circle(t.vC, t.vA, w.lam_C / w.lam_A)
    pts = intersect_apollonian(cab, cbc)
    for p in pts:
        res = cca.ratio_residual(p)
        assert res <= verify_tol, (
            f"common point misses the third ratio locus ({res:g})")
    pts.sort(key=lambda p: (p.x, p.y))
    return pts
