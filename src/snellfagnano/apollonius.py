"""Distance-ratio circles for vertex pairs and their common points.

For a base pair (P1, P2) and ratio r, the locus d(X,P1)/d(X,P2) = r is a
circle having the internal and external division points of P1P2 as a
diameter, except at r = 1 where it degenerates to the perpendicular
bisector.  The three loci attached to a weight triple (lam_A : lam_B :
lam_C) meet where the vertex distances are proportional to the weights, so
their common points are the tripolar inversion of the weight triple
(coordinates.tripolar_to_points): invert about such a point and the
vertices span a triangle similar to the scaled "tilde" triangle of side
lengths (lam_A * a, lam_B * b, lam_C * c).  Two points, inverse in the
circumcircle, exist when that triangle does, one on the circumcircle when
it is flat, and none beyond; equal weights leave the circumcenter alone.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

from .coordinates import NoSuchPoint, tripolar_to_points
from .geometry import Point2, Triangle, angles_from_sides, dist
from .geometry import circumcircle  # noqa: F401  (re-export)

# Ratios this close to 1 are treated as the bisector degeneration.
BISECTOR_EPS = 1e-12


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


def apollonian_circle(p1: Point2, p2: Point2, r: float) -> ApollonianCircle:
    """Locus of points with d(X, p1)/d(X, p2) = r."""
    p1, p2 = Point2(*p1), Point2(*p2)
    if r <= 0.0:
        raise ValueError("ratio must be positive")
    base = p2 - p1
    if base.norm() == 0.0:
        raise ValueError("base points must be distinct")
    if abs(r - 1.0) < BISECTOR_EPS:
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
    angles = angles_from_sides(p, q, r) if exists else None
    return TildeTriangle((p, q, r), angles, exists)


def apollonian_common_points(t: Triangle, w) -> List[Point2]:
    """Points lying on all three weight-ratio circles, sorted by (x, y)."""
    try:
        pts = [p for p, _ in tripolar_to_points(w.triple, t)]
    except NoSuchPoint:
        return []
    pts.sort(key=lambda p: (p.x, p.y))
    return pts
