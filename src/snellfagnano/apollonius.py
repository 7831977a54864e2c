"""Distance-ratio circles for vertex pairs and their common points.

For a base pair (P1, P2) and ratio r, the locus d(X,P1)/d(X,P2) = r is a
circle having the internal and external division points of P1P2 as a
diameter, except at r = 1 where it degenerates to the perpendicular
bisector.  The three loci attached to a weight triple (lam_A : lam_B :
lam_C) meet where the vertex distances are proportional to the weights, so
their common points are the tripolar inversion of the weight triple
(coordinates.tripolar_to_points): invert about such a point and the
vertices span a triangle similar to the scaled "tilde" triangle of side
lengths (lam_A * a, lam_B * b, lam_C * c).  Two points exist when that
triangle does, one on the circumcircle when it is flat, and none beyond;
equal weights leave the circumcenter alone.  The points are
(lam_B lam_C sin(A +- A~) : ...), from the tilde triangle's exact
integer numerators, so no angle is taken.  The tilde triangle itself
lives with the inversion, in coordinates; tilde_triangle is re-exported
here.
"""

from __future__ import annotations

from collections import namedtuple

from .coordinates import NoSuchPoint, tripolar_to_points
from .coordinates import tilde_triangle  # noqa: F401
from .geometry import GeometryError, Point2, Triangle, dist

# Ratios this close to 1 are treated as the bisector degeneration.
BISECTOR_EPS = 1e-12


class ApollonianCircle(namedtuple(
        "ApollonianCircle", "base1 base2 ratio kind center radius point "
        "direction", defaults=(None,) * 4)):
    """Generalized circle for a base pair of Point2s and a positive float
    ratio.

    kind is "circle" (center, a Point2, and the float radius set) or
    "bisector" (point and direction set, Point2s: the line through the
    midpoint perpendicular to the base segment).  The fields left unset
    are None.
    """

    __slots__ = ()


def apollonian_circle(p1: Point2, p2: Point2, r: float) -> ApollonianCircle:
    """Locus of points with d(X, p1)/d(X, p2) = r."""
    p1, p2 = Point2(*p1), Point2(*p2)
    if not r > 0.0:
        raise GeometryError("ratio must be positive")
    base = p2 - p1
    if base.norm() == 0.0:
        raise GeometryError("base points must be distinct")
    if abs(r - 1.0) < BISECTOR_EPS:
        mid = Point2(0.5 * (p1.x + p2.x), 0.5 * (p1.y + p2.y))
        return ApollonianCircle(p1, p2, r, "bisector",
                                point=mid, direction=base.unit().perp())
    m = p1 + (r / (1.0 + r)) * base          # internal division point
    n = p1 + (r / (r - 1.0)) * base          # external division point
    center = Point2(0.5 * (m.x + n.x), 0.5 * (m.y + n.y))
    return ApollonianCircle(p1, p2, r, "circle",
                            center=center, radius=0.5 * dist(m, n))


def apollonian_common_points(t: Triangle, w) -> list[Point2]:
    """Points lying on all three weight-ratio circles, sorted by (x, y)."""
    try:
        pts = [p for p, _, _ in tripolar_to_points(w, t)]
    except NoSuchPoint:
        return []
    pts.sort(key=lambda p: (p.x, p.y))
    return pts
