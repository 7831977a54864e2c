"""Planar primitives: points, signed areas, perpendicular feet, triangles.

Everything downstream (coordinate systems, circle constructions, the
billiard map) is built on the handful of operations in this module, so the
conventions fixed here are global: triangles are stored counterclockwise,
side ``a`` runs from B to C, ``b`` from C to A, ``c`` from A to B.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Tuple

# Relative tolerance below which a triangle counts as degenerate
# (|signed area| compared against the squared diameter).
EPS_DEGENERATE = 1e-12


class GeometryError(Exception):
    """Base class for all geometric failures in this package."""


class DegenerateTriangle(GeometryError):
    """Vertices are (nearly) collinear."""


class TriangleInequalityViolated(GeometryError):
    """Side lengths cannot form a nondegenerate triangle."""


class DegenerateLine(GeometryError):
    """The two points defining a line coincide."""


class Point2(NamedTuple):
    """A point (or free vector) in the Cartesian plane."""

    x: float
    y: float

    def __add__(self, other):
        return Point2(self.x + other[0], self.y + other[1])

    def __sub__(self, other):
        return Point2(self.x - other[0], self.y - other[1])

    def __mul__(self, k: float) -> "Point2":
        return Point2(self.x * k, self.y * k)

    __rmul__ = __mul__

    def dot(self, other) -> float:
        return self.x * other[0] + self.y * other[1]

    def cross(self, other) -> float:
        return self.x * other[1] - self.y * other[0]

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def unit(self) -> "Point2":
        n = self.norm()
        if n == 0.0:
            raise DegenerateLine("cannot normalize the zero vector")
        return Point2(self.x / n, self.y / n)

    def perp(self) -> "Point2":
        """Rotate by +90 degrees (counterclockwise)."""
        return Point2(-self.y, self.x)


def dist(p: Point2, q: Point2) -> float:
    return math.dist(p, q)


def signed_area(p: Point2, q: Point2, r: Point2) -> float:
    """Half the cross product; positive iff (p, q, r) is counterclockwise."""
    return 0.5 * ((q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0]))


def rotate(v: Point2, angle: float) -> Point2:
    """Rotate the vector v by the given angle (radians, counterclockwise)."""
    c, s = math.cos(angle), math.sin(angle)
    return Point2(c * v[0] - s * v[1], s * v[0] + c * v[1])


def foot_of_perpendicular(p: Point2, q1: Point2, q2: Point2) -> Point2:
    """Orthogonal projection of p onto the line through q1 and q2."""
    d = Point2(q2[0] - q1[0], q2[1] - q1[1])
    den = d.dot(d)
    if den <= 0.0:
        raise DegenerateLine("projection target line is a single point")
    t = (Point2(p[0] - q1[0], p[1] - q1[1]).dot(d)) / den
    return Point2(q1[0] + t * d[0], q1[1] + t * d[1])


def line_parameter(p: Point2, q1: Point2, q2: Point2) -> float:
    """Affine parameter t of the projection of p, so foot = q1 + t*(q2-q1)."""
    d = Point2(q2[0] - q1[0], q2[1] - q1[1])
    den = d.dot(d)
    if den <= 0.0:
        raise DegenerateLine("parameter target line is a single point")
    return Point2(p[0] - q1[0], p[1] - q1[1]).dot(d) / den


def intersect_lines(p1: Point2, p2: Point2, q1: Point2, q2: Point2) -> Optional[Point2]:
    """Intersection of line p1p2 with line q1q2, or None when parallel."""
    dp = Point2(p2[0] - p1[0], p2[1] - p1[1])
    dq = Point2(q2[0] - q1[0], q2[1] - q1[1])
    den = dp.cross(dq)
    scale = dp.norm() * dq.norm()
    if abs(den) <= 1e-14 * scale:
        return None
    t = Point2(q1[0] - p1[0], q1[1] - p1[1]).cross(dq) / den
    return Point2(p1[0] + t * dp[0], p1[1] + t * dp[1])


class Triangle:
    """Reference triangle with labeled vertices A, B, C.

    The constructor re-orients clockwise input to counterclockwise (swapping
    B and C) so that the whole package can assume positive orientation.
    Side lengths, angles, area and diameter are computed once and cached.
    """

    __slots__ = ("vA", "vB", "vC", "a", "b", "c",
                 "alpha", "beta", "gamma", "area", "diameter")

    def __init__(self, vA, vB, vC):
        vA, vB, vC = Point2(*vA), Point2(*vB), Point2(*vC)
        area2 = signed_area(vA, vB, vC)
        diam = max(dist(vA, vB), dist(vB, vC), dist(vC, vA))
        if abs(area2) <= EPS_DEGENERATE * diam * diam:
            raise DegenerateTriangle(
                f"vertices are collinear within tolerance (area {area2:g})")
        if area2 < 0.0:
            vB, vC = vC, vB
        self.vA, self.vB, self.vC = vA, vB, vC
        self.a = dist(vB, vC)
        self.b = dist(vC, vA)
        self.c = dist(vA, vB)
        self.alpha = _angle_at(vA, vB, vC)
        self.beta = _angle_at(vB, vC, vA)
        self.gamma = _angle_at(vC, vA, vB)
        self.area = abs(area2)
        self.diameter = max(self.a, self.b, self.c)

    @property
    def vertices(self):
        return (self.vA, self.vB, self.vC)

    @property
    def sides(self):
        return (self.a, self.b, self.c)

    def side_segment(self, side: str):
        """Endpoints of a side, oriented along the boundary (a: B->C, etc.)."""
        if side == "a":
            return self.vB, self.vC
        if side == "b":
            return self.vC, self.vA
        if side == "c":
            return self.vA, self.vB
        raise ValueError(f"unknown side {side!r}")

    def __repr__(self):
        return f"Triangle(A={tuple(self.vA)}, B={tuple(self.vB)}, C={tuple(self.vC)})"


def _angle_at(v, p, q) -> float:
    """Interior angle at vertex v of triangle (v, p, q)."""
    u1 = Point2(p[0] - v[0], p[1] - v[1])
    u2 = Point2(q[0] - v[0], q[1] - v[1])
    return math.atan2(abs(u1.cross(u2)), u1.dot(u2))


def heron_area(a: float, b: float, c: float) -> float:
    """Area of the triangle with side lengths a, b, c; 0 when flat.

    Kahan's ordering (Miscalculating Area and Angles of a Needle-like
    Triangle): with a >= b >= c and the parentheses kept, every factor is
    accurate, so needles and slivers keep their relative accuracy.  Sides
    that fail the triangle inequality also give 0.
    """
    a, b, c = sorted((a, b, c), reverse=True)
    prod = (a + (b + c)) * (c - (a - b)) * (c + (a - b)) * (a + (b - c))
    return 0.25 * math.sqrt(prod) if prod > 0.0 else 0.0


def angles_from_sides(a: float, b: float,
                      c: float) -> Tuple[float, float, float]:
    """Angles opposite a, b, c: atan2(4 area, b^2 + c^2 - a^2) and cyclic.

    On a flat triple the longest side's angle is pi and the others 0.
    """
    k = 4.0 * heron_area(a, b, c)
    return (math.atan2(k, b * b + c * c - a * a),
            math.atan2(k, c * c + a * a - b * b),
            math.atan2(k, a * a + b * b - c * c))


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


def triangle_from_sides(a: float, b: float, c: float) -> Triangle:
    """Canonical placement of the triangle with side lengths (a, b, c).

    B goes to the origin, C to (a, 0) and A into the upper half-plane, at
    height 2 area / a, so a sliver's height does not cancel.
    """
    if min(a, b, c) <= 0.0:
        raise TriangleInequalityViolated("side lengths must be positive")
    s = a + b + c
    if (a >= b + c - EPS_DEGENERATE * s or
            b >= c + a - EPS_DEGENERATE * s or
            c >= a + b - EPS_DEGENERATE * s):
        raise TriangleInequalityViolated(
            f"sides ({a:g}, {b:g}, {c:g}) violate the strict triangle inequality")
    # A is at distance c from B=(0,0) and b from C=(a,0).
    x = 0.5 * a + (c - b) * (c + b) / (2.0 * a)
    y = 2.0 * heron_area(a, b, c) / a
    return Triangle(Point2(x, y), Point2(0.0, 0.0), Point2(a, 0.0))


class InscribedTriangle(NamedTuple):
    """Triangle with one vertex on each side line of a reference triangle.

    pA lies on line BC (parameter tA along B->C), pB on line CA, pC on
    line AB.  Parameters may leave [0, 1] for feet outside the segments.
    """

    pA: Point2
    pB: Point2
    pC: Point2
    tA: float
    tB: float
    tC: float

    @property
    def points(self):
        return (self.pA, self.pB, self.pC)

    def chord_lengths(self):
        """Lengths (|pB pC|, |pC pA|, |pA pB|), i.e. chord opposite each vertex."""
        return (dist(self.pB, self.pC), dist(self.pC, self.pA),
                dist(self.pA, self.pB))


def inscribed_from_params(t: Triangle, tA: float, tB: float, tC: float) -> InscribedTriangle:
    """Build an inscribed triangle from affine parameters along the sides."""
    pA = t.vB + tA * (t.vC - t.vB)
    pB = t.vC + tB * (t.vA - t.vC)
    pC = t.vA + tC * (t.vB - t.vA)
    return InscribedTriangle(pA, pB, pC, tA, tB, tC)


def pedal_triangle(p: Point2, t: Triangle) -> InscribedTriangle:
    """Perpendicular feet of p on the three side lines."""
    p = Point2(*p)
    tA = line_parameter(p, t.vB, t.vC)
    tB = line_parameter(p, t.vC, t.vA)
    tC = line_parameter(p, t.vA, t.vB)
    return inscribed_from_params(t, tA, tB, tC)


def altitudes(t: Triangle):
    """Feet and lengths of the three altitudes, in vertex order (A, B, C).

    Each length satisfies length = 2*area / opposite side.
    """
    fA = foot_of_perpendicular(t.vA, t.vB, t.vC)
    fB = foot_of_perpendicular(t.vB, t.vC, t.vA)
    fC = foot_of_perpendicular(t.vC, t.vA, t.vB)
    return ((fA, 2.0 * t.area / t.a),
            (fB, 2.0 * t.area / t.b),
            (fC, 2.0 * t.area / t.c))
