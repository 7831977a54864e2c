"""Planar primitives: points, triangles and points on sides.

Everything downstream (coordinate systems, circle constructions, the
billiard map) is built on the handful of operations in this module, so the
conventions fixed here are global: triangles are stored counterclockwise,
side ``a`` runs from B to C, ``b`` from C to A, ``c`` from A to B, only
Triangle picks a triangle's scale and, by exact.cross, its orientation and
degeneracy, only point_on_side makes a point at a parameter along a side,
and only pedal_triangle takes a perpendicular foot.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from . import exact

# Relative tolerance below which a triangle counts as degenerate
# (Triangle's exact unit_area compared against its unit diameter squared).
EPS_DEGENERATE = 1e-12


class GeometryError(ValueError):
    """Base class of every input refusal in this package; a ValueError."""


class DegenerateTriangle(GeometryError):
    """Vertices are (nearly) collinear."""


class TriangleInequalityViolated(GeometryError):
    """Side lengths cannot form a nondegenerate triangle."""


class DegenerateLine(GeometryError):
    """The two points defining a line coincide."""


class IdealPoint(GeometryError):
    """Homogeneous coordinates sum to zero: the point lies at infinity."""


class NoSuchPoint(GeometryError):
    """The tripolar triple is not realized by any point of the plane."""


class Point2(namedtuple("Point2", "x y")):
    """A point (or free vector) in the Cartesian plane: floats x and y."""

    __slots__ = ()

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
        """This vector over its length.  Where the length overflows, the
        vector is first divided by its larger component, so only such
        vectors take the extra rounding."""
        n = self.norm()
        if n == 0.0:
            raise DegenerateLine("cannot normalize the zero vector")
        if n == math.inf:
            m = max(abs(self.x), abs(self.y))
            return Point2(self.x / m, self.y / m).unit()
        return Point2(self.x / n, self.y / n)

    def perp(self) -> "Point2":
        """Rotate by +90 degrees (counterclockwise)."""
        return Point2(-self.y, self.x)


dist = math.dist


class Triangle:
    """Reference triangle with labeled vertices A, B, C.

    The constructor re-orients clockwise input to counterclockwise (swapping
    B and C) so that the whole package can assume positive orientation.
    Each side is the distance between its two vertices, taken once, and
    the scale is the power of two of the largest side, the diameter.  The
    vertices and sides are kept divided by it (unit_vertices, as (x, y)
    pairs, and unit_sides), once and exactly, since it is a power of two:
    a unit-size computation reads them and divides only its own query
    point.  One exact.cross of the unit vertices gives the orientation and
    unit_area, |K2| / 2 over the ints' denominator squared, rounded once;
    unit_exact keeps the ints (B and C swapped with the vertices), |K2| and
    that denominator for the tilde numerators and the minimizer's flatness.
    A vertex coordinate that is not finite, or a diameter squared that is
    not a normal float, is refused (GeometryError), and a unit area at most
    EPS_DEGENERATE times the unit diameter squared is degenerate.
    """

    __slots__ = ("vA", "vB", "vC", "a", "b", "c", "diameter", "scale",
                 "unit_vertices", "unit_sides", "unit_area", "unit_exact")

    def __init__(self, vA, vB, vC):
        vA, vB, vC = Point2(*vA), Point2(*vB), Point2(*vC)
        if not all(map(math.isfinite, (*vA, *vB, *vC))):
            raise GeometryError("vertices must be finite")
        a, b, c = dist(vB, vC), dist(vC, vA), dist(vA, vB)
        diam = max(a, b, c)
        _check_diameter(diam)
        s = unit_power(diam)
        u = ua, ub, uc = tuple((x / s, y / s) for x, y in (vA, vB, vC))
        ints, k2, den = exact.cross(*u)
        area, d = abs(k2) / (2 * den * den), diam / s
        if area <= EPS_DEGENERATE * d * d:
            raise DegenerateTriangle("vertices are collinear within "
                                     f"tolerance (area {area * s * s:g})")
        if k2 < 0:
            vB, vC, ub, uc, b, c = vC, vB, uc, ub, c, b
            ints[2:] = ints[4:] + ints[2:4]
        self.vA, self.vB, self.vC = vA, vB, vC
        self.a, self.b, self.c = a, b, c
        self.unit_area, self.diameter, self.scale = area, diam, s
        self.unit_vertices, self.unit_sides = (ua, ub, uc), (a / s, b / s, c / s)
        self.unit_exact = ints, abs(k2), den

    @property
    def vertices(self):
        return (self.vA, self.vB, self.vC)

    @property
    def heights(self):
        """Altitude lengths 2 unit_area / unit side, scaled back, A to C."""
        h, s = 2.0 * self.unit_area, self.scale
        return tuple(h / u * s for u in self.unit_sides)

    def side_segment(self, side: str):
        """Endpoints of a side, oriented along the boundary (a: B->C, etc.)."""
        if side == "a":
            return self.vB, self.vC
        if side == "b":
            return self.vC, self.vA
        if side == "c":
            return self.vA, self.vB
        raise GeometryError(f"unknown side {side!r}")


def _check_diameter(diam: float) -> None:
    if not sys.float_info.min <= diam * diam < math.inf:
        raise GeometryError("triangle is too %s: its diameter squared %s" % (
            ("small", "underflows") if diam < 1.0 else ("large", "overflows")))


def unit_power(m: float) -> float:
    """The largest power of two not above a positive m: dividing by it
    puts m in [1, 2) and keeps every bit."""
    return math.ldexp(1.0, math.frexp(m)[1] - 1)


def triangle_from_sides(a: float, b: float, c: float) -> Triangle:
    """Canonical placement of the triangle with side lengths (a, b, c).

    B goes to the origin, C to (a, 0) and A into the upper half-plane.
    The sides are exact ints over one power of two d (exact._integers), in
    which H = exact.heron of their squares is exact: sides with H <= 0 are
    refused (1 + 1e-200 == 1 cannot tell), and others get their vertices'
    verdict, so a needle too thin for Triangle is degenerate.  A's x =
    (a^2 + c^2 - b^2) / (2a) and height S / (2a) are each one quotient of
    ints rounded once, which no scale makes cancel, over- or underflow.
    """
    if not (a > 0.0 and b > 0.0 and c > 0.0):
        raise TriangleInequalityViolated("side lengths must be positive")
    _check_diameter(max(a, b, c))
    ia, ib, ic, d = exact._integers((a, b, c, 1.0))
    h, root = exact.heron(ia * ia, ib * ib, ic * ic)
    if h <= 0:
        raise TriangleInequalityViolated(
            "sides (%.17g, %.17g, %.17g) violate the strict triangle "
            "inequality" % (a, b, c))
    den = 2 * ia * d
    return Triangle(Point2((ia * ia + ic * ic - ib * ib) / den,
                           root / (den << 64)),
                    Point2(0.0, 0.0), Point2(a, 0.0))


class InscribedTriangle(namedtuple("InscribedTriangle", "pA pB pC tA tB tC")):
    """Triangle with one vertex on each side line of a reference triangle.

    The Point2 pA lies on line BC at the float parameter tA along B->C, pB
    on line CA at tB, pC on line AB at tC.  Parameters may leave [0, 1] for
    feet outside the segments.
    """

    __slots__ = ()

    @property
    def points(self):
        return (self.pA, self.pB, self.pC)

    def chord_lengths(self):
        """Lengths (|pB pC|, |pC pA|, |pA pB|), i.e. chord opposite each vertex."""
        return (dist(self.pB, self.pC), dist(self.pC, self.pA),
                dist(self.pA, self.pB))


def point_on_side(t: Triangle, side: str, param: float) -> Point2:
    """q1 + param (q2 - q1) for (q1, q2) = t.side_segment(side): the one
    constructor of a point on a side line, at its affine parameter."""
    q1, q2 = t.side_segment(side)
    return q1 + param * (q2 - q1)


def inscribed_from_params(t: Triangle, tA: float, tB: float, tC: float) -> InscribedTriangle:
    """The inscribed triangle whose vertices are point_on_side of sides a, b
    and c at tA, tB and tC."""
    return InscribedTriangle(point_on_side(t, "a", tA),
                             point_on_side(t, "b", tB),
                             point_on_side(t, "c", tC), tA, tB, tC)


def _foot(p, q1, q2) -> float:
    """Parameter t of the foot of p on line q1 q2: q1 + t (q2 - q1)."""
    dx, dy = q2[0] - q1[0], q2[1] - q1[1]
    return ((p[0] - q1[0]) * dx + (p[1] - q1[1]) * dy) / (dx * dx + dy * dy)


def pedal_triangle(p: Point2, t: Triangle) -> InscribedTriangle:
    """Perpendicular feet of p on the three side lines, each parameter
    taken of t.unit_vertices and p divided by t.scale: a Triangle's unit
    sides are at least about 2e-12, so no square underflows.  A vertex's
    other two feet are itself, at parameters x/x = 1 and 0/x = 0."""
    p = (p[0] / t.scale, p[1] / t.scale)
    a, b, c = t.unit_vertices
    return inscribed_from_params(t, _foot(p, b, c), _foot(p, c, a),
                                 _foot(p, a, b))

