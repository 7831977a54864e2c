"""Homogeneous coordinates relative to a triangle, and vertex-distance inversion.

Barycentric and trilinear triples are straightforward; the interesting part
is going back from a tripolar triple (X : Y : Z), the ratios of the
distances to the three vertices, to actual points.  Invert about such a
point P: the images of A, B, C span a triangle with sides proportional to
(Xa, Yb, Zc), the scaled "tilde" triangle, whose angles are the sums
angle PBA + angle PCA and cyclic.  So angle BPC = A +- A~ (and cyclic), with
A~, B~, C~ the tilde angles, and since the barycentrics of P are the signed
areas [PBC] : [PCA] : [PAB], proportional to PB PC sin(angle BPC) and
cyclic, the triple is realized by

    (YZ sin(A +- A~) : ZX sin(B +- B~) : XY sin(C +- C~)),

two points when the tilde triangle exists, one on its boundary and none
otherwise.  The "+" point is computed from these barycentrics.  The "-"
point is not: its barycentrics nearly cancel as the triple approaches
(1 : 1 : 1).  Each locus of a fixed distance ratio to two vertices is a
circle orthogonal to the circumcircle, so inversion in the circumcircle
swaps the two common points, and the "-" point is the circumcircle inverse
of the "+" point.  With X = Y = Z the "+" point is the circumcenter and the
other lies at infinity; on the tilde boundary both meet on the circumcircle.

With the weights as the triple these are the Apollonius common points (see
apollonius), the "+" one the isogonal conjugate of the orbit point; with
(1/a : 1/b : 1/c) they are the isodynamic points X(15) and X(16).
"""

from __future__ import annotations

import math
import sys
from typing import List, NamedTuple, Tuple

from .geometry import (GeometryError, Point2, Triangle, angles_from_sides,
                       circumcircle, dist, signed_area)

# Relative disagreement allowed between the two scales a vertex implies.
VERTEX_SCALE_TOL = 1e-8

# Distances within this fraction of the circumradius of the circumcenter or
# of the circumcircle are rounding: a fixed multiple of machine epsilon.
ROUNDING = 64.0 * sys.float_info.epsilon


class IdealPoint(GeometryError):
    """Homogeneous coordinates sum to zero: the point lies at infinity."""


class OnSideLine(GeometryError):
    """The operation is undefined for points on the side lines."""


class NoSuchPoint(GeometryError):
    """The tripolar triple is not realized by any point of the plane."""


class BarycentricCoords(NamedTuple):
    rho_a: float
    rho_b: float
    rho_c: float


class TrilinearCoords(NamedTuple):
    l_a: float
    l_b: float
    l_c: float


class TripolarCoords(NamedTuple):
    r_A: float
    r_B: float
    r_C: float


def to_barycentric(p: Point2, t: Triangle) -> BarycentricCoords:
    """Normalized barycentric coordinates (ratios of signed subtriangle areas)."""
    p = Point2(*p)
    full = signed_area(t.vA, t.vB, t.vC)
    return BarycentricCoords(
        signed_area(p, t.vB, t.vC) / full,
        signed_area(p, t.vC, t.vA) / full,
        signed_area(p, t.vA, t.vB) / full,
    )


def from_barycentric(bc: BarycentricCoords, t: Triangle) -> Point2:
    """Affine combination of the vertices after normalizing the triple."""
    s = bc[0] + bc[1] + bc[2]
    scale = max(abs(bc[0]), abs(bc[1]), abs(bc[2]))
    if scale == 0.0:
        raise IdealPoint("all-zero coordinate triple")
    if abs(s) <= 1e-14 * scale:
        raise IdealPoint("coordinate sum is zero: point at infinity")
    u, v, w = bc[0] / s, bc[1] / s, bc[2] / s
    return Point2(u * t.vA.x + v * t.vB.x + w * t.vC.x,
                  u * t.vA.y + v * t.vB.y + w * t.vC.y)


def trilinear_to_barycentric(tl: TrilinearCoords, t: Triangle) -> BarycentricCoords:
    """(l_a : l_b : l_c) -> (a l_a : b l_b : c l_c)."""
    return BarycentricCoords(t.a * tl[0], t.b * tl[1], t.c * tl[2])


def barycentric_to_trilinear(bc: BarycentricCoords, t: Triangle) -> TrilinearCoords:
    """(rho_a : rho_b : rho_c) -> (rho_a / a : rho_b / b : rho_c / c)."""
    return TrilinearCoords(bc[0] / t.a, bc[1] / t.b, bc[2] / t.c)


def tripolar_of_point(p: Point2, t: Triangle) -> TripolarCoords:
    """Exact distances from p to the three vertices (not ratio-reduced)."""
    p = Point2(*p)
    return TripolarCoords(dist(p, t.vA), dist(p, t.vB), dist(p, t.vC))


def isogonal_conjugate(bc: BarycentricCoords, t: Triangle) -> BarycentricCoords:
    """Reflect the three cevians in the angle bisectors.

    In trilinear coordinates the map is componentwise inversion, so it is an
    involution wherever it is defined; it is undefined on the side lines.
    """
    tl = barycentric_to_trilinear(bc, t)
    scale = max(abs(tl[0]), abs(tl[1]), abs(tl[2]))
    if scale == 0.0 or min(abs(tl[0]), abs(tl[1]), abs(tl[2])) < 1e-12 * scale:
        raise OnSideLine("isogonal conjugation is undefined on the side lines")
    inv = TrilinearCoords(1.0 / tl[0], 1.0 / tl[1], 1.0 / tl[2])
    return trilinear_to_barycentric(inv, t)


def tripolar_to_points(tp: TripolarCoords,
                       t: Triangle) -> List[Tuple[Point2, float]]:
    """All points whose vertex distances are proportional to the triple.

    Returns one or two (point, s) pairs with distances (s*X, s*Y, s*Z),
    ordered by increasing s; raises NoSuchPoint when the scaled side triple
    (Xa, Yb, Zc) strictly fails the triangle inequality.
    """
    X, Y, Z = tp
    if min(X, Y, Z) < 0.0 or max(X, Y, Z) == 0.0:
        raise ValueError("tripolar coordinates must be nonnegative, not all zero")
    mx = max(X, Y, Z)
    # A zero coordinate pins the point to a vertex; handle it directly so
    # rounding in the tilde inequality cannot reject an exactly-realizable
    # triple.
    if min(X, Y, Z) <= 1e-12 * mx:
        zeros = [X <= 1e-12 * mx, Y <= 1e-12 * mx, Z <= 1e-12 * mx]
        if sum(zeros) > 1:
            raise NoSuchPoint("two zero distances cannot be realized")
        if zeros[0]:
            vertex, s1, s2 = t.vA, t.c / Y, t.b / Z
        elif zeros[1]:
            vertex, s1, s2 = t.vB, t.c / X, t.a / Z
        else:
            vertex, s1, s2 = t.vC, t.b / X, t.a / Y
        if abs(s1 - s2) > VERTEX_SCALE_TOL * max(s1, s2):
            raise NoSuchPoint("distance ratios are inconsistent with a vertex")
        return [(vertex, 0.5 * (s1 + s2))]

    x, y, z = X / mx, Y / mx, Z / mx
    p, q, r = x * t.a, y * t.b, z * t.c
    if p > q + r or q > r + p or r > p + q:
        raise NoSuchPoint(
            "no point attains these vertex-distance ratios "
            "(scaled side triple fails the triangle inequality)")
    at, bt, ct = angles_from_sides(p, q, r)
    plus = from_barycentric((y * z * math.sin(t.alpha + at),
                             z * x * math.sin(t.beta + bt),
                             x * y * math.sin(t.gamma + ct)), t)
    points = [plus]
    center, radius = circumcircle(t)
    d = dist(plus, center)
    if d > ROUNDING * radius and abs(d - radius) > ROUNDING * radius:
        points.append(center + (plus - center) * (radius / d) ** 2)
    # The largest coordinate is the one rounding perturbs least, relatively.
    vertex = t.vertices[(X, Y, Z).index(mx)]
    return sorted(((pt, dist(pt, vertex) / mx) for pt in points),
                  key=lambda ps: ps[1])
