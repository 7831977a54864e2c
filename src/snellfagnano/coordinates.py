"""Homogeneous coordinates relative to a triangle, and vertex-distance inversion.

Every triple goes in and comes out as a plain 3-tuple of floats.
Barycentric and trilinear triples are straightforward; the interesting part
is going back from a tripolar triple (X : Y : Z), the ratios of the
distances to the three vertices, to actual points.  Invert about such a
point P: the images of A, B, C span the "tilde" triangle, of sides
proportional to (p, q, r) = (Xa, Yb, Zc), so angle BPC = A +- A~ (and
cyclic) for its angles A~, B~, C~, and the barycentrics of P, the areas
[PBC] : [PCA] : [PAB], are (YZ sin(A +- A~) : ...).  tilde_triangle takes
those sines without an angle, from the exact integer numerators of the
input floats (see exact): H, sixteen times the squared tilde area, and the
gaps G+-_V = 2qr (cos V~ +- cos V), so the "+" point (plus_root) and the
"-" point come from G+ and G- alike.  There are two points when the tilde
triangle exists, that is when H > 0, one on its boundary (H = 0) and none
otherwise.  With X = Y = Z the "+" point is the circumcenter and the "-"
point lies at infinity.

With the weights as the triple these are the Apollonius common points (see
apollonius), the "+" one the isogonal conjugate of the orbit point; with
(1/a : 1/b : 1/c) they are the isodynamic points X(15) and X(16).
"""

from __future__ import annotations

import sys
from collections import namedtuple

from . import exact
from .geometry import (GeometryError, IdealPoint, NoSuchPoint, Point2,
                       Triangle, dist, unit_power)

# A homogeneous triple whose sum is within this fraction of its largest
# magnitude names a point at infinity.
IDEAL_SUM = 1e-14

# Relative disagreement allowed between the two scales a vertex implies.
VERTEX_SCALE_TOL = 1e-8


class OnSideLine(GeometryError):
    """The operation is undefined for points on the side lines."""


def to_barycentric(p: Point2, t: Triangle) -> tuple[float, float, float]:
    """Normalized barycentrics: the exact areas [PBC], [PCA] and [PAB] of
    p and the vertices (exact.areas) over their sum, each rounded once; a
    point not finite or with a barycentric that overflows is too far out."""
    try:
        areas = exact.areas(p, *t.vertices)
        return tuple(k / sum(areas) for k in areas)
    except (OverflowError, ValueError):
        raise GeometryError("point is too far out: a barycentric overflows")


def unit_scaled(triple) -> tuple[float, float, float]:
    """A homogeneous triple divided by the power of two that puts its
    largest magnitude in [1, 2), an all-zero triple staying zero.  The
    scaling is exact, so every ratio is kept and no sum, product or
    reciprocal of the entries over- or underflows on account of their
    common scale."""
    x, y, z = triple
    p = unit_power(max(abs(x), abs(y), abs(z)))
    return x / p, y / p, z / p


def normalized(triple) -> tuple[float, float, float] | None:
    """The homogeneous triple divided by its sum, or None for a point at
    infinity: an all-zero triple, or one whose sum is within IDEAL_SUM of
    its largest magnitude."""
    x, y, z = unit_scaled(triple)
    s = x + y + z
    if abs(s) <= IDEAL_SUM * max(abs(x), abs(y), abs(z)):
        return None
    return x / s, y / s, z / s


def from_barycentric(bc, t: Triangle) -> Point2:
    """Affine combination of the vertices after normalizing the triple."""
    n = normalized(bc)
    if n is None:
        raise IdealPoint("coordinate sum is zero: point at infinity"
                         if any(bc) else "all-zero coordinate triple")
    u, v, w = n
    return Point2(u * t.vA.x + v * t.vB.x + w * t.vC.x,
                  u * t.vA.y + v * t.vB.y + w * t.vC.y)


def trilinear_to_barycentric(tl, t: Triangle) -> tuple[float, float, float]:
    """(l_a : l_b : l_c) -> (a l_a : b l_b : c l_c), l unit-scaled first."""
    l_a, l_b, l_c = unit_scaled(tl)
    return t.a * l_a, t.b * l_b, t.c * l_c


def barycentric_to_trilinear(bc, t: Triangle) -> tuple[float, float, float]:
    """(rho_a : rho_b : rho_c) -> (rho_a / a : rho_b / b : rho_c / c)."""
    return bc[0] / t.a, bc[1] / t.b, bc[2] / t.c


def tripolar_of_point(p: Point2, t: Triangle) -> tuple[float, float, float]:
    """Exact distances from p to the three vertices (not ratio-reduced)."""
    return dist(p, t.vA), dist(p, t.vB), dist(p, t.vC)


def isogonal_conjugate(bc, t: Triangle) -> tuple[float, float, float]:
    """Reflect the three cevians in the angle bisectors.

    In trilinear coordinates the map is componentwise inversion, so it is an
    involution where it is defined: where every entry of the unit_scaled
    trilinear triple has a finite inverse, which is off the side lines.
    """
    tl = unit_scaled(barycentric_to_trilinear(bc, t))
    if min(map(abs, tl)) <= 1.0 / sys.float_info.max:
        raise OnSideLine("isogonal conjugation is undefined on the side lines")
    return trilinear_to_barycentric(
        (1.0 / tl[0], 1.0 / tl[1], 1.0 / tl[2]), t)


class TildeTriangle(namedtuple("TildeTriangle",
                               "exists conditions sines triple numerators")):
    """exists, a bool: H > 0; conditions, the bools G+_V > 0 (V + V~ < pi),
    and sines, the floats sin(V + V~), one per vertex; triple, the triple
    as unit_scaled scales it; and numerators, the exact.Numerators all of
    them come from.  conditions and sines are None where H < 0."""

    __slots__ = ()


def tilde_triangle(t: Triangle, triple) -> TildeTriangle:
    """The "tilde" triangle of a positive triple (X : Y : Z), from the
    exact ints of t.unit_exact and of the triple as unit_scaled scales
    it."""
    triple = unit_scaled(triple)
    n = exact.numerators(*t.unit_exact[:2], triple)
    if n.H < 0:
        return TildeTriangle(False, None, None, triple, n)
    return TildeTriangle(n.H > 0,
                         tuple(x + u > 0 for x, u in zip(n.X, n.lift)),
                         exact.sines(n), triple, n)


def _root(sines, triple) -> tuple[float, float, float]:
    """(YZ s_A : ZX s_B : XY s_C) = (s_A / X : s_B / Y : s_C / Z)."""
    (s_a, s_b, s_c), (x, y, z) = sines, triple
    return s_a / x, s_b / y, s_c / z


def plus_root(tt: TildeTriangle) -> tuple[float, float, float]:
    """Barycentrics (YZ sin(A + A~) : ...) of the "+" point of the triple
    tt was built from; for weights, the isogonal conjugate of the orbit
    point."""
    return _root(tt.sines, tt.triple)


def tripolar_to_points(tp, t: Triangle) -> list[tuple[Point2, float, tuple]]:
    """All points whose vertex distances are proportional to the triple.

    Returns one or two (point, s, barycentric) triples, with distances
    (s*X, s*Y, s*Z), ordered by increasing s, s being inf where it
    overflows, and barycentric the triple the point was built from.  A
    zero distance names a vertex, with its unit triple; otherwise the "+"
    point (YZ sin(A + A~) : ...) and the "-" point (YZ sin(A - A~) : ...)
    are the two, one where H = 0 and the "-" one dropped where it lies at
    infinity.  Raises NoSuchPoint where H < 0 and GeometryError on a
    negative or all-zero triple.
    """
    X, Y, Z = tp
    mx = max(X, Y, Z)
    if not (X >= 0.0 and Y >= 0.0 and Z >= 0.0):
        raise GeometryError("tripolar distances must be >= 0")
    if mx == 0.0:
        raise GeometryError("tripolar distances must not all be zero")
    # A zero coordinate pins the point to vertex i, taken directly: with
    # the other two distances rounded, H is negative at an exact zero and
    # positive near one, so the inversion would refuse or split the vertex.
    zeros = [v <= 1e-12 * mx for v in tp]
    if any(zeros):
        if sum(zeros) > 1:
            raise NoSuchPoint("two zero distances cannot be realized")
        # Coordinate j scales to the side from vertex i to vertex j, the one
        # opposite the third vertex: taken for the unit-scaled triple, so no
        # quotient overflows, and scaled back, so only the result may.
        i, u, sides = zeros.index(True), unit_scaled(tp), (t.a, t.b, t.c)
        s1, s2 = (sides[3 - i - j] / u[j] for j in range(3) if j != i)
        if abs(s1 - s2) > VERTEX_SCALE_TOL * max(s1, s2):
            raise NoSuchPoint("distance ratios are inconsistent with a vertex")
        return [(t.vertices[i], 0.5 * (s1 + s2) / unit_power(mx),
                 tuple(float(j == i) for j in range(3)))]

    tt = tilde_triangle(t, tp)
    if tt.sines is None:
        raise NoSuchPoint(
            "no point attains these vertex-distance ratios "
            "(scaled side triple fails the triangle inequality)")
    roots = [plus_root(tt)]
    minus = _root(exact.sines(tt.numerators, -1), tt.triple)
    # The "-" point meets the "+" one where H = 0, and lies at infinity
    # where X = Y = Z.
    if tt.exists and normalized(minus) is not None:
        roots.append(minus)
    # The largest coordinate is the one rounding perturbs least, relatively.
    vertex = t.vertices[(X, Y, Z).index(mx)]
    points = []
    for bary in roots:
        p = from_barycentric(bary, t)
        points.append((p, dist(p, vertex) / mx, bary))
    return sorted(points, key=lambda psb: psb[1])
