"""Homogeneous coordinates relative to a triangle, and vertex-distance inversion.

Every triple goes in and comes out as a plain 3-tuple of floats.
Barycentric and trilinear triples are straightforward; the interesting part
is going back from a tripolar triple (X : Y : Z), the ratios of the
distances to the three vertices, to actual points.  Invert about such a
point P: the images of A, B, C span the "tilde" triangle, of sides
proportional to (p, q, r) = (Xa, Yb, Zc), so angle BPC = A +- A~ (and
cyclic) for its angles A~, B~, C~, and the barycentrics of P, the areas
[PBC] : [PCA] : [PAB], are (YZ sin(A +- A~) : ...).  tilde_triangle takes
the sines without an angle: with K2 = (B - A) x (C - A), the dot product
d_A = (B - A).(C - A), X_A = q^2 + r^2 - p^2 and S four times the tilde
area, sin(A + A~) = N_A / (2 b c q r) for N_A = K2 X_A + d_A S, and
cyclically, so the "+" point is (a^2 N_A : b^2 N_B : c^2 N_C), plus_root.  There are two points
when the tilde triangle exists, that is when S > 0, one on its boundary
and none otherwise.
The "-" numerators K2 X_V - d_V S nearly cancel as the triple approaches
(1 : 1 : 1), so the "-" point is the circumcircle inverse of the "+" one:
each locus of a fixed distance ratio to two vertices is a circle
orthogonal to the circumcircle, so that inversion swaps the two common
points.  With X = Y = Z the "+" point is the circumcenter and the other
lies at infinity; on the tilde boundary both meet on the circumcircle.

With the weights as the triple these are the Apollonius common points (see
apollonius), the "+" one the isogonal conjugate of the orbit point; with
(1/a : 1/b : 1/c) they are the isodynamic points X(15) and X(16).
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from .geometry import (GeometryError, IdealPoint, NoSuchPoint, Point2,
                       Triangle, circumcircle, dist, heron_area, signed_area,
                       unit_power)

# A homogeneous triple whose sum is within this fraction of its largest
# magnitude names a point at infinity.
IDEAL_SUM = 1e-14

# Relative disagreement allowed between the two scales a vertex implies.
VERTEX_SCALE_TOL = 1e-8

# Distances within this fraction of the circumradius of the circumcenter or
# of the circumcircle are rounding: a fixed multiple of machine epsilon.
ROUNDING = 64.0 * sys.float_info.epsilon


class OnSideLine(GeometryError):
    """The operation is undefined for points on the side lines."""


def to_barycentric(p: Point2, t: Triangle) -> tuple[float, float, float]:
    """Normalized barycentric coordinates (ratios of signed subtriangle
    areas) taken of t.unit_vertices and p divided by t.scale, so that no
    area of the triangle over- or underflows; a point whose areas overflow
    is refused."""
    p = (p[0] / t.scale, p[1] / t.scale)
    a, b, c = t.unit_vertices
    full = t.unit_area
    bc = (signed_area(p, b, c) / full, signed_area(p, c, a) / full,
          signed_area(p, a, b) / full)
    if not all(map(math.isfinite, bc)):
        raise GeometryError("point is too far out: its areas overflow")
    return bc


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


class TildeTriangle(namedtuple("TildeTriangle", "sides exists X S N")):
    """Sides (p, q, r) proportional to (Xa, Yb, Zc), three floats, and
    exists, a bool: S > 0, the strict triangle inequality.  Unless the
    sides strictly fail it, X holds the law-of-cosines numerators (X_A,
    X_B, X_C), S four times the tilde area, and N the numerators of
    sin(V + V~), one per vertex; else they are None."""

    __slots__ = ()


def tilde_triangle(t: Triangle, triple) -> TildeTriangle:
    """The "tilde" triangle of a positive triple (X : Y : Z) and its
    numerators, from the triple as unit_scaled scales it, t.unit_sides and
    t.unit_vertices, so that no side or product of sides over- or
    underflows on account of either.  Sides whose rounded sums strictly
    fail the triangle inequality get no numerators; otherwise exists is
    read off S, whose Kahan ordering keeps the sign of each factor, and a
    flat triple keeps its numerators."""
    p, q, r = (u * v for u, v in zip(unit_scaled(triple), t.unit_sides))
    if p > q + r or q > r + p or r > p + q:
        return TildeTriangle((p, q, r), False, None, None, None)
    # y^2 + z^2 - x^2 as (y - x)(y + x) + z^2, y the larger of y and z, so
    # that a needle's numerator keeps its digits.
    x_a, x_b, x_c = X = (
        (q - p) * (q + p) + r * r if q > r else (r - p) * (r + p) + q * q,
        (r - q) * (r + q) + p * p if r > p else (p - q) * (p + q) + r * r,
        (p - r) * (p + r) + q * q if p > q else (q - r) * (q + r) + p * p)
    S = 4.0 * heron_area(p, q, r)
    (ax, ay), (bx, by), (cx, cy) = t.unit_vertices
    ux, uy, vx, vy, wx, wy = bx - ax, by - ay, cx - ax, cy - ay, cx - bx, cy - by
    # K2 = (B - A) x (C - A) > 0 is twice the area; d_V is the dot product
    # of the two edges leaving V.
    k2 = 2.0 * t.unit_area
    d_a, d_b, d_c = ux * vx + uy * vy, -(wx * ux + wy * uy), vx * wx + vy * wy
    return TildeTriangle(
        (p, q, r), S > 0.0, X, S,
        (k2 * x_a + d_a * S, k2 * x_b + d_b * S, k2 * x_c + d_c * S))

def plus_root(t: Triangle, tt: TildeTriangle) -> tuple[float, float, float]:
    """Barycentrics (a^2 N_A : b^2 N_B : c^2 N_C) of the "+" point of the
    triple tt was built from, taken with t.unit_sides."""
    a, b, c = t.unit_sides
    n_a, n_b, n_c = tt.N
    return a * a * n_a, b * b * n_b, c * c * n_c


def tripolar_to_points(tp, t: Triangle) -> list[tuple[Point2, float]]:
    """All points whose vertex distances are proportional to the triple.

    Returns one or two (point, s) pairs with distances (s*X, s*Y, s*Z),
    ordered by increasing s, s being inf where it overflows; raises
    NoSuchPoint when the scaled side triple (Xa, Yb, Zc) strictly fails the
    triangle inequality and GeometryError on a negative or all-zero triple.
    """
    X, Y, Z = tp
    mx = max(X, Y, Z)
    if not (X >= 0.0 and Y >= 0.0 and Z >= 0.0):
        raise GeometryError("tripolar distances must be >= 0")
    if mx == 0.0:
        raise GeometryError("tripolar distances must not all be zero")
    # A zero coordinate pins the point to a vertex; handle it directly so
    # rounding in the tilde inequality cannot reject an exactly-realizable
    # triple.
    if min(X, Y, Z) <= 1e-12 * mx:
        zeros = [X <= 1e-12 * mx, Y <= 1e-12 * mx, Z <= 1e-12 * mx]
        if sum(zeros) > 1:
            raise NoSuchPoint("two zero distances cannot be realized")
        # The scales are taken for the unit-scaled triple, so that no
        # quotient overflows, and scaled back: only the result may.
        x, y, z = unit_scaled(tp)
        if zeros[0]:
            vertex, s1, s2 = t.vA, t.c / y, t.b / z
        elif zeros[1]:
            vertex, s1, s2 = t.vB, t.c / x, t.a / z
        else:
            vertex, s1, s2 = t.vC, t.b / x, t.a / y
        if abs(s1 - s2) > VERTEX_SCALE_TOL * max(s1, s2):
            raise NoSuchPoint("distance ratios are inconsistent with a vertex")
        return [(vertex, 0.5 * (s1 + s2) / unit_power(mx))]

    tt = tilde_triangle(t, tp)
    if tt.N is None:
        raise NoSuchPoint(
            "no point attains these vertex-distance ratios "
            "(scaled side triple fails the triangle inequality)")
    plus = from_barycentric(plus_root(t, tt), t)
    points = [plus]
    center, radius = circumcircle(t)
    d = dist(plus, center)
    if d > ROUNDING * radius and abs(d - radius) > ROUNDING * radius:
        points.append(center + (plus - center) * (radius / d) ** 2)
    # The largest coordinate is the one rounding perturbs least, relatively.
    vertex = t.vertices[(X, Y, Z).index(mx)]
    return sorted(((pt, dist(pt, vertex) / mx) for pt in points),
                  key=lambda ps: ps[1])
