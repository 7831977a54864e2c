"""Homogeneous coordinates relative to a triangle, and vertex-distance inversion.

Barycentric and trilinear triples are straightforward; the interesting part
is going back from a tripolar triple (ratios of distances to the three
vertices) to actual points.  A homogeneous triple (X : Y : Z) is realized by
zero, one or two points; the realizing scale s (so the true distances are
s*X, s*Y, s*Z) satisfies a quadratic obtained from the Cayley-Menger
determinant of the four points A, B, C, P:

    G * t^2  -  2 * Sigma * t  +  (abc)^2  =  0,        t = s^2,

with, in halved Conway notation S_a = (b^2 + c^2 - a^2) / 2,

    Sigma = a^2 S_a X^2 + b^2 S_b Y^2 + c^2 S_c Z^2,
    G     = a^2 X^4 + b^2 Y^4 + c^2 Z^4
            - 2 S_a Y^2 Z^2 - 2 S_b Z^2 X^2 - 2 S_c X^2 Y^2,

whose discriminant factors as (8 [ABC] [tilde])^2 where [tilde] is the area
of the triangle with sides (Xa, Yb, Zc).  That scaled "tilde" triangle
exists exactly when the triple is realizable.  For each admissible root t
the point itself is affine in t: its barycentric coordinates are

    rho_a = (S_c Y^2 + S_b Z^2 - a^2 X^2) t + a^2 S_a      (and cyclic),

which sum to the constant 8 [ABC]^2.  Every candidate is re-validated by
recomputing its vertex distances before being returned.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Optional, Tuple

from .geometry import GeometryError, Point2, Triangle, dist, signed_area


class IdealPoint(GeometryError):
    """Homogeneous coordinates sum to zero: the point lies at infinity."""


class OnSideLine(GeometryError):
    """The operation is undefined for points on the side lines."""


class FZero(GeometryError):
    """The scale quadratic is singular: no root can be derived."""


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


def from_barycentric(bc: BarycentricCoords, t: Triangle,
                     eps: float = 1e-14) -> Point2:
    """Affine combination of the vertices after normalizing the triple."""
    s = bc[0] + bc[1] + bc[2]
    scale = max(abs(bc[0]), abs(bc[1]), abs(bc[2]))
    if scale == 0.0:
        raise IdealPoint("all-zero coordinate triple")
    if abs(s) <= eps * scale:
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


def isogonal_conjugate(bc: BarycentricCoords, t: Triangle,
                       eps: float = 1e-12) -> BarycentricCoords:
    """Reflect the three cevians in the angle bisectors.

    In trilinear coordinates the map is componentwise inversion, so it is an
    involution wherever it is defined; it is undefined on the side lines.
    """
    tl = barycentric_to_trilinear(bc, t)
    scale = max(abs(tl[0]), abs(tl[1]), abs(tl[2]))
    if scale == 0.0 or min(abs(tl[0]), abs(tl[1]), abs(tl[2])) < eps * scale:
        raise OnSideLine("isogonal conjugation is undefined on the side lines")
    inv = TrilinearCoords(1.0 / tl[0], 1.0 / tl[1], 1.0 / tl[2])
    return trilinear_to_barycentric(inv, t)


class ConwayData(NamedTuple):
    """Conway-style symmetric quantities for a triangle and a scaled triple.

    ``F`` is the leading coefficient of the scale quadratic (the G of the
    module docstring); ``sigma`` its half negated linear coefficient.  The
    roots ``s2_minus <= s2_plus`` are None when unset: both when the tilde
    triangle does not exist, the far one when the quadratic degenerates to a
    linear equation.
    """

    S_a: float
    S_b: float
    S_c: float
    area: float
    S_ta: float
    S_tb: float
    S_tc: float
    tilde_area: Optional[float]
    tilde_exists: bool
    F: float
    sigma: float
    s2_plus: Optional[float]
    s2_minus: Optional[float]


def _conway_triple(a: float, b: float, c: float):
    Sa = 0.5 * (b * b + c * c - a * a)
    Sb = 0.5 * (c * c + a * a - b * b)
    Sc = 0.5 * (a * a + b * b - c * c)
    heron16 = (2.0 * (a * a * b * b + b * b * c * c + c * c * a * a)
               - (a ** 4 + b ** 4 + c ** 4))
    return Sa, Sb, Sc, heron16


def conway_data(t: Triangle, X: float, Y: float, Z: float,
                eps: float = 1e-14) -> ConwayData:
    """All symmetric quantities needed by the tripolar inversion.

    Raises FZero only when the quadratic degenerates completely (both the
    quadratic and the linear coefficient vanish), which cannot happen for a
    realizable triple on a nondegenerate triangle.
    """
    if min(X, Y, Z) < 0.0 or max(X, Y, Z) == 0.0:
        raise ValueError("tripolar coordinates must be nonnegative, not all zero")
    a, b, c = t.a, t.b, t.c
    Sa, Sb, Sc, h16 = _conway_triple(a, b, c)
    area = math.sqrt(h16) / 4.0
    Sta, Stb, Stc, h16t = _conway_triple(X * a, Y * b, Z * c)
    tilde_exists = h16t >= 0.0
    tilde_area = math.sqrt(h16t) / 4.0 if tilde_exists else None

    X2, Y2, Z2 = X * X, Y * Y, Z * Z
    sigma = a * a * Sa * X2 + b * b * Sb * Y2 + c * c * Sc * Z2
    G = (a * a * X2 * X2 + b * b * Y2 * Y2 + c * c * Z2 * Z2
         - 2.0 * Sa * Y2 * Z2 - 2.0 * Sb * Z2 * X2 - 2.0 * Sc * X2 * Y2)
    g_scale = (a * a * X2 * X2 + b * b * Y2 * Y2 + c * c * Z2 * Z2
               + 2.0 * abs(Sa) * Y2 * Z2 + 2.0 * abs(Sb) * Z2 * X2
               + 2.0 * abs(Sc) * X2 * Y2)
    s_scale = (a * a * abs(Sa) * X2 + b * b * abs(Sb) * Y2
               + c * c * abs(Sc) * Z2)

    s2_plus: Optional[float] = None
    s2_minus: Optional[float] = None
    if tilde_exists:
        W = 8.0 * area * tilde_area
        abc2 = (a * b * c) ** 2
        if abs(G) > eps * g_scale:
            # Far root directly, near root through the root product
            # (abc)^2 / G to avoid cancellation.
            far = (sigma + math.copysign(W, sigma)) / G
            near = abc2 / (sigma + math.copysign(W, sigma))
            if sigma >= 0.0:
                s2_plus, s2_minus = far, near
            else:
                s2_plus, s2_minus = near, far
        elif abs(sigma) > eps * s_scale:
            # Leading coefficient vanishes (happens e.g. for the (1:1:1)
            # triple): the quadratic is linear with a single finite root.
            root = abc2 / (2.0 * sigma)
            if sigma > 0.0:
                s2_minus = root
            else:
                s2_plus = root
        else:
            raise FZero("scale quadratic is identically singular")
    return ConwayData(Sa, Sb, Sc, area, Sta, Stb, Stc,
                      tilde_area, tilde_exists, G, sigma, s2_plus, s2_minus)


def _linear_forms(Sa, Sb, Sc, a, b, c, X2, Y2, Z2):
    """Coefficients (alpha1, alpha0) etc. of the affine point parametrization."""
    a1 = Sc * Y2 + Sb * Z2 - a * a * X2
    b1 = Sa * Z2 + Sc * X2 - b * b * Y2
    g1 = Sb * X2 + Sa * Y2 - c * c * Z2
    return (a1, a * a * Sa), (b1, b * b * Sb), (g1, c * c * Sc)


def tripolar_to_points(tp: TripolarCoords, t: Triangle,
                       validate_tol: float = 1e-8) -> List[Tuple[Point2, float]]:
    """All points whose vertex distances are proportional to the triple.

    Returns up to two (point, s) pairs with distances (s*X, s*Y, s*Z),
    ordered by increasing s; raises NoSuchPoint when no candidate survives
    the distance re-validation.
    """
    X, Y, Z = tp
    if min(X, Y, Z) < 0.0 or max(X, Y, Z) == 0.0:
        raise ValueError("tripolar coordinates must be nonnegative, not all zero")
    mx = max(X, Y, Z)
    # A zero coordinate pins the point to a vertex; handle it directly so
    # rounding in the Heron form cannot reject an exactly-realizable triple.
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
        if abs(s1 - s2) > validate_tol * max(s1, s2):
            raise NoSuchPoint("distance ratios are inconsistent with a vertex")
        return [(vertex, 0.5 * (s1 + s2))]

    cd = conway_data(t, X, Y, Z)
    if not cd.tilde_exists:
        raise NoSuchPoint(
            "no point attains these vertex-distance ratios "
            "(scaled side triple fails the triangle inequality)")
    roots = [r for r in (cd.s2_minus, cd.s2_plus) if r is not None and r >= 0.0]
    if (len(roots) == 2 and
            abs(roots[0] - roots[1]) <= 1e-12 * max(roots[0], roots[1])):
        roots = [roots[0]]

    a, b, c = t.a, t.b, t.c
    X2, Y2, Z2 = X * X, Y * Y, Z * Z
    forms = _linear_forms(cd.S_a, cd.S_b, cd.S_c, a, b, c, X2, Y2, Z2)
    out: List[Tuple[Point2, float]] = []
    for tval in roots:
        rho = [f1 * tval + f0 for (f1, f0) in forms]
        ssum = rho[0] + rho[1] + rho[2]
        if abs(ssum) <= 1e-13 * max(abs(r) for r in rho):
            continue
        u, v, w = rho[0] / ssum, rho[1] / ssum, rho[2] / ssum
        p = Point2(u * t.vA.x + v * t.vB.x + w * t.vC.x,
                   u * t.vA.y + v * t.vB.y + w * t.vC.y)
        s = math.sqrt(tval)
        scale = s * mx
        if (abs(dist(p, t.vA) - s * X) <= validate_tol * scale and
                abs(dist(p, t.vB) - s * Y) <= validate_tol * scale and
                abs(dist(p, t.vC) - s * Z) <= validate_tol * scale):
            out.append((p, s))
    if not out:
        raise NoSuchPoint("no candidate root survives distance re-validation")
    out.sort(key=lambda ps: ps[1])
    return out


def biquadratic_coefficients(t: Triangle, X: float, Y: float, Z: float):
    """Coefficients (A2, A1, A0) of the scale quadratic A2 t^2 + A1 t + A0.

    Built independently of the closed form: substitute the affine point
    parametrization into the distance-ratio locus d(B,P)/d(C,P) = Y/Z
    written in barycentric coordinates.  When the Z slot vanishes the roles
    are rotated cyclically so the ratio k stays finite; the roots do not
    depend on the rotation.
    """
    sides = [t.a, t.b, t.c]
    triple = [X, Y, Z]
    # Rotate so the denominator coordinate (third slot) is the largest.
    rot = max(range(3), key=lambda r: triple[(2 + r) % 3])
    a, b, c = (sides[(0 + rot) % 3], sides[(1 + rot) % 3], sides[(2 + rot) % 3])
    X_, Y_, Z_ = (triple[(0 + rot) % 3], triple[(1 + rot) % 3], triple[(2 + rot) % 3])
    Sa, Sb, Sc, _ = _conway_triple(a, b, c)
    X2, Y2, Z2 = X_ * X_, Y_ * Y_, Z_ * Z_
    (a1, a0), (b1, b0), (g1, g0) = _linear_forms(Sa, Sb, Sc, a, b, c, X2, Y2, Z2)
    kk = (Y_ / Z_) ** 2
    # Cross terms carry the doubled Conway symbols 2 S_b, 2 S_c because the
    # squared-distance expansion of d(B,P)^2 in normalized barycentrics is
    # rho_a^2 c^2 + rho_c^2 a^2 + 2 rho_a rho_c S_b.
    A2 = ((c * c - kk * b * b) * a1 * a1 + a * a * (g1 * g1 - kk * b1 * b1)
          + 2.0 * Sb * a1 * g1 - kk * 2.0 * Sc * a1 * b1)
    A1 = (2.0 * (c * c - kk * b * b) * a0 * a1
          + 2.0 * a * a * (g0 * g1 - kk * b0 * b1)
          + 2.0 * Sb * (a0 * g1 + a1 * g0) - kk * 2.0 * Sc * (a0 * b1 + a1 * b0))
    A0 = ((c * c - kk * b * b) * a0 * a0 + a * a * (g0 * g0 - kk * b0 * b0)
          + 2.0 * Sb * a0 * g0 - kk * 2.0 * Sc * a0 * b0)
    return A2, A1, A0


def biquadratic_residual(t: Triangle, X: float, Y: float, Z: float,
                         s2: float) -> float:
    """Relative residual of a candidate scale in the independent quadratic."""
    A2, A1, A0 = biquadratic_coefficients(t, X, Y, Z)
    scale = max(abs(A2 * s2 * s2), abs(A1 * s2), abs(A0))
    if scale == 0.0:
        return 0.0
    return abs(A2 * s2 * s2 + A1 * s2 + A0) / scale
