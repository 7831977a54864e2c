"""Erected similar triangles, their concurrent cevians, and the orbit point.

Given positive weights (lam_A, lam_B, lam_C), erect on each side of the
reference triangle, outward, a triangle similar to the scaled "tilde"
triangle of side lengths (p, q, r) = (lam_A*a, lam_B*b, lam_C*c), which
coordinates.tilde_triangle builds from the weights and the vertices, each
divided by a power of two (the vertices by Triangle.scale), so that only
their ratios matter.  The three cevians joining each vertex to the
opposite apex are concurrent.  By Ceva's theorem their meeting point has
barycentrics

    (lam_A a^2 s_B s_C : lam_B b^2 s_C s_A : lam_C c^2 s_A s_B),

s_V = sin(V + V~) for the reference angle V and the tilde angle V~ at the
same vertex.  No angle is computed: each s_V is one exact quotient of
integer polynomials in the input floats, rounded once (exact.sines), and
its sign is that of the exact gap G_V = 2qr (cos V + cos V~).  When every
V + V~ < pi, that is every G_V > 0, the point lies strictly inside: the
verdict is the sign of the numbers the point is built from, so it needs
no tolerance, and the point's barycentrics, products of those numbers,
are then positive.  The result keeps both the triple and the tilde
triangle.  When its perpendicular feet also land strictly inside the
sides, its pedal triangle is the closed 3-bounce refractive billiard
orbit and the minimizer of the weighted chord-length sum.  When
an angle condition fails the minimizer collapses onto a doubled
altitude.

The in-between regime exists only for obtuse triangles: the point can be
interior while one pedal foot falls beyond a side endpoint, in which case
there is no closed orbit and the constrained minimizer sits on the
boundary of the inscribed-triangle parameter cube.  orbit_in_sides on the
result distinguishes it; optimize.minimize_inscribed prices that case.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from . import coordinates
from .geometry import (GeometryError, IdealPoint, InscribedTriangle, Point2,
                       Triangle, pedal_triangle)

STATUS_INTERIOR = "interior"
STATUS_DEGENERATE = "degenerate"
STATUS_NO_TILDE = "no_tilde_triangle"


class Weights(namedtuple("Weights", "lam_A lam_B lam_C")):
    """Stiffness triple: lam_A weights the chord opposite vertex A."""

    __slots__ = ()

    def __new__(cls, lam_A: float, lam_B: float, lam_C: float):
        if not (lam_A > 0.0 and lam_B > 0.0 and lam_C > 0.0):
            raise GeometryError("weights must be strictly positive")
        # Every pairwise ratio (the refraction coefficients among them) must
        # be a normal float: none may overflow or go subnormal.
        ratio = min(lam_A, lam_B, lam_C) / max(lam_A, lam_B, lam_C)
        if ratio < sys.float_info.min:
            raise GeometryError("smallest / largest weight is %.17g, below "
                                "%.17g" % (ratio, sys.float_info.min))
        return super().__new__(cls, lam_A, lam_B, lam_C)

    def perimeter(self, it: InscribedTriangle) -> float:
        """lam_A |pB pC| + lam_B |pC pA| + lam_C |pA pB|."""
        d1, d2, d3 = it.chord_lengths()
        return self.lam_A * d1 + self.lam_B * d2 + self.lam_C * d3


def coeffs_from_weights(w: Weights) -> tuple[float, float, float]:
    """(kap_a, kap_b, kap_c) = (lam_B/lam_C, lam_C/lam_A, lam_A/lam_B):
    Weights keeps every ratio a positive normal float."""
    return w.lam_B / w.lam_C, w.lam_C / w.lam_A, w.lam_A / w.lam_B


class SnellOrbitResult(namedtuple(
        "SnellOrbitResult", "status weighted_perimeter point orbit erected "
        "conditions orbit_in_sides degenerate_info barycentric tilde",
        defaults=(None,) * 8)):
    """Outcome of the orbit construction for one (triangle, weights) pair.

    status is "interior" (point valid), "degenerate" (minimizer collapses
    onto a doubled altitude) or "no_tilde_triangle" (the scaled side triple
    does not close up; also degenerate).  The doubled-altitude fallback
    fills orbit (an InscribedTriangle) and weighted_perimeter (a float) in
    the last two cases, with both the weighted and the plain altitude
    ranking reported in the dict degenerate_info.  Every field after
    weighted_perimeter defaults to None.  point, a Point2, is None for
    no_tilde_triangle and for a degenerate point at infinity, whose Ceva
    triple sums to zero (coordinates.IDEAL_SUM).  erected is the three
    apexes (Point2s), conditions tilde.conditions, the three strict tests
    V + V~ < pi (bools), barycentric the point's Ceva triple (floats), and
    tilde the TildeTriangle with its sines and exact numerators.

    orbit_in_sides qualifies the interior case: True when every pedal foot
    lies strictly inside its side, so the orbit is a genuine closed billiard
    path.  False means the point is interior but one foot projects beyond a
    side endpoint (possible only for obtuse triangles); weighted_perimeter
    then prices chords to the side *lines* and undercuts the constrained
    minimum, which optimize.minimize_inscribed finds.
    """

    __slots__ = ()


def weighted_perimeter(it: InscribedTriangle, w: Weights) -> float:
    """The minimizer's objective, w.perimeter(it).

    The construction prices its orbit through the method, so that a count
    of calls to this function counts the minimizer's evaluations alone.
    """
    return w.perimeter(it)


def erect_similar(t: Triangle, tt: coordinates.TildeTriangle
                  ) -> tuple[Point2, Point2, Point2]:
    """Apex points of the outward erected triangles, one per side.

    On side a the erected triangle has the second tilde angle at B and the
    third at C, so the apex A1 carries the first; with (p, q, r) the tilde
    sides, the law of sines gives d(B, A1) = a * r / p = c * lam_C / lam_A,
    and cyclically.  The side vector e = C - B turns clockwise (outward,
    since the reference triangle is counterclockwise) by B~, whose cosine
    and sine are (X_B, S) / (2 r p), so A1 = B + (X_B e - S perp(e)) /
    (2 p^2), with p^2 = x, the exact numerators' own square (_apex).
    """
    if not tt.exists:
        raise GeometryError("scaled side triple fails the triangle inequality")
    n = tt.numerators
    (x_a, x_b, x_c), (x, y, z) = n.X, n.squares
    return (_apex(t.vB, t.vC, x_b, n.root, x),
            _apex(t.vC, t.vA, x_c, n.root, y),
            _apex(t.vA, t.vB, x_a, n.root, z))


def _apex(v: Point2, w: Point2, x: int, root: int, u2: int) -> Point2:
    """v + (x e - S perp(e)) / (2 u2) for e = w - v, from the exact ints x
    and u2 and root = S 2^64, each coefficient rounded once."""
    ex, ey = w.x - v.x, w.y - v.y
    c, s = x / (2 * u2), root / (u2 << 65)
    return Point2(v.x + c * ex + s * ey, v.y + c * ey - s * ex)


def snell_fagnano_point(t: Triangle, w: Weights) -> SnellOrbitResult:
    """Construct the orbit point, or the degenerate fallback.

    The point comes from its closed-form barycentrics, the Ceva triple
    (lam_A a^2 s_B s_C : ...) of the tilde triangle's sines, taken of the
    unit_scaled weights and t.unit_sides with each weight and sine split
    into a mantissa and a power of two (math.frexp), and the powers summed
    apart and scaled to the largest, so that no product over- or
    underflows.  It is interior exactly when all three tilde.conditions
    hold, that is when every G+_V > 0, and then every barycentric is
    positive.
    """
    tt = coordinates.tilde_triangle(t, w)
    if not tt.exists:
        return _degenerate_result(t, w, STATUS_NO_TILDE, tilde=tt)
    (ma, ea), (mb, eb), (mc, ec) = map(math.frexp, tt.sines)
    (la, fa), (lb, fb), (lc, fc) = map(math.frexp, tt.triple)
    a, b, c = t.unit_sides
    rows = ((la * a * a * (mb * mc), fa + eb + ec),
            (lb * b * b * (mc * ma), fb + ec + ea),
            (lc * c * c * (ma * mb), fc + ea + eb))
    top = max(e for _, e in rows)
    bary = tuple(math.ldexp(m, e - top) for m, e in rows)
    try:
        f = coordinates.from_barycentric(bary, t)
    except IdealPoint:  # an interior point's barycentrics are positive
        f = None
    erected = erect_similar(t, tt)
    conds = tt.conditions
    if all(conds):
        orbit = pedal_triangle(f, t)
        in_sides = all(0.0 < p < 1.0 for p in (orbit.tA, orbit.tB, orbit.tC))
        return SnellOrbitResult(status=STATUS_INTERIOR,
                                weighted_perimeter=w.perimeter(orbit),
                                point=f, orbit=orbit, erected=erected,
                                conditions=conds, orbit_in_sides=in_sides,
                                barycentric=bary, tilde=tt)
    return _degenerate_result(t, w, STATUS_DEGENERATE, point=f,
                              erected=erected, conditions=conds,
                              barycentric=bary, tilde=tt)


def _sin_at(v, p, q) -> float:
    """|sin| of the angle at v between rays v->p and v->q; 0 for a null ray."""
    x1, y1 = p[0] - v[0], p[1] - v[1]
    x2, y2 = q[0] - v[0], q[1] - v[1]
    norms = math.hypot(x1, y1) * math.hypot(x2, y2)
    return abs(x1 * y2 - y1 * x2) / norms if norms else 0.0


def verify_snell_point(f: Point2, t: Triangle,
                       k) -> tuple[float, float, float]:
    """Residuals of the three sine-ratio characterizations of the point.

    For the true orbit point: sin(FCA)/sin(FBA) = kap_a, sin(FAB)/sin(FCB)
    = kap_b and sin(FBC)/sin(FAC) = kap_c.  Each residual is relative,
    |ratio / kap - 1|, so that it reads alike for every weight.  The
    sines are taken of t.unit_vertices and f divided by t.scale, so that no
    product of two rays of the triangle over- or underflows.  A coefficient
    that is not positive, a divisor sine of 0 (OnSideLine) and a sine or
    residual that is not finite are refused.
    """
    if not all(kap > 0.0 for kap in k):
        raise GeometryError("coefficients must be strictly positive")
    f = (f[0] / t.scale, f[1] / t.scale)
    a, b, c = t.unit_vertices
    num = (_sin_at(c, f, a), _sin_at(a, f, b), _sin_at(b, f, c))
    div = (_sin_at(b, f, a), _sin_at(c, f, b), _sin_at(a, f, c))
    if 0.0 in div:
        raise coordinates.OnSideLine("sine ratios are undefined on the side lines")
    res = tuple(abs(n / d / kap - 1.0) for n, d, kap in zip(num, div, k))
    if not all(map(math.isfinite, num + div + res)):
        raise GeometryError("point is too far out or too near a side line: "
                            "a sine or a sine ratio overflows")
    return res


def _degenerate_result(t: Triangle, w: Weights, status: str,
                       **found) -> SnellOrbitResult:
    """The cheapest doubled altitude, vertex V to its foot and back: its cost
    is t.heights' length times the weights of the two chords on it, and its
    orbit the pedal triangle of V, whose other two feet are V itself."""
    heights = dict(zip("ABC", t.heights))
    pairs = (w.lam_B + w.lam_C, w.lam_C + w.lam_A, w.lam_A + w.lam_B)
    costs = {v: lam * heights[v] for v, lam in zip("ABC", pairs)}
    best = min(costs, key=costs.get)
    info: dict[str, object] = {
        "weighted_costs": costs,
        "altitude_lengths": heights,
        "weighted_argmin": best,
        "shortest_altitude": min(heights, key=heights.get),
    }
    orbit = pedal_triangle(t.vertices["ABC".index(best)], t)
    return SnellOrbitResult(status=status, weighted_perimeter=costs[best],
                            orbit=orbit, degenerate_info=info, **found)
