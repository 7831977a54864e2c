"""Checks that serve only the test suite: independent characterizations
of the orbit point and of the tripolar inversion.

Each recomputes a quantity the package computes one way, by another route
(cevian foot ratios, the sine-ratio concurrency of the side normals, and
the biquadratic in the squared scale of a tripolar triple), so that the
tests can compare the two.  degenerate_minimizer runs the construction's
doubled-altitude fallback on its own.  intersect_lines and ratio_residual
are plane helpers that only the tests use.  river_reference solves the
river crossing in 60-digit decimal arithmetic, ceva_reference computes
the orbit point's Ceva triple and its isogonal conjugate the same way,
first_wall_exact finds a billiard ray's next wall in rational arithmetic,
exact_verdict decides the regime in rational arithmetic too, side_apex
and side_area place a triangle given by its sides in 60-digit decimals, and
reference_dumps is the serializer that emitted every report before the
one-pass encoder.  is_periodic, circumcircle and altitudes are helpers
that only the tests use.
"""

from __future__ import annotations

import decimal
import math
from fractions import Fraction
from json.encoder import encode_basestring as _escape
from typing import Any, Optional, Tuple

from snellfagnano.apollonius import ApollonianCircle
from snellfagnano.billiards import BilliardState, billiard_step, closure
from snellfagnano.coordinates import TildeTriangle
from snellfagnano.construction import (STATUS_DEGENERATE, STATUS_INTERIOR,
                                       STATUS_NO_TILDE, SnellOrbitResult,
                                       Weights, _degenerate_result,
                                       erect_similar)
from snellfagnano.geometry import (GeometryError, InscribedTriangle, Point2,
                                   Triangle, dist, pedal_triangle)
from snellfagnano.serialize import format_float

from conftest import angles, side_angles, tilde_sides


def is_periodic(start: BilliardState, t: Triangle, k, n: int,
                tol: float) -> bool:
    """Whether n billiard steps return to the starting side, parameter and
    direction."""
    if n < 1:
        raise GeometryError("need at least one step")
    state = start
    for _ in range(n):
        state = billiard_step(state, t, k)
    return closure(start, state, tol)[3]


def circumcircle(t: Triangle) -> Tuple[Point2, float]:
    """Center equidistant from the three vertices, and that distance, taken
    of t.unit_vertices and scaled back by t.scale."""
    s = t.scale
    (ax, ay), (bx, by), (cx, cy) = t.unit_vertices
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    a2, b2, c2 = ax * ax + ay * ay, bx * bx + by * by, cx * cx + cy * cy
    ux = (a2 * (by - cy) + b2 * (cy - ay) + c2 * (ay - by)) / d
    uy = (a2 * (cx - bx) + b2 * (ax - cx) + c2 * (bx - ax)) / d
    center = Point2(ux * s, uy * s)
    return center, dist(center, t.vA)


def altitudes(t: Triangle):
    """Feet and lengths of the three altitudes, in vertex order (A, B, C):
    each vertex's own foot in its pedal_triangle, and t.heights."""
    return tuple((pedal_triangle(v, t)[i], h)
                 for i, (v, h) in enumerate(zip(t.vertices, t.heights)))


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


def ratio_residual(circle: ApollonianCircle, p: Point2) -> float:
    """Relative deviation of d(p, base1)/d(p, base2) from circle's ratio."""
    d1, d2 = dist(p, circle.base1), dist(p, circle.base2)
    return abs(d1 - circle.ratio * d2) / max(d1, circle.ratio * d2, 1e-300)


def _dist_to_line(p: Point2, q1: Point2, q2: Point2) -> float:
    d = (q2 - q1).unit()
    return abs(d.cross(p - q1))


def cevian_ratio(t: Triangle, w: Weights, tt: TildeTriangle,
                 agreement_tol: float = 1e-9) -> Tuple[float, float, float]:
    """Directed foot ratios of the three cevians, by closed form.

    Each closed-form value (e.g. lam_B b^2 sin(gamma+gamma~) /
    (lam_C c^2 sin(beta+beta~)) for the cevian from A) is checked against
    the geometric ratio measured at the actual cevian foot; their product
    telescopes to exactly 1.
    """
    if not tt.exists:
        raise GeometryError("scaled side triple fails the triangle inequality")
    sA, sB, sC = (math.sin(v + vt)
                  for v, vt in zip(angles(t), side_angles(*tilde_sides(t, w))))
    closed = (w.lam_B * t.b ** 2 * sC / (w.lam_C * t.c ** 2 * sB),
              w.lam_C * t.c ** 2 * sA / (w.lam_A * t.a ** 2 * sC),
              w.lam_A * t.a ** 2 * sB / (w.lam_B * t.b ** 2 * sA))
    a1, b1, c1 = erect_similar(t, tt)
    cev = ((t.vA, a1, t.vB, t.vC), (t.vB, b1, t.vC, t.vA), (t.vC, c1, t.vA, t.vB))
    for value, (v, apex, e1, e2) in zip(closed, cev):
        foot = intersect_lines(v, apex, e1, e2)
        if foot is None:
            continue
        geom = dist(e2, foot) / dist(e1, foot)
        assert abs(geom - abs(value)) <= agreement_tol * max(geom, abs(value)), (
            f"closed-form cevian ratio {value:g} disagrees with measured {geom:g}")
    return closed


def eta_concurrency_test(it: InscribedTriangle, t: Triangle,
                         tol: float = 1e-9):
    """Sine-ratio concurrency test for the side-normals at the feet.

    eta_a is the ratio of the sines the two chords at the foot on side a
    make with that side's normal (chord toward the next-letter foot on
    top).  The normals are concurrent iff the product of the three etas is
    1; the product test and a direct three-line intersection test are both
    run and must agree for a True verdict.
    """
    normals = ((t.vC - t.vB).unit().perp(),
               (t.vA - t.vC).unit().perp(),
               (t.vB - t.vA).unit().perp())
    feet = it.points
    nxt = (it.pB, it.pC, it.pA)   # chord to the next letter
    prv = (it.pC, it.pA, it.pB)   # chord to the previous letter
    etas = []
    for n, foot, to_next, to_prev in zip(normals, feet, nxt, prv):
        s1 = _sin_against(n, to_next - foot)
        s2 = _sin_against(n, to_prev - foot)
        etas.append(s1 / s2)
    product = etas[0] * etas[1] * etas[2]
    q = intersect_lines(feet[0], feet[0] + normals[0],
                        feet[1], feet[1] + normals[1])
    direct = (q is not None and
              _dist_to_line(q, feet[2], feet[2] + normals[2]) <= tol * t.diameter)
    concurrent = abs(product - 1.0) < tol and direct
    return tuple(etas), concurrent


def _sin_against(n: Point2, v: Point2) -> float:
    return abs(n.cross(v)) / v.norm()


def degenerate_minimizer(t: Triangle, w: Weights) -> SnellOrbitResult:
    """Doubled-altitude fallback when no interior orbit point exists.

    The degenerate inscribed triangle for the altitude from A has one
    vertex at the foot and the other two collapsed onto A itself, costing
    (lam_B + lam_C) times the altitude length; candidates from B and C are
    cyclic.  The weighted argmin is returned; both the weighted ranking and
    the plain shortest-altitude ranking are reported since they may differ
    for lopsided weights.

    The candidates are priced on the side lines.  In an obtuse triangle
    two altitude feet fall outside their segments; if the weights favour
    one of those vertices, no inscribed triangle can reach the returned
    cost, and the true segment-constrained minimizer is a non-flat path
    through a vertex (compare with the cost of optimize.minimize_inscribed,
    which always respects the segments).
    """
    return _degenerate_result(t, w, STATUS_DEGENERATE)


def _conway_triple(a: float, b: float, c: float):
    """Halved Conway symbols S_a = (b^2 + c^2 - a^2) / 2 and cyclic."""
    return (0.5 * (b * b + c * c - a * a), 0.5 * (c * c + a * a - b * b),
            0.5 * (a * a + b * b - c * c))


def _linear_forms(Sa, Sb, Sc, a, b, c, X2, Y2, Z2):
    """Slopes and intercepts of the barycentrics as affine functions of t.

    A point at distances s*(X, Y, Z) from the vertices has barycentrics
    rho_a = (S_c Y^2 + S_b Z^2 - a^2 X^2) t + a^2 S_a (and cyclic) with
    t = s^2; they sum to 8 [ABC]^2.
    """
    a1 = Sc * Y2 + Sb * Z2 - a * a * X2
    b1 = Sa * Z2 + Sc * X2 - b * b * Y2
    g1 = Sb * X2 + Sa * Y2 - c * c * Z2
    return (a1, a * a * Sa), (b1, b * b * Sb), (g1, c * c * Sc)


def biquadratic_coefficients(t: Triangle, X: float, Y: float, Z: float):
    """Coefficients (A2, A1, A0) of a quadratic A2 t^2 + A1 t + A0 in t = s^2
    whose roots are the squared scales of the realizing points.

    Built independently of the closed form: substitute the affine point
    parametrization of _linear_forms into the distance-ratio locus
    d(B,P)/d(C,P) = Y/Z written in barycentric coordinates.  When the Z
    slot vanishes the roles are rotated cyclically so the ratio k stays
    finite; the roots do not depend on the rotation.
    """
    sides = [t.a, t.b, t.c]
    triple = [X, Y, Z]
    # Rotate so the denominator coordinate (third slot) is the largest.
    rot = max(range(3), key=lambda r: triple[(2 + r) % 3])
    a, b, c = (sides[(0 + rot) % 3], sides[(1 + rot) % 3], sides[(2 + rot) % 3])
    X_, Y_, Z_ = (triple[(0 + rot) % 3], triple[(1 + rot) % 3], triple[(2 + rot) % 3])
    Sa, Sb, Sc = _conway_triple(a, b, c)
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


def river_frame(r):
    """Decimal line frame of a river instance, its floats taken exactly:
    (q1x, q1y, ex, ey, u_A, h_A, u_B, h_B), e the unit direction of the
    line, u the foot parameters along it and h the heights above it."""
    D = decimal.Decimal
    (q1x, q1y), (q2x, q2y) = ([D(c) for c in q] for q in r.line)
    n = ((q2x - q1x) ** 2 + (q2y - q1y) ** 2).sqrt()
    ex, ey = (q2x - q1x) / n, (q2y - q1y) / n

    def project(p):
        dx, dy = D(p[0]) - q1x, D(p[1]) - q1y
        return dx * ex + dy * ey, abs(dx * ey - dy * ex)

    return (q1x, q1y, ex, ey) + project(r.a_pt) + project(r.b_pt)


def river_reference(r):
    """Minimizer (x, y) and cost of a river instance to 50 digits.

    200 halvings of the bracket between the two feet on the sign of the
    exact derivative, at 60 significant digits; the bracket is at most
    a few times the instance's size, so it ends far below 1e-50 of it.
    """
    D = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        q1x, q1y, ex, ey, ua, ha, ub, hb = river_frame(r)
        l1, l2 = D(r.lam1), D(r.lam2)

        def legs(u):
            return (((u - ua) ** 2 + ha * ha).sqrt(),
                    ((u - ub) ** 2 + hb * hb).sqrt())

        lo, hi = min(ua, ub), max(ua, ub)
        for _ in range(200):
            mid = (lo + hi) / 2
            ra, rb = legs(mid)
            if l1 * (mid - ua) / ra + l2 * (mid - ub) / rb < 0:
                lo = mid
            else:
                hi = mid
        u = (lo + hi) / 2
        ra, rb = legs(u)
        return q1x + u * ex, q1y + u * ey, l1 * ra + l2 * rb


def first_wall_exact(t: Triangle, p0: Point2, d: Point2, side: str):
    """(inside, wall, v): whether the float point p0 lies in the closed
    triangle t, and the first side other than `side` that the ray p0 + u d,
    u > 0, meets at a parameter v in [0, 1], with that v, every float taken
    as an exact rational; wall is None when the ray meets neither."""
    F = Fraction
    px, py, dx, dy = F(p0[0]), F(p0[1]), F(d[0]), F(d[1])
    inside, best = True, None
    for label in "abc":
        (ax, ay), (bx, by) = ((F(x), F(y))
                              for x, y in t.side_segment(label))
        ex, ey, rx, ry = bx - ax, by - ay, ax - px, ay - py
        if ey * rx - ex * ry < 0:
            inside = False
        den = dx * ey - dy * ex
        if label == side or den == 0:
            continue
        u, v = (rx * ey - ry * ex) / den, (rx * dy - ry * dx) / den
        if u > 0 and 0 <= v <= 1 and (best is None or u < best[0]):
            best = (u, label, v)
    return (inside,) + (best[1:] if best else (None, None))


def exact_verdict(t: Triangle, w: Weights):
    """(status, conditions) of snell_fagnano_point, decided on the floats
    of t's vertices and w taken as exact rationals.

    With x = lam_A^2 |BC|^2 and cyclically, the tilde triangle exists when
    2(xy + yz + zx) - x^2 - y^2 - z^2 > 0, sixteen times its squared area.
    The squared gap at A is |lam_B (C - A) + lam_C (B - A)|^2 - x: with
    the tilde sides (p, q, r) it is q^2 + r^2 - p^2 + 2 q r cos A =
    2 q r (cos A~ + cos A), whose sign is that of pi - (A + A~), and
    cyclically.  conditions is None where the tilde triangle does not
    exist.
    """
    F = Fraction
    vs = [(F(v.x), F(v.y)) for v in t.vertices]
    lam = [F(v) for v in w]
    sq = [(vs[(i + 2) % 3][0] - vs[(i + 1) % 3][0]) ** 2
          + (vs[(i + 2) % 3][1] - vs[(i + 1) % 3][1]) ** 2 for i in range(3)]
    x, y, z = (lam[i] ** 2 * sq[i] for i in range(3))
    if 2 * (x * y + y * z + z * x) - x * x - y * y - z * z <= 0:
        return STATUS_NO_TILDE, None
    conds = []
    for i in range(3):
        (vx, vy), (ux, uy), (wx, wy) = vs[i], vs[(i + 1) % 3], vs[(i + 2) % 3]
        lu, lw = lam[(i + 1) % 3], lam[(i + 2) % 3]
        gx, gy = lu * (wx - vx) + lw * (ux - vx), lu * (wy - vy) + lw * (uy - vy)
        conds.append(gx * gx + gy * gy - lam[i] ** 2 * sq[i] > 0)
    return (STATUS_INTERIOR if all(conds) else STATUS_DEGENERATE), tuple(conds)


def side_apex(a: float, b: float, c: float):
    """A's x and height, as 60-digit decimals, where triangle_from_sides
    places the triangle with sides a, b, c (B at the origin, C at (a, 0)),
    from the floats taken as exact rationals: x = (a^2 + c^2 - b^2) / (2a)
    and the height 4 area / (2a), with sixteen times the squared area
    2(a^2 b^2 + b^2 c^2 + c^2 a^2) - a^4 - b^4 - c^4 taken exactly and as
    0 where the sides do not form a triangle."""
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    h16 = 2 * (a * a * b * b + b * b * c * c + c * c * a * a) \
        - (a ** 4 + b ** 4 + c ** 4)
    D = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        x, h16 = (a * a + c * c - b * b) / (2 * a), max(h16, Fraction(0))
        return (D(x.numerator) / D(x.denominator),
                (D(h16.numerator) / D(h16.denominator)).sqrt()
                / D(2 * a.numerator) * D(a.denominator))


def vertex_area(p, q, r) -> Fraction:
    """The exact area of the triangle of these floats' vertices."""
    (px, py), (qx, qy), (rx, ry) = [map(Fraction, v) for v in (p, q, r)]
    return abs((qx - px) * (ry - py) - (qy - py) * (rx - px)) / 2


def side_area(a: float, b: float, c: float) -> float:
    """The area of the triangle with sides a, b, c, a times side_apex's
    height over 2, rounded once; 0 where they do not form a triangle."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        return float(side_apex(a, b, c)[1] * decimal.Decimal(a) / 2)


def ceva_reference(t: Triangle, w: Weights):
    """The orbit point's Ceva barycentrics, normalized, and the (x, y) of
    its isogonal conjugate (s_A/lam_A : s_B/lam_B : s_C/lam_C), to 50
    digits from the floats of t's vertices and w, at 60 significant digits.

    sin and cos of V + V~ follow from the sides by square roots alone: the
    law of cosines gives cos V and twice the exact signed area gives
    sin V = 2 [ABC] / (b c), and cyclic; Heron's formula does the same for
    the tilde triangle of sides (lam_A a, lam_B b, lam_C c).
    """
    D = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        (xa, ya), (xb, yb), (xc, yc) = ([D(c) for c in v] for v in t.vertices)
        a2 = (xb - xc) ** 2 + (yb - yc) ** 2
        b2 = (xc - xa) ** 2 + (yc - ya) ** 2
        c2 = (xa - xb) ** 2 + (ya - yb) ** 2
        area2 = abs((xb - xa) * (yc - ya) - (yb - ya) * (xc - xa))
        lam = [D(v) for v in w]
        p, q, r = lam[0] * a2.sqrt(), lam[1] * b2.sqrt(), lam[2] * c2.sqrt()
        tilde4 = ((p + q + r) * (q + r - p) * (r + p - q) * (p + q - r)).sqrt()
        sines = []
        for (u2, v2, w2), (tu, tv, tw) in (((a2, b2, c2), (p, q, r)),
                                           ((b2, c2, a2), (q, r, p)),
                                           ((c2, a2, b2), (r, p, q))):
            vw = (v2 * w2).sqrt()
            cos_v, sin_v = (v2 + w2 - u2) / (2 * vw), area2 / vw
            cos_t = (tv * tv + tw * tw - tu * tu) / (2 * tv * tw)
            sin_t = tilde4 / (2 * tv * tw)
            sines.append(sin_v * cos_t + cos_v * sin_t)
        sa, sb, sc = sines
        ceva = (lam[0] * a2 * sb * sc, lam[1] * b2 * sc * sa,
                lam[2] * c2 * sa * sb)
        conj = (sa / lam[0], sb / lam[1], sc / lam[2])
        ceva = [v / sum(ceva) for v in ceva]
        conj = [v / sum(conj) for v in conj]
        xy = (conj[0] * xa + conj[1] * xb + conj[2] * xc,
              conj[0] * ya + conj[1] * yb + conj[2] * yc)
        return ceva, xy


def _reference_emit(value: Any, parts: list, indent: str, level: int) -> None:
    pad = indent * (level + 1)
    close_pad = indent * level
    nl = "\n" if indent else ""
    sep = "," + nl
    colon = ": " if indent else ":"
    if value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, str):
        parts.append(_escape(value))
    elif isinstance(value, int):
        parts.append(str(value))
    elif isinstance(value, float):
        parts.append(format_float(value))
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        parts.append("{" + nl)
        for i, (k, v) in enumerate(value.items()):
            if not isinstance(k, str):
                raise TypeError("non-string key: %r" % (k,))
            if i:
                parts.append(sep)
            parts.append(pad + _escape(k) + colon)
            _reference_emit(v, parts, indent, level + 1)
        parts.append(nl + close_pad + "}")
    elif isinstance(value, (list, tuple)):
        seq = list(value)
        if not seq:
            parts.append("[]")
            return
        parts.append("[" + nl)
        for i, v in enumerate(seq):
            if i:
                parts.append(sep)
            parts.append(pad)
            _reference_emit(v, parts, indent, level + 1)
        parts.append(nl + close_pad + "]")
    else:
        raise TypeError("cannot serialize %r" % type(value))


def reference_dumps(doc: Any, indent: int = 2) -> str:
    """serialize.dumps as it was: one append per token into a part list."""
    parts: list = []
    _reference_emit(doc, parts, " " * indent if indent else "", 0)
    return "".join(parts) + ("\n" if indent else "")
