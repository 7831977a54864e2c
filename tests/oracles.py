"""Checks that serve only the test suite: independent characterizations
of the orbit point and of the tripolar inversion.

Each recomputes a quantity the package computes one way, by another route
(cevian foot ratios, the sine-ratio concurrency of the side normals, and
the biquadratic in the squared scale of a tripolar triple), so that the
tests can compare the two.  degenerate_minimizer runs the construction's
doubled-altitude fallback on its own.
"""

from __future__ import annotations

import math
from typing import Tuple

from snellfagnano.apollonius import TildeTriangle
from snellfagnano.construction import (STATUS_DEGENERATE, SnellOrbitResult,
                                       TildeDegenerate, Weights,
                                       _degenerate_result, erect_similar)
from snellfagnano.geometry import (InscribedTriangle, Point2, Triangle, dist,
                                   intersect_lines)


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
        raise TildeDegenerate("scaled side triple fails the triangle inequality")
    at, bt, gt = tt.angles
    sA = math.sin(t.alpha + at)
    sB = math.sin(t.beta + bt)
    sC = math.sin(t.gamma + gt)
    lam = w.triple
    closed = (lam[1] * t.b ** 2 * sC / (lam[2] * t.c ** 2 * sB),
              lam[2] * t.c ** 2 * sA / (lam[0] * t.a ** 2 * sC),
              lam[0] * t.a ** 2 * sB / (lam[1] * t.b ** 2 * sA))
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
