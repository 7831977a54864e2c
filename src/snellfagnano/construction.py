"""Erected similar triangles, their concurrent cevians, and the orbit point.

Given positive weights (lam_A, lam_B, lam_C), erect on each side of the
reference triangle, outward, a triangle similar to the scaled "tilde"
triangle of side lengths (lam_A*a, lam_B*b, lam_C*c).  The three cevians
joining each vertex to the opposite apex are concurrent.  By Ceva's theorem
their meeting point has barycentrics

    (lam_A a^2 s_B s_C : lam_B b^2 s_C s_A : lam_C c^2 s_A s_B),

s_V = sin(V + V~) for the reference angle V and the tilde angle V~ at the
same vertex; the construction computes the point from them.  When every
V + V~ < pi the point lies strictly inside, and when its perpendicular feet
also land strictly inside the sides, its pedal triangle is the closed
3-bounce refractive billiard orbit and the minimizer of the weighted
chord-length sum.  When an angle condition fails the minimizer collapses
onto a doubled altitude.

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
from typing import Dict, NamedTuple, Optional, Tuple

from . import coordinates
from .apollonius import TildeTriangle, tilde_triangle
from .geometry import (GeometryError, InscribedTriangle, Point2, Triangle,
                       altitudes, inscribed_from_params, line_parameter,
                       pedal_triangle, rotate)

STATUS_INTERIOR = "interior"
STATUS_DEGENERATE = "degenerate"
STATUS_NO_TILDE = "no_tilde_triangle"

# Strictness margin for the angle-sum interior tests.
EPS_ANGLE = 1e-10


class TildeDegenerate(GeometryError):
    """The scaled side triple does not form a triangle."""


class Weights(namedtuple("Weights", "lam_A lam_B lam_C")):
    """Stiffness triple: lam_A weights the chord opposite vertex A."""

    __slots__ = ()

    def __new__(cls, lam_A: float, lam_B: float, lam_C: float):
        if min(lam_A, lam_B, lam_C) <= 0.0:
            raise ValueError("weights must be strictly positive")
        # Every pairwise ratio (the refraction coefficients among them) must
        # be a normal float: none may overflow or go subnormal.
        ratio = min(lam_A, lam_B, lam_C) / max(lam_A, lam_B, lam_C)
        if ratio < sys.float_info.min:
            raise ValueError("smallest / largest weight is %.17g, below %.17g"
                             % (ratio, sys.float_info.min))
        return super().__new__(cls, lam_A, lam_B, lam_C)

    @property
    def triple(self):
        return (self.lam_A, self.lam_B, self.lam_C)

    def perimeter(self, it: InscribedTriangle) -> float:
        """lam_A |pB pC| + lam_B |pC pA| + lam_C |pA pB|."""
        d1, d2, d3 = it.chord_lengths()
        return self.lam_A * d1 + self.lam_B * d2 + self.lam_C * d3


class RefractionCoeffs(namedtuple("RefractionCoeffs", "kap_a kap_b kap_c")):
    """Per-side sine ratios; their product is 1 by construction."""

    __slots__ = ()

    def __new__(cls, kap_a: float, kap_b: float, kap_c: float):
        if min(kap_a, kap_b, kap_c) <= 0.0:
            raise ValueError("coefficients must be strictly positive")
        prod = kap_a * kap_b * kap_c
        if abs(prod - 1.0) > 1e-9:
            raise ValueError(f"coefficient product must be 1, got {prod!r}")
        return super().__new__(cls, kap_a, kap_b, kap_c)

    @property
    def triple(self):
        return (self.kap_a, self.kap_b, self.kap_c)


def coeffs_from_weights(w: Weights) -> RefractionCoeffs:
    """kap_a = lam_B/lam_C, kap_b = lam_C/lam_A, kap_c = lam_A/lam_B."""
    return RefractionCoeffs(w.lam_B / w.lam_C,
                            w.lam_C / w.lam_A,
                            w.lam_A / w.lam_B)


class SnellOrbitResult(NamedTuple):
    """Outcome of the orbit construction for one (triangle, weights) pair.

    status is "interior" (point valid), "degenerate" (minimizer collapses
    onto a doubled altitude) or "no_tilde_triangle" (the scaled side triple
    does not close up; also degenerate).  The doubled-altitude fallback
    fills orbit/weighted_perimeter in the last two cases, with both the
    weighted and the plain altitude ranking reported in degenerate_info.
    point is None for no_tilde_triangle, and for degenerate when the
    barycentric sum vanishes (a point at infinity).

    orbit_in_sides qualifies the interior case: True when every pedal foot
    lies strictly inside its side, so the orbit is a genuine closed billiard
    path.  False means the point is interior but one foot projects beyond a
    side endpoint (possible only for obtuse triangles); weighted_perimeter
    then prices chords to the side *lines* and undercuts the constrained
    minimum, which optimize.minimize_inscribed finds.
    """

    status: str
    weighted_perimeter: float
    point: Optional[Point2] = None
    orbit: Optional[InscribedTriangle] = None
    erected: Optional[Tuple[Point2, Point2, Point2]] = None
    conditions: Optional[Tuple[bool, bool, bool]] = None
    orbit_in_sides: Optional[bool] = None
    degenerate_info: Optional[Dict[str, object]] = None


def weighted_perimeter(it: InscribedTriangle, w: Weights) -> float:
    """The minimizer's objective, w.perimeter(it).

    The construction prices its orbit through the method, so that a count
    of calls to this function counts the minimizer's evaluations alone.
    """
    return w.perimeter(it)


def erect_similar(t: Triangle, tt: TildeTriangle) -> Tuple[Point2, Point2, Point2]:
    """Apex points of the outward erected triangles, one per side.

    On side a the erected triangle has the second tilde angle at B and the
    third at C, so the apex A1 carries the first; with (p, q, r) the tilde
    sides, the law of sines gives d(B, A1) = a * r / p = c * lam_C / lam_A,
    and cyclically.  Outward placement uses clockwise rotation of the side
    direction, valid because the reference triangle is counterclockwise.
    """
    if not tt.exists:
        raise TildeDegenerate("scaled side triple fails the triangle inequality")
    at, bt, gt = tt.angles
    p, q, r = tt.sides
    uA = (t.vC - t.vB) * (1.0 / t.a)
    uB = (t.vA - t.vC) * (1.0 / t.b)
    uC = (t.vB - t.vA) * (1.0 / t.c)
    a1 = t.vB + (t.a * r / p) * rotate(uA, -bt)
    b1 = t.vC + (t.b * p / q) * rotate(uB, -gt)
    c1 = t.vA + (t.c * q / r) * rotate(uC, -at)
    return a1, b1, c1


def interior_conditions(t: Triangle, tt: TildeTriangle,
                        eps_angle: float = EPS_ANGLE) -> Tuple[bool, bool, bool]:
    """Strict tests angle + tilde-angle < pi, one per vertex."""
    if not tt.exists:
        raise TildeDegenerate("scaled side triple fails the triangle inequality")
    at, bt, gt = tt.angles
    return (t.alpha + at < math.pi - eps_angle,
            t.beta + bt < math.pi - eps_angle,
            t.gamma + gt < math.pi - eps_angle)


def snell_fagnano_point(t: Triangle, w: Weights) -> SnellOrbitResult:
    """Construct the orbit point, or the degenerate fallback.

    The point comes from its closed-form barycentrics; it is interior
    exactly when all three interior_conditions hold, and then every
    barycentric is positive.
    """
    tt = tilde_triangle(t, w)
    if not tt.exists:
        return _degenerate_result(t, w, STATUS_NO_TILDE)

    at, bt, gt = tt.angles
    sA = math.sin(t.alpha + at)
    sB = math.sin(t.beta + bt)
    sC = math.sin(t.gamma + gt)
    top = max(w.triple)
    bary = (w.lam_A / top * t.a ** 2 * sB * sC,
            w.lam_B / top * t.b ** 2 * sC * sA,
            w.lam_C / top * t.c ** 2 * sA * sB)
    try:
        f = coordinates.from_barycentric(bary, t)
    except coordinates.IdealPoint:
        f = None
    erected = erect_similar(t, tt)
    conds = interior_conditions(t, tt)
    if all(conds):
        orbit = pedal_triangle(f, t)
        in_sides = all(0.0 < p < 1.0 for p in (orbit.tA, orbit.tB, orbit.tC))
        return SnellOrbitResult(status=STATUS_INTERIOR,
                                weighted_perimeter=w.perimeter(orbit),
                                point=f, orbit=orbit, erected=erected,
                                conditions=conds, orbit_in_sides=in_sides)
    return _degenerate_result(t, w, STATUS_DEGENERATE, point=f,
                              erected=erected, conditions=conds)


def _sin_at(v: Point2, p: Point2, q: Point2) -> float:
    """Sine of the (unsigned) angle at v between rays v->p and v->q."""
    u1 = p - v
    u2 = q - v
    return abs(u1.cross(u2)) / (u1.norm() * u2.norm())


def verify_snell_point(f: Point2, t: Triangle,
                       k: RefractionCoeffs) -> Tuple[float, float, float]:
    """Residuals of the three sine-ratio characterizations of the point.

    For the true orbit point: sin(FCA)/sin(FBA) = kap_a, sin(FAB)/sin(FCB)
    = kap_b and sin(FBC)/sin(FAC) = kap_c, all residuals vanishing.
    """
    f = Point2(*f)
    tl = coordinates.barycentric_to_trilinear(coordinates.to_barycentric(f, t), t)
    if min(abs(tl[0]), abs(tl[1]), abs(tl[2])) < 1e-12 * max(map(abs, tl)):
        raise coordinates.OnSideLine("sine ratios are undefined on the side lines")
    r_a = _sin_at(t.vC, f, t.vA) / _sin_at(t.vB, f, t.vA)
    r_b = _sin_at(t.vA, f, t.vB) / _sin_at(t.vC, f, t.vB)
    r_c = _sin_at(t.vB, f, t.vC) / _sin_at(t.vA, f, t.vC)
    return (abs(r_a - k.kap_a), abs(r_b - k.kap_b), abs(r_c - k.kap_c))


def _degenerate_result(t: Triangle, w: Weights, status: str,
                       point: Optional[Point2] = None,
                       erected=None, conditions=None) -> SnellOrbitResult:
    (fA, hA), (fB, hB), (fC, hC) = altitudes(t)
    cands = {
        "A": (inscribed_from_params(t, line_parameter(fA, t.vB, t.vC), 1.0, 0.0),
              (w.lam_B + w.lam_C) * hA),
        "B": (inscribed_from_params(t, 0.0, line_parameter(fB, t.vC, t.vA), 1.0),
              (w.lam_C + w.lam_A) * hB),
        "C": (inscribed_from_params(t, 1.0, 0.0, line_parameter(fC, t.vA, t.vB)),
              (w.lam_A + w.lam_B) * hC),
    }
    heights = {"A": hA, "B": hB, "C": hC}
    best = min(cands, key=lambda v: cands[v][1])
    orbit, cost = cands[best]
    info: Dict[str, object] = {
        "weighted_costs": {v: cands[v][1] for v in "ABC"},
        "altitude_lengths": heights,
        "weighted_argmin": best,
        "shortest_altitude": min(heights, key=heights.get),
    }
    return SnellOrbitResult(status=status, weighted_perimeter=cost,
                            point=point, orbit=orbit, erected=erected,
                            conditions=conditions, degenerate_info=info)
