"""Refractive billiard map in a triangle and the one-wall crossing problem.

The reflection law generalizes the mirror law: at a wall with coefficient
kappa the sine of the departure angle is sin(incidence)/kappa, both angles
measured from the inward normal, with the outgoing ray leaving on the other
side of the normal (as a mirror ray would).  kappa = 1 is the classical
billiard.  A closed 3-bounce orbit exists when the construction module
produces an interior point whose pedal feet all land strictly inside the
sides (orbit_in_sides on its result), and the orbit is that pedal triangle
traversed foot-on-a -> foot-on-c -> foot-on-b.  A position on the wall is
a side and a parameter, made a point by geometry.point_on_side.  A flight
leaves by the wall that one orientation test names (`billiard_step`).

The one-wall crossing (`solve_river`) minimizes a weighted sum of two
distances along a line by safeguarded Newton on the exact derivative in
the line's own frame, and reports that derivative as its Snell residual.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import exact
from .geometry import (GeometryError, InscribedTriangle, Point2, Triangle,
                       dist, point_on_side)

# Hitting this close (in side parameter) to an endpoint counts as a vertex hit.
VERTEX_EPS = 1e-10


class TotalInternalReflection(GeometryError):
    """sin(incidence)/kappa exceeds 1: no outgoing direction exists."""


class HitVertex(GeometryError):
    """The ray ran into a corner, where the reflection law is undefined."""


class BilliardState(namedtuple("BilliardState", "side param direction")):
    """Position on the boundary plus the direction of the next flight.

    side is "a", "b" or "c"; param is the float affine coordinate along the
    side taken in boundary orientation (a: B->C, b: C->A, c: A->B);
    direction is a unit Point2 pointing into the interior.
    """

    __slots__ = ()


def inward_normal(t: Triangle, side: str) -> Point2:
    """Unit normal of a side pointing into the (counterclockwise) triangle."""
    q1, q2 = t.side_segment(side)
    return (q2 - q1).unit().perp()


def snell_reflect(incoming: Point2, normal: Point2, kappa: float) -> Point2:
    """Bend the reflected ray so sin(in)/sin(out) equals kappa.

    incoming must arrive at the wall (negative component along the inward
    normal); the result is a unit vector on the interior side.
    """
    if not kappa > 0.0:
        raise GeometryError("refraction coefficient must be positive")
    n = Point2(*normal).unit()
    d = Point2(*incoming).unit()
    d_n = d.dot(n)
    if d_n >= 0.0:
        raise GeometryError("incoming direction does not arrive at the wall")
    tang = n.perp()
    d_t = d.dot(tang)
    sin_out = abs(d_t) / kappa
    if sin_out > 1.0:
        raise TotalInternalReflection(
            f"required departure sine {sin_out:g} exceeds 1")
    cos_out = math.sqrt(max(0.0, 1.0 - sin_out * sin_out))
    return Point2(cos_out * n.x + math.copysign(sin_out, d_t) * tang.x,
                  cos_out * n.y + math.copysign(sin_out, d_t) * tang.y)


def billiard_step(s: BilliardState, t: Triangle, k) -> BilliardState:
    """Fly to the next wall and apply the reflection law there, with the
    coefficient triple k in side order (a, b, c).  From p0 on the side
    (q1, q2) opposite V, a d with (q2 - q1) x d < 0 or NaN points out
    (GeometryError); else the ray leaves through the side (w1, w2) that
    ends at V if (V - p0) x d < 0 and starts there if not, at parameter
    (w1 - p0) x d / (d x (w2 - w1)).  A tangent start, a parallel wall or
    a parameter within VERTEX_EPS of an end is HitVertex."""
    p0 = point_on_side(t, s.side, s.param)
    d = s.direction
    i = "abc".index(s.side)
    (q1, q2), apex = t.side_segment(s.side), t.vertices[i]
    turn = (q2 - q1).cross(d)
    if not turn >= 0.0:
        raise GeometryError("ray escaped the triangle (not an inward direction?)")
    j, w1, w2 = ((i - 2, q2, apex) if (apex - p0).cross(d) < 0.0
                 else (i - 1, apex, q1))
    den = d.cross(w2 - w1)
    # A tangent start or a parallel wall meets the wall at an end.
    v = (w1 - p0).cross(d) / den if turn and den else 0.0
    side = "abc"[j]
    if not VERTEX_EPS <= v <= 1.0 - VERTEX_EPS:
        raise HitVertex(f"trajectory hit an endpoint of side {side}")
    out = snell_reflect(d, inward_normal(t, side), k[j])
    return BilliardState(side, v, out)


def closure(start: BilliardState, end: BilliardState,
            tol: float) -> tuple[bool, float, float, bool]:
    """How far end is from start: (side_match, param_error, direction_error,
    periodic), periodic when the sides match and both errors are below tol."""
    side_match = end.side == start.side
    param_error = abs(end.param - start.param)
    direction_error = dist(end.direction, start.direction)
    return (side_match, param_error, direction_error,
            side_match and param_error < tol and direction_error < tol)


def orbit_start_state(it: InscribedTriangle) -> BilliardState:
    """Launch state of a closed inscribed orbit: foot on side a toward the
    foot on side c."""
    return BilliardState("a", it.tA, (it.pC - it.pA).unit())


def _river_frame(a_pt, b_pt, line):
    """(q1, e, u_A, h_A, u_B, h_B): the line's first point and unit
    direction, and for A and B the foot's parameter along e and the
    height above the line."""
    q1 = Point2(*line[0])
    e = (Point2(*line[1]) - q1).unit()
    a, b = Point2(*a_pt) - q1, Point2(*b_pt) - q1
    return q1, e, a.dot(e), abs(e.cross(a)), b.dot(e), abs(e.cross(b))


class RiverInstance(namedtuple("RiverInstance", "a_pt b_pt line lam1 lam2")):
    """Two points on the same strict side of a line, with leg weights.
    The line's length, the cost bound (lam1 + lam2)(|u_A - u_B| + h_A + h_B)
    and the two feet, between which the crossing lies, must be finite."""

    __slots__ = ()

    def __new__(cls, a_pt: Point2, b_pt: Point2, line: tuple[Point2, Point2],
                lam1: float, lam2: float):
        if not (lam1 > 0.0 and lam2 > 0.0):
            raise GeometryError("leg weights must be positive")
        if not all(map(math.isfinite, (*a_pt, *b_pt, *line[0], *line[1]))):
            raise GeometryError("points must be finite")
        if exact.cross(*line, a_pt)[1] * exact.cross(*line, b_pt)[1] <= 0:
            raise GeometryError("both points must lie strictly on one "
                                "side of the line")
        q1, e, ua, ha, ub, hb = _river_frame(a_pt, b_pt, line)
        if not all(map(math.isfinite, (
                dist(*line), (lam1 + lam2) * (abs(ua - ub) + ha + hb),
                *(q1 + ua * e), *(q1 + ub * e)))):
            raise GeometryError("the crossing's cost or coordinates overflow")
        return super().__new__(cls, a_pt, b_pt, line, lam1, lam2)


def solve_river(r: RiverInstance) -> tuple[Point2, float, float]:
    """Minimize lam1*d(A,X) + lam2*d(B,X) over X = q1 + u*e on the line.

    In the frame of `_river_frame`, with r_A, r_B the leg lengths at u,
    the objective f has f' = lam1 (u - u_A)/r_A + lam2 (u - u_B)/r_B and
    f'' = lam1 h_A^2/r_A^3 + lam2 h_B^2/r_B^3 > 0, so its minimizer lies
    between the two feet.  Safeguarded Newton (rtsafe in Press et al.,
    Numerical Recipes) starts at the equal-weight mirror point, or at the
    midpoint where that is not strictly inside, and keeps that bracket on
    the sign of f'.  A Newton step that would not land strictly inside
    becomes a bisection, so no iterate has a leg of length 0.  It stops
    on f' = 0, on a step below one ulp, or when the bracket ends are
    adjacent floats, after at most 120 steps, and where rounding leaves f'
    one-signed over the bracket, it ends where f is least.  Returns the
    point, the cost and the Snell residual |f'(u)|/max(lam1, lam2), that
    is |lam1 sin A - lam2 sin B|/max(lam1, lam2), which need not vanish at
    the kink where a point rounds onto the line.
    """
    q1, e, ua, ha, ub, hb = _river_frame(r.a_pt, r.b_pt, r.line)
    lam1, lam2 = r.lam1, r.lam2
    lo, hi = min(ua, ub), max(ua, ub)
    # Heights that are, or round to, 0 put the mirror point on a foot.
    u = ua + (ub - ua) * (ha / (ha + hb)) if ha + hb > 0.0 else lo
    if not lo < u < hi:
        u = 0.5 * lo + 0.5 * hi  # halved first: lo + hi can overflow
    # The 121st pass only evaluates f' at the last step.
    for i in range(121):
        da, db = u - ua, u - ub
        ra, rb = math.hypot(da, ha), math.hypot(db, hb)
        # A leg of length 0 (at equal feet, or at the foot of a point that
        # rounds onto the line) adds 0, a value of its subgradient.
        slope = lam1 * da / (ra or 1.0) + lam2 * db / (rb or 1.0)
        # Equal or adjacent feet leave no float strictly inside.
        if slope == 0.0 or i == 120 or not lo < u < hi:
            break
        if slope < 0.0:
            lo = u
        else:
            hi = u
        ca, cb = ha / ra, hb / rb
        # Written with the cosines h/r so that no cube over- or underflows.
        curvature = lam1 * ca * ca / ra + lam2 * cb * cb / rb
        step = slope / curvature if curvature > 0.0 else math.inf
        if abs(step) < math.ulp(u):
            break
        nxt = u - step
        if not lo < nxt < hi:
            nxt = 0.5 * lo + 0.5 * hi
            if not lo < nxt < hi:
                break
        u = nxt
    x = q1 + u * e
    return (x, lam1 * dist(r.a_pt, x) + lam2 * dist(r.b_pt, x),
            abs(slope) / max(lam1, lam2))
