"""Refractive billiard map in a triangle and the one-wall crossing problem.

The reflection law generalizes the mirror law: at a wall with coefficient
kappa the sine of the departure angle is sin(incidence)/kappa, both angles
measured from the inward normal, with the outgoing ray leaving on the other
side of the normal (as a mirror ray would).  kappa = 1 is the classical
billiard.  A closed 3-bounce orbit exists when the construction module
produces an interior point whose pedal feet all land strictly inside the
sides (orbit_in_sides on its result), and the orbit is that pedal triangle
traversed foot-on-a -> foot-on-c -> foot-on-b.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import NamedTuple, Tuple

from .geometry import (GeometryError, InscribedTriangle, Point2, Triangle,
                       dist, line_parameter)

# Hitting this close (in side parameter) to an endpoint counts as a vertex hit.
VERTEX_EPS = 1e-10


class TotalInternalReflection(GeometryError):
    """sin(incidence)/kappa exceeds 1: no outgoing direction exists."""


class HitVertex(GeometryError):
    """The ray ran into a corner, where the reflection law is undefined."""


class BilliardState(NamedTuple):
    """Position on the boundary plus the direction of the next flight.

    side is "a", "b" or "c"; param is the affine coordinate along the side
    taken in boundary orientation (a: B->C, b: C->A, c: A->B); direction is
    a unit vector pointing into the interior.
    """

    side: str
    param: float
    direction: Point2


def inward_normal(t: Triangle, side: str) -> Point2:
    """Unit normal of a side pointing into the (counterclockwise) triangle."""
    q1, q2 = t.side_segment(side)
    return (q2 - q1).unit().perp()


def point_on_side(t: Triangle, side: str, param: float) -> Point2:
    q1, q2 = t.side_segment(side)
    return q1 + param * (q2 - q1)


def snell_reflect(incoming: Point2, normal: Point2, kappa: float) -> Point2:
    """Bend the reflected ray so sin(in)/sin(out) equals kappa.

    incoming must arrive at the wall (negative component along the inward
    normal); the result is a unit vector on the interior side.
    """
    if kappa <= 0.0:
        raise ValueError("refraction coefficient must be positive")
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


def _side_coefficient(k, side: str) -> float:
    return {"a": k.kap_a, "b": k.kap_b, "c": k.kap_c}[side]


def billiard_step(s: BilliardState, t: Triangle, k) -> BilliardState:
    """Fly to the next wall and apply the reflection law there."""
    p0 = point_on_side(t, s.side, s.param)
    d = s.direction
    best = None
    for side in "abc":
        if side == s.side:
            continue
        q1, q2 = t.side_segment(side)
        e = q2 - q1
        den = d.cross(e)
        if abs(den) <= 1e-15 * e.norm():
            continue
        u = (q1 - p0).cross(e) / den
        v = (q1 - p0).cross(d) / den
        if u <= 1e-12 * t.diameter:
            continue
        if v < -VERTEX_EPS or v > 1.0 + VERTEX_EPS:
            continue
        if best is None or u < best[0]:
            best = (u, side, v)
    if best is None:
        raise GeometryError("ray escaped the triangle (not an inward direction?)")
    _, side, v = best
    if v < VERTEX_EPS or v > 1.0 - VERTEX_EPS:
        raise HitVertex(f"trajectory hit an endpoint of side {side}")
    out = snell_reflect(d, inward_normal(t, side), _side_coefficient(k, side))
    return BilliardState(side, v, out)


def closure(start: BilliardState, end: BilliardState,
            tol: float) -> Tuple[bool, float, float, bool]:
    """How far end is from start: (side_match, param_error, direction_error,
    periodic), periodic when the sides match and both errors are below tol."""
    side_match = end.side == start.side
    param_error = abs(end.param - start.param)
    direction_error = dist(end.direction, start.direction)
    return (side_match, param_error, direction_error,
            side_match and param_error < tol and direction_error < tol)


def is_periodic(start: BilliardState, t: Triangle, k, n: int,
                tol: float) -> bool:
    """Whether n steps return to the starting side, parameter and direction."""
    if n < 1:
        raise ValueError("need at least one step")
    state = start
    for _ in range(n):
        state = billiard_step(state, t, k)
    return closure(start, state, tol)[3]


def orbit_start_state(t: Triangle, it: InscribedTriangle) -> BilliardState:
    """Launch state of a closed inscribed orbit: foot on side a toward the
    foot on side c."""
    return BilliardState("a", it.tA, (it.pC - it.pA).unit())


class RiverInstance(namedtuple("RiverInstance", "a_pt b_pt line lam1 lam2")):
    """Two points on the same strict side of a line, with leg weights."""

    __slots__ = ()

    def __new__(cls, a_pt: Point2, b_pt: Point2, line: Tuple[Point2, Point2],
                lam1: float, lam2: float):
        if min(lam1, lam2) <= 0.0:
            raise ValueError("leg weights must be positive")
        q1, q2 = line
        e = Point2(*q2) - Point2(*q1)
        sa = e.cross(Point2(*a_pt) - Point2(*q1))
        sb = e.cross(Point2(*b_pt) - Point2(*q1))
        if sa * sb <= 0.0:
            raise ValueError("both points must lie strictly on one side "
                             "of the line")
        return super().__new__(cls, a_pt, b_pt, line, lam1, lam2)


def solve_river(r: RiverInstance) -> Tuple[Point2, float, float]:
    """Minimize lam1*d(A,X) + lam2*d(B,X) over X on the line.

    The objective is strictly convex along the line and its minimizer lies
    between the two perpendicular feet, so 120 halvings of that bracket on
    the sign of the exact directional derivative converge to it.  Where
    rounding leaves the derivative one-signed over the bracket, they
    converge to the end at which the objective is least.
    Returns the point, the cost, and the residual of the sine-ratio
    equilibrium condition.
    """
    q1, q2 = Point2(*r.line[0]), Point2(*r.line[1])
    e = (q2 - q1).unit()
    a, b = Point2(*r.a_pt), Point2(*r.b_pt)

    def at(u: float) -> Point2:
        return q1 + u * e

    def cost(u: float) -> float:
        p = at(u)
        return r.lam1 * dist(a, p) + r.lam2 * dist(b, p)

    def slope(u: float) -> float:
        p = at(u)
        va, vb = a - p, b - p
        return -(r.lam1 * va.dot(e) / va.norm() + r.lam2 * vb.dot(e) / vb.norm())

    ua = (a - q1).dot(e)
    ub = (b - q1).dot(e)
    lo, hi = min(ua, ub), max(ua, ub)
    scale = max(abs(ua), abs(ub), dist(a, q1), dist(b, q1), 1.0)
    if hi - lo <= 1e-13 * scale:
        x = at(0.5 * (ua + ub))
        return x, r.lam1 * dist(a, x) + r.lam2 * dist(b, x), 0.0
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        s = slope(mid)
        if s == 0.0:
            lo = hi = mid
            break
        if s < 0.0:
            lo = mid
        else:
            hi = mid
    ustar = 0.5 * (lo + hi)
    x = at(ustar)
    va = a - x
    vb = b - x
    sin_a = abs(va.dot(e)) / va.norm()
    sin_b = abs(vb.dot(e)) / vb.norm()
    if sin_a > 1e-12:
        residual = abs(sin_b / sin_a - r.lam1 / r.lam2)
    elif sin_b > 1e-12:
        residual = abs(sin_a / sin_b - r.lam2 / r.lam1)
    else:
        residual = 0.0
    return x, cost(ustar), residual
