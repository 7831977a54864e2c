"""Shared sampling helpers, independent oracles and the environment of
child processes for the test suite.

Oracles here deliberately avoid the package's own construction code where
they are used to judge it (orthocenter/circumcenter come from tiny linear
solves written out by hand).
"""

import math
import os
import random

import snellfagnano
from snellfagnano import (Point2, Triangle, Weights, tilde_triangle)
from snellfagnano.coordinates import unit_scaled
from snellfagnano.geometry import DegenerateTriangle

# Lines appended by the acceptance suite; replayed after the run so each
# criterion's verdict is visible in the terminal summary.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


# ---------------------------------------------------------------------------
# child processes

SUBPROCESS_TIMEOUT = 120  # seconds; a cold `sf point` takes well under 1 s


def checkout_env():
    """Child environment in which this checkout's package wins any import."""
    pkg_parent = os.path.dirname(os.path.dirname(snellfagnano.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [pkg_parent] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


# ---------------------------------------------------------------------------
# angles, which the samplers and oracles draw by; the package computes none

def angles(t: Triangle):
    """The angles (A, B, C) of t, each the atan2 of the |cross| and the dot
    product of the two edges leaving its vertex, so that a seeded sampler
    below keeps drawing the same cases."""
    ab, bc, ac = t.vB - t.vA, t.vC - t.vB, t.vC - t.vA
    return (math.atan2(abs(ab.cross(ac)), ab.dot(ac)),
            math.atan2(abs(bc.cross(ab)), -bc.dot(ab)),
            math.atan2(abs(ac.cross(bc)), ac.dot(bc)))


def side_angles(a: float, b: float, c: float):
    """Angles opposite the sides a, b, c: atan2(4 area, b^2 + c^2 - a^2) and
    cyclic, the area oracles.side_area; on a flat triple the longest side's
    angle is pi."""
    from oracles import side_area  # oracles imports this module
    k = 4.0 * side_area(a, b, c)
    return (math.atan2(k, b * b + c * c - a * a),
            math.atan2(k, c * c + a * a - b * b),
            math.atan2(k, a * a + b * b - c * c))


def tilde_sides(t: Triangle, w):
    """The tilde sides (lam_A a, lam_B b, lam_C c) of the unit_scaled
    weights and t.unit_sides, as floats."""
    return tuple(u * v for u, v in zip(unit_scaled(w), t.unit_sides))


def rotate(v, angle: float) -> Point2:
    """The vector v rotated counterclockwise by angle radians."""
    c, s = math.cos(angle), math.sin(angle)
    return Point2(c * v[0] - s * v[1], s * v[0] + c * v[1])


# ---------------------------------------------------------------------------
# samplers

def sample_triangle(rng: random.Random, min_angle: float = 0.25) -> Triangle:
    """Random triangle with no angle below min_angle radians."""
    while True:
        pts = [Point2(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))
               for _ in range(3)]
        try:
            t = Triangle(*pts)
        except DegenerateTriangle:
            continue
        if min(angles(t)) >= min_angle:
            return t


def sample_random_setup(rng: random.Random):
    """(triangle, weights) of the random set-up: vertices uniform in
    [-1, 1]^2, smallest angle at least 0.05 rad, weights e^U(-1, 1)."""
    while True:
        try:
            t = Triangle(*(Point2(rng.uniform(-1, 1), rng.uniform(-1, 1))
                           for _ in range(3)))
        except DegenerateTriangle:
            continue
        if min(angles(t)) >= 0.05:
            break
    return t, Weights(*(math.exp(rng.uniform(-1, 1)) for _ in range(3)))


def sample_boundary(rng: random.Random, needle: bool = False):
    """(triangle, weights) of the boundary family: a random set-up triangle
    whose weights put V + V~ at pi - delta at one vertex V, delta =
    +-10^U(-13, -3).  The other two tilde angles split pi - V~ in a
    uniform share of 5 to 95 %, or, for a needle tilde triangle, one of
    them takes (pi - V~) 10^U(-14, -6).  The weight at each vertex is the
    sine of its tilde angle over the opposite side, so that the tilde
    sides are those sines."""
    t, _ = sample_random_setup(rng)
    v = rng.randrange(3)
    delta = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-13, -3)
    tilde_v = math.pi - angles(t)[v] - delta
    rest = math.pi - tilde_v
    share = 10.0 ** rng.uniform(-14, -6) if needle else rng.uniform(0.05, 0.95)
    i, j = (v + 1) % 3, (v + 2) % 3
    if rng.random() < 0.5:
        i, j = j, i
    tilde = [0.0] * 3
    tilde[v], tilde[i], tilde[j] = tilde_v, rest * share, rest * (1.0 - share)
    return t, Weights(*(math.sin(x) / s
                        for x, s in zip(tilde, (t.a, t.b, t.c))))


def sample_thin(rng: random.Random, lo: float, hi: float):
    """(triangle, weights) of the thin-triangle family in the band (lo, hi):
    base L = 10^U(-3, 3) from (0, 0) to (L, 0), apex (u L, h) with u =
    U(-0.5, 1.5) and h = L 10^U(lo, hi), weights e^U(-1, 1).  The family
    is drawn at seed 78, a fresh generator for each band.  Triangle refuses
    a band much below 1e-12."""
    base = 10.0 ** rng.uniform(-3, 3)
    u = rng.uniform(-0.5, 1.5)
    h = base * 10.0 ** rng.uniform(lo, hi)
    t = Triangle(Point2(0.0, 0.0), Point2(base, 0.0), Point2(u * base, h))
    return t, Weights(*(math.exp(rng.uniform(-1, 1)) for _ in range(3)))


def _rigid_motion(rng: random.Random, t: Triangle) -> Triangle:
    ang = rng.uniform(0.0, 2.0 * math.pi)
    ca, sa = math.cos(ang), math.sin(ang)
    dx, dy = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)

    def mv(p):
        return Point2(ca * p.x - sa * p.y + dx, sa * p.x + ca * p.y + dy)

    return Triangle(mv(t.vA), mv(t.vB), mv(t.vC))


def sample_acute_triangle(rng: random.Random,
                          lo_deg: float = 40.0,
                          hi_deg: float = 80.0) -> Triangle:
    """Acute triangle with all angles inside (lo_deg, hi_deg), random pose."""
    lo, hi = math.radians(lo_deg), math.radians(hi_deg)
    while True:
        alpha = rng.uniform(lo, hi)
        beta = rng.uniform(lo, hi)
        gamma = math.pi - alpha - beta
        if lo < gamma < hi:
            break
    scale = rng.uniform(0.5, 3.0)
    from snellfagnano import triangle_from_sides
    t = triangle_from_sides(2.0 * scale * math.sin(alpha),
                            2.0 * scale * math.sin(beta),
                            2.0 * scale * math.sin(gamma))
    return _rigid_motion(rng, t)


def sample_weights(rng: random.Random, spread: float = 0.7) -> Weights:
    return Weights(math.exp(rng.uniform(-spread, spread)),
                   math.exp(rng.uniform(-spread, spread)),
                   math.exp(rng.uniform(-spread, spread)))


def tilde_slack(t: Triangle, w: Weights) -> float:
    """Relative slack of the scaled-triple triangle inequality (signed)."""
    s = sorted((w.lam_A * t.a, w.lam_B * t.b, w.lam_C * t.c))
    return (s[0] + s[1] - s[2]) / s[2]


def sample_admissible(rng: random.Random,
                      angle_margin: float = 1e-3,
                      foot_margin: float = 1e-3):
    """(triangle, weights) with an interior point and a realizable orbit.

    Besides the angle-sum margins this also insists that the perpendicular
    feet of the constructed point land strictly inside their sides: for
    obtuse triangles an interior point close to a vertex can project beyond
    a side's endpoint, and then no closed 3-bounce orbit exists even though
    the point itself is fine.
    """
    from snellfagnano.construction import snell_fagnano_point
    while True:
        t = sample_triangle(rng)
        w = sample_weights(rng)
        tt = tilde_triangle(t, w)
        if not tt.exists or tilde_slack(t, w) < 1e-4:
            continue
        if not all(v + vt < math.pi - angle_margin
                   for v, vt in zip(angles(t),
                                    side_angles(*tilde_sides(t, w)))):
            continue
        res = snell_fagnano_point(t, w)
        if res.status != "interior":
            continue
        o = res.orbit
        if all(foot_margin < p < 1.0 - foot_margin for p in (o.tA, o.tB, o.tC)):
            return t, w


def _cheapest_altitude_foot_param(t: Triangle, w: Weights):
    """Foot parameter (on its own side) of the weight-favoured altitude.

    The collapse candidate from vertex V doubles the altitude V-foot and
    costs (sum of the other two weights) * altitude length; this returns
    the side parameter of the foot realising the cheapest candidate.
    """
    best = None
    for vert, end1, end2, l1, l2 in (
            (t.vA, t.vB, t.vC, w.lam_B, w.lam_C),
            (t.vB, t.vC, t.vA, w.lam_C, w.lam_A),
            (t.vC, t.vA, t.vB, w.lam_A, w.lam_B)):
        f = foot_oracle(vert, end1, end2)
        cost = (l1 + l2) * math.hypot(vert.x - f.x, vert.y - f.y)
        ex, ey = end2.x - end1.x, end2.y - end1.y
        u = ((f.x - end1.x) * ex + (f.y - end1.y) * ey) / (ex * ex + ey * ey)
        if best is None or cost < best[0]:
            best = (cost, u)
    return best[1]


def sample_degenerate(rng: random.Random, foot_margin: float = 1e-3):
    """(triangle, weights) whose minimizer collapses (no interior point).

    Keeps only draws where the cheapest doubled-altitude candidate is
    attainable: its foot must fall strictly inside the opposite side.  In
    obtuse triangles whose weights favour a vertex with an out-of-segment
    altitude foot, the collapse target is unreachable by an inscribed
    triangle and the constrained minimizer is a non-flat path through a
    vertex instead, so those draws do not belong to the collapsing regime.
    """
    while True:
        t = sample_triangle(rng)
        w = sample_weights(rng, spread=1.2)
        tt = tilde_triangle(t, w)
        if not tt.exists:
            if tilde_slack(t, w) >= -1e-4:
                continue
        else:
            worst = max(v + vt for v, vt in zip(
                angles(t), side_angles(*tilde_sides(t, w))))
            if worst <= math.pi + 1e-3:
                continue
        u = _cheapest_altitude_foot_param(t, w)
        if foot_margin < u < 1.0 - foot_margin:
            return t, w


# ---------------------------------------------------------------------------
# hand-rolled oracles (no package geometry beyond Point2 containers)

def _solve2(a11, a12, b1, a21, a22, b2):
    det = a11 * a22 - a12 * a21
    return ((b1 * a22 - b2 * a12) / det, (a11 * b2 - a21 * b1) / det)


def orthocenter_oracle(t: Triangle) -> Point2:
    """Altitude intersection via two dot-product equations."""
    ax, ay = t.vA
    bx, by = t.vB
    cx, cy = t.vC
    # (H - A) . (C - B) = 0  and  (H - B) . (A - C) = 0
    x, y = _solve2(cx - bx, cy - by, ax * (cx - bx) + ay * (cy - by),
                   ax - cx, ay - cy, bx * (ax - cx) + by * (ay - cy))
    return Point2(x, y)


def circumcenter_oracle(t: Triangle) -> Point2:
    ax, ay = t.vA
    bx, by = t.vB
    cx, cy = t.vC
    x, y = _solve2(2 * (bx - ax), 2 * (by - ay),
                   bx * bx + by * by - ax * ax - ay * ay,
                   2 * (cx - bx), 2 * (cy - by),
                   cx * cx + cy * cy - bx * bx - by * by)
    return Point2(x, y)


def foot_oracle(p: Point2, q1: Point2, q2: Point2) -> Point2:
    ex, ey = q2.x - q1.x, q2.y - q1.y
    u = ((p.x - q1.x) * ex + (p.y - q1.y) * ey) / (ex * ex + ey * ey)
    return Point2(q1.x + u * ex, q1.y + u * ey)


def altitude_feet_oracle(t: Triangle):
    """Feet of the three altitudes (from A on BC, from B on CA, from C on AB)."""
    return (foot_oracle(t.vA, t.vB, t.vC),
            foot_oracle(t.vB, t.vC, t.vA),
            foot_oracle(t.vC, t.vA, t.vB))
