"""Seeded case generator for the sf benchmark, with its own regime labels.

Distribution of one case (all draws from one ``random.Random(seed)``):

* shape: the three angles are ``pi`` times a Dirichlet(1, 1, 1) draw, i.e.
  uniform on the angle simplex.  Needles and obtuse triangles appear at
  their natural rate (about 3/4 of the shapes are obtuse);
* scale: the longest side is ``10**U(-3, 3)``;
* placement: half the cases are given by side lengths, half by vertices
  rotated by ``U(0, 2 pi)``, translated by ``U(-10, 10)`` diameters per axis
  and listed clockwise or counterclockwise with equal odds;
* weights: each ``exp(U(-ln 2, ln 2))``.

No case is filtered on the program's verdict.  Each case is labelled by the
arithmetic below, which shares no code with ``snellfagnano``:

* the tilde triangle (lam_A a, lam_B b, lam_C c) exists when its relative
  triangle-inequality slack is positive;
* the orbit point is interior when every angle plus its tilde angle is
  below pi;
* its pedal feet lie inside the sides when every foot parameter, computed
  from the closed-form barycentrics (lam_A a^2 / sin(alpha + alpha~) : ...),
  lies in (0, 1).

A case whose slack, angle margin or foot margin lies within ``MARGIN`` of a
regime boundary is labelled "either" between the two regimes, and the
checker then accepts both verdicts.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, Tuple

MARGIN = 1e-6

INTERIOR_INSIDE = "interior_inside"
INTERIOR_OUTSIDE = "interior_outside"
DEGENERATE = "degenerate"
NO_TILDE = "no_tilde"

# Program status (and orbit.in_sides, for interior) that each regime means.
STATUS_OF = {
    INTERIOR_INSIDE: ("interior", True),
    INTERIOR_OUTSIDE: ("interior", False),
    DEGENERATE: ("degenerate", None),
    NO_TILDE: ("no_tilde_triangle", None),
}


@dataclass(frozen=True)
class Case:
    """One (triangle, weights) input with the regimes the labeller allows."""

    spec: Dict[str, object]          # "triangle" and "weights" of a job spec
    vertices: Tuple[Tuple[float, float], ...]   # counterclockwise A, B, C
    sides: Tuple[float, float, float]
    weights: Tuple[float, float, float]
    regimes: FrozenSet[str]          # one regime, or more when "either"


def label_of(regimes) -> str:
    """A regime name, or "either:" and the regimes a boundary case allows."""
    if len(regimes) == 1:
        return next(iter(regimes))
    return "either:" + "|".join(sorted(regimes))


def _sides_of(vs):
    (ax, ay), (bx, by), (cx, cy) = vs
    return (math.hypot(cx - bx, cy - by), math.hypot(ax - cx, ay - cy),
            math.hypot(bx - ax, by - ay))


def _angles_from_sides(a, b, c):
    def ang(opp, s1, s2):
        x = (s1 * s1 + s2 * s2 - opp * opp) / (2.0 * s1 * s2)
        return math.acos(max(-1.0, min(1.0, x)))
    return ang(a, b, c), ang(b, c, a), ang(c, a, b)


def classify(vertices, weights) -> FrozenSet[str]:
    """Regimes allowed for a counterclockwise triangle and a weight triple."""
    a, b, c = _sides_of(vertices)
    la, lb, lc = weights
    p, q, r = la * a, lb * b, lc * c
    slack = min(q + r - p, r + p - q, p + q - r) / (p + q + r)
    if slack < -MARGIN:
        return frozenset((NO_TILDE,))
    if slack <= MARGIN:
        return frozenset((NO_TILDE, DEGENERATE))
    sums = [x + y for x, y in zip(_angles_from_sides(a, b, c),
                                  _angles_from_sides(p, q, r))]
    angle_margin = min(math.pi - s for s in sums)
    if angle_margin < -MARGIN:
        return frozenset((DEGENERATE,))
    if angle_margin <= MARGIN:
        # The point runs into a vertex here, so its feet straddle the
        # side endpoints as well.
        return frozenset((DEGENERATE, INTERIOR_INSIDE, INTERIOR_OUTSIDE))
    fm = _feet_margin(vertices, weights, sums)
    if fm > MARGIN:
        return frozenset((INTERIOR_INSIDE,))
    if fm < -MARGIN:
        return frozenset((INTERIOR_OUTSIDE,))
    return frozenset((INTERIOR_INSIDE, INTERIOR_OUTSIDE))


def _feet_margin(vertices, weights, sums) -> float:
    """Smallest distance of a pedal-foot parameter of the orbit point to the
    ends of [0, 1]; negative when a foot lies outside its side."""
    a, b, c = _sides_of(vertices)
    la, lb, lc = weights
    bary = [la * a * a / math.sin(sums[0]), lb * b * b / math.sin(sums[1]),
            lc * c * c / math.sin(sums[2])]
    tot = sum(bary)
    (ax, ay), (bx, by), (cx, cy) = vertices
    px = (bary[0] * ax + bary[1] * bx + bary[2] * cx) / tot
    py = (bary[0] * ay + bary[1] * by + bary[2] * cy) / tot
    margin = math.inf
    for (x1, y1), (x2, y2) in (((bx, by), (cx, cy)), ((cx, cy), (ax, ay)),
                               ((ax, ay), (bx, by))):
        ex, ey = x2 - x1, y2 - y1
        u = ((px - x1) * ex + (py - y1) * ey) / (ex * ex + ey * ey)
        margin = min(margin, u, 1.0 - u)
    return margin


def _ccw(vs):
    (ax, ay), (bx, by), (cx, cy) = vs
    if (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) < 0.0:
        return (vs[0], vs[2], vs[1])
    return vs


def _placed(a, b, c):
    """The placement triangle_from_sides documents: B at the origin, C at
    (a, 0), A in the upper half-plane."""
    x = (a * a + c * c - b * b) / (2.0 * a)
    return ((x, math.sqrt(max(c * c - x * x, 0.0))), (0.0, 0.0), (a, 0.0))


def from_sides(sides, weights) -> Case:
    """The case sf receives as a side triple and a weight triple."""
    verts = _placed(*sides)
    spec = {"triangle": {"sides": list(sides)}, "weights": list(weights)}
    return Case(spec, verts, _sides_of(verts), tuple(weights),
                classify(verts, weights))


def min_angle(case: Case) -> float:
    return min(_angles_from_sides(*case.sides))


def draw_case(rng: random.Random, place: random.Random = None) -> Case:
    """One case from the distribution in the module docstring.

    Shape, scale and weights come from ``rng``; placement from ``place``
    when given, else from ``rng`` too.
    """
    place = place or rng
    e = [rng.expovariate(1.0) for _ in range(3)]
    tot = sum(e)
    angles = [math.pi * x / tot for x in e]
    diameter = 10.0 ** rng.uniform(-3.0, 3.0)
    smax = max(math.sin(x) for x in angles)
    a, b, c = (diameter * math.sin(x) / smax for x in angles)
    ln2 = math.log(2.0)
    weights = tuple(round(math.exp(rng.uniform(-ln2, ln2)), 12)
                    for _ in range(3))
    by_sides = place.random() < 0.5
    theta = place.uniform(0.0, 2.0 * math.pi)
    shift = (place.uniform(-10.0, 10.0) * diameter,
             place.uniform(-10.0, 10.0) * diameter)
    clockwise = place.random() < 0.5
    if by_sides:
        return from_sides((a, b, c), weights)
    ct, st = math.cos(theta), math.sin(theta)
    verts = tuple((ct * px - st * py + shift[0], st * px + ct * py + shift[1])
                  for px, py in _placed(a, b, c))
    listed = (verts[0], verts[2], verts[1]) if clockwise else verts
    spec = {"triangle": {"vertices": [list(v) for v in listed]},
            "weights": list(weights)}
    verts = _ccw(listed)
    return Case(spec, verts, _sides_of(verts), weights,
                classify(verts, weights))


def draw_matching(rng: random.Random, accept,
                  place: random.Random = None) -> Case:
    """Draw cases until one for which ``accept(case)`` holds."""
    while True:
        case = draw_case(rng, place)
        if accept(case):
            return case
