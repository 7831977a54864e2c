"""Convex weighted-perimeter minimizer over inscribed triangles.

Deliberately independent of the erected-triangle construction: it starts
from the medial parameters (1/2, 1/2, 1/2) and never consults the
construction.  Used as the oracle the geometric construction is checked
against; the two share only the weighted perimeter it prices.

With side vectors s_A = C - B, s_B = A - C, s_C = B - A, the chord opposite
vertex A is pB - pC = (tB - 1) s_B - tC s_C, and cyclically for B and C.
Each chord is affine in two of the side parameters, so the weighted
perimeter is a sum of weighted Euclidean norms of affine maps: convex on
the parameter cube, with every local minimum global.  The solver is a
projected Newton method on the box [0, 1]^3 applied to the smoothed
objective sum lam * sqrt(|r|^2 + eps^2), with eps lowered by continuation
(the sum-of-norms setting of Andersen, Christiansen, Conn and Overton,
SIAM J. Sci. Comput. 2000).  The true objective is not smooth where a
chord has length zero, which inside the cube happens only at corner pairs
such as tB = 1, tC = 0 (both feet at vertex A); the bounds pin those.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .construction import Weights, weighted_perimeter
from .geometry import (InscribedTriangle, Triangle, inscribed_from_params,
                       signed_area)

# Smoothing radii in units of the diameter, one Newton stage each.  The
# last one bounds the smoothing's cost bias; much below 1e-15 the
# objective's changes drown in rounding.
_EPS_STAGES = tuple(10.0 ** -k for k in range(1, 16, 2))
# Predicted decrease below which a Newton step has vanished, in units of
# largest weight times diameter: about the rounding level of the objective.
_DECREMENT_TOL = 1e-15
# Parameters this close to a bound are tried on it once the stages end.
_SNAP_TOL = 1e-8
_MAX_STEPS = 60          # Newton steps per stage
_MAX_HALVINGS = 40       # backtracking halvings per step
_ARMIJO = 1e-4           # sufficient-decrease fraction


class MinimizeReport(NamedTuple):
    """Best inscribed triangle found, with convergence diagnostics.

    iterations is the number of Newton steps over all continuation stages.
    converged is true when the last stage stopped on a vanishing step, one
    whose predicted decrease is below 1e-15 of largest weight times diameter;
    stopping on the per-stage step cap, or on a step the line search cannot
    make lower the objective, does not count.  flatness is
    |area(best)| / area(reference); values below ~1e-3 indicate the
    minimizer has collapsed onto a doubled segment.
    """

    best: InscribedTriangle
    cost: float
    iterations: int
    converged: bool
    flatness: float


def _chords(t: Triangle, w: Weights):
    """Each chord as (lam, i, u, j, v) with r = (p[i] - 1) u + p[j] v.

    Lengths are in units of the diameter and weights in units of the
    largest one, so the smoothing radius and the tolerances need no
    rescaling.
    """
    k = 1.0 / t.diameter
    sides = ((t.vC - t.vB) * k, (t.vA - t.vC) * k, (t.vB - t.vA) * k)
    top = max(w.triple)
    return tuple((lam / top, (n + 1) % 3, sides[(n + 1) % 3],
                  (n + 2) % 3, sides[(n + 2) % 3] * -1.0)
                 for n, lam in enumerate(w.triple))


def _smoothed(chords, p, eps2: float) -> float:
    total = 0.0
    for lam, i, (ux, uy), j, (vx, vy) in chords:
        rx = (p[i] - 1.0) * ux + p[j] * vx
        ry = (p[i] - 1.0) * uy + p[j] * vy
        total += lam * math.sqrt(rx * rx + ry * ry + eps2)
    return total


def _derivatives(chords, p, eps2: float):
    """Analytic gradient and Hessian of the smoothed objective.

    The Hessian of sqrt(|r|^2 + eps^2) in r is (r_perp r_perp^T + eps^2 I)
    / n^3, written through the cross products r x u so that it stays
    positive semidefinite in floating point.
    """
    g = [0.0, 0.0, 0.0]
    h = [[0.0] * 3 for _ in range(3)]
    for lam, i, (ux, uy), j, (vx, vy) in chords:
        rx = (p[i] - 1.0) * ux + p[j] * vx
        ry = (p[i] - 1.0) * uy + p[j] * vy
        n2 = rx * rx + ry * ry + eps2
        a = lam / math.sqrt(n2)
        g[i] += a * (rx * ux + ry * uy)
        g[j] += a * (rx * vx + ry * vy)
        k = a / n2
        cu = rx * uy - ry * ux
        cv = rx * vy - ry * vx
        h[i][i] += k * (cu * cu + eps2 * (ux * ux + uy * uy))
        h[j][j] += k * (cv * cv + eps2 * (vx * vx + vy * vy))
        off = k * (cu * cv + eps2 * (ux * vx + uy * vy))
        h[i][j] += off
        h[j][i] += off
    return g, h


def _solve(m, rhs):
    """Solve the small dense system m x = rhs by Gaussian elimination.

    Returns None when a pivot vanishes.
    """
    n = len(rhs)
    a = [list(row) + [b] for row, b in zip(m, rhs)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(a[r][col]))
        if a[piv][col] == 0.0:
            return None
        a[col], a[piv] = a[piv], a[col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            for c in range(col, n + 1):
                a[r][c] -= f * a[col][c]
    x = [0.0] * n
    for r in reversed(range(n)):
        x[r] = (a[r][n] - sum(a[r][c] * x[c] for c in range(r + 1, n))) \
            / a[r][r]
    return x


def _direction(p, g, h):
    """Newton direction on the coordinates free to move.

    A coordinate on a bound that the Newton step would push outward is
    held there and the step is solved again without it; left in, the clip
    would bend even the shortest step away from the solved direction.
    Should a block solve fail, its coordinates take a diagonally scaled
    gradient step.
    A coordinate without curvature (its chords' weights underflow against
    the largest one) has no gradient either, and does not move.
    """
    free = [i for i in range(3) if h[i][i] > 0.0]
    while True:
        d = [0.0, 0.0, 0.0]
        x = _solve([[h[r][c] for c in free] for r in free],
                   [-g[r] for r in free])
        for i, v in zip(free, x or [-g[i] / h[i][i] for i in free]):
            d[i] = v
        held = [i for i in free
                if (p[i] == 0.0 and d[i] < 0.0) or (p[i] == 1.0 and d[i] > 0.0)]
        if not held:
            return d
        free = [i for i in free if i not in held]


def _newton_step(chords, p, eps2: float):
    """One projected Newton step on the box; returns (new point, vanished).

    A step whose predicted decrease -g.d is below _DECREMENT_TOL has
    vanished: rounding hides its effect on the value, so it is taken in
    full, which settles the position to gradient precision.
    Any other step is backtracked along the clipped path until it strictly
    lowers the smoothed objective by the Armijo fraction; if none does, p
    itself is returned.
    """
    g, h = _derivatives(chords, p, eps2)
    d = _direction(p, g, h)
    slope = sum(g[i] * d[i] for i in range(3))

    def clipped(alpha):
        return [min(1.0, max(0.0, p[i] + alpha * d[i])) for i in range(3)]

    if -slope <= _DECREMENT_TOL:
        return clipped(1.0), True
    f0 = _smoothed(chords, p, eps2)
    alpha = 1.0
    for _ in range(_MAX_HALVINGS):
        q = clipped(alpha)
        fq = _smoothed(chords, q, eps2)
        if fq < f0 and fq <= f0 + _ARMIJO * alpha * slope:
            return q, False
        alpha *= 0.5
    return p, False


def minimize_inscribed(t: Triangle, w: Weights) -> MinimizeReport:
    """Projected Newton with continuation in the smoothing radius.

    Each stage starts from the previous stage's minimizer and ends on a
    vanishing step, a failed line search or the stage's step cap.  The
    radius falls from 1e-1 to 1e-15 of the diameter.  Parameters within
    _SNAP_TOL of a bound are then moved onto it if that lowers the true
    cost, which removes the smoothing's offset from corner-pair minimizers.
    """
    chords = _chords(t, w)
    p = [0.5, 0.5, 0.5]
    iterations = 0
    converged = False
    for eps in _EPS_STAGES:
        converged = False
        for _ in range(_MAX_STEPS):
            q, converged = _newton_step(chords, p, eps * eps)
            iterations += 1
            stalled = q == p
            p = q
            if converged or stalled:
                break
    best = inscribed_from_params(t, *p)
    cost = weighted_perimeter(best, w)
    # Where the true minimizer lies on a bound, the smoothed one stops
    # O(eps / side length) short of it; step onto it when that is cheaper.
    snapped = inscribed_from_params(
        t, *((0.0 if x < 0.5 else 1.0) if min(x, 1.0 - x) < _SNAP_TOL else x
             for x in p))
    snapped_cost = weighted_perimeter(snapped, w)
    if snapped_cost < cost:
        best, cost = snapped, snapped_cost
    area = abs(signed_area(best.pA, best.pB, best.pC))
    return MinimizeReport(best=best, cost=cost, iterations=iterations,
                          converged=converged, flatness=area / t.area)
