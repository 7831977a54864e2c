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
Each Newton step prices, differentiates and solves in one pass over the
chords; its line search prices only the trial points.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import exact
from .construction import Weights, weighted_perimeter
from .geometry import Triangle, inscribed_from_params

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


class MinimizeReport(namedtuple("MinimizeReport",
                                "best cost iterations converged flatness")):
    """Best inscribed triangle found, with convergence diagnostics.

    best is the InscribedTriangle and cost, a float, its weighted
    perimeter.  iterations (an int) is the number of Newton steps over all
    continuation stages.  converged (a bool) is true when the last stage
    stopped on a vanishing step, one whose predicted decrease is below
    1e-15 of largest weight times diameter; stopping on the per-stage step
    cap, or on a step the line search cannot make lower the objective, does
    not count.  flatness is area(best) / area(reference), the exact area of
    best's points (exact.cross) over the reference's (Triangle.unit_exact),
    divided and rounded once; values below ~1e-3 indicate the minimizer has
    collapsed onto a doubled segment.
    """

    __slots__ = ()


def _chords(t: Triangle, w: Weights):
    """Each chord as (lam, i, ux, uy, j, vx, vy, uu, vv, uv) with r =
    (p[i] - 1) u + p[j] v and the products u.u, v.v, u.v every Hessian uses.
    Lengths are in units of the diameter and weights in units of the largest
    one, so the smoothing radius and the tolerances need no rescaling.
    """
    k = 1.0 / t.diameter
    sides = ((t.vC - t.vB) * k, (t.vA - t.vC) * k, (t.vB - t.vA) * k)
    top = max(w)
    chords = []
    for n, lam in enumerate(w):
        i, j = (n + 1) % 3, (n + 2) % 3
        (ux, uy), (vx, vy) = sides[i], sides[j] * -1.0
        chords.append((lam / top, i, ux, uy, j, vx, vy, ux * ux + uy * uy,
                       vx * vx + vy * vy, ux * vx + uy * vy))
    return chords


def _smoothed(chords, p, eps2: float) -> float:
    total = 0.0
    for lam, i, ux, uy, j, vx, vy, _, _, _ in chords:
        rx = (p[i] - 1.0) * ux + p[j] * vx
        ry = (p[i] - 1.0) * uy + p[j] * vy
        total += lam * math.sqrt(rx * rx + ry * ry + eps2)
    return total


def _solve(a):
    """Solve in place, by Gaussian elimination, the small dense system given
    as augmented rows [m | rhs]; each pivot is the first entry of largest
    magnitude in its column.  Returns None when a pivot vanishes."""
    n = len(a)
    for col in range(n):
        piv = col
        for r in range(col + 1, n):
            if abs(a[r][col]) > abs(a[piv][col]):
                piv = r
        top = a[piv]
        if top[col] == 0.0:
            return None
        a[piv], a[col] = a[col], top
        for row in a[col + 1:]:
            # the entry in column col is never read again, so is not zeroed
            f = row[col] / top[col]
            for c in range(col + 1, n + 1):
                row[c] -= f * top[c]
    x = [0.0] * n
    for r in range(n - 1, -1, -1):
        row, s = a[r], 0
        for c in range(r + 1, n):
            s += row[c] * x[c]
        x[r] = (row[n] - s) / row[r]
    return x


def _newton_step(chords, p, eps2: float):
    """One projected Newton step on the box; returns (new point, vanished).

    One pass over the chords prices p and gives the analytic gradient and
    Hessian; the Hessian of sqrt(|r|^2 + eps^2) in r, (r_perp r_perp^T +
    eps^2 I) / n^3, is written through the cross products r x u so that it
    stays positive semidefinite in floating point.  The Newton direction is
    solved on the coordinates free to move: one without curvature (its
    chords' weighted curvature underflows) does not move, and one on a bound
    that the step would push outward is held there and the rest solved
    again, since the clip would bend even the shortest step.  Should a
    block solve fail, its coordinates take a diagonally scaled gradient step.
    A step whose predicted decrease -g.d is below _DECREMENT_TOL has
    vanished: rounding hides its effect on the value, so it is taken in
    full, which settles the position to gradient precision.  Any other step
    is backtracked along the clipped path until it strictly lowers the
    smoothed objective by the Armijo fraction; if none does, p is returned.
    """
    f0 = 0.0
    g = [0.0, 0.0, 0.0]
    h = [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
    for lam, i, ux, uy, j, vx, vy, uu, vv, uv in chords:
        rx = (p[i] - 1.0) * ux + p[j] * vx
        ry = (p[i] - 1.0) * uy + p[j] * vy
        n2 = rx * rx + ry * ry + eps2
        s = math.sqrt(n2)
        f0 += lam * s
        a = lam / s
        g[i] += a * (rx * ux + ry * uy)
        g[j] += a * (rx * vx + ry * vy)
        k = a / n2
        cu = rx * uy - ry * ux
        cv = rx * vy - ry * vx
        h[i][i] += k * (cu * cu + eps2 * uu)
        h[j][j] += k * (cv * cv + eps2 * vv)
        off = k * (cu * cv + eps2 * uv)
        h[i][j] += off
        h[j][i] += off
    free = [i for i in range(3) if h[i][i] > 0.0]
    while True:
        x = _solve([[h[r][c] for c in free] + [-g[r]] for r in free])
        if x is None:
            x = [-g[i] / h[i][i] for i in free]
        kept = [i for i, v in zip(free, x)
                if not (p[i] == 0.0 and v < 0.0 or p[i] == 1.0 and v > 0.0)]
        if len(kept) == len(free):
            break
        free = kept
    d = [0.0, 0.0, 0.0]
    for i, v in zip(free, x):
        d[i] = v
    slope = 0
    for i in range(3):
        slope += g[i] * d[i]
    vanished = -slope <= _DECREMENT_TOL
    alpha = 1.0
    for _ in range(_MAX_HALVINGS):
        q = []
        for pi, di in zip(p, d):
            y = pi + alpha * di
            q.append(y if 0.0 < y < 1.0 else 1.0 if y >= 1.0 else 0.0)
        if vanished:
            return q, True
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
    # t's area is its unit |K2| / d0^2 times scale^2, scale = n / m.
    (_, k, d), (_, k0, d0) = exact.cross(*best[:3]), t.unit_exact
    n, m = t.scale.as_integer_ratio()
    return MinimizeReport(best, cost, iterations, converged,
                          abs(k) * (d0 * m) ** 2 / (k0 * (d * n) ** 2))
