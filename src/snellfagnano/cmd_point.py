"""`sf point`: the Snell-Fagnano point, its orbit and regime verdict.

The point's barycentrics are the construction's Ceva triple, normalized, and
its isogonal conjugate is (sin(A + A~) / lam_A : ...) from the same tilde
sines: coordinates.plus_root, the "+" tripolar root of the weights.
Without a closed orbit, the reported orbit is still the constrained minimum:
the construction's while every foot lies on its closed side, and the
oracle's minimizer, with its steps and verdict, where one does not.  A
failing tilde inequality is exit 3.
"""

from __future__ import annotations

import math

from . import construction, coordinates, geometry, optimize
from .jobs import (EXIT_MISSING, EXIT_OK, base_doc, parse_triangle,
                   parse_weights, point_block, xy)


# The top-level spec keys this command reads.
KEYS = ("triangle", "weights")


def _failing_tilde_inequality(t: geometry.Triangle, w: construction.Weights,
                              tt: coordinates.TildeTriangle) -> str:
    """The inequality the tilde sides fail, named by the largest of the
    exact squared sides the verdict was taken on.  Its relative gap (long -
    other two) / long is -H over a product of positive terms of those
    squares, so it does not cancel.  A gap of at least 1e-11, far above the
    12 digits printed, is shown by the products lam_V * side, which then
    read true; a narrower one is printed itself."""
    n = tt.numerators
    i = max(range(3), key=n.squares.__getitem__)
    order = (i, *(m for m in range(3) if m != i))
    r2, p2, q2 = (n.squares[m] for m in order)
    u, v = math.sqrt(p2 / r2), math.sqrt(q2 / r2)
    gap = -n.H / (r2 * r2) / ((1.0 + u + v) * (u + (r2 - q2) / r2 / (1.0 + v))
                              * (v + (r2 - p2) / r2 / (1.0 + u)))
    long, a, b = (("lam_A*a", "lam_B*b", "lam_C*c")[m] for m in order)
    if gap >= 1e-11:
        sides = (w.lam_A * t.a, w.lam_B * t.b, w.lam_C * t.c)
        shown = "%.12g >= %.12g + %.12g" % tuple(sides[m] for m in order)
    else:
        shown = "%s - %s - %s = %.12g %s" % (long, a, b, gap, long)
    return "%s >= %s + %s (%s)" % (long, a, b, shown)


def _orbit_block(t: geometry.Triangle, w: construction.Weights,
                 res: construction.SnellOrbitResult) -> dict[str, object]:
    orbit, cost, steps = res.orbit, res.weighted_perimeter, {}
    if not all(0.0 <= p <= 1.0 for p in (orbit.tA, orbit.tB, orbit.tC)):
        rep = optimize.minimize_inscribed(t, w)
        orbit, cost = rep.best, rep.cost
        steps = {"iterations": rep.iterations, "converged": rep.converged}
    block = {
        "params": [orbit.tA, orbit.tB, orbit.tC],
        "vertices": [xy(p) for p in orbit.points],
        "weighted_perimeter": cost,
        **steps,
    }
    if res.orbit_in_sides is not None:
        block["in_sides"] = res.orbit_in_sides
    return block


def run(spec) -> tuple[dict[str, object], int]:
    t = parse_triangle(spec)
    w = parse_weights(spec, t)
    res = construction.snell_fagnano_point(t, w)
    k = construction.coeffs_from_weights(w)
    doc = base_doc("point", spec)
    doc["status"] = res.status
    doc["weights_normalized"] = coordinates.normalized(w)
    doc["refraction_coefficients"] = list(k)
    if res.conditions is not None:
        doc["interior_conditions"] = list(res.conditions)
    if res.erected is not None:
        doc["erected_apexes"] = [xy(p) for p in res.erected]
    if res.point is not None:
        doc["point"] = point_block(
            res.point, coordinates.normalized(res.barycentric), t)
    if res.orbit is not None:
        doc["orbit"] = _orbit_block(t, w, res)
    if res.status == construction.STATUS_INTERIOR:
        try:
            doc["snell_residuals"] = list(
                construction.verify_snell_point(res.point, t, k))
        except coordinates.OnSideLine:  # the xy rounds onto a side line
            doc["snell_residuals"] = None
        conj = coordinates.from_barycentric(coordinates.plus_root(res.tilde),
                                            t)
        ctp = coordinates.tripolar_of_point(conj, t)
        doc["isogonal_conjugate"] = {
            "xy": xy(conj),
            "tripolar": list(ctp),
            "tripolar_normalized": coordinates.normalized(ctp),
        }
        return doc, EXIT_OK
    doc["degenerate_info"] = res.degenerate_info
    if res.status == construction.STATUS_NO_TILDE:
        doc["message"] = _failing_tilde_inequality(t, w, res.tilde)
        return doc, EXIT_MISSING
    return doc, EXIT_OK
