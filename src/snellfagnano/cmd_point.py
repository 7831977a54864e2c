"""`sf point`: the Snell-Fagnano point, its orbit and regime verdict.

The point's barycentrics are the construction's Ceva triple, normalized, and
its isogonal conjugate is (sin(A + A~) / lam_A : ...) from the same tilde
sines: coordinates.plus_root, the "+" tripolar root of the weights.
Where no closed orbit exists, the report adds the minimizer's constrained
minimum as brute_force_cost; a failing tilde inequality is exit 3.
"""

from __future__ import annotations

from . import construction, coordinates, geometry, optimize
from .jobs import (EXIT_MISSING, EXIT_OK, base_doc, parse_triangle,
                   parse_weights, point_block, xy)


# The top-level spec keys this command reads.
KEYS = ("triangle", "weights")


def _failing_tilde_inequality(t: geometry.Triangle, w: construction.Weights,
                              squares: tuple[int, int, int]) -> str:
    """The inequality the tilde sides fail, named by the largest of the
    exact squared sides the verdict was taken on."""
    sides = (("lam_A*a", w.lam_A * t.a), ("lam_B*b", w.lam_B * t.b),
             ("lam_C*c", w.lam_C * t.c))
    i = max(range(3), key=squares.__getitem__)
    j, k = (n for n in range(3) if n != i)
    return ("%s >= %s + %s (%.12g >= %.12g + %.12g)"
            % (sides[i][0], sides[j][0], sides[k][0],
               sides[i][1], sides[j][1], sides[k][1]))


def _orbit_block(res: construction.SnellOrbitResult) -> dict[str, object]:
    orbit = res.orbit
    block = {
        "params": [orbit.tA, orbit.tB, orbit.tC],
        "vertices": [xy(p) for p in orbit.points],
        "weighted_perimeter": res.weighted_perimeter,
    }
    if res.orbit_in_sides is not None:
        block["in_sides"] = res.orbit_in_sides
    return block


def run(spec) -> tuple[dict[str, object], int]:
    t = parse_triangle(spec)
    w = parse_weights(spec, t)
    res = construction.snell_fagnano_point(t, w)
    # Where no closed orbit exists, the oracle gives the constrained minimum.
    brute = (None if res.orbit_in_sides
             else optimize.minimize_inscribed(t, w).cost)
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
        doc["orbit"] = _orbit_block(res)
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
        if brute is not None:
            doc["brute_force_cost"] = brute
        return doc, EXIT_OK
    doc["degenerate_info"] = res.degenerate_info
    doc["brute_force_cost"] = brute
    if res.status == construction.STATUS_NO_TILDE:
        doc["message"] = _failing_tilde_inequality(
            t, w, res.tilde.numerators.squares)
        return doc, EXIT_MISSING
    return doc, EXIT_OK
