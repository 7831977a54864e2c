"""`sf minimize`: the convex oracle's minimum beside the construction's."""

from __future__ import annotations

from . import construction, optimize
from .jobs import EXIT_OK, base_doc, parse_triangle, parse_weights, xy


# The top-level spec keys this command reads.
KEYS = ("triangle", "weights")


def run(spec) -> tuple[dict[str, object], int]:
    t = parse_triangle(spec)
    w = parse_weights(spec, t)
    rep = optimize.minimize_inscribed(t, w)
    doc = base_doc("minimize", spec)
    doc["report"] = {
        "params": [rep.best.tA, rep.best.tB, rep.best.tC],
        "vertices": [xy(p) for p in rep.best.points],
        "cost": rep.cost,
        "iterations": rep.iterations,
        "converged": rep.converged,
        "flatness": rep.flatness,
    }
    res = construction.snell_fagnano_point(t, w)
    # parse_weights keeps every priced cost a positive normal float.
    gap = (rep.cost - res.weighted_perimeter) / res.weighted_perimeter
    doc["constructed"] = {
        "status": res.status,
        "weighted_perimeter": res.weighted_perimeter,
        "relative_gap": gap,
    }
    return doc, EXIT_OK
