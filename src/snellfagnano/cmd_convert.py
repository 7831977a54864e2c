"""`sf convert`: a barycentric, trilinear or tripolar triple to points.

Every triple is homogeneous: multiplied by any factor it names the same
points, bit for bit when the factor is a power of two.  A barycentric or
trilinear triple is its point's barycentrics, normalized; a tripolar triple
can name two points, one or none (exit 3), each reported with the
barycentrics it was built from.  All zero, it is exit 2.
"""

from __future__ import annotations

import math

from . import coordinates
from .jobs import (EXIT_INVALID, EXIT_OK, CliError, base_doc, parse_triangle,
                   point_block, triple)


# The top-level spec keys this command reads.
KEYS = ("triangle", "coords")


def run(spec) -> tuple[dict[str, object], int]:
    t = parse_triangle(spec)
    node = spec.get("coords")
    if not isinstance(node, dict):
        raise CliError(EXIT_INVALID, "spec needs a \"coords\" object")
    kind = node.get("kind")
    if kind not in ("barycentric", "trilinear", "tripolar"):
        raise CliError(EXIT_INVALID,
                       "coords.kind must be barycentric, trilinear or tripolar")
    values = triple(node.get("values"), "coords.values")
    doc = base_doc("convert", spec)
    doc["kind"] = kind
    doc["values"] = list(values)
    doc["values_normalized"] = coordinates.normalized(values)

    points: list[dict[str, object]] = []
    if kind == "tripolar":
        for p, s, bc in coordinates.tripolar_to_points(values, t):
            if math.isinf(s):
                raise CliError(EXIT_INVALID, "the scale from the tripolar "
                               "triple to the vertex distances overflows")
            block = point_block(p, coordinates.normalized(bc), t)
            block["scale"] = s
            points.append(block)
    else:
        bc = (values if kind == "barycentric"
              else coordinates.trilinear_to_barycentric(values, t))
        p = coordinates.from_barycentric(bc, t)
        points.append(point_block(p, coordinates.normalized(bc), t))
    doc["points"] = points
    doc["count"] = len(points)
    return doc, EXIT_OK
