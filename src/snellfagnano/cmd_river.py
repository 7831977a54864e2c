"""`sf river`: the weighted river crossing and its Snell residual."""

from __future__ import annotations

from . import billiards
from .jobs import EXIT_INVALID, EXIT_OK, CliError, base_doc, finite, pair, xy


# The top-level spec keys this command reads.
KEYS = ("river",)


def run(spec) -> tuple[dict[str, object], int]:
    node = spec.get("river")
    if not isinstance(node, dict):
        raise CliError(EXIT_INVALID, "spec needs a \"river\" object")
    line = node.get("line")
    if not isinstance(line, (list, tuple)) or len(line) != 2:
        raise CliError(EXIT_INVALID, "river.line must list two points")
    inst = billiards.RiverInstance(
        pair(node.get("a"), "river.a"), pair(node.get("b"), "river.b"),
        (pair(line[0], "river.line"), pair(line[1], "river.line")),
        finite(node.get("lam1"), "river.lam1"),
        finite(node.get("lam2"), "river.lam2"))
    x, cost, residual = billiards.solve_river(inst)
    doc = base_doc("river", spec)
    doc["x"] = xy(x)
    doc["cost"] = cost
    doc["snell_residual"] = residual
    return doc, EXIT_OK
