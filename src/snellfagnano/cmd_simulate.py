"""`sf simulate`: billiard steps from the constructed orbit or a given start.

At most MAX_SIMULATE_STEPS steps; the report holds every state, the raw
closure errors and the periodicity verdict at TOLERANCES["periodicity"].
"""

from __future__ import annotations

from . import billiards, construction, geometry
from .jobs import (EXIT_DYNAMICS, EXIT_INVALID, EXIT_MISSING, EXIT_OK,
                   TOLERANCES, CliError, base_doc, finite, pair,
                   parse_triangle, parse_weights, xy)


# The top-level spec keys this command reads.
KEYS = ("triangle", "weights", "steps", "start")

# The report keeps every state; this bounds its time and memory.
MAX_SIMULATE_STEPS = 10000


def _state_block(t: geometry.Triangle,
                 s: billiards.BilliardState) -> dict[str, object]:
    return {
        "side": s.side,
        "param": s.param,
        "xy": xy(geometry.point_on_side(t, s.side, s.param)),
        "direction": xy(s.direction),
    }


def run(spec) -> tuple[dict[str, object], int]:
    t = parse_triangle(spec)
    w = parse_weights(spec, t)
    k = construction.coeffs_from_weights(w)
    steps = spec.get("steps", 3)
    if isinstance(steps, bool) or not isinstance(steps, int) or steps < 1:
        raise CliError(EXIT_INVALID, "steps must be a positive integer")
    if steps > MAX_SIMULATE_STEPS:
        raise CliError(EXIT_INVALID,
                       "steps must be at most %d" % MAX_SIMULATE_STEPS)

    node = spec.get("start")
    if node is None:
        res = construction.snell_fagnano_point(t, w)
        if res.status != construction.STATUS_INTERIOR:
            raise CliError(EXIT_MISSING,
                           "no interior orbit to launch from (status %s); "
                           "provide an explicit start state" % res.status)
        if not res.orbit_in_sides:
            raise CliError(EXIT_MISSING,
                           "no closed orbit to launch from (a foot of the "
                           "interior point lies outside its side); "
                           "provide an explicit start state")
        start = billiards.orbit_start_state(res.orbit)
    else:
        if not isinstance(node, dict):
            raise CliError(EXIT_INVALID, "start must be an object")
        side = node.get("side")
        if side not in ("a", "b", "c"):
            raise CliError(EXIT_INVALID, "start.side must be a, b or c")
        param = finite(node.get("param"), "start.param")
        if not 0.0 < param < 1.0:
            raise CliError(EXIT_INVALID, "start.param must lie in (0, 1)")
        d = pair(node.get("direction"), "start.direction")
        if d.norm() <= 0.0:
            raise CliError(EXIT_INVALID, "start.direction must be nonzero")
        start = billiards.BilliardState(side, param, d.unit())

    states = [start]
    for i in range(steps):
        try:
            states.append(billiards.billiard_step(states[-1], t, k))
        except (billiards.TotalInternalReflection, billiards.HitVertex) as e:
            raise CliError(EXIT_DYNAMICS, "step %d: %s" % (i + 1, e))

    side_match, param_error, direction_error, periodic = billiards.closure(
        start, states[-1], TOLERANCES["periodicity"])
    doc = base_doc("simulate", spec)
    doc["kappa"] = list(k)
    doc["steps"] = steps
    doc["trajectory"] = [_state_block(t, s) for s in states]
    doc["periodic"] = periodic
    doc["closure"] = {
        "side_match": side_match,
        "param_error": param_error,
        "direction_error": direction_error,
    }
    return doc, EXIT_OK
