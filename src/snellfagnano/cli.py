"""`sf` command line: compute, convert, simulate, minimize, solve, render.

Job specs are JSON (from --input or stdin), reports are JSON on stdout with
a fixed field layout and fixed float formatting, so identical inputs give
byte-identical outputs.  Exit codes: 0 success, 1 internal error (a defect in
sf), 2 invalid input, 3 requested object does not exist, 4 dynamics failure,
5 I/O failure.  A batch runs its lines serially, in input order.  A job
that hits a defect, on a batch line or alone from --input or stdin, still
gets a report: the error report with exit code 1, its traceback on stderr.
`sf point` adds the minimizer's cost as brute_force_cost wherever no closed
orbit exists; `sf simulate` takes at most MAX_SIMULATE_STEPS steps and
reports its raw closure errors beside the verdict.  The check tolerances
are fixed (TOLERANCES) and every report echoes them.  Exit 2 also covers a
smallest weight below sys.float_info.min times the largest, render
"layers" other than {"apollonius": true|false}, and --svg anywhere but on
a single render job.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Any, Dict, List, Optional, Tuple

from . import (__version__, apollonius, billiards, construction, coordinates,
               geometry, optimize, render, serialize)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INVALID = 2
EXIT_MISSING = 3
EXIT_DYNAMICS = 4
EXIT_IO = 5

# Echoed by every report.  interior_angle is construction.EPS_ANGLE, which
# snell_fagnano_point applies; it is written out so that jobs which never
# construct the orbit (river, convert) need not load construction.
# periodicity is simulate's closure threshold.
TOLERANCES = {"interior_angle": 1e-10, "periodicity": 1e-8}

# simulate keeps every state in its report; this bounds its time and memory.
MAX_SIMULATE_STEPS = 10000


class CliError(Exception):
    """Failure with a designated process exit code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _reject_const(name: str):
    raise ValueError("non-finite number %r in input" % name)


def _finite_float(text: str) -> float:
    v = float(text)
    if not math.isfinite(v):
        _reject_const(text)
    return v


def _loads(text: str) -> Any:
    try:
        return json.loads(text, parse_float=_finite_float,
                          parse_constant=_reject_const)
    except (ValueError, RecursionError) as e:
        raise CliError(EXIT_INVALID, "invalid JSON: %s" % e)


def _finite(x: Any, what: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise CliError(EXIT_INVALID, "%s must be a number" % what)
    try:
        v = float(x)
    except OverflowError:
        raise CliError(EXIT_INVALID, "%s is out of range" % what)
    if not math.isfinite(v):
        raise CliError(EXIT_INVALID, "%s must be finite" % what)
    return v


def _triple(node: Any, what: str) -> Tuple[float, float, float]:
    if not isinstance(node, (list, tuple)) or len(node) != 3:
        raise CliError(EXIT_INVALID, "%s must be a list of three numbers" % what)
    return tuple(_finite(v, what) for v in node)  # type: ignore[return-value]


def _pair(node: Any, what: str) -> geometry.Point2:
    if not isinstance(node, (list, tuple)) or len(node) != 2:
        raise CliError(EXIT_INVALID, "%s must be an [x, y] pair" % what)
    return geometry.Point2(_finite(node[0], what), _finite(node[1], what))


def parse_triangle(spec: Dict[str, Any]) -> geometry.Triangle:
    node = spec.get("triangle")
    if not isinstance(node, dict):
        raise CliError(EXIT_INVALID, "spec needs a \"triangle\" object")
    has_v = "vertices" in node
    has_s = "sides" in node
    if has_v == has_s:
        raise CliError(EXIT_INVALID,
                       "triangle needs exactly one of \"vertices\"/\"sides\"")
    try:
        if has_v:
            vs = node["vertices"]
            if not isinstance(vs, (list, tuple)) or len(vs) != 3:
                raise CliError(EXIT_INVALID, "vertices must list three points")
            return geometry.Triangle(*(_pair(v, "vertex") for v in vs))
        return geometry.triangle_from_sides(*_triple(node["sides"], "sides"))
    except (geometry.TriangleInequalityViolated, geometry.DegenerateTriangle,
            ValueError) as e:
        raise CliError(EXIT_INVALID, str(e))


def parse_weights(spec: Dict[str, Any]) -> construction.Weights:
    try:
        return construction.Weights(*_triple(spec.get("weights"), "weights"))
    except ValueError as e:
        raise CliError(EXIT_INVALID, str(e))


def _xy(p) -> List[float]:
    return [float(p[0]), float(p[1])]


def _normalized(triple) -> Optional[List[float]]:
    s = sum(triple)
    if abs(s) <= 1e-12 * max(abs(v) for v in triple):
        return None
    return [v / s for v in triple]


def _point_block(p: geometry.Point2, t: geometry.Triangle) -> Dict[str, Any]:
    bc = coordinates.to_barycentric(p, t)
    tl = coordinates.barycentric_to_trilinear(bc, t)
    tp = coordinates.tripolar_of_point(p, t)
    return {
        "xy": _xy(p),
        "barycentric": list(bc),
        "trilinear": list(tl),
        "trilinear_normalized": _normalized(tl),
        "tripolar": list(tp),
    }


def _base_doc(command: str, spec: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "version": __version__,
        "command": command,
        "input": spec,
        "tolerances": dict(TOLERANCES),
        "status": "ok",
    }


def _error_doc(command: str, spec: Any, message: str) -> Dict[str, Any]:
    doc = _base_doc(command, spec)
    doc["status"] = "error"
    doc["message"] = message
    return doc


def _failing_tilde_inequality(t: geometry.Triangle,
                              w: construction.Weights) -> str:
    sides = (("lam_A*a", w.lam_A * t.a), ("lam_B*b", w.lam_B * t.b),
             ("lam_C*c", w.lam_C * t.c))
    for i in range(3):
        name, val = sides[i]
        others = [sides[j] for j in range(3) if j != i]
        if val >= others[0][1] + others[1][1]:
            return ("%s >= %s + %s (%.12g >= %.12g + %.12g)"
                    % (name, others[0][0], others[1][0],
                       val, others[0][1], others[1][1]))
    return "scaled side triple fails the triangle inequality"


def _orbit_block(res: construction.SnellOrbitResult) -> Dict[str, Any]:
    orbit = res.orbit
    block = {
        "params": [orbit.tA, orbit.tB, orbit.tC],
        "vertices": [_xy(p) for p in orbit.points],
        "weighted_perimeter": res.weighted_perimeter,
    }
    if res.orbit_in_sides is not None:
        block["in_sides"] = res.orbit_in_sides
    return block


def cmd_point(spec) -> Tuple[Dict[str, Any], int]:
    t = parse_triangle(spec)
    w = parse_weights(spec)
    res = construction.snell_fagnano_point(t, w)
    # Where no closed orbit exists, the oracle gives the constrained minimum.
    brute = (None if res.orbit_in_sides
             else optimize.minimize_inscribed(t, w).cost)
    k = construction.coeffs_from_weights(w)
    doc = _base_doc("point", spec)
    doc["status"] = res.status
    doc["weights_normalized"] = _normalized(w.triple)
    doc["refraction_coefficients"] = list(k.triple)
    if res.conditions is not None:
        doc["interior_conditions"] = list(res.conditions)
    if res.erected is not None:
        doc["erected_apexes"] = [_xy(p) for p in res.erected]
    if res.point is not None:
        doc["point"] = _point_block(res.point, t)
    if res.orbit is not None:
        doc["orbit"] = _orbit_block(res)
    if res.status == construction.STATUS_INTERIOR:
        doc["snell_residuals"] = list(
            construction.verify_snell_point(res.point, t, k))
        bc = coordinates.to_barycentric(res.point, t)
        conj = coordinates.from_barycentric(coordinates.isogonal_conjugate(bc, t), t)
        ctp = coordinates.tripolar_of_point(conj, t)
        doc["isogonal_conjugate"] = {
            "xy": _xy(conj),
            "tripolar": list(ctp),
            "tripolar_normalized": _normalized(ctp),
        }
        if brute is not None:
            doc["brute_force_cost"] = brute
        return doc, EXIT_OK
    info = res.degenerate_info or {}
    doc["degenerate_info"] = {
        "weighted_costs": dict(info.get("weighted_costs", {})),
        "altitude_lengths": dict(info.get("altitude_lengths", {})),
        "weighted_argmin": info.get("weighted_argmin"),
        "shortest_altitude": info.get("shortest_altitude"),
    }
    doc["brute_force_cost"] = brute
    if res.status == construction.STATUS_NO_TILDE:
        doc["message"] = _failing_tilde_inequality(t, w)
        return doc, EXIT_MISSING
    return doc, EXIT_OK


def cmd_convert(spec) -> Tuple[Dict[str, Any], int]:
    t = parse_triangle(spec)
    node = spec.get("coords")
    if not isinstance(node, dict):
        raise CliError(EXIT_INVALID, "spec needs a \"coords\" object")
    kind = node.get("kind")
    if kind not in ("barycentric", "trilinear", "tripolar"):
        raise CliError(EXIT_INVALID,
                       "coords.kind must be barycentric, trilinear or tripolar")
    values = _triple(node.get("values"), "coords.values")
    doc = _base_doc("convert", spec)
    doc["kind"] = kind
    doc["values"] = list(values)
    doc["values_normalized"] = _normalized(values)

    points: List[Dict[str, Any]] = []
    if kind == "tripolar":
        if min(values) < 0.0:
            raise CliError(EXIT_INVALID, "tripolar distances must be >= 0")
        for p, s in coordinates.tripolar_to_points(
                coordinates.TripolarCoords(*values), t):
            block = _point_block(p, t)
            block["scale"] = s
            points.append(block)
    else:
        bc = (coordinates.BarycentricCoords(*values) if kind == "barycentric"
              else coordinates.trilinear_to_barycentric(
                  coordinates.TrilinearCoords(*values), t))
        p = coordinates.from_barycentric(bc, t)
        points.append(_point_block(p, t))
    doc["points"] = points
    doc["count"] = len(points)
    return doc, EXIT_OK


def _state_block(t: geometry.Triangle,
                 s: billiards.BilliardState) -> Dict[str, Any]:
    return {
        "side": s.side,
        "param": s.param,
        "xy": _xy(billiards.point_on_side(t, s.side, s.param)),
        "direction": _xy(s.direction),
    }


def cmd_simulate(spec) -> Tuple[Dict[str, Any], int]:
    t = parse_triangle(spec)
    w = parse_weights(spec)
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
        start = billiards.orbit_start_state(t, res.orbit)
    else:
        if not isinstance(node, dict):
            raise CliError(EXIT_INVALID, "start must be an object")
        side = node.get("side")
        if side not in ("a", "b", "c"):
            raise CliError(EXIT_INVALID, "start.side must be a, b or c")
        param = _finite(node.get("param"), "start.param")
        if not 0.0 < param < 1.0:
            raise CliError(EXIT_INVALID, "start.param must lie in (0, 1)")
        d = _pair(node.get("direction"), "start.direction")
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
    doc = _base_doc("simulate", spec)
    doc["kappa"] = list(k.triple)
    doc["steps"] = steps
    doc["trajectory"] = [_state_block(t, s) for s in states]
    doc["periodic"] = periodic
    doc["closure"] = {
        "side_match": side_match,
        "param_error": param_error,
        "direction_error": direction_error,
    }
    return doc, EXIT_OK


def cmd_minimize(spec) -> Tuple[Dict[str, Any], int]:
    t = parse_triangle(spec)
    w = parse_weights(spec)
    rep = optimize.minimize_inscribed(t, w)
    doc = _base_doc("minimize", spec)
    doc["report"] = {
        "params": [rep.best.tA, rep.best.tB, rep.best.tC],
        "vertices": [_xy(p) for p in rep.best.points],
        "cost": rep.cost,
        "iterations": rep.iterations,
        "converged": rep.converged,
        "flatness": rep.flatness,
    }
    res = construction.snell_fagnano_point(t, w)
    gap = ((rep.cost - res.weighted_perimeter)
           / max(abs(res.weighted_perimeter), 1e-300))
    doc["constructed"] = {
        "status": res.status,
        "weighted_perimeter": res.weighted_perimeter,
        "relative_gap": gap,
    }
    return doc, EXIT_OK


def cmd_river(spec) -> Tuple[Dict[str, Any], int]:
    node = spec.get("river")
    if not isinstance(node, dict):
        raise CliError(EXIT_INVALID, "spec needs a \"river\" object")
    line = node.get("line")
    if not isinstance(line, (list, tuple)) or len(line) != 2:
        raise CliError(EXIT_INVALID, "river.line must list two points")
    try:
        inst = billiards.RiverInstance(
            _pair(node.get("a"), "river.a"), _pair(node.get("b"), "river.b"),
            (_pair(line[0], "river.line"), _pair(line[1], "river.line")),
            _finite(node.get("lam1"), "river.lam1"),
            _finite(node.get("lam2"), "river.lam2"))
    except ValueError as e:
        raise CliError(EXIT_INVALID, str(e))
    x, cost, residual = billiards.solve_river(inst)
    doc = _base_doc("river", spec)
    doc["x"] = _xy(x)
    doc["cost"] = cost
    doc["snell_residual"] = residual
    return doc, EXIT_OK


def cmd_render(spec) -> Tuple[Dict[str, Any], int]:
    t = parse_triangle(spec)
    w = parse_weights(spec)
    out = spec.get("svg_path")
    if not isinstance(out, str) or not out:
        raise CliError(EXIT_INVALID,
                       "render needs an output path (--svg or \"svg_path\")")
    layers = spec.get("layers", {})
    if (not isinstance(layers, dict) or set(layers) - {"apollonius"}
            or not isinstance(layers.get("apollonius", False), bool)):
        raise CliError(EXIT_INVALID,
                       "layers must be {\"apollonius\": true or false}")
    res = construction.snell_fagnano_point(t, w)
    circles = None
    common = None
    if layers.get("apollonius"):
        circles = [
            apollonius.apollonian_circle(t.vA, t.vB, w.lam_A / w.lam_B),
            apollonius.apollonian_circle(t.vB, t.vC, w.lam_B / w.lam_C),
            apollonius.apollonian_circle(t.vC, t.vA, w.lam_C / w.lam_A),
        ]
        common = apollonius.apollonian_common_points(t, w)
    svg = render.render_scene(t, res, apollonius=circles, common_points=common)
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(svg)
    except OSError as e:
        raise CliError(EXIT_IO, "cannot write %s: %s" % (out, e))
    doc = _base_doc("render", spec)
    doc["construction_status"] = res.status
    doc["svg_path"] = out
    doc["svg_bytes"] = len(svg.encode("utf-8"))
    return doc, EXIT_OK


HANDLERS = {
    "point": cmd_point,
    "convert": cmd_convert,
    "simulate": cmd_simulate,
    "minimize": cmd_minimize,
    "river": cmd_river,
    "render": cmd_render,
}


def run_spec(command: str, spec: Any) -> Tuple[Dict[str, Any], int]:
    """Dispatch one job; never raises, always returns a report document."""
    if not isinstance(spec, dict):
        spec = {"_raw": spec}
        err: Optional[Tuple[int, str]] = (EXIT_INVALID,
                                          "job spec must be a JSON object")
    else:
        err = None
    if err is None:
        try:
            return HANDLERS[command](spec)
        except CliError as e:
            err = (e.code, str(e))
        except (coordinates.NoSuchPoint, coordinates.IdealPoint,
                coordinates.OnSideLine) as e:
            err = (EXIT_MISSING, str(e))
        except (billiards.TotalInternalReflection, billiards.HitVertex) as e:
            err = (EXIT_DYNAMICS, str(e))
        except geometry.GeometryError as e:
            err = (EXIT_INVALID, str(e))
        except (KeyError, TypeError, ValueError) as e:
            err = (EXIT_INVALID, "invalid job spec: %s" % e)
        except OSError as e:
            err = (EXIT_IO, str(e))
    return _error_doc(command, spec, err[1]), err[0]


def _run_job(command: str, text: str, batch: bool, indent: int = 0,
             svg: Optional[str] = None) -> int:
    """Write the report of one job to stdout; return its exit code.

    Never raises.  A batch line may name its own "command", and its report
    carries its exit_code.  A single job whose text is not valid JSON gets
    no report, only its reason on stderr, where the message of any other
    failing single job goes too.  An exception that escapes a handler or
    the serializer is a defect in sf: its traceback goes to stderr and the
    job gets an exit-1 error report.
    """
    spec: Any = {}
    cmd = command

    def finish(doc: Dict[str, Any], code: int) -> int:
        if batch:
            doc["exit_code"] = code
        sys.stdout.write(serialize.dumps(doc, indent=indent)
                         + ("" if indent else "\n"))
        if not batch and code != EXIT_OK and "message" in doc:
            sys.stderr.write("sf: %s\n" % doc["message"])
        return code

    try:
        try:
            spec = _loads(text)
            if batch:
                job = (spec.get("command", command) if isinstance(spec, dict)
                       else command)
                if not isinstance(job, str) or job not in HANDLERS:
                    raise CliError(EXIT_INVALID, "unknown command %r" % (job,))
                cmd = job
            elif svg is not None and isinstance(spec, dict):
                spec = dict(spec, svg_path=svg)
            doc, code = run_spec(cmd, spec)
        except CliError as e:
            if not batch:
                sys.stderr.write("sf: %s\n" % e)
                return e.code
            doc, code = _error_doc(cmd, spec, str(e)), e.code
        return finish(doc, code)
    except Exception as e:  # a defect in sf: report it, keep a batch going
        import traceback
        traceback.print_exc()
        return finish(_error_doc(cmd, spec, "internal error: %s: %s"
                                 % (type(e).__name__, e)), EXIT_INTERNAL)


def _run_batch(command: str, path: str) -> int:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    except OSError as e:
        sys.stderr.write("sf: cannot read batch file: %s\n" % e)
        return EXIT_IO
    worst = EXIT_OK
    for line in lines:
        worst = max(worst, _run_job(command, line, batch=True))
    return worst


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="sf",
        description="Weighted closed-orbit construction and optimization "
                    "for triangles.")
    ap.add_argument("command", choices=HANDLERS)
    ap.add_argument("--input", help="job spec JSON file (default: stdin)")
    ap.add_argument("--batch", help="JSON-lines file of job specs")
    ap.add_argument("--svg", help="output path for a single render job")
    ap.add_argument("--compact", action="store_true",
                    help="one-line JSON output")
    ap.add_argument("--version", action="version", version=__version__)
    args = ap.parse_args(argv)

    if args.svg is not None and (args.command != "render" or args.batch):
        sys.stderr.write("sf: --svg goes only with a single render job\n")
        return EXIT_INVALID

    if args.batch:
        return _run_batch(args.command, args.batch)

    if args.input:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            sys.stderr.write("sf: cannot read input: %s\n" % e)
            return EXIT_IO
    else:
        text = sys.stdin.read()
    return _run_job(args.command, text, batch=False,
                    indent=0 if args.compact else 2, svg=args.svg)


if __name__ == "__main__":
    sys.exit(main())
