"""What every `sf` job shares: the JSON decoder, spec parsing and report
blocks.

`loads` is the package's one JSON decoder: the CLI core decodes every job
with it, and `workers` every line it checks for a repeated `svg_path`, so
the two agree on which lines decode.  Its hooks refuse NaN, Infinity and
a float that overflows, so the input a report echoes is finite.  A job
spec is then parsed into the package's own types (`Triangle`, `Weights`,
`Point2`) by helpers that check each field's type, for in-process callers
of `run_spec` too; a malformed field raises `CliError` with exit code 2.
`base_doc` and `error_doc` start every report, so each one echoes the
version, the command, the input and the fixed `TOLERANCES`.  The command
modules (`cmd_point` ... `cmd_render`), `workers` and the CLI core import
this module; it imports none of them, nor `cli`, which `python -m
snellfagnano.cli` runs as `__main__` and an import would run a second time.
"""

from __future__ import annotations

import json
import math
import sys

from . import __version__, construction, coordinates, geometry

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INVALID = 2
EXIT_MISSING = 3
EXIT_DYNAMICS = 4
EXIT_IO = 5

# Echoed by every report.  periodicity is simulate's closure threshold.
TOLERANCES = {"periodicity": 1e-8}


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


# One decoder for the process: json.loads with hooks builds a new one per call.
_DECODER = json.JSONDecoder(parse_float=_finite_float,
                            parse_constant=_reject_const)


def loads(text: str | bytes) -> object:
    """The JSON value of text, bytes being decoded as UTF-8; CliError(2) if
    it is not one.  A float that overflows, NaN and Infinity are not."""
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        if text.startswith("\ufeff"):  # as json.loads words it
            raise json.JSONDecodeError(
                "Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        return _DECODER.decode(text)
    except (ValueError, RecursionError) as e:
        raise CliError(EXIT_INVALID, "invalid JSON: %s" % e)


def finite(x: object, what: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise CliError(EXIT_INVALID, "%s must be a number" % what)
    try:
        v = float(x)
    except OverflowError:
        raise CliError(EXIT_INVALID, "%s is out of range" % what)
    if not math.isfinite(v):
        raise CliError(EXIT_INVALID, "%s must be finite" % what)
    return v


def triple(node: object, what: str) -> tuple[float, float, float]:
    if not isinstance(node, (list, tuple)) or len(node) != 3:
        raise CliError(EXIT_INVALID, "%s must be a list of three numbers" % what)
    return tuple(finite(v, what) for v in node)  # type: ignore[return-value]


def pair(node: object, what: str) -> geometry.Point2:
    if not isinstance(node, (list, tuple)) or len(node) != 2:
        raise CliError(EXIT_INVALID, "%s must be an [x, y] pair" % what)
    return geometry.Point2(finite(node[0], what), finite(node[1], what))


def parse_triangle(spec: dict[str, object]) -> geometry.Triangle:
    node = spec.get("triangle")
    if not isinstance(node, dict):
        raise CliError(EXIT_INVALID, "spec needs a \"triangle\" object")
    has_v = "vertices" in node
    has_s = "sides" in node
    if has_v == has_s:
        raise CliError(EXIT_INVALID,
                       "triangle needs exactly one of \"vertices\"/\"sides\"")
    if has_v:
        vs = node["vertices"]
        if not isinstance(vs, (list, tuple)) or len(vs) != 3:
            raise CliError(EXIT_INVALID, "vertices must list three points")
        return geometry.Triangle(*(pair(v, "vertex") for v in vs))
    return geometry.triangle_from_sides(*triple(node["sides"], "sides"))


def check_keys(spec: dict[str, object], keys: tuple[str, ...]) -> None:
    """Refuse a top-level key that the command does not read; "id" and
    "command" are allowed everywhere."""
    for key in spec:
        if key not in keys and key not in ("id", "command"):
            raise CliError(EXIT_INVALID, "unknown key %r in job spec" % key)


def parse_weights(spec: dict[str, object],
                  t: geometry.Triangle) -> construction.Weights:
    """The weights of spec on t, refused outside the problem's domain.  Each
    cost a report prices weighs a triangle with a vertex on each side line,
    pedal feet past a vertex included: at most max(w) perimeter, which must
    be finite, and at least min(w) 2 area / diameter, min(w) min(t.heights)
    (a vertex on line BC is d_b, d_c from CA, AB, b d_b + c d_c >= 2 area):
    half that must be normal."""
    w = construction.Weights(*triple(spec.get("weights"), "weights"))
    if not math.isfinite(max(w) * (t.a + t.b + t.c)):
        raise CliError(EXIT_INVALID,
                       "largest weight times the perimeter overflows")
    low = min(w) * (min(t.heights) / 2)
    if low < sys.float_info.min:
        raise CliError(EXIT_INVALID, "smallest weight times area / diameter "
                       "is %.17g, below %.17g" % (low, sys.float_info.min))
    return w


def xy(p) -> list[float]:
    return [float(p[0]), float(p[1])]


def point_block(p: geometry.Point2, bc: tuple[float, float, float],
                t: geometry.Triangle) -> dict[str, object]:
    """p in every coordinate system; bc is its normalized barycentrics as
    the caller defined p, not read back from p's xy."""
    tl = coordinates.barycentric_to_trilinear(bc, t)
    tp = coordinates.tripolar_of_point(p, t)
    return {
        "xy": xy(p),
        "barycentric": list(bc),
        "trilinear": list(tl),
        "trilinear_normalized": coordinates.normalized(tl),
        "tripolar": list(tp),
    }


def base_doc(command: str, spec: dict[str, object]) -> dict[str, object]:
    return {
        "version": __version__,
        "command": command,
        "input": spec,
        "tolerances": dict(TOLERANCES),
        "status": "ok",
    }


def error_doc(command: str, spec: object, message: str) -> dict[str, object]:
    doc = base_doc(command, spec)
    doc["status"] = "error"
    doc["message"] = message
    return doc
