"""`sf render`: an SVG of the triangle, the orbit and, on request, the
Apollonius circles with their common points.

"layers" is {"apollonius": true|false}; anything else is exit 2, as is an
output path that is empty or holds a NUL character, which no file name
can.  An unwritable output path is exit 5.
"""

from __future__ import annotations

from . import apollonius, construction, render
from .jobs import (EXIT_INVALID, EXIT_IO, EXIT_OK, CliError, base_doc,
                   parse_triangle, parse_weights)


# The top-level spec keys this command reads.
KEYS = ("triangle", "weights", "svg_path", "layers")


def run(spec) -> tuple[dict[str, object], int]:
    t = parse_triangle(spec)
    w = parse_weights(spec, t)
    out = spec.get("svg_path")
    if not isinstance(out, str) or not out:
        raise CliError(EXIT_INVALID,
                       "render needs an output path (--svg or \"svg_path\")")
    if "\0" in out:
        raise CliError(EXIT_INVALID, "output path %r holds a NUL character"
                       % out)
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
    doc = base_doc("render", spec)
    doc["construction_status"] = res.status
    doc["svg_path"] = out
    doc["svg_bytes"] = len(svg.encode("utf-8"))
    return doc, EXIT_OK
