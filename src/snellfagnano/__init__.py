"""Weighted closed billiard orbits in triangles.

Construct the interior point whose pedal triangle is the unique 3-periodic
trajectory of a refractive (Snell) billiard with per-side coefficients, and
cross-check it against coordinate conversions, the Apollonius common
points and a convex minimizer of the weighted perimeter.  Every triple,
weights and coordinates alike, is a plain 3-tuple; Weights is a tuple
that checks its entries.

Submodules load on first use: ``import snellfagnano`` puts a lazy module
(``importlib.util.LazyLoader``) for each library module into
``sys.modules``, and its body runs when one of its attributes, or a public
name of the package, is first looked up.  The CLI (``cli``, ``jobs``)
imports a command's module (``cmd_<command>``) by name when it runs, so a
cold ``sf`` process compiles and runs only those and the library modules
that command uses, and an error inside a submodule surfaces on that first
use, not at ``import snellfagnano``.
Before Python 3.12 that first use is not thread-safe, so a threaded caller
looks up one name of each submodule it needs before it starts its threads.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

__version__ = "0.1.0"

# Every library submodule, with the public names of the package it defines.
_PUBLIC = (
    ("exact", ()),
    ("geometry", (
        "Point2", "Triangle", "InscribedTriangle", "triangle_from_sides",
        "inscribed_from_params", "pedal_triangle", "dist",
        "GeometryError", "DegenerateTriangle", "DegenerateLine",
        "TriangleInequalityViolated", "IdealPoint", "NoSuchPoint")),
    ("coordinates", (
        "to_barycentric", "from_barycentric", "trilinear_to_barycentric",
        "barycentric_to_trilinear", "tripolar_of_point", "tripolar_to_points",
        "isogonal_conjugate", "TildeTriangle", "tilde_triangle",
        "OnSideLine")),
    ("apollonius", (
        "ApollonianCircle", "apollonian_circle", "apollonian_common_points")),
    ("construction", (
        "Weights", "coeffs_from_weights",
        "SnellOrbitResult", "snell_fagnano_point", "erect_similar",
        "verify_snell_point")),
    ("billiards", (
        "BilliardState", "RiverInstance", "snell_reflect", "billiard_step",
        "orbit_start_state", "solve_river",
        "TotalInternalReflection", "HitVertex")),
    ("optimize", ("MinimizeReport", "minimize_inscribed", "weighted_perimeter")),
    ("render", ()),
    ("serialize", ()),
)
_HOME = {name: module for module, names in _PUBLIC for name in names}

__all__ = ["__version__", *_HOME]


def _lazy(name):
    """Register submodule ``name``; its body runs on first attribute access."""
    spec = find_spec(__name__ + "." + name)
    spec.loader = LazyLoader(spec.loader)
    module = module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


globals().update((module, _lazy(module)) for module, _ in _PUBLIC)


def __getattr__(name):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name)) from None
    return getattr(globals()[module], name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
