"""Weighted closed billiard orbits in triangles.

Construct the interior point whose pedal triangle is the unique 3-periodic
trajectory of a refractive (Snell) billiard with per-side coefficients, and
cross-check it against coordinate conversions, the Apollonius common
points and a convex minimizer of the weighted perimeter.
"""

__version__ = "0.1.0"

from .geometry import (DegenerateLine, DegenerateTriangle, GeometryError,
                       InscribedTriangle, Point2, Triangle,
                       TriangleInequalityViolated, altitudes, circumcircle,
                       dist, inscribed_from_params, pedal_triangle, signed_area,
                       triangle_from_sides)
from .coordinates import (BarycentricCoords, IdealPoint, NoSuchPoint,
                          OnSideLine, TrilinearCoords, TripolarCoords,
                          barycentric_to_trilinear, from_barycentric,
                          isogonal_conjugate, to_barycentric,
                          trilinear_to_barycentric, tripolar_of_point,
                          tripolar_to_points)
from .apollonius import (ApollonianCircle, TildeTriangle, apollonian_circle,
                         apollonian_common_points, tilde_triangle)
from .construction import (RefractionCoeffs, SnellOrbitResult, Weights,
                           coeffs_from_weights, degenerate_minimizer,
                           erect_similar, interior_conditions,
                           snell_fagnano_point, verify_snell_point)
from .billiards import (BilliardState, HitVertex, RiverInstance,
                        TotalInternalReflection, billiard_step, is_periodic,
                        orbit_start_state, snell_reflect, solve_river)
from .optimize import MinimizeReport, minimize_inscribed, weighted_perimeter

__all__ = [
    "__version__",
    "Point2", "Triangle", "InscribedTriangle", "triangle_from_sides",
    "inscribed_from_params", "pedal_triangle", "altitudes", "dist",
    "signed_area", "circumcircle",
    "GeometryError", "DegenerateTriangle", "DegenerateLine",
    "TriangleInequalityViolated",
    "BarycentricCoords", "TrilinearCoords", "TripolarCoords",
    "to_barycentric", "from_barycentric", "trilinear_to_barycentric",
    "barycentric_to_trilinear", "tripolar_of_point", "tripolar_to_points",
    "isogonal_conjugate",
    "IdealPoint", "OnSideLine", "NoSuchPoint",
    "ApollonianCircle", "TildeTriangle", "apollonian_circle",
    "apollonian_common_points", "tilde_triangle",
    "Weights", "RefractionCoeffs", "coeffs_from_weights",
    "SnellOrbitResult", "snell_fagnano_point", "erect_similar",
    "interior_conditions", "verify_snell_point", "degenerate_minimizer",
    "BilliardState", "RiverInstance", "snell_reflect", "billiard_step",
    "is_periodic", "orbit_start_state", "solve_river",
    "TotalInternalReflection", "HitVertex",
    "MinimizeReport", "minimize_inscribed", "weighted_perimeter",
]
