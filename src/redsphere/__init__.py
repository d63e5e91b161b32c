"""Reduced spherically convex polygons: construction, verification, metrics.

A convex spherical polygon of thickness below pi/2 is *reduced* when the
projection of every vertex onto the great circle of the opposite side lands
strictly inside that side at distance exactly the thickness.  This package
builds such polygons, samples perturbed ones, and numerically verifies the
extremal claims about their perimeter, diameter and smallest enclosing cap.
"""

from .errors import (
    DegenerateAngle,
    DegeneratePoint,
    DegenerateProjection,
    DomainError,
    NoEnclosingCap,
    NotConvex,
    NotInHemisphere,
    PolygonDocumentError,
    RedsphereError,
)
from .formulas import (
    RegularMetrics,
    arm_from_angle,
    arm_length,
    covering_radius_bound,
    crossing_angle,
    crossing_angle_inv,
    diameter_bound,
    diameter_bound_coarse,
    regular_metrics,
    regular_triangle_half_angle,
    x_limit,
)
from .polygon import (
    Cap,
    ReducedWitness,
    SphericalPolygon,
    build_regular,
    load_polygon,
    polygon_from_doc,
    polygon_to_doc,
    reduced_check,
    save_polygon,
)
from .sampler import SamplerConfig, SampleResult, Splitmix64, sample_batch, sample_reduced
from .verify import (
    LAMBDA_GRID,
    OMEGA_GRID,
    TABLE1_REFERENCE,
    Table1Row,
    VerificationReport,
    check_bound_gap,
    check_regular_monotonicity,
    check_scalar_lemmas,
    full_suite,
    polygon_reports,
    reports_to_csv,
    reports_to_json,
    reproduce_table1,
    summarize,
    table1_reports,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "RedsphereError", "DomainError", "DegeneratePoint",
    "DegenerateProjection", "DegenerateAngle", "NotConvex", "NotInHemisphere", "NoEnclosingCap", "PolygonDocumentError",
    # closed forms
    "RegularMetrics", "x_limit", "regular_triangle_half_angle",
    "arm_length", "crossing_angle", "crossing_angle_inv", "arm_from_angle",
    "regular_metrics", "covering_radius_bound", "diameter_bound",
    "diameter_bound_coarse",
    # polygons
    "SphericalPolygon", "Cap", "ReducedWitness",
    "build_regular", "reduced_check", "polygon_to_doc", "polygon_from_doc",
    "load_polygon", "save_polygon",
    # sampling
    "Splitmix64", "SamplerConfig", "SampleResult", "sample_reduced", "sample_batch",
    # verification
    "VerificationReport", "Table1Row", "OMEGA_GRID", "LAMBDA_GRID",
    "TABLE1_REFERENCE", "check_regular_monotonicity", "check_bound_gap",
    "check_scalar_lemmas", "reproduce_table1", "table1_reports",
    "polygon_reports", "full_suite", "summarize", "reports_to_json",
    "reports_to_csv",
]
