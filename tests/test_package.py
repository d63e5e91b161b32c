"""The package's public namespace."""

import ast
from pathlib import Path

import redsphere

# Every name the package exports, sorted; the submodules' __all__ lists
# build redsphere.__all__, so this pins them too.
PUBLIC_NAMES = [
    "Cap", "DegeneratePoint", "DomainError", "LAMBDA_GRID", "NotConvex",
    "OMEGA_GRID", "PolygonDocumentError", "RedsphereError", "ReducedWitness",
    "RegularMetrics", "SUITE_GRID", "SampleResult", "SamplerConfig", "SphericalPolygon",
    "Splitmix64", "TABLE1_REFERENCE", "VerificationReport", "__version__",
    "arm_from_angle", "arm_length", "arm_lengths", "build_regular", "check_bound_gap",
    "check_regular_monotonicity", "check_scalar_lemmas", "covering_radius_bound",
    "crossing_angle", "crossing_angle_inv", "crossing_angles_inv", "diameter_bound",
    "diameter_bound_coarse", "full_suite", "load_polygon", "polygon_from_doc",
    "polygon_reports", "polygon_to_doc", "reduced_check", "regular_metrics",
    "regular_perimeters", "regular_triangle_half_angle", "reports_to_csv", "reports_to_json",
    "sample_batch", "sample_reduced", "save_polygon", "scalar_lemma_grid", "summarize",
    "table1_reports", "x_limit",
]


def test_every_exported_name_resolves():
    missing = [name for name in redsphere.__all__ if not hasattr(redsphere, name)]
    assert not missing


def test_exported_names_are_pinned():
    assert len(PUBLIC_NAMES) == 49
    assert len(set(redsphere.__all__)) == len(redsphere.__all__)
    assert sorted(redsphere.__all__) == PUBLIC_NAMES


def test_no_module_imports_another_modules_private_names():
    private = []
    for path in sorted(Path(redsphere.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("redsphere")):
                private += [(path.name, alias.name) for alias in node.names
                            if alias.name.startswith("_")]
    assert not private
