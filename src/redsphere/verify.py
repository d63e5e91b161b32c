"""Numeric verification of the extremal claims about reduced polygons.

Each check returns a VerificationReport, a named tuple written out as
its seven _fields; full_suite strings the formula checks and the per-sample
checks together.  The residual is `measured - bound` throughout.  The
scalar-lemma and regular-perimeter-monotone rows judge the tables that
scalar_lemma_grid and regular_perimeters build; `redsphere lemmas` prints them.

Claim identifiers (stable strings):
    table1                       covering radius vs six-decimal reference
    regular-perimeter-monotone   regular perimeter decreasing in n
    diameter-bound-gap           coarse bound minus sharp bound > 0
    arm-ratio-decreasing         arm_length/crossing_angle decreasing in x
    arm-of-angle-increasing      arm_from_angle increasing
    arm-of-angle-convex          arm_from_angle convex
    reduced-check                polygon passes the reducedness criterion
    sample-rejected              unconverged sample, recorded and excluded
    thickness-agreement          lune thickness == witness thickness
    thickness-range              thickness <= pi/2
    perimeter-min                perimeter >= regular perimeter
    perimeter-jensen             2*sum arm(phi_i) >= 2n*arm(mean phi)
    perimeter-witness-identity   geometric perimeter == 2*sum arm_length(y_i)
    diameter-bound               diameter <= sharp bound
    diameter-pair-restriction    restricted pair scan == full scan
    circumradius-bound           circumcap radius <= covering bound
    jung-relation                diameter >= 2*arcsin(sqrt(3)/2 sin r)
    angle-sandwich-lower         max foot-diagonal angle <= half angle
    angle-sandwich-upper         min edge-foot angle >= half angle
    congruent-angle-sum          far-vertex angle == alpha + beta
    boundary-arc-equality        |v_i t_k| == |t_i v_k|
    crossing-angle-range         0 < phi_i < pi/2
    crossing-angle-sum           sum phi_i >= pi
    crossing-angle-sum-strict    sum phi_i > pi on non-regular samples
    crossing-angle-sum-regular   sum phi_i == pi on regular samples
    crossing-angles-regular      each phi_i == pi/n on regular samples
"""

from __future__ import annotations

import csv
import io
import json
import math
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import DomainError
from .formulas import (
    arm_lengths,
    covering_radius_bound,
    crossing_angle,
    crossing_angles_inv,
    diameter_bound,
    diameter_bound_coarse,
    regular_metrics,
    regular_triangle_half_angle,
    x_limit,
)
from .polygon import REDUCED_TOL, ReducedWitness, SphericalPolygon, reduced_check
from .sampler import SampleResult

__all__ = ["VerificationReport", "OMEGA_GRID", "LAMBDA_GRID", "SUITE_GRID", "TABLE1_REFERENCE",
           "check_regular_monotonicity", "check_bound_gap", "check_scalar_lemmas",
           "scalar_lemma_grid", "regular_perimeters", "table1_reports", "polygon_reports",
           "full_suite", "summarize", "reports_to_json", "reports_to_csv"]

# Thickness grid of the reference table; also the default formula grid.
OMEGA_GRID = (math.pi / 8, math.pi / 6, math.pi / 4, math.pi / 3)
# Six-decimal reference values for the covering radius on that grid.
TABLE1_REFERENCE = {
    math.pi / 8: 0.260304,
    math.pi / 6: 0.345523,
    math.pi / 4: 0.511669,
    math.pi / 3: 0.670020,
}
LAMBDA_GRID = (0.3, 0.5, 1.0, 2.0, 5.0)
# (vertex counts, thicknesses) of the sample grid that `redsphere suite` and
# the test-suite's session samples cover, cell by cell, n-major.
SUITE_GRID = ((5, 7), (math.pi / 6, math.pi / 4, math.pi / 3))

TOL_FORMULA = 1e-8
TOL_CAP = 1e-7
TOL_TABLE = 1e-5
# Samples whose crossing angles all sit within this spread of pi/n count
# as regular for the strict-excess branch of the angle-sum claim.
REGULAR_PHI_SPREAD = 1e-6


# passed per relation; NaN compares false, so a NaN residual fails them all.
_RELATIONS = {
    "ge": lambda residual, tol: residual >= -tol,
    "le": lambda residual, tol: residual <= tol,
    "eq": lambda residual, tol: abs(residual) <= tol,
    "gt": lambda residual, tol: residual > tol,
    "lt": lambda residual, tol: residual < -tol,
}


# A claim row; _fields are its seven columns in output order (JSON keys, CSV header).
class VerificationReport(NamedTuple):
    claim_id: str
    inputs: str
    measured: float
    bound: float
    residual: float
    passed: bool
    tolerance: float

    def to_dict(self) -> dict:
        return self._asdict()


def _report(claim_id: str, inputs: str, measured: float, bound: float,
            tolerance: float, relation: str) -> VerificationReport:
    residual = measured - bound
    # The row without the keyword __new__ that NamedTuple generates.
    return tuple.__new__(VerificationReport, (claim_id, inputs, measured, bound, residual,
                                              _RELATIONS[relation](residual, tolerance), tolerance))


def _sample_tag(sample: SampleResult) -> str:
    c = sample.config
    return f"n={c.n} thickness={c.thickness:.9g} seed={c.seed}"


# ---------------------------------------------------------------------------
# Theorem claims on measurements of one reduced polygon.


def _jung_floor(radius: float) -> float:
    """Two-point Jung floor 2 arcsin(sqrt(3)/2 sin r) on the diameter."""
    return 2.0 * math.asin(min(0.5 * math.sqrt(3.0) * math.sin(radius), 1.0))


def _arm_sum(lam: float, *, xs: Iterable[float] = (), phis: Sequence[float] = ()) -> float:
    """sum(arm_lengths(xs, lam)) or, given crossing angles phis instead, that
    of their xs crossing_angles_inv(phis, lam); NaN, which fails the claim,
    when a phi or an x leaves its formula's domain."""
    try:
        return sum(arm_lengths(crossing_angles_inv(phis, lam) if phis else xs, lam))
    except DomainError:
        return math.nan


def check_bound_gap(thickness: float) -> VerificationReport:
    """The sharp diameter bound undercuts the coarse one by more than 1e-6."""
    gap = diameter_bound_coarse(thickness) - diameter_bound(thickness)
    return _report("diameter-bound-gap", f"thickness={thickness:.9g}", gap, 0.0, 1e-6, "gt")


def regular_perimeters(thickness: float) -> dict[int, float]:
    """The regular k-gon's perimeter at this thickness, by odd k = 3, 5, ..., 51."""
    return {k: regular_metrics(k, thickness).perimeter for k in range(3, 52, 2)}


def check_regular_monotonicity(thickness: float) -> VerificationReport:
    """Regular perimeters strictly decrease over odd n = 3, 5, ..., 51."""
    perims = list(regular_perimeters(thickness).values())
    worst = max(b - a for a, b in zip(perims, perims[1:]))
    return _report("regular-perimeter-monotone",
                   f"thickness={thickness:.9g} k=3..51", worst, 0.0, 1e-10, "lt")


def scalar_lemma_grid(lam: float, points: int) -> tuple[np.ndarray, ...]:
    """(phis, F, xs, ratio) for k = 1..points: phis = pi/2 * k/(points + 1) and
    F their arm_from_angle; xs = x_limit(lam) * k/(points + 1) and ratio their
    arm_length/crossing_angle.  The scalar-lemma rows judge these arrays."""
    phis = 0.5 * math.pi * np.arange(1, points + 1) / (points + 1)
    F = np.array(arm_lengths(crossing_angles_inv(phis.tolist(), lam), lam))
    xs = x_limit(lam) * np.arange(1, points + 1) / (points + 1)
    x_list = xs.tolist()
    ratio = np.array(arm_lengths(x_list, lam)) / np.array([crossing_angle(x, lam) for x in x_list])
    return phis, F, xs, ratio


def check_scalar_lemmas() -> list[VerificationReport]:
    """Grid monotonicity/convexity of the scalar maps, three claims per lam.

    By neighbour differences on scalar_lemma_grid(lam, 1000) for each lam of
    LAMBDA_GRID: arm_length/crossing_angle strictly decreasing in x;
    arm_from_angle strictly increasing and strictly convex in the angle.
    """
    points = 1000
    out = []
    for lam in LAMBDA_GRID:
        tag = f"lam={lam:.9g} points={points}"
        _, F, _, ratio = scalar_lemma_grid(lam, points)
        out.append(_report("arm-ratio-decreasing", tag, float(np.max(np.diff(ratio))),
                           0.0, 0.0, "lt"))
        d1 = np.diff(F)
        out.append(_report("arm-of-angle-increasing", tag, float(np.min(d1)),
                           0.0, 0.0, "gt"))
        out.append(_report("arm-of-angle-convex", tag, float(np.min(np.diff(d1))),
                           0.0, 0.0, "gt"))
    return out


# ---------------------------------------------------------------------------
# Reference covering-radius table.


def table1_reports() -> list[VerificationReport]:
    return [
        _report("table1", f"thickness={w:.9g}", covering_radius_bound(w),
                TABLE1_REFERENCE[w], TOL_TABLE, "eq")
        for w in OMEGA_GRID
    ]


# ---------------------------------------------------------------------------
# Witness invariants of one reduced polygon.


@lru_cache(maxsize=32)
def _bounds(n: int, thickness: float) -> tuple:
    """g, lambda, the diameter-bound row's coarse-gap tag, the diameter and
    covering radius bounds and the regular perimeter for n-gons of this
    thickness."""
    g = regular_triangle_half_angle(thickness)
    coarse_gap = diameter_bound_coarse(thickness) - diameter_bound(thickness)
    return (g, math.tan(thickness), f" coarse_gap={coarse_gap:.9g}", diameter_bound(thickness),
            covering_radius_bound(thickness), regular_metrics(n, thickness).perimeter)


def polygon_reports(P: SphericalPolygon, witness: ReducedWitness,
                    thickness: float, tag: str) -> list[VerificationReport]:
    """All theorem and structure claims for one polygon that passed reduced_check.

    P.lengths() gives the perimeter and both diameters in one pass; the
    bounds depend on n and thickness alone and are computed once per pair
    (n, thickness).  The crossing angles' sum is NaN exactly when a crossing
    is missing, and then only their range row is written.
    """
    n = P.n
    g, lam, coarse_tag, max_diameter, max_radius, regular_perimeter = _bounds(n, thickness)
    perimeter, full_diameter, diameter = P.lengths()
    radius = P.circumcap().radius
    jung_floor = _jung_floor(radius)
    out = [
        _report("perimeter-min", tag, perimeter, regular_perimeter, TOL_FORMULA, "ge"),
        _report("diameter-bound", tag + coarse_tag, diameter,
                max_diameter, TOL_FORMULA, "le"),
        _report("circumradius-bound", f"{tag} jung_slack={diameter - jung_floor:.9g}",
                radius, max_radius, TOL_CAP, "le"),
        _report("jung-relation", tag, diameter, jung_floor, TOL_FORMULA, "ge"),
        _report("thickness-agreement", tag,
                abs(P.thickness() - witness.thickness), 0.0, 1e-9, "le"),
        _report("thickness-range", tag, witness.thickness, 0.5 * math.pi, 1e-10, "le"),
        _report("diameter-pair-restriction", tag,
                abs(diameter - full_diameter), 0.0, 1e-12, "le"),
        _report("angle-sandwich-lower", tag,
                max(witness.foot_diagonal_angles), g, TOL_FORMULA, "le"),
        _report("angle-sandwich-upper", tag,
                min(witness.edge_foot_angles), g, TOL_FORMULA, "ge"),
        _report("congruent-angle-sum", tag,
                max([abs(far - (a + b)) for far, a, b in zip(
                    witness.far_angles, witness.edge_foot_angles,
                    witness.foot_diagonal_angles)]),
                0.0, TOL_FORMULA, "le"),
        _report("boundary-arc-equality", tag,
                max([abs(gap) for gap in witness.boundary_arc_gaps]), 0.0, TOL_FORMULA, "le"),
    ]

    phis = witness.crossing_angles
    total = sum(phis)
    if not math.isnan(total):
        margin = min(min(phis), 0.5 * math.pi - max(phis))
        out.append(_report("crossing-angle-range", tag, margin, 0.0, 0.0, "gt"))
        out.append(_report("crossing-angle-sum", tag, total, math.pi, TOL_FORMULA, "ge"))
        spread = max([abs(p - math.pi / n) for p in phis])
        if spread <= REGULAR_PHI_SPREAD:
            out.append(_report("crossing-angle-sum-regular", tag, total, math.pi, 1e-9, "eq"))
            out.append(_report("crossing-angles-regular", tag, spread, 0.0, 1e-9, "le"))
        else:
            out.append(_report("crossing-angle-sum-strict", tag, total, math.pi, 1e-9, "gt"))
        # Spoke-decomposition identity: geometric perimeter equals twice the
        # summed arms of the crossing parameters y_i = tan|o_i t_i|.
        arms = _arm_sum(lam, xs=map(math.tan, witness.crossing_foot_distances))
        out.append(_report("perimeter-witness-identity", tag,
                           perimeter, 2.0 * arms, TOL_FORMULA, "eq"))
        out.append(_report("perimeter-jensen", tag, 2.0 * _arm_sum(lam, phis=phis),
                           2.0 * n * _arm_sum(lam, phis=(total / n,)), 1e-9, "ge"))
    else:
        out.append(_report("crossing-angle-range", tag, math.nan, 0.0, 0.0, "gt"))
    return out


# ---------------------------------------------------------------------------
# The whole suite.


def full_suite(samples: Sequence[SampleResult],
               include_formula_checks: bool = True) -> list[VerificationReport]:
    """Formula-grid checks plus every per-sample claim.

    Unconverged samples are rejections: recorded as sample-rejected rows
    (always passing, with the reason) and excluded from theorem claims.
    Reducedness of each converged sample comes from reduced_check of its
    polygon, never from sample.witness, so a corrupted polygon fails its
    reduced-check row and is likewise excluded; no theorem check runs on a
    polygon that did not pass reduced_check.  For a sampled polygon that is
    the witness the sampler computed, kept on the immutable polygon.
    """
    reports: list[VerificationReport] = []
    if include_formula_checks:
        reports.extend(table1_reports())
        for w in OMEGA_GRID:
            reports.append(check_regular_monotonicity(w))
            reports.append(check_bound_gap(w))
        reports.extend(check_scalar_lemmas())

    for idx, sample in enumerate(samples):
        tag = f"sample={idx} {_sample_tag(sample)}"
        if not sample.converged or sample.polygon is None:
            reason = sample.failure_reason or "did not converge"
            reports.append(_report("sample-rejected", f"{tag} reason={reason}",
                                   sample.final_residual, 0.0, math.inf, "le"))
            continue
        witness = reduced_check(sample.polygon)
        if not witness.is_reduced:
            measured = witness.max_residual if all(witness.foot_interior) else math.inf
            reports.append(_report("reduced-check", f"{tag} reason={witness.reason}",
                                   measured, 0.0, REDUCED_TOL, "le"))
            continue
        reports.append(_report("reduced-check", tag, witness.max_residual, 0.0,
                               REDUCED_TOL, "le"))
        reports.extend(polygon_reports(sample.polygon, witness,
                                       sample.config.thickness, tag))
    return reports


def summarize(reports: Iterable[VerificationReport]) -> dict[str, dict]:
    """Per-claim counts and residual range (NaN if no residual is a number), by claim id."""
    out: dict[str, dict] = {}
    for r in reports:
        s = out.setdefault(r.claim_id, {
            "count": 0, "passed": 0, "failed": 0,
            "min_residual": math.inf, "max_residual": -math.inf,
        })
        s["count"] += 1
        s["passed" if r.passed else "failed"] += 1
        if not math.isnan(r.residual):
            s["min_residual"] = min(s["min_residual"], r.residual)
            s["max_residual"] = max(s["max_residual"], r.residual)
    for s in out.values():
        if s["min_residual"] > s["max_residual"]:
            s["min_residual"] = s["max_residual"] = math.nan
    return out


def _finite_or_none(obj):
    """obj with every non-finite float, inside dicts and lists too, as None."""
    if isinstance(obj, dict):
        return {k: _finite_or_none(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_none(v) for v in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def strict_json(obj) -> str:
    """json.dumps(obj, indent=1), with NaN and infinities, not JSON, as null."""
    return json.dumps(_finite_or_none(obj), indent=1, allow_nan=False)


def reports_to_json(reports: Sequence[VerificationReport]) -> str:
    return strict_json([r.to_dict() for r in reports])


def reports_to_csv(reports: Sequence[VerificationReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(VerificationReport._fields)
    for r in reports:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in r])
    return buf.getvalue()
