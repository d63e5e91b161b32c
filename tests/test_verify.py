"""Claim reports: relations, fault exclusion, serialization."""

import ast
import csv
import io
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np
import pytest

from conftest import GRID_N, GRID_OMEGA, pulled_regular
from redsphere import (
    SamplerConfig,
    SampleResult,
    SphericalPolygon,
    build_regular,
    check_bound_gap,
    check_regular_monotonicity,
    check_scalar_lemmas,
    covering_radius_bound,
    full_suite,
    polygon_reports,
    reduced_check,
    reports_to_csv,
    reports_to_json,
    sample_reduced,
    summarize,
    table1_reports,
    x_limit,
    OMEGA_GRID,
    TABLE1_REFERENCE,
    VerificationReport,
)
from redsphere import polygon as polygon_module
from redsphere import verify as verify_module
from redsphere.polygon import REDUCED_TOL
from redsphere.verify import _report

QUARTER_PI = 0.25 * math.pi
# The report columns in output order, as the README's contract names them.
COLUMNS = ("claim_id", "inputs", "measured", "bound", "residual", "passed", "tolerance")


@pytest.fixture(scope="module")
def regular_sample():
    cfg = SamplerConfig(n=5, thickness=QUARTER_PI, seed=0, perturbation_scale=0.0)
    res = sample_reduced(cfg)
    assert res.converged
    return res


@pytest.fixture(scope="module")
def crooked_sample():
    res = sample_reduced(SamplerConfig(n=5, thickness=QUARTER_PI, seed=8))
    assert res.converged
    return res


@pytest.fixture(scope="module")
def rejected_sample():
    res = sample_reduced(SamplerConfig(n=7, thickness=math.pi / 3, seed=14))
    assert not res.converged
    return res


def _corrupted_sample():
    """A result that claims convergence over a polygon that is not reduced."""
    bad = pulled_regular(3, QUARTER_PI)
    cfg = SamplerConfig(n=3, thickness=QUARTER_PI, seed=0)
    return SampleResult(polygon=bad, witness=reduced_check(bad), converged=True,
                        iterations=0, final_residual=0.0, config=cfg,
                        failure_reason=None, residual_history=(0.0,))


# Expected `passed` per relation for residual = k * tolerance, k as keyed.
_RELATION_CASES = {
    "ge": {0.0: True, 0.5: True, 1.0: True, -1.0: True, 2.0: True, -2.0: False},
    "le": {0.0: True, 0.5: True, 1.0: True, -1.0: True, 2.0: False, -2.0: True},
    "eq": {0.0: True, 0.5: True, 1.0: True, -1.0: True, 2.0: False, -2.0: False},
    "gt": {0.0: False, 0.5: False, 1.0: False, -1.0: False, 2.0: True, -2.0: False},
    "lt": {0.0: False, 0.5: False, 1.0: False, -1.0: False, 2.0: False, -2.0: True},
}


class TestRelations:
    @pytest.mark.parametrize("tolerance", [1e-8, 0.25])
    @pytest.mark.parametrize("relation,k,passed", [
        (relation, k, passed)
        for relation, cases in _RELATION_CASES.items() for k, passed in cases.items()
    ])
    def test_residual_against_tolerance(self, relation, k, passed, tolerance):
        residual = k * tolerance
        rep = _report("claim", "", residual, 0.0, tolerance, relation)
        assert rep.residual == residual
        assert rep.passed is passed

    @pytest.mark.parametrize("relation", sorted(_RELATION_CASES))
    def test_nan_residual_fails(self, relation):
        rep = _report("claim", "", math.nan, 0.0, 0.25, relation)
        assert rep.passed is False


class TestTableReproduction:
    def test_four_rows_at_reference_values(self):
        reports = table1_reports()
        assert [rep.inputs for rep in reports] == [f"thickness={w:.9g}" for w in OMEGA_GRID]
        for rep, omega in zip(reports, OMEGA_GRID):
            assert rep.measured == covering_radius_bound(omega)
            assert rep.bound == TABLE1_REFERENCE[omega]
            assert rep.measured == pytest.approx(rep.bound, abs=1e-5)

    def test_reports_pass(self):
        for rep in table1_reports():
            assert rep.claim_id == "table1"
            assert rep.passed


class TestFormulaChecks:
    def test_bound_gap_exceeds_margin_on_grid(self):
        for omega in OMEGA_GRID:
            rep = check_bound_gap(omega)
            assert rep.passed
            assert rep.measured > 1e-6

    def test_monotonicity_margin(self):
        for omega in OMEGA_GRID:
            rep = check_regular_monotonicity(omega)
            assert rep.passed
            assert rep.measured < -1e-10

    def test_scalar_lemmas_grid(self):
        reports = check_scalar_lemmas()
        assert len(reports) == 15
        assert all(rep.passed for rep in reports)


class TestPolygonReports:
    def test_regular_pentagon_equalities(self, regular_sample):
        reports = polygon_reports(regular_sample.polygon, regular_sample.witness,
                                  QUARTER_PI, "regular pentagon")
        by_id = {r.claim_id: r for r in reports}
        assert abs(by_id["perimeter-min"].residual) <= 1e-8
        assert "crossing-angle-sum-regular" in by_id
        assert "crossing-angles-regular" in by_id
        assert "crossing-angle-sum-strict" not in by_id
        assert all(r.passed for r in reports)

    def test_regular_triangle_equalities(self):
        res = sample_reduced(SamplerConfig(n=3, thickness=math.pi / 6, seed=0,
                                           perturbation_scale=0.0))
        reports = polygon_reports(res.polygon, res.witness, math.pi / 6, "triangle")
        by_id = {r.claim_id: r for r in reports}
        for claim_id in ("diameter-bound", "circumradius-bound", "perimeter-min"):
            assert abs(by_id[claim_id].residual) <= 1e-8

    def test_crooked_pentagon_strict_branch(self, crooked_sample):
        reports = polygon_reports(crooked_sample.polygon, crooked_sample.witness,
                                  QUARTER_PI, "crooked pentagon")
        by_id = {r.claim_id: r for r in reports}
        assert "crossing-angle-sum-strict" in by_id
        assert by_id["crossing-angle-sum-strict"].passed
        assert "crossing-angle-sum-regular" not in by_id
        assert all(r.passed for r in reports)


    def test_every_call_measures_afresh(self, monkeypatch):
        # Nothing is cached on the polygon, so a run that verifies the same
        # polygon again does the same work again.
        s = sample_reduced(SamplerConfig(n=7, thickness=QUARTER_PI, seed=5))
        P = s.polygon
        full_suite([s], include_formula_checks=False)
        polygon_reports(P, s.witness, QUARTER_PI, "again")
        assert set(vars(P)) == set(vars(SphericalPolygon(P.as_array())))
        assert list(P._witnesses) == [REDUCED_TOL]
        # The pair pass takes the norms of its 21 cross products once per call.
        rows = []
        norm_rows = polygon_module.norm_rows
        monkeypatch.setattr(polygon_module, "norm_rows",
                            lambda A: rows.append(len(A)) or norm_rows(A))
        for _ in range(2):
            polygon_reports(P, s.witness, QUARTER_PI, "again")
        assert rows == [21, 21]
        # And one fresh cap per call: verify-batch repeats its polygons.
        caps = []
        circumcap = SphericalPolygon.circumcap
        monkeypatch.setattr(SphericalPolygon, "circumcap",
                            lambda self: caps.append(self) or circumcap(self))
        for _ in range(2):
            polygon_reports(P, s.witness, QUARTER_PI, "again")
        assert caps == [P, P]

    def test_formula_domain_errors_fail_their_rows(self):
        P = pulled_regular(5, QUARTER_PI)
        witness = reduced_check(P, tol=1.0)
        assert witness.is_reduced
        lam = math.tan(witness.thickness)
        assert max(math.tan(y) for y in witness.crossing_foot_distances) >= x_limit(lam)
        reports = polygon_reports(P, witness, witness.thickness, "pulled pentagon")
        by_id = {r.claim_id: r for r in reports}
        identity = by_id["perimeter-witness-identity"]
        assert not identity.passed and math.isnan(identity.bound)
        assert "perimeter-jensen" in by_id

    def test_undefined_arms_fail_the_jensen_row(self, crooked_sample):
        witness = replace(crooked_sample.witness,
                          crossing_angles=(0.5 * math.pi,) + crooked_sample.witness.crossing_angles[1:])
        reports = polygon_reports(crooked_sample.polygon, witness, QUARTER_PI, "bent")
        jensen = {r.claim_id: r for r in reports}["perimeter-jensen"]
        assert not jensen.passed and math.isnan(jensen.measured)

    def test_missing_crossing_fails_the_range_row_alone(self, crooked_sample):
        witness = replace(crooked_sample.witness,
                          crossing_angles=(math.nan,) + crooked_sample.witness.crossing_angles[1:])
        reports = polygon_reports(crooked_sample.polygon, witness, QUARTER_PI, "bent")
        ranges = [r for r in reports if r.claim_id == "crossing-angle-range"]
        assert len(ranges) == 1
        assert not ranges[0].passed and math.isnan(ranges[0].measured)
        assert not [r.claim_id for r in reports if r.claim_id.startswith("crossing-angle-sum")
                    or r.claim_id in ("crossing-angles-regular", "perimeter-witness-identity",
                                      "perimeter-jensen")]


def numpy_frames(run):
    """(file, function) of every Python function under numpy's package
    directory that run() enters, in call order: a sys.setprofile census."""
    root = os.path.dirname(np.__file__) + os.sep
    entered = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(root):
            entered.append((os.path.basename(frame.f_code.co_filename), frame.f_code.co_name))

    old = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(old)
    return entered


class TestNoNumpyWrappers:
    """The hot paths reach numpy's kernels without its Python wrappers, which
    cost more than the kernels on a polygon's few rows."""

    def test_verify_item_enters_no_numpy_function(self, sample_grid):
        for omega in GRID_OMEGA:
            s = sample_grid.converged(7, omega)[0]
            full_suite([s], include_formula_checks=False)
            assert numpy_frames(lambda: full_suite([s], include_formula_checks=False)) == []

    def test_sample_grid_item_enters_no_reduction_or_einsum_wrapper(self):
        # Only the constructor's np.errstate is left: the sampler and
        # reduced_check call the C functions under np.concatenate's and
        # np.where's dispatchers, and the clip ufunc.
        for n in GRID_N:
            for omega in GRID_OMEGA:
                configs = [SamplerConfig(n=n, thickness=omega, seed=seed) for seed in range(6)]
                # A first pass fills the per-n index and per-m pair caches.
                for cfg in configs:
                    full_suite([sample_reduced(cfg)], include_formula_checks=False)
                for cfg in configs:
                    frames = numpy_frames(
                        lambda: full_suite([sample_reduced(cfg)], include_formula_checks=False))
                    assert {f[0] for f in frames} == {"_ufunc_config.py"}


def _missing_crossing_reports(sample):
    """polygon_reports of the sample with its first crossing angle NaN."""
    witness = replace(sample.witness, crossing_angles=(math.nan,) + sample.witness.crossing_angles[1:])
    return polygon_reports(sample.polygon, witness, QUARTER_PI, "bent")


class TestFullSuite:
    def test_rejected_samples_recorded_not_failed(self, crooked_sample, rejected_sample):
        reports = full_suite([crooked_sample, rejected_sample],
                             include_formula_checks=False)
        rejected_rows = [r for r in reports if r.claim_id == "sample-rejected"]
        assert len(rejected_rows) == 1
        assert rejected_rows[0].passed
        assert "interior" in rejected_rows[0].inputs
        assert all(r.passed for r in reports)

    def test_corrupted_sample_fails_and_is_excluded(self, crooked_sample):
        reports = full_suite([crooked_sample, _corrupted_sample()],
                             include_formula_checks=False)
        failures = [r for r in reports if not r.passed]
        assert len(failures) == 1
        assert failures[0].claim_id == "reduced-check"
        assert "sample=1" in failures[0].inputs
        theorem_rows = [r for r in reports if "sample=1" in r.inputs]
        assert theorem_rows == failures

    def test_borrowed_witness_is_not_trusted(self, crooked_sample):
        corrupted = _corrupted_sample()
        assert crooked_sample.witness.is_reduced
        forged = replace(corrupted, witness=crooked_sample.witness)
        reports = full_suite([forged], include_formula_checks=False)
        assert [(r.claim_id, r.passed) for r in reports] == [("reduced-check", False)]

    def test_formula_checks_run_without_samples(self):
        reports = full_suite([])
        assert len(reports) == 4 + 8 + 15
        assert all(r.passed for r in reports)

    def test_summary_counts(self, crooked_sample):
        reports = full_suite([crooked_sample], include_formula_checks=False)
        stats = summarize(reports)
        assert stats["reduced-check"]["count"] == 1
        assert stats["reduced-check"]["failed"] == 0
        assert stats["perimeter-min"]["passed"] == 1

    def test_summary_of_only_nan_residuals_is_a_nan_range(self, crooked_sample):
        missing = _missing_crossing_reports(crooked_sample)
        full = full_suite([crooked_sample], include_formula_checks=False)
        stats = summarize(missing)["crossing-angle-range"]
        assert (stats["count"], stats["failed"]) == (1, 1)
        assert math.isnan(stats["min_residual"]) and math.isnan(stats["max_residual"])
        # One finite residual among them keeps it as both ends of the range.
        finite = [r for r in full if r.claim_id == "crossing-angle-range"]
        stats = summarize(missing + finite)["crossing-angle-range"]
        assert stats["min_residual"] == stats["max_residual"] == finite[0].residual
        # Claims with finite residuals keep their min and max.
        diam = [r.residual for r in full if r.claim_id == "diameter-bound"]
        assert summarize(full)["diameter-bound"]["min_residual"] == min(diam)


def _contract_rows(crooked_sample, rejected_sample):
    """Formula rows, a converged sample's, a rejected sample's and NaN rows."""
    return (full_suite([crooked_sample, rejected_sample])
            + _missing_crossing_reports(crooked_sample))


def _oracle_json(reports):
    def cell(v):
        return None if isinstance(v, float) and not math.isfinite(v) else v
    return json.dumps([{c: cell(getattr(r, c)) for c in COLUMNS} for r in reports],
                      indent=1, allow_nan=False)


def _oracle_csv(reports):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(COLUMNS)
    for r in reports:
        writer.writerow([repr(v) if isinstance(v, float) else v
                         for v in (getattr(r, c) for c in COLUMNS)])
    return buf.getvalue()


class TestRowContract:
    def test_rows_are_immutable(self, crooked_sample, rejected_sample):
        reports = _contract_rows(crooked_sample, rejected_sample)
        assert {"sample-rejected", "reduced-check", "table1", "perimeter-min"} <= {
            r.claim_id for r in reports}
        for r in reports:
            for name in COLUMNS:
                with pytest.raises(AttributeError):
                    setattr(r, name, getattr(r, name))
            assert repr(r) == "VerificationReport(" + ", ".join(
                f"{name}={getattr(r, name)!r}" for name in COLUMNS) + ")"

    def test_fields_are_the_seven_columns(self, crooked_sample, rejected_sample):
        assert VerificationReport._fields == COLUMNS
        for r in _contract_rows(crooked_sample, rejected_sample):
            assert r == tuple(getattr(r, name) for name in COLUMNS)
            assert r.to_dict() == {name: getattr(r, name) for name in COLUMNS}

    def test_grid_rows_are_keyword_built_rows(self, sample_grid):
        # _report builds rows by tuple.__new__, past NamedTuple's keyword __new__.
        samples = [s for batch in sample_grid.cells.values() for s in batch[:4]]
        samples += [s for batch in sample_grid.cells.values() for s in batch
                    if not s.converged][:6]
        reports = full_suite(samples)
        assert {"sample-rejected", "reduced-check", "perimeter-min"} <= {
            r.claim_id for r in reports}
        for r in reports:
            assert type(r) is VerificationReport
            assert r == VerificationReport(*r) == VerificationReport(**r._asdict())
            assert tuple(r._asdict()) == COLUMNS

    def test_serializers_match_the_column_oracle(self, crooked_sample, rejected_sample):
        reports = _contract_rows(crooked_sample, rejected_sample)
        assert reports_to_json(reports) == _oracle_json(reports)
        assert reports_to_csv(reports) == _oracle_csv(reports)
        assert "null" in reports_to_json(reports) and "nan" in reports_to_csv(reports)


class TestSerialization:
    def test_json_fields_are_the_contract_seven(self, crooked_sample):
        reports = full_suite([crooked_sample], include_formula_checks=False)
        decoded = json.loads(reports_to_json(reports))
        assert decoded
        for row in decoded:
            assert sorted(row) == ["bound", "claim_id", "inputs", "measured",
                                   "passed", "residual", "tolerance"]

    def test_json_writes_non_finite_values_as_null(self, crooked_sample, rejected_sample):
        # A rejected sample's row has an infinite tolerance.
        reports = full_suite([crooked_sample, rejected_sample], include_formula_checks=False)

        def reject(token):
            raise ValueError(f"{token} is not JSON")

        decoded = json.loads(reports_to_json(reports), parse_constant=reject)
        rejected = [row for row in decoded if row["claim_id"] == "sample-rejected"]
        assert len(rejected) == 1 and rejected[0]["tolerance"] is None
        assert all(row["tolerance"] is not None for row in decoded if row is not rejected[0])
        assert "inf" in reports_to_csv(reports)

    def test_csv_header_and_width(self, crooked_sample):
        reports = full_suite([crooked_sample], include_formula_checks=False)
        lines = reports_to_csv(reports).splitlines()
        assert lines[0] == "claim_id,inputs,measured,bound,residual,passed,tolerance"
        assert len(lines) == len(reports) + 1

    def test_reruns_are_byte_identical(self, crooked_sample):
        a = full_suite([crooked_sample], include_formula_checks=False)
        b = full_suite([crooked_sample], include_formula_checks=False)
        assert reports_to_json(a) == reports_to_json(b)
        assert reports_to_csv(a) == reports_to_csv(b)


class TestClaimIds:
    def test_docstring_lists_every_reported_id(self):
        doc = verify_module.__doc__
        table = doc[doc.index("Claim identifiers (stable strings):"):].splitlines()[1:]
        listed = [line.split()[0] for line in table if line.strip()]
        tree = ast.parse(open(verify_module.__file__, encoding="utf-8").read())
        reported = {node.args[0].value for node in ast.walk(tree)
                    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_report"}
        assert len(listed) == len(set(listed)) == 26
        assert set(listed) == reported
