"""Command-line contract: exit codes, output shapes, determinism."""

import json
import math

import numpy as np
import pytest

from redsphere.cli import main
from redsphere.verify import (LAMBDA_GRID, OMEGA_GRID, check_scalar_lemmas, regular_perimeters,
                              scalar_lemma_grid)
from redsphere.formulas import regular_metrics
from redsphere.polygon import build_regular, save_polygon
from conftest import pulled_regular, side_end_triangle


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


def strict_loads(text):
    """json.loads that rejects the NaN and Infinity tokens."""
    return json.loads(text, parse_constant=_reject_constant)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestArgumentValidation:
    def test_even_n_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "regular", "--n", "4", "--thickness", "pi/4")
        assert code == 2
        assert "n must be odd" in err

    def test_thickness_at_quarter_turn_rejected(self, capsys):
        code, _, err = run(capsys, "regular", "--n", "5", "--thickness", "pi/2")
        assert code == 2

    def test_zero_count_rejected(self, capsys):
        code, _, err = run(capsys, "sample", "--n", "5", "--thickness", "pi/4",
                           "--count", "0")
        assert code == 2
        assert "count" in err

    def test_small_lemma_grid_rejected(self, capsys):
        code, _, _ = run(capsys, "lemmas", "--grid", "99")
        assert code == 2

    @pytest.mark.parametrize("argv, message", [
        (("sample", "--n", "5", "--thickness", "pi/4", "--seed", "-1"), "seed must be >= 0"),
        (("suite", "--seed", "-3"), "seed must be >= 0"),
        (("sample", "--n", "5", "--thickness", "0.1"), "thickness must exceed 0.2"),
        (("sample", "--n", "5", "--thickness", "0.2"), "thickness must exceed 0.2"),
        (("verify", "--in", "p.json", "--tol", "nan"), "tol must be a finite number > 0"),
        (("verify", "--in", "p.json", "--tol", "inf"), "tol must be a finite number > 0"),
        (("verify", "--in", "p.json", "--tol", "-1"), "tol must be a finite number > 0"),
        (("verify", "--in", "p.json", "--tol", "0"), "tol must be a finite number > 0"),
        (("verify", "--in", "p.json", "--tol", "tight"), "cannot parse tolerance"),
        (("lemmas", "--lambdas", "nan"), "lambdas must be finite numbers > 0"),
        (("lemmas", "--lambdas", "inf"), "lambdas must be finite numbers > 0"),
        (("lemmas", "--lambdas", "0.5,-inf"), "lambdas must be finite numbers > 0"),
        (("lemmas", "--lambdas", "0"), "lambdas must be finite numbers > 0"),
        (("regular", "--n", "x", "--thickness", "pi/4"), "n must be an integer"),
        (("regular", "--n", "1", "--thickness", "pi/4"), "n must be >= 3"),
        (("regular", "--n", "5", "--thickness", "pi"), "thickness must be in (0, pi/2)"),
        (("regular", "--n", "5", "--thickness", "abc"), "cannot parse thickness"),
        (("sample", "--n", "5", "--thickness", "pi/4", "--count", "x"), "expected an integer"),
        (("lemmas", "--lambdas", "0.5,abc"), "cannot parse lambda list"),
        # Splitmix64 reduces a seed mod 2**64, so a seed past it would alias another.
        (("sample", "--n", "5", "--thickness", "pi/4", "--seed", str(2**64)),
         "must be an integer in [0, 2**64)"),
        (("sample", "--n", "5", "--thickness", "pi/4", "--seed", str(2**64 - 1), "--count", "2"),
         f"seeds {2**64 - 1}..{2**64} pass 2**64 - 1"),
        (("suite", "--seed", str(2**64)), "must be an integer in [0, 2**64)"),
        (("suite", "--seed", str(2**64 - 4), "--count", "5"), "pass 2**64 - 1"),
    ])
    def test_bad_sampler_arguments_are_usage_errors(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error" in line]
        assert len(errors) == 1
        assert message in errors[0]


class TestDispatch:
    COMMANDS = ("regular", "metrics", "verify", "table1", "sample", "lemmas", "suite")

    def test_missing_command_is_a_usage_error(self, capsys):
        code, _, err = run(capsys)
        assert code == 2
        assert "required: command" in err

    def test_unknown_command_is_a_usage_error(self, capsys):
        code, _, _ = run(capsys, "bogus")
        assert code == 2

    def test_top_level_help(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert all(command in out for command in self.COMMANDS)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_each_command_has_help(self, capsys, command):
        code, out, _ = run(capsys, command, "--help")
        assert code == 0
        assert out.startswith(f"usage: redsphere {command}")


class TestRegular:
    def test_triangle_circumradius_matches_table(self, capsys):
        code, out, _ = run(capsys, "regular", "--n", "3", "--thickness", "pi/4")
        assert code == 0
        payload = json.loads(out)
        assert payload["circumradius"] == pytest.approx(0.511669, abs=1e-5)
        # stdout carries nine significant digits, so compare at that precision
        assert payload["perimeter"] == pytest.approx(3 * payload["side"], rel=1e-8)

    def test_round_trip_through_verify(self, capsys, tmp_path):
        path = str(tmp_path / "pentagon.json")
        code, _, _ = run(capsys, "regular", "--n", "5", "--thickness", "pi/4",
                         "--out", path)
        assert code == 0
        code, out, _ = run(capsys, "verify", "--in", path)
        assert code == 0
        payload = json.loads(out)
        assert payload["is_reduced"] is True
        assert payload["thickness"] == pytest.approx(math.pi / 4, abs=1e-9)


class TestMetrics:
    def test_reports_measurements(self, capsys, tmp_path):
        path = str(tmp_path / "heptagon.json")
        save_polygon(path, build_regular(7, math.pi / 6))
        code, out, _ = run(capsys, "metrics", "--in", path)
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 7
        assert payload["is_reduced"] is True
        assert set(payload) == {"n", "thickness", "perimeter", "diameter",
                                "circumcap_radius", "is_reduced", "max_residual"}

    def test_unmeasurable_polygon_is_not_an_input_error(self, capsys, tmp_path):
        # v_0 is the pole of the side v_1 v_2, so reduced_check rejects it in-band.
        path = tmp_path / "pole.json"
        path.write_text(json.dumps({"vertices": [[0, 0, 1], [1, 0, 0], [0, 1, 0]]}))
        code, out, err = run(capsys, "metrics", "--in", str(path))
        assert code == 0 and not err
        payload = json.loads(out)
        assert payload["is_reduced"] is False and payload["max_residual"] is None

    def test_even_gon_prints_strict_json(self, capsys, tmp_path):
        # A four-gon's max_residual is NaN, which prints as null.
        path = tmp_path / "square.json"
        s = math.sqrt(0.5)
        path.write_text(json.dumps({"vertices": [[s, 0, s], [0, s, s], [-s, 0, s], [0, -s, s]]}))
        code, out, err = run(capsys, "metrics", "--in", str(path))
        assert code == 0 and not err
        payload = strict_loads(out)
        assert payload["is_reduced"] is False and payload["max_residual"] is None


class TestVerifyFailures:
    def test_even_gon_fails_with_reason(self, capsys, tmp_path):
        path = str(tmp_path / "square.json")
        doc = {"vertices": [[1, 0, 0], [0, 1, 0], [-1, 0, 0.01], [0, -1, 0.01]]}
        # Renormalize so the file itself is well formed.
        doc["vertices"] = [
            [c / math.sqrt(sum(x * x for x in v)) for c in v] for v in doc["vertices"]
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        code, out, _ = run(capsys, "verify", "--in", path)
        assert code == 1
        assert "not an odd-gon" in out

    def test_corrupted_norm_is_an_input_error(self, capsys, tmp_path):
        path = str(tmp_path / "bad.json")
        save_polygon(path, build_regular(5, math.pi / 4))
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["vertices"][0] = [0.9 * c for c in doc["vertices"][0]]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        code, _, err = run(capsys, "verify", "--in", path)
        assert code == 3
        assert err.strip()

    def test_claim_outside_a_formula_domain_fails_its_row(self, capsys, tmp_path):
        # Under a loose tol a pentagon with one vertex pulled out counts as
        # reduced; one of its crossing parameters lies past x_limit.
        path = str(tmp_path / "pulled.json")
        save_polygon(path, pulled_regular(5, math.pi / 4))
        code, out, err = run(capsys, "verify", "--in", path, "--tol", "1.0")
        assert code == 1
        assert "error:" not in err
        payload = json.loads(out)
        assert payload["is_reduced"] is True
        claims = {c["claim_id"]: c for c in payload["claims"]}
        assert claims["perimeter-witness-identity"]["passed"] is False
        assert claims["perimeter-witness-identity"]["bound"] is None
        strict_loads(out)

    def test_unmeasurable_polygon_fails_its_check(self, capsys, tmp_path):
        # Under a loose tol this triangle passes, but reduced_check cannot
        # measure its far angle at v_2; as in full_suite, that fails the check.
        path = str(tmp_path / "side_end.json")
        save_polygon(path, side_end_triangle())
        code, out, err = run(capsys, "verify", "--in", path, "--tol", "1.0")
        assert code == 1
        assert "error:" not in err
        payload = json.loads(out)
        assert payload["is_reduced"] is False and payload["all_passed"] is False
        assert "coincident or antipodal" in payload["reason"]

    def test_past_ninety_nine_vertices_passes_the_cap_claims(self, capsys, tmp_path):
        # circumcap has no vertex limit: the regular 101-gon's cap is its
        # circumscribed one, and both claims that read its radius pass.
        path = str(tmp_path / "big.json")
        code, _, _ = run(capsys, "regular", "--n", "101", "--thickness", "pi/4", "--out", path)
        assert code == 0
        code, out, err = run(capsys, "metrics", "--in", path)
        assert code == 0 and not err
        payload = strict_loads(out)
        assert payload["n"] == 101 and payload["is_reduced"] is True
        circumradius = regular_metrics(101, math.pi / 4).circumradius
        assert payload["circumcap_radius"] == pytest.approx(circumradius, abs=1e-8)
        code, out, err = run(capsys, "verify", "--in", path)
        assert code == 0 and not err
        payload = strict_loads(out)
        assert payload["is_reduced"] is True and payload["all_passed"] is True
        claims = {c["claim_id"]: c for c in payload["claims"]}
        assert claims["circumradius-bound"]["passed"] and claims["jung-relation"]["passed"]
        assert claims["circumradius-bound"]["measured"] == pytest.approx(circumradius, abs=1e-8)

    def test_non_finite_vertex_is_an_input_error(self, capsys, tmp_path):
        path = tmp_path / "nan.json"
        doc = {"vertices": build_regular(5, math.pi / 4).as_array().tolist()}
        doc["vertices"][1][0] = math.nan
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "verify", "--in", str(path))
        assert code == 3
        assert "vertex 1 has a NaN or infinite component" in err

    def test_missing_file_is_an_input_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "metrics", "--in", str(tmp_path / "absent.json"))
        assert code == 3
        assert err.strip()

    @pytest.mark.parametrize("command", ["verify", "metrics"])
    @pytest.mark.parametrize("content", [b"\xff", b'{"vertices": ' + b"[" * 100000],
                             ids=["not-utf8", "nested-100000-deep"])
    def test_unreadable_file_is_an_input_error(self, capsys, tmp_path, command, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        code, _, err = run(capsys, command, "--in", str(path))
        assert code == 3
        assert "cannot read polygon file" in err


class TestTable1:
    def test_csv_shape_and_values(self, capsys):
        code, out, _ = run(capsys, "table1", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "omega,radius,paper_value,passed"
        assert len(lines) == 5
        row = lines[3].split(",")  # thickness pi/4
        assert float(row[1]) == pytest.approx(0.511669, abs=1e-5)
        assert row[2] == "0.511669"
        assert row[3] == "True"

    def test_json_rows_pass(self, capsys):
        code, out, _ = run(capsys, "table1")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 4
        assert all(r["passed"] for r in rows)


class TestSample:
    def test_summary_keys_and_convergence(self, capsys):
        code, out, _ = run(capsys, "sample", "--n", "5", "--thickness", "pi/4",
                           "--count", "10", "--seed", "7")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"count", "converged", "min_perimeter_slack",
                                "max_diameter_slack", "all_passed"}
        assert payload["all_passed"] is True
        assert payload["converged"] >= 9
        assert payload["min_perimeter_slack"] >= -1e-8
        assert payload["max_diameter_slack"] <= 1e-8

    def test_report_files_are_byte_identical(self, capsys, tmp_path):
        paths = [str(tmp_path / f"rep{i}.json") for i in range(2)]
        for path in paths:
            code, _, _ = run(capsys, "sample", "--n", "5", "--thickness", "pi/6",
                             "--count", "5", "--seed", "3", "--report", path)
            assert code == 0
        blobs = [open(p, "rb").read() for p in paths]
        assert blobs[0] == blobs[1]
        rows = json.loads(blobs[0])
        assert all(sorted(r) == ["bound", "claim_id", "inputs", "measured",
                                 "passed", "residual", "tolerance"] for r in rows)


LEMMA_HEADERS = ("phi,F,dF,d2F", "x,ratio,dratio", "k,perimeter")


def lemma_blocks(out):
    """`lemmas` output as {tag after '# ': {header: rows of floats}}."""
    blocks = {}
    for line in out.splitlines():
        if line.startswith("# "):
            tables = blocks.setdefault(line[2:], {})
        elif line in LEMMA_HEADERS:
            rows = tables.setdefault(line, [])
        else:
            rows.append([float(v) for v in line.split(",")])
    return blocks


def fmt9(x):
    return float(f"{x:.9g}")


class TestLemmas:
    def test_block_structure(self, capsys):
        code, out, _ = run(capsys, "lemmas", "--grid", "100", "--lambdas", "0.5,2")
        assert code == 0
        blocks = lemma_blocks(out)
        assert list(blocks) == ["lambda=0.5", "lambda=2",
                                *(f"thickness={w:.9g}" for w in OMEGA_GRID)]
        for lam in (0.5, 2.0):
            tables = blocks[f"lambda={lam:.9g}"]
            assert list(tables) == ["phi,F,dF,d2F", "x,ratio,dratio"]
            phi, x = np.array(tables["phi,F,dF,d2F"]), np.array(tables["x,ratio,dratio"])
            assert phi.shape == (100, 4) and x.shape == (100, 3)
            phis, F, xs, ratio = scalar_lemma_grid(lam, 100)
            for printed, column in ((phi[:, 0], phis), (phi[:, 1], F),
                                    (x[:, 0], xs), (x[:, 1], ratio)):
                assert list(printed) == [fmt9(v) for v in column]
            # A difference past the end of its column is nan.
            assert list(np.isnan(phi[:, 2]).nonzero()[0]) == [99]
            assert list(np.isnan(phi[:, 3]).nonzero()[0]) == [98, 99]
            assert list(np.isnan(x[:, 2]).nonzero()[0]) == [99]
        for w in OMEGA_GRID:
            assert [row[0] for row in blocks[f"thickness={w:.9g}"]["k,perimeter"]] \
                == list(range(3, 52, 2))

    def test_prints_the_tables_the_rows_judge(self, capsys):
        code, out, _ = run(capsys, "lemmas")
        assert code == 0
        blocks = lemma_blocks(out)
        measured = {(r.claim_id, r.inputs): r.measured for r in check_scalar_lemmas()}
        for lam in LAMBDA_GRID:
            tables = blocks[f"lambda={lam:.9g}"]
            phi, x = np.array(tables["phi,F,dF,d2F"]), np.array(tables["x,ratio,dratio"])
            tag = f"lam={lam:.9g} points=1000"
            assert np.nanmin(phi[:, 2]) == fmt9(measured["arm-of-angle-increasing", tag])
            assert np.nanmin(phi[:, 3]) == fmt9(measured["arm-of-angle-convex", tag])
            assert np.nanmax(x[:, 2]) == fmt9(measured["arm-ratio-decreasing", tag])
        for w in OMEGA_GRID:
            printed = {int(k): p for k, p in blocks[f"thickness={w:.9g}"]["k,perimeter"]}
            assert printed == {k: fmt9(p) for k, p in regular_perimeters(w).items()}

    # x_limit and crossing_angle_inv cancel to 0 for small lambda = tan w
    # (ROADMAP item 8): both commands exit 3 with "x=0.0 outside [0, x_limit=0.0)".
    @pytest.mark.xfail(strict=True, reason="x_limit cancels to 0 at lambda=1e-9")
    def test_tiny_lambda(self, capsys):
        code, _, err = run(capsys, "lemmas", "--lambdas", "1e-9", "--grid", "100")
        assert code == 0, err

    @pytest.mark.xfail(strict=True, reason="x_limit cancels to 0 at w=1e-9")
    def test_tiny_regular_thickness(self, capsys):
        code, _, err = run(capsys, "regular", "--n", "5", "--thickness", "1e-9")
        assert code == 0, err


class TestSuite:
    def test_small_grid_passes(self, capsys):
        code, out, _ = run(capsys, "suite", "--count", "2")
        assert code == 0
        assert "PASS" in out
