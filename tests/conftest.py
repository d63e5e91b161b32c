"""Shared fixtures and the acceptance summary hook.

The heavyweight sample batches are session-scoped so the acceptance tests
and the per-module tests reuse one deterministic run.
"""

import math
import time

import pytest

from redsphere import SamplerConfig, SphericalPolygon, build_regular, regular_metrics, sample_batch

GRID_N = (5, 7)
GRID_OMEGA = (math.pi / 6, math.pi / 4, math.pi / 3)
# Drawn seeds per cell; rejections leave at least 200 converged samples.
SAMPLES_PER_CELL = 240

_CRITERIA = {
    "01": "covering-radius table reproduced at 1e-5",
    "02": "regular build round-trips through reduced_check at 1e-9",
    "03": "perimeter equals twice the summed arm lengths at 1e-8",
    "04": "regular perimeter strictly decreasing in vertex count",
    "05": "sampled perimeters never beat the regular polygon",
    "06": "diameter bound holds, is sharp, and beats the coarse bound",
    "07": "circumcap bound holds with the two-point cap relation",
    "08": "structural witness invariants hold on every sample",
    "09": "scalar monotonicity and convexity on dense grids",
    "10": "triangle sampling is rigid: every seed gives the regular one",
    "11": "right-triangle identity kernel at 1e-10, sine rule at 1e-9",
}


def spherical_row(colat, lon):
    """The raw vector at colatitude colat and longitude lon.

    test_sphere_core's SpherePoint.from_spherical(colat, lon) normalizes
    this vector; a polygon built from raw rows normalizes each row once, the
    same way, so its vertices are the oracle points' vectors bit for bit.
    """
    s = math.sin(colat)
    return [s * math.cos(lon), s * math.sin(lon), math.cos(colat)]


def pulled_regular(n, thickness):
    """The regular n-gon with vertex 0's colatitude raised by 0.05."""
    colat = regular_metrics(n, thickness).circumradius
    rows = [spherical_row(colat, 2.0 * math.pi * k / n) for k in range(n)]
    x, y, z = build_regular(n, thickness).as_array()[0]
    rows[0] = spherical_row(math.acos(z) + 0.05, math.atan2(y, x))
    return SphericalPolygon(rows)


def side_end_triangle():
    """A triangle whose angle at v_2 is just under a right angle.

    The foot t_0 lies inside its side, about 5e-8 from v_2 = v_k, so the
    angle at v_k toward t_0 is undefined.
    """
    return SphericalPolygon([spherical_row(0.6, 0.0),
                             spherical_row(0.5, 0.5 * math.pi - 1e-7),
                             [0.0, 0.0, 1.0]])


class SampleGrid:
    """Deterministic sample batches per (n, thickness) cell plus wall time."""

    def __init__(self):
        t0 = time.perf_counter()
        self.cells = {}
        for n in GRID_N:
            for omega in GRID_OMEGA:
                cfg = SamplerConfig(n=n, thickness=omega, seed=0)
                self.cells[(n, omega)] = sample_batch(cfg, SAMPLES_PER_CELL)
        self.elapsed = time.perf_counter() - t0

    def converged(self, n, omega):
        return [s for s in self.cells[(n, omega)] if s.converged]

    def all_converged(self):
        out = []
        for batch in self.cells.values():
            out.extend(s for s in batch if s.converged)
        return out


@pytest.fixture(scope="session")
def sample_grid():
    return SampleGrid()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes = {}
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_criterion_" not in nodeid:
                continue
            key = nodeid.split("test_criterion_", 1)[1][:2]
            if status != "passed" or key not in outcomes:
                outcomes[key] = status
    if not outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for key in sorted(outcomes):
        verdict = "PASS" if outcomes[key] == "passed" else "FAIL"
        label = _CRITERIA.get(key, "")
        terminalreporter.write_line(f"ACCEPTANCE {key} {label}: {verdict}")
