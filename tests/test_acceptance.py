"""Acceptance criteria, one test per numbered claim.

Each test prints nothing on its own; the terminal summary hook in conftest
turns the pass/fail outcomes into one ACCEPTANCE line per criterion.
"""

import math
import random
import time

import numpy as np
import pytest

from conftest import GRID_N, GRID_OMEGA
from test_sampler import _alignment_deviation
from test_sphere_core import SpherePoint, distance, tangent_rows

from redsphere import (
    OMEGA_GRID,
    TABLE1_REFERENCE,
    SamplerConfig,
    arm_from_angle,
    arm_length,
    build_regular,
    check_scalar_lemmas,
    covering_radius_bound,
    diameter_bound,
    diameter_bound_coarse,
    reduced_check,
    regular_metrics,
    regular_triangle_half_angle,
    reproduce_table1,
    sample_reduced,
)
from redsphere.sphere_core import _angles

NS_CLOSED_FORM = (3, 5, 7, 9, 21)


def test_criterion_01_covering_radius_table():
    rows = reproduce_table1()
    assert [row.omega for row in rows] == list(OMEGA_GRID)
    for row in rows:
        assert row.radius == pytest.approx(TABLE1_REFERENCE[row.omega], abs=1e-5)


def test_criterion_02_regular_construction_closes_the_loop():
    for n in NS_CLOSED_FORM:
        for omega in OMEGA_GRID:
            P = build_regular(n, omega)
            witness = reduced_check(P)
            assert witness.is_reduced, (n, omega, witness.reason)
            assert witness.max_residual < 1e-9
            m = regular_metrics(n, omega)
            assert witness.thickness == pytest.approx(omega, abs=1e-9)
            assert P.perimeter() == pytest.approx(m.perimeter, abs=1e-9)
            assert P.circumcap().radius == pytest.approx(m.circumradius, abs=1e-9)
            # Farthest vertex pair sits (n-1)/2 steps apart on the circumcircle.
            R = m.circumradius
            expected = math.acos(
                math.cos(R) ** 2 - math.sin(R) ** 2 * math.cos(math.pi / n))
            assert P.diameter() == pytest.approx(expected, abs=1e-9)


def test_criterion_03_perimeter_equals_twice_summed_arms(sample_grid):
    checked = 0
    for (n, omega), batch in sample_grid.cells.items():
        lam = math.tan(omega)
        for s in batch:
            if not s.converged:
                continue
            verts = [SpherePoint.from_vec(v) for v in s.polygon.as_array()]
            perim = sum(distance(verts[i], verts[(i + 1) % n]) for i in range(n))
            arms = sum(
                arm_length(math.tan(distance(SpherePoint.from_vec(o), SpherePoint.from_vec(t))),
                           lam)
                for o, t in zip(s.witness.crossings, s.witness.feet))
            assert perim == pytest.approx(2.0 * arms, abs=1e-8), (n, omega)
            checked += 1
    assert checked > 0


def test_criterion_04_regular_perimeter_strictly_decreasing():
    for omega in OMEGA_GRID:
        perims = [regular_metrics(k, omega).perimeter for k in range(3, 53, 2)]
        for a, b in zip(perims, perims[1:]):
            assert b < a - 1e-10, omega


def test_criterion_05_sampled_perimeters_never_beat_regular(sample_grid):
    t0 = time.perf_counter()
    for n in GRID_N:
        for omega in GRID_OMEGA:
            conv = sample_grid.converged(n, omega)
            assert len(conv) >= 200, (n, omega, len(conv))
            floor = 2.0 * n * arm_from_angle(math.pi / n, math.tan(omega))
            violations = [
                s for s in conv if s.polygon.perimeter() < floor - 1e-8]
            assert not violations, (n, omega, len(violations))
            assert build_regular(n, omega).perimeter() == pytest.approx(
                floor, abs=1e-9)
    checks = time.perf_counter() - t0
    assert sample_grid.elapsed + checks < 60.0


def test_criterion_06_diameter_bound_sharp_and_below_coarse(sample_grid):
    for (n, omega), batch in sample_grid.cells.items():
        bound = diameter_bound(omega)
        for s in batch:
            if s.converged:
                assert s.polygon.diameter(reduced_hint=True) <= bound + 1e-8
    for omega in OMEGA_GRID:
        triangle = build_regular(3, omega)
        assert triangle.diameter() == pytest.approx(diameter_bound(omega), abs=1e-9)
        assert diameter_bound_coarse(omega) - diameter_bound(omega) > 1e-6


def test_criterion_07_circumcap_bound_and_two_point_cap_relation(sample_grid):
    for (n, omega), batch in sample_grid.cells.items():
        bound = covering_radius_bound(omega)
        for s in batch:
            if not s.converged:
                continue
            r = s.polygon.circumcap().radius
            assert r <= bound + 1e-7, (n, omega)
            jung_floor = 2.0 * math.asin(0.5 * math.sqrt(3.0) * math.sin(r))
            assert s.polygon.diameter(reduced_hint=True) >= jung_floor - 1e-8
    for omega in OMEGA_GRID:
        triangle = build_regular(3, omega)
        assert triangle.circumcap().radius == pytest.approx(
            covering_radius_bound(omega), abs=1e-9)


def test_criterion_08_structural_witness_invariants(sample_grid):
    violations = 0
    for (n, omega), batch in sample_grid.cells.items():
        gamma = regular_triangle_half_angle(omega)
        for s in batch:
            if not s.converged:
                continue
            w = s.witness
            if max(w.foot_diagonal_angles) > gamma + 1e-8:
                violations += 1
            if min(w.edge_foot_angles) < gamma - 1e-8:
                violations += 1
            phis = w.crossing_angles
            if not all(0.0 < p < 0.5 * math.pi for p in phis):
                violations += 1
            total = sum(phis)
            if total < math.pi - 1e-8:
                violations += 1
            spread = max(abs(p - math.pi / n) for p in phis)
            if spread > 1e-6 and total - math.pi <= 1e-9:
                violations += 1
            verts = [SpherePoint.from_vec(v) for v in s.polygon.as_array()]
            feet = [SpherePoint.from_vec(t) for t in w.feet]
            for i in range(n):
                k2 = (i + (n + 1) // 2) % n
                gap = abs(distance(verts[i], feet[k2])
                          - distance(feet[i], verts[k2]))
                if gap > 1e-8:
                    violations += 1
    assert violations == 0


def test_criterion_09_scalar_grids_clean():
    reports = check_scalar_lemmas()
    assert len(reports) == 15
    for rep in reports:
        assert rep.passed, rep.claim_id


def test_criterion_10_triangle_sampling_is_rigid():
    omega = math.pi / 4
    target = build_regular(3, omega).as_array()
    for seed in range(20):
        res = sample_reduced(SamplerConfig(n=3, thickness=omega, seed=seed))
        assert res.converged, seed
        assert _alignment_deviation(res.polygon.as_array(), target) < 1e-6, seed


def _measured_right_triangles(a, b):
    """The hypotenuse c and the angles A, B of the right triangles with legs
    a, b along two meridians from the pole, measured by the kernel."""
    pole = np.broadcast_to([0.0, 0.0, 1.0], (len(a), 3))
    vert_b = np.stack([np.sin(a), np.zeros_like(a), np.cos(a)], axis=1)
    vert_a = np.stack([np.zeros_like(b), np.sin(b), np.cos(b)], axis=1)
    verts = np.concatenate([vert_a, vert_b])
    c = _angles(vert_a, vert_b)
    ang_a, ang_b = _angles(tangent_rows(verts, np.concatenate([pole, pole])),
                           tangent_rows(verts, np.concatenate([vert_b, vert_a]))).reshape(2, -1)
    return c, ang_a, ang_b


def _random_unit(rng):
    while True:
        v = (rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1))
        norm = math.sqrt(sum(x * x for x in v))
        if norm > 1e-3:
            return np.array(v) / norm


def test_criterion_11_kernel_identities():
    rng = random.Random(2026)
    legs = np.array([(rng.uniform(0.1, 1.4), rng.uniform(0.1, 1.4)) for _ in range(10_000)])
    a, b = legs.T
    c, A, B = _measured_right_triangles(a, b)
    cot_c = np.cos(c) / np.sin(c)
    for residual in (np.cos(A) - np.tan(b) * cot_c,
                     np.cos(B) - np.tan(a) * cot_c,
                     np.sin(b) - np.sin(c) * np.sin(B),
                     np.cos(c) - np.cos(a) * np.cos(b),
                     np.cos(c) - (np.cos(A) / np.sin(A)) * (np.cos(B) / np.sin(B)),
                     np.cos(B) - np.cos(b) * np.sin(A)):
        assert np.max(np.abs(residual)) < 1e-10

    done = 0
    while done < 2000:
        V = np.array([_random_unit(rng) for _ in range(3)])
        # Per vertex u, v, w: the side opposite it, and the angle there.
        nxt, prv = V[[1, 2, 0]], V[[2, 0, 1]]
        sides, angles = _angles(np.concatenate([nxt, tangent_rows(V, nxt)]),
                                np.concatenate([prv, tangent_rows(V, prv)])).reshape(2, 3)
        if min(sides) < 0.05 or max(sides) > math.pi - 0.05:
            continue
        products = np.sin(angles) / np.sin(sides)
        # Cross-multiplied residuals keep the check stable near degeneracy.
        for i in range(3):
            j = (i + 1) % 3
            assert abs(math.sin(angles[i]) * math.sin(sides[j])
                       - math.sin(angles[j]) * math.sin(sides[i])) < 1e-9
        assert max(products) - min(products) < 1e-6 * max(products)
        done += 1
