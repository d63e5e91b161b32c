"""Polygon type, regular construction, reducedness witness, metric oracles."""

import json
import math
from itertools import combinations
from typing import Optional

import numpy as np
import pytest

from conftest import pulled_regular, side_end_triangle, spherical_row
from test_sphere_core import (
    Arc,
    CoplanarArcs,
    DegenerateArc,
    GreatCircle,
    Lune,
    NoIntersection,
    SpherePoint,
    angle_at,
    antipode,
    arc_intersection,
    distance,
    project_to_circle,
)

from redsphere import (
    OMEGA_GRID,
    Cap,
    DegenerateAngle,
    DegeneratePoint,
    DomainError,
    NoEnclosingCap,
    NotConvex,
    NotInHemisphere,
    PolygonDocumentError,
    ReducedWitness,
    SamplerConfig,
    SphericalPolygon,
    build_regular,
    diameter_bound,
    load_polygon,
    polygon_from_doc,
    polygon_to_doc,
    reduced_check,
    regular_metrics,
    sample_reduced,
    save_polygon,
)
from redsphere import polygon as polygon_module
from redsphere.polygon import _CAP_BLOCK, EDGE_EPS, REDUCED_TOL, _index_combinations

QUARTER_PI = 0.25 * math.pi


def _ring(colat, lons):
    return [spherical_row(colat, lon) for lon in lons]


def _points(polygon: SphericalPolygon) -> list[SpherePoint]:
    """The polygon's vertices as the scalar oracles' points."""
    return [SpherePoint.from_vec(v) for v in polygon.as_array()]


def opposite_side(i: int, n: int) -> tuple[int, int]:
    """Indices of the side opposite vertex i in an odd n-gon.

    Returns ((i + (n-1)/2) mod n, (i + (n+1)/2) mod n).  Composing the map
    twice through the first index advances by n - 1, i.e. one step back.
    """
    if n % 2 == 0 or n < 3:
        raise DomainError(f"opposite side undefined: n={n!r} is not odd >= 3")
    if not 0 <= i < n:
        raise DomainError(f"vertex index {i!r} outside range(0, {n})")
    return ((i + (n - 1) // 2) % n, (i + (n + 1) // 2) % n)


def arc_parameter(arc: Arc, p: SpherePoint) -> float:
    """Arc-length fraction of p from endpoint a; p must lie on the arc's circle."""
    return distance(arc.a, p) / arc.length


# The per-vertex reduced_check built on test_sphere_core's scalar objects, kept
# as the oracle of the array implementation in redsphere.polygon.
def reference_reduced_check(polygon: SphericalPolygon, tol: float = REDUCED_TOL) -> ReducedWitness:
    """Decide reducedness and collect the per-vertex witness data.

    A polygon passes iff its vertex count is odd, every projection foot is
    strictly interior to its side, and the spread of the
    vertex-to-opposite-side distances stays within tol.
    """
    n = polygon.n
    if n % 2 == 0:
        return ReducedWitness(thickness=polygon.thickness(), is_reduced=False,
                              max_residual=math.nan, reason=f"not an odd-gon: n={n}")

    verts = _points(polygon)
    feet: list[SpherePoint] = []
    dists: list[float] = []
    interior: list[bool] = []
    for i in range(n):
        j, k = opposite_side(i, n)
        circle = GreatCircle.through(verts[j], verts[k])
        foot = project_to_circle(verts[i], circle)
        feet.append(foot)
        dists.append(distance(verts[i], foot))
        side = Arc(verts[j], verts[k])
        on_segment = side.contains(foot, tol=EDGE_EPS)
        u = arc_parameter(side, foot)
        interior.append(on_segment and EDGE_EPS < u < 1.0 - EDGE_EPS)

    crossings: list[Optional[SpherePoint]] = []
    alphas: list[float] = []
    betas: list[float] = []
    phis: list[float] = []
    for i in range(n):
        k2 = (i + (n + 1) // 2) % n
        alphas.append(angle_at(verts[i], verts[(i + 1) % n], feet[i]))
        betas.append(angle_at(verts[i], feet[i], verts[k2]))
        try:
            o = arc_intersection(Arc(verts[i], feet[i]), Arc(verts[k2], feet[k2]))
            phis.append(angle_at(o, verts[i], feet[k2]))
        except (NoIntersection, CoplanarArcs, DegenerateArc, DegenerateAngle):
            o = None
            phis.append(math.nan)
        crossings.append(o)

    feet_rows = np.array([p.vec for p in feet])
    crossing_rows = np.array([[math.nan] * 3 if o is None else o.vec for o in crossings])
    far, gaps, crossing_feet = reference_vertex_claims(polygon, feet_rows, crossing_rows)

    thickness = min(dists)
    spread = max(dists) - thickness
    if not all(interior):
        reason = "projection foot outside the open side interior"
    elif spread > tol:
        reason = f"distance spread {spread:.3e} exceeds tolerance {tol:.1e}"
    else:
        reason = None
        if any(math.isnan(a) for a in far):
            raise DegenerateAngle("ray endpoint coincident or antipodal with vertex")
    return ReducedWitness(
        feet=feet_rows,
        foot_distances=tuple(dists),
        foot_interior=tuple(interior),
        crossings=crossing_rows,
        edge_foot_angles=tuple(alphas),
        foot_diagonal_angles=tuple(betas),
        far_angles=far,
        boundary_arc_gaps=gaps,
        crossing_angles=tuple(phis),
        crossing_foot_distances=crossing_feet,
        thickness=thickness,
        is_reduced=all(interior) and spread <= tol,
        max_residual=spread,
        reason=reason,
    )


# The per-vertex loop that measured the claim inputs at v_k and o_i in
# verify.polygon_reports, kept as the oracle of the witness fields.
def reference_vertex_claims(polygon: SphericalPolygon, feet: np.ndarray,
                            crossings: np.ndarray) -> tuple[tuple[float, ...], ...]:
    """The far angles, boundary arc gaps and crossing-to-foot distances.

    With k = i + (n + 1)/2: the angle at v_k between the arcs toward v_i and
    t_i (NaN where angle_at raises), |v_i t_k| - |t_i v_k|, and |o_i t_i| (NaN
    where the crossing row is NaN), from the rows of feet and crossings.
    """
    n = polygon.n
    verts = _points(polygon)
    points = [SpherePoint.from_vec(f) for f in feet]
    far, gaps, crossing_feet = [], [], []
    for i in range(n):
        k2 = (i + (n + 1) // 2) % n
        try:
            far.append(angle_at(verts[k2], verts[i], points[i]))
        except DegenerateAngle:
            far.append(math.nan)
        gaps.append(distance(verts[i], points[k2]) - distance(points[i], verts[k2]))
        o = crossings[i]
        crossing_feet.append(math.nan if np.isnan(o).any()
                             else distance(SpherePoint.from_vec(o), points[i]))
    return tuple(far), tuple(gaps), tuple(crossing_feet)


def cap_contains(cap: Cap, p: SpherePoint, tol: float = 0.0) -> bool:
    """Whether p lies in the closed cap, widened by tol."""
    return distance(SpherePoint.from_vec(cap.center), p) <= cap.radius + tol


# The per-candidate loop of SphericalPolygon.circumcap, kept as the oracle of
# its array form.
def reference_circumcap(polygon: SphericalPolygon) -> Cap:
    """Smallest spherical cap containing every vertex.

    Brute force over the O(n^2) two-point caps and O(n^3) three-point
    caps; intended for the small polygons this package works with.
    """
    n = polygon.n
    if n > 99:
        raise DomainError(f"circumcap supports at most 99 vertices, got {n}")
    V = polygon.as_array()
    best: Optional[tuple[float, np.ndarray]] = None
    slack = 1e-12

    def consider(center: np.ndarray, radius: float) -> None:
        nonlocal best
        if radius > 0.5 * math.pi + slack:
            return
        cover = float(np.max(np.arccos(np.clip(V @ center, -1.0, 1.0))))
        if cover > radius + slack:
            return
        if best is None or cover < best[0]:
            best = (cover, center)

    for i, j in combinations(range(n), 2):
        m = V[i] + V[j]
        nm = float(np.linalg.norm(m))
        if nm < 1e-12:
            continue
        center = m / nm
        consider(center, math.acos(max(-1.0, min(1.0, float(center @ V[i])))))
    for i, j, k in combinations(range(n), 3):
        c = np.cross(V[i] - V[j], V[j] - V[k])
        nc = float(np.linalg.norm(c))
        if nc < 1e-12:
            continue
        for center in (c / nc, -c / nc):
            consider(center, math.acos(max(-1.0, min(1.0, float(center @ V[i])))))
    if best is None:
        raise NoEnclosingCap("no cap of radius <= pi/2 encloses the vertices")
    radius, center = best
    return Cap(center=center, radius=radius)


@pytest.fixture(scope="module")
def pentagon():
    return build_regular(5, QUARTER_PI)


@pytest.fixture(scope="module")
def crooked_heptagon():
    result = sample_reduced(SamplerConfig(n=7, thickness=math.pi / 6, seed=3))
    assert result.converged
    return result.polygon


class TestConstruction:
    def test_too_few_vertices(self):
        with pytest.raises(DomainError):
            SphericalPolygon(_ring(0.4, [0.0, 2.0]))

    def test_clockwise_rejected(self):
        points = _ring(0.4, [0.0, -2.1, 2.1])
        with pytest.raises(NotConvex):
            SphericalPolygon(points)

    def test_reflex_vertex_rejected(self):
        points = _ring(0.5, [0.0, 1.2, 2.4, 3.6, 4.8])
        # Push one vertex toward the centroid far enough to break convexity.
        points[2] = spherical_row(0.02, 2.4)
        with pytest.raises(NotConvex):
            SphericalPolygon(points)

    def test_accepted_polygons_fit_an_open_hemisphere(self):
        # Near-hemisphere-filling triangle: legal, and the pole witnesses it.
        points = _ring(0.5 * math.pi - 1e-3, [0.0, 2.0 * math.pi / 3, 4.0 * math.pi / 3])
        P = SphericalPolygon(points)
        witness = SpherePoint(0.0, 0.0, 1.0)
        assert all(distance(witness, v) < 0.5 * math.pi for v in _points(P))

    def test_equality_and_repr(self, pentagon):
        clone = build_regular(5, QUARTER_PI)
        assert clone is not pentagon and clone == pentagon
        assert "SphericalPolygon" in repr(pentagon)

    def test_vertex_array_is_read_only(self, pentagon):
        with pytest.raises(ValueError):
            pentagon._array[0, 0] = 0.0
        copy = pentagon.as_array()
        copy[0, 0] = 0.0
        assert copy[0, 0] == 0.0
        assert pentagon._array[0, 0] != 0.0


def reference_rows(V):
    """Rows of V normalized by SpherePoint, the scalar oracle of the
    constructor's normalization."""
    return np.array([SpherePoint.from_vec(v).vec for v in V])


def _reference_build(V):
    return SphericalPolygon(reference_rows(V))


def _raised(build, V):
    with pytest.raises(Exception) as info:
        build(V)
    return type(info.value), str(info.value)


def _renormalization_moves(V):
    """Rows whose normalized vector moves when normalized again."""
    once = [SpherePoint.from_vec(v) for v in V]
    return sum(SpherePoint.from_vec(p.vec) != p for p in once)


class TestFromArray:
    def _assert_same(self, V):
        got = SphericalPolygon(V)
        assert got._array.tobytes() == reference_rows(V).tobytes()
        assert not got._array.flags.writeable

    def test_non_unit_rows(self):
        rng = np.random.default_rng(5)
        for n in (3, 5, 7, 21):
            V = build_regular(n, math.pi / 6).as_array()
            V *= rng.uniform(1e-6, 1e6, size=(n, 1))
            self._assert_same(V)

    def test_rows_a_second_normalization_would_move(self):
        moved = 0
        for seed in range(40):
            res = sample_reduced(SamplerConfig(n=7, thickness=QUARTER_PI, seed=seed))
            if res.polygon is None:
                continue
            V = res.polygon.as_array() * (1.0 + 1e-9 * seed)
            moved += _renormalization_moves(V)
            self._assert_same(V)
        assert moved > 0

    def test_equality_is_by_array(self, pentagon):
        V = pentagon.as_array()
        assert SphericalPolygon(V) == pentagon
        V[2, 0] = np.nextafter(V[2, 0], 1.0)
        assert SphericalPolygon(V) != pentagon

    @pytest.mark.parametrize("case", ["degenerate", "few", "clockwise", "hemisphere"])
    def test_same_errors_as_the_object_path(self, case):
        V = build_regular(5, QUARTER_PI).as_array()
        if case == "degenerate":
            V[3] = [1e-13, 0.0, 0.0]
        elif case == "few":
            V = V[:2]
        elif case == "clockwise":
            V = V[::-1]
        else:
            # Counterclockwise and convex, but two vertices near the antipode of the first.
            t = 0.3
            V = np.array([[0.0, 0.0, 1.0], [math.sin(t), 0.0, -math.cos(t)],
                          [math.sin(t) * math.cos(1.0), math.sin(t) * math.sin(1.0),
                           -math.cos(t)]])
        got = _raised(SphericalPolygon, V)
        assert got == _raised(_reference_build, V)
        want = {"degenerate": DegeneratePoint, "few": DomainError,
                "clockwise": NotConvex, "hemisphere": NotInHemisphere}[case]
        assert issubclass(got[0], want)

    @pytest.mark.parametrize("V", [
        [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
        [1.0, 0.0, 0.0],
        [[[1.0, 0.0, 0.0]]],
        [[1.0, 0.0, 0.0], [0.0, 1.0], [0.0, 0.0, 1.0]],
    ], ids=["two-columns", "one-row-1d", "three-dims", "ragged"])
    def test_only_n_by_3_arrays(self, V):
        with pytest.raises(DomainError, match=r"\(n, 3\) array"):
            SphericalPolygon(V)

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_row_names_its_vertex(self, bad):
        # Raised before the row is divided by its norm, so without a RuntimeWarning.
        V = build_regular(5, QUARTER_PI).as_array()
        V[3, 1] = bad
        V[4, 0] = -bad
        with pytest.raises(DomainError, match=f"vertex 3 has a non-finite norm \\({bad}\\)"):
            SphericalPolygon(V)


class TestOppositeSide:
    def test_triangle(self):
        assert opposite_side(0, 3) == (1, 2)

    def test_pentagon(self):
        assert opposite_side(0, 5) == (2, 3)

    def test_composition_steps_back_one(self):
        for n in (3, 5, 7, 9, 21):
            for i in range(n):
                j, _ = opposite_side(i, n)
                jj, _ = opposite_side(j, n)
                assert jj == (i - 1) % n

    def test_bad_inputs(self):
        with pytest.raises(DomainError):
            opposite_side(0, 4)
        with pytest.raises(DomainError):
            opposite_side(5, 5)


class TestBuildRegular:
    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    @pytest.mark.parametrize("omega", [math.pi / 8, math.pi / 6, QUARTER_PI, math.pi / 3])
    def test_measures_match_closed_forms(self, n, omega):
        P = build_regular(n, omega)
        m = regular_metrics(n, omega)
        assert P.thickness() == pytest.approx(omega, abs=1e-9)
        assert P.perimeter() == pytest.approx(m.perimeter, abs=1e-9)
        assert P.circumcap().radius == pytest.approx(m.circumradius, abs=1e-9)

    @pytest.mark.parametrize("n", [3, 5, 7, 9, 15, 21])
    def test_rows_match_scalar_points(self, n):
        for w in OMEGA_GRID:
            colat = regular_metrics(n, w).circumradius
            want = np.array([SpherePoint.from_spherical(colat, 2.0 * math.pi * k / n).vec
                             for k in range(n)])
            assert build_regular(n, w)._array.tobytes() == want.tobytes()

    def test_triangle_distances_equal_thickness(self):
        w = reduced_check(build_regular(3, QUARTER_PI))
        for d in w.foot_distances:
            assert d == pytest.approx(QUARTER_PI, abs=1e-9)

    def test_triangle_diameter_is_side(self):
        P = build_regular(3, QUARTER_PI)
        m = regular_metrics(3, QUARTER_PI)
        assert P.diameter() == pytest.approx(m.side, abs=1e-12)
        assert P.diameter() == pytest.approx(diameter_bound(QUARTER_PI), abs=1e-9)


class TestReducedCheck:
    def test_regular_pentagon_verifies(self):
        w = reduced_check(build_regular(5, math.pi / 6))
        assert w.is_reduced
        for d in w.foot_distances:
            assert d == pytest.approx(math.pi / 6, abs=1e-9)
        assert all(w.foot_interior)

    def test_even_gon_refused(self):
        square = SphericalPolygon(_ring(0.5, [0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi]))
        w = reduced_check(square)
        assert not w.is_reduced
        assert "not an odd-gon" in w.reason
        assert math.isnan(w.max_residual)
        assert w.feet.shape == (0, 3)

    def test_pulled_vertex_breaks_distance_equality(self):
        w = reduced_check(pulled_regular(3, QUARTER_PI))
        assert not w.is_reduced
        assert w.max_residual > 1e-7

    def test_sampled_heptagon_verifies(self, crooked_heptagon):
        w = reduced_check(crooked_heptagon)
        assert w.is_reduced
        assert w.max_residual < 1e-7
        assert all(0.0 < phi < 0.5 * math.pi for phi in w.crossing_angles)

    def test_witness_computed_once_per_tolerance(self, crooked_heptagon):
        w = reduced_check(crooked_heptagon)
        assert reduced_check(crooked_heptagon) is w
        assert reduced_check(crooked_heptagon, tol=REDUCED_TOL) is w
        loose = reduced_check(crooked_heptagon, tol=1e-3)
        assert loose is not w and reduced_check(crooked_heptagon, tol=1e-3) is loose

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-9], ids=["nan", "inf", "negative"])
    def test_bad_tolerance_rejected_before_the_cache(self, tol):
        P = build_regular(5, QUARTER_PI)
        for _ in range(5):
            with pytest.raises(DomainError, match="tol must be finite and >= 0"):
                reduced_check(P, tol=tol)
            reduced_check(P)
        assert list(P._witnesses) == [REDUCED_TOL]

    def test_witness_thickness_matches_polygon_thickness(self, crooked_heptagon):
        w = reduced_check(crooked_heptagon)
        assert crooked_heptagon.thickness() == pytest.approx(w.thickness, abs=1e-9)

    def test_matches_object_reference(self, sample_grid):
        polygons = [s.polygon for batch in sample_grid.cells.values()
                    for s in batch if s.polygon is not None]
        polygons += [build_regular(n, w) for n in (3, 5, 7, 9, 21) for w in OMEGA_GRID]
        for P in polygons:
            got, want = reduced_check(P), reference_reduced_check(P)
            assert (got.is_reduced, got.reason, got.foot_interior) == (
                want.is_reduced, want.reason, want.foot_interior)
            assert _missing_crossings(got) == _missing_crossings(want)
            np.testing.assert_allclose(_witness_values(got), _witness_values(want),
                                       rtol=0.0, atol=1e-12)

    def test_vertex_claims_match_scalar_reference(self, sample_grid):
        polygons = [s.polygon for s in sample_grid.all_converged()]
        polygons += [build_regular(n, w) for n in range(3, 22, 2) for w in OMEGA_GRID]
        for P in polygons:
            w = reduced_check(P)
            _missing_crossings(w)
            got = (w.far_angles, w.boundary_arc_gaps, w.crossing_foot_distances)
            np.testing.assert_allclose(np.array(got),
                                       np.array(reference_vertex_claims(P, w.feet, w.crossings)),
                                       rtol=0.0, atol=1e-14)

    def test_witness_points_are_read_only_arrays(self, crooked_heptagon):
        w = reduced_check(crooked_heptagon)
        for rows in (w.feet, w.crossings):
            assert rows.shape == (7, 3) and rows.dtype == float
            assert not rows.flags.writeable
        loose = reduced_check(crooked_heptagon, tol=1e-3)
        assert np.array_equal(loose.feet, w.feet)
        # Equality is identity: equal fields do not make equal witnesses.
        assert w == w and loose != w

    def test_far_angle_on_a_foot_at_the_side_end(self):
        P = side_end_triangle()
        w = reduced_check(P)
        assert not w.is_reduced and all(w.foot_interior)
        assert math.isnan(w.far_angles[0]) and not math.isnan(w.far_angles[1])
        # A polygon that passes needs every far angle for its claims.
        with pytest.raises(DegenerateAngle):
            reduced_check(P, tol=1.0)
        with pytest.raises(DegenerateAngle):
            reference_reduced_check(P, tol=1.0)

    @pytest.mark.parametrize("beyond, crosses", [(3e-10, True), (7e-10, False)])
    def test_crossing_slack_at_spoke_end(self, beyond, crosses):
        # A crossing counts when it lies within ON_ARC_TOL / 2 = 5e-10 of both spokes.
        P = _triangle_with_crossing_beyond(beyond)
        assert _crossing_overshoot(P, 0) == pytest.approx(beyond, rel=0.0, abs=1e-13)
        got, want = reduced_check(P), reference_reduced_check(P)
        assert _missing_crossings(got) == _missing_crossings(want)
        assert (not _missing_crossings(got)[0]) is crosses


def _crossing_overshoot(P, i):
    """Arc length by which the crossing o_i lies beyond the ends of its spokes.

    The spokes run from v_i and v_k, k = i + (n + 1)/2, to their feet.  Of the
    two points where their great circles meet, the one nearer the spokes is
    taken; a point at distance d beyond an arc end overshoots the arc-length
    sum of Arc.contains by 2d.
    """
    n = P.n
    verts = _points(P)
    spokes = []
    for m in (i, (i + (n + 1) // 2) % n):
        j, k = opposite_side(m, n)
        circle = GreatCircle.through(verts[j], verts[k])
        spokes.append(Arc(verts[m], project_to_circle(verts[m], circle)))
    c = SpherePoint.from_vec(np.cross(spokes[0].circle.pole.vec, spokes[1].circle.pole.vec))

    def beyond(o):
        return max(0.5 * (distance(s.a, o) + distance(o, s.b) - s.length) for s in spokes)

    return min(beyond(c), beyond(antipode(c)))


def _triangle_with_crossing_beyond(target):
    """Triangle whose crossing o_0 lies `target` beyond the ends of its spokes.

    With a right angle at v_2, the feet of v_0 and v_1 are both v_2, and the
    spokes of v_0 and v_2 meet at v_2: the end of one, the start of the other.
    Widening that angle by t moves the crossing past both ends, by an amount
    that grows with t; t is found by bisection.
    """
    def build(t):
        return SphericalPolygon([spherical_row(0.6, 0.0),
                                 spherical_row(0.5, 0.5 * math.pi + t),
                                 [0.0, 0.0, 1.0]])

    lo, hi = 0.0, 1e-6
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _crossing_overshoot(build(mid), 0) < target:
            lo = mid
        else:
            hi = mid
    return build(hi)


def _missing_crossings(w):
    """Which crossings are missing, after checking that the NaN rows of
    crossings, the NaN crossing angles and the NaN |o_i t_i| coincide."""
    nan_rows = np.isnan(w.crossings)
    missing = nan_rows.any(axis=1).tolist()
    assert nan_rows.all(axis=1).tolist() == missing
    assert [math.isnan(p) for p in w.crossing_angles] == missing
    assert [math.isnan(y) for y in w.crossing_foot_distances] == missing
    return missing


def _witness_values(w):
    crossings = w.crossings[~np.isnan(w.crossings).any(axis=1)]
    return np.concatenate([w.feet.ravel(), crossings.ravel(),
                           w.foot_distances + w.edge_foot_angles + w.foot_diagonal_angles
                           + w.crossing_angles + w.far_angles + w.boundary_arc_gaps
                           + w.crossing_foot_distances + (w.thickness, w.max_residual)])


class TestThickness:
    def test_regular_polygons_measure_their_thickness(self):
        for n in (3, 5, 9):
            for omega in (math.pi / 8, QUARTER_PI, math.pi / 3):
                assert build_regular(n, omega).thickness() == pytest.approx(
                    omega, abs=1e-9)

    def _random_containing_lunes(self, P, count, seed):
        """Candidate thicknesses of random lunes that provably contain P."""
        V = P.as_array()
        edge_poles = np.cross(V, np.roll(V, -1, axis=0))
        edge_poles /= np.linalg.norm(edge_poles, axis=1, keepdims=True)
        rng = np.random.default_rng(seed)
        found = []
        while len(found) < count:
            g = rng.normal(size=(4 * count, 3))
            g /= np.linalg.norm(g, axis=1, keepdims=True)
            valid = g[(V @ g.T).min(axis=0) >= 0.0]
            # Tightest second hemisphere for each g comes from an edge pole.
            dots = np.clip(valid @ edge_poles.T, -1.0, 1.0).min(axis=1)
            found.extend(math.pi - np.arccos(dots))
        return found[:count]

    @pytest.mark.parametrize("case", ["regular", "sampled"])
    def test_no_thinner_lune_among_ten_thousand(self, case, crooked_heptagon):
        P = build_regular(5, QUARTER_PI) if case == "regular" else crooked_heptagon
        computed = P.thickness()
        for cand in self._random_containing_lunes(P, 10_000, seed=2024):
            assert cand >= computed - 1e-6

    def test_thickness_achieved_by_explicit_lune(self, crooked_heptagon):
        for P in (build_regular(5, QUARTER_PI), crooked_heptagon):
            computed = P.thickness()
            V = P.as_array()
            poles = np.cross(V, np.roll(V, -1, axis=0))
            poles /= np.linalg.norm(poles, axis=1, keepdims=True)
            heights = np.arcsin(np.clip(V @ poles.T, -1.0, 1.0))
            j = int(np.argmin(heights.max(axis=0)))
            i = int(np.argmax(heights[:, j]))
            u, v_star = poles[j], V[i]
            d_star = math.asin(float(np.clip(v_star @ u, -1.0, 1.0)))
            w = v_star - (v_star @ u) * u
            w /= np.linalg.norm(w)
            h = math.cos(math.pi - d_star) * u + math.sin(math.pi - d_star) * w
            lune = Lune(SpherePoint.from_vec(u), SpherePoint.from_vec(h))
            assert lune.thickness == pytest.approx(computed, abs=1e-12)
            for vert in _points(P):
                assert lune.contains(vert, tol=1e-12)


class TestPerimeter:
    def test_orthant_triangle(self):
        P = SphericalPolygon([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        assert P.perimeter() == pytest.approx(1.5 * math.pi, abs=1e-12)

    def test_matches_closed_form(self):
        for n in (3, 7, 21):
            P = build_regular(n, math.pi / 6)
            assert P.perimeter() == pytest.approx(
                regular_metrics(n, math.pi / 6).perimeter, abs=1e-12)

    def test_short_side_keeps_full_precision(self):
        # acos of the vertex dot product errs by about 2e-11 on a 2e-6 side.
        rows = [spherical_row(0.5, 0.0), spherical_row(0.5, 2e-6 / math.sin(0.5)),
                [0.0, 0.0, 1.0]]
        verts = [SpherePoint(*row) for row in rows]
        sides = sum(distance(verts[i], verts[(i + 1) % 3]) for i in range(3))
        assert abs(SphericalPolygon(rows).perimeter() - sides) < 1e-15


class TestDiameter:
    def test_restricted_scan_agrees_with_full_scan(self, crooked_heptagon):
        assert abs(crooked_heptagon.diameter(reduced_hint=True)
                   - crooked_heptagon.diameter()) <= 1e-12

    def test_triangle_all_pairs_equal(self):
        P = build_regular(3, math.pi / 3)
        assert P.diameter() == pytest.approx(P.diameter(reduced_hint=True), abs=1e-12)


class TestCircumcap:
    def test_regular_cap_is_vertex_colatitude(self, pentagon):
        cap = pentagon.circumcap()
        m = regular_metrics(5, QUARTER_PI)
        assert cap.radius == pytest.approx(m.circumradius, abs=1e-12)
        assert cap.center.shape == (3,) and not cap.center.flags.writeable
        assert abs(float(np.linalg.norm(cap.center)) - 1.0) < 1e-15
        assert distance(SpherePoint.from_vec(cap.center), SpherePoint(0, 0, 1)) < 1e-6

    def test_pair_determined_cap(self):
        far = _ring(0.5, [0.0, math.pi])
        near_pole = spherical_row(0.05, 0.5 * math.pi)
        P = SphericalPolygon([far[0], near_pole, far[1]])
        cap = P.circumcap()
        assert cap.radius == pytest.approx(0.5, abs=1e-12)
        assert distance(SpherePoint.from_vec(cap.center), SpherePoint(0, 0, 1)) < 1e-12

    def test_no_center_beats_computed_radius(self, crooked_heptagon):
        cap = crooked_heptagon.circumcap()
        V = crooked_heptagon.as_array()
        for v in _points(crooked_heptagon):
            assert cap_contains(cap, v, tol=1e-12)
        rng = np.random.default_rng(31)
        centers = cap.center + 0.3 * rng.normal(size=(10_000, 3))
        centers /= np.linalg.norm(centers, axis=1, keepdims=True)
        radii = np.arccos(np.clip(centers @ V.T, -1.0, 1.0)).max(axis=1)
        assert float(radii.min()) >= cap.radius - 1e-5

    def test_cap_membership(self, pentagon):
        cap = pentagon.circumcap()
        assert cap_contains(cap, SpherePoint(0, 0, 1))
        assert not cap_contains(cap, SpherePoint(1, 0, 0))

    def test_matches_loop_reference(self, sample_grid):
        polygons = [s.polygon for s in sample_grid.all_converged()]
        polygons += [build_regular(n, w) for n in range(3, 22, 2) for w in OMEGA_GRID]
        # Reduced polygons have three-point caps; random hulls also have two-point ones.
        polygons += _random_hulls(60, seed=11)
        for P in polygons:
            _assert_same_cap(P.circumcap(), reference_circumcap(P))

    def test_winner_in_a_later_triple_block(self, monkeypatch):
        # Three vertices at colatitude 0.5 fix the cap; their triple (7, 14, 20)
        # comes after the first block of triples.
        monkeypatch.setattr(polygon_module, "_CAP_BLOCK", 1024)
        far = (7, 14, 20)
        P = SphericalPolygon([spherical_row(0.5 if k in far else 0.49, 2.0 * math.pi * k / 21)
                              for k in range(21)])
        triples = _index_combinations(21, 3).tolist()
        assert len(triples) > polygon_module._CAP_BLOCK
        assert triples.index(list(far)) >= polygon_module._CAP_BLOCK
        cap = P.circumcap()
        _assert_same_cap(cap, reference_circumcap(P))
        assert cap.radius == pytest.approx(0.5, abs=1e-12)

    def test_small_blocks_keep_the_first_minimum(self, monkeypatch, crooked_heptagon):
        # Ties between equal covers in different blocks go to the earlier one.
        monkeypatch.setattr(polygon_module, "_CAP_BLOCK", 4)
        polygons = [build_regular(n, w) for n in (3, 5, 7, 9) for w in OMEGA_GRID]
        for P in polygons + [crooked_heptagon]:
            _assert_same_cap(P.circumcap(), reference_circumcap(P))

    def test_negated_triple_centres_never_count(self):
        # circumcap scores only +c of each triple; -c, which the loop oracle
        # still scores, never passes the filter on a valid polygon.
        polygons = [build_regular(n, w) for n in range(3, 22, 2) for w in OMEGA_GRID]
        polygons += _random_hulls(60, seed=11)
        slack = 1e-12
        for P in polygons:
            V = P.as_array()
            i, j, k = _index_combinations(P.n, 3).T
            C = np.cross(V[i] - V[j], V[j] - V[k])
            C = -C / np.linalg.norm(C, axis=1, keepdims=True)
            radius = np.arccos(np.clip(np.einsum("ij,ij->i", C, V[i]), -1.0, 1.0))
            cover = np.arccos(np.clip(C @ V.T, -1.0, 1.0)).max(axis=1)
            passing = (radius <= 0.5 * math.pi + slack) & (cover <= radius + slack)
            assert not passing.any()
            assert radius.min() > 0.5 * math.pi

    def test_ninety_nine_vertices_supported(self):
        w = math.pi / 6
        cap = build_regular(99, w).circumcap()
        assert cap.radius == pytest.approx(regular_metrics(99, w).circumradius, abs=1e-9)

    def test_more_than_ninety_nine_vertices_refused(self):
        with pytest.raises(DomainError, match="circumcap supports at most 99 vertices, got 101"):
            build_regular(101, math.pi / 6).circumcap()


def _random_hulls(count, seed):
    """Convex hulls of random points within 0.6 of the north pole.

    Hulls are taken in the gnomonic projection, which maps great circles to
    lines; the monotone chain returns them counterclockwise.
    """
    rng = np.random.default_rng(seed)
    hulls = []
    while len(hulls) < count:
        m = int(rng.integers(3, 13))
        colat = 0.6 * np.sqrt(rng.uniform(size=m))
        lon = rng.uniform(0.0, 2.0 * math.pi, size=m)
        xy = np.tan(colat)[:, None] * np.column_stack([np.cos(lon), np.sin(lon)])
        hull: list[int] = []
        for order in (np.lexsort((xy[:, 1], xy[:, 0])), np.lexsort((-xy[:, 1], -xy[:, 0]))):
            chain = []
            for idx in order:
                while len(chain) >= 2 and _turn(*xy[chain[-2:]], xy[idx]) <= 0.0:
                    chain.pop()
                chain.append(idx)
            hull += chain[:-1]
        if len(hull) < 3:
            continue
        try:
            hulls.append(SphericalPolygon([[x, y, 1.0] for x, y in xy[hull]]))
        except NotConvex:
            continue
    return hulls


def _turn(o, a, b):
    """Positive when o -> a -> b turns counterclockwise in the plane."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _assert_same_cap(got, want):
    assert got.radius == want.radius
    assert np.array_equal(got.center, want.center)


class TestPolygonDocuments:
    def test_round_trip(self, tmp_path, pentagon):
        path = tmp_path / "p.json"
        save_polygon(path, pentagon, thickness_hint=QUARTER_PI, label="pentagon")
        loaded, doc = load_polygon(path)
        assert doc["thickness_hint"] == QUARTER_PI
        assert doc["label"] == "pentagon"
        for got, want in zip(_points(loaded), _points(pentagon)):
            assert distance(got, want) < 1e-15

    def test_doc_round_trip_in_memory(self, pentagon):
        again = polygon_from_doc(polygon_to_doc(pentagon))
        assert again.n == pentagon.n

    def test_norm_drift_rejected(self, tmp_path, pentagon):
        doc = polygon_to_doc(pentagon)
        doc["vertices"][0] = [0.9 * c for c in doc["vertices"][0]]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(PolygonDocumentError):
            load_polygon(path)

    def test_structural_garbage_rejected(self):
        with pytest.raises(PolygonDocumentError):
            polygon_from_doc({"nope": []})
        with pytest.raises(PolygonDocumentError):
            polygon_from_doc({"vertices": [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]})

    def test_rows_match_scalar_points(self, crooked_heptagon):
        # Rows off the unit sphere by up to 6e-8 are normalized as SpherePoint does.
        doc = polygon_to_doc(crooked_heptagon)
        doc["vertices"] = [[c * (1.0 + 1e-8 * k) for c in row]
                           for k, row in enumerate(doc["vertices"])]
        want = np.array([SpherePoint(*row).vec for row in doc["vertices"]])
        assert polygon_from_doc(doc)._array.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_component_rejected(self, pentagon, bad):
        # abs(nan - 1) > 1e-6 is false, so a NaN passed the norm check.
        doc = polygon_to_doc(pentagon)
        doc["vertices"][2][1] = bad
        with pytest.raises(PolygonDocumentError, match="vertex 2 has a NaN or infinite"):
            polygon_from_doc(doc)

    def test_clockwise_document_rejected(self, pentagon):
        doc = polygon_to_doc(pentagon)
        doc["vertices"] = doc["vertices"][::-1]
        with pytest.raises(NotConvex):
            polygon_from_doc(doc)
