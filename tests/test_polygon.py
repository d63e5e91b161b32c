"""Polygon type, regular construction, reducedness witness, metric oracles."""

import json
import math
import timeit
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations
from typing import Optional

import mpmath
import numpy as np
import pytest

from conftest import pulled_regular, side_end_triangle, spherical_row
from test_sphere_core import (
    Arc,
    CoplanarArcs,
    DegenerateAngle,
    DegenerateArc,
    DegenerateProjection,
    GreatCircle,
    Lune,
    NoIntersection,
    SpherePoint,
    angle_at,
    antipode,
    arc_intersection,
    distance,
    project_to_circle,
    row_angles,
    tangent_rows,
)

from redsphere import (
    OMEGA_GRID,
    Cap,
    DegeneratePoint,
    DomainError,
    NotConvex,
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
from redsphere import sampler as sampler_module
from redsphere.polygon import EDGE_EPS, REDUCED_TOL, SEPARATION_SINE, SEPARATION_TOL, index_table

QUARTER_PI = 0.25 * math.pi


@lru_cache(maxsize=8)
def _index_combinations(n: int, k: int) -> np.ndarray:
    """The k-subsets of range(n) as rows, in combinations order (read-only)."""
    rows = np.fromiter(chain.from_iterable(combinations(range(n), k)), dtype=np.intp)
    rows = rows.reshape(-1, k)
    rows.flags.writeable = False
    return rows


def _ring(colat, lons):
    return [spherical_row(colat, lon) for lon in lons]


# A counterclockwise triangle with an edge of sine 1.8e-6, found by a seeded search.
SHORT_EDGE_TRIANGLE = [
    [0.28123042982314317, -0.8832669714760405, 0.37516516688124524],
    [0.6422124118771461, -0.6281146930992799, -0.43935765652112513],
    [0.642212222691772, -0.6281158586291776, -0.43935626678565],
]


def _exact_det(V) -> Fraction:
    """det of the (3, 3) array V, in exact rational arithmetic on its floats."""
    a, b, c = ([Fraction(float(x)) for x in row] for row in V)
    return (a[0] * (b[1] * c[2] - b[2] * c[1]) + a[1] * (b[2] * c[0] - b[0] * c[2])
            + a[2] * (b[0] * c[1] - b[1] * c[0]))


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


def ring_closed_form(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per vertex i of an n-gon, odd or even: the next vertex i + 1 and
    opposite_side's closed form, all mod n."""
    i = np.arange(n)
    return (i + 1) % n, (i + (n - 1) // 2) % n, (i + (n + 1) // 2) % n


def arc_parameter(arc: Arc, p: SpherePoint) -> float:
    """Arc-length fraction of p from endpoint a; p must lie on the arc's circle."""
    return distance(arc.a, p) / arc.length


# The per-vertex reduced_check built on test_sphere_core's scalar objects, kept
# as the oracle of the array implementation in redsphere.polygon.
def reference_reduced_check(polygon: SphericalPolygon, tol: float = REDUCED_TOL) -> ReducedWitness:
    """Decide reducedness and collect the per-vertex witness data.

    A polygon passes iff its vertex count is odd, every projection foot is
    strictly interior to its side, and the spread of the
    vertex-to-opposite-side distances stays within tol.  A polygon whose
    projections or angles at v_i are undefined, or one that passes otherwise
    with a far angle undefined, fails with max_residual inf and the cause as
    reason.
    """
    n = polygon.n
    if n % 2 == 0:
        return ReducedWitness(thickness=polygon.thickness(), is_reduced=False,
                              max_residual=math.nan, reason=f"not an odd-gon: n={n}")

    verts = _points(polygon)
    feet: list[SpherePoint] = []
    dists: list[float] = []
    interior: list[bool] = []
    alphas: list[float] = []
    betas: list[float] = []
    try:
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
        for i in range(n):
            k2 = (i + (n + 1) // 2) % n
            alphas.append(angle_at(verts[i], verts[(i + 1) % n], feet[i]))
            betas.append(angle_at(verts[i], feet[i], verts[k2]))
    except (DegenerateProjection, DegenerateAngle) as exc:
        return ReducedWitness(thickness=polygon.thickness(), is_reduced=False,
                              max_residual=math.inf, reason=str(exc))

    crossings: list[Optional[SpherePoint]] = []
    phis: list[float] = []
    for i in range(n):
        k2 = (i + (n + 1) // 2) % n
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
    elif any(math.isnan(a) for a in far):
        reason, spread = "ray endpoint coincident or antipodal with vertex", math.inf
    else:
        reason = None
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
        is_reduced=reason is None,
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
    caps; intended for the small polygons this package works with.  A
    candidate counts when its cover exceeds its radius by at most an
    absolute 1e-12, while arccos of dots near 1 makes a cover of radius r
    noisy by some 1e-16 / r: the slack decides the filter only above
    r = 2e-3 or so.  Below it the oracle can reject the smallest cap and
    take a wider one, and it fails its assertion when it rejects them all.
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
    assert best is not None, "no cap of radius <= pi/2 passed the filter"
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
        # A triangle lies in an open hemisphere exactly when its rows are
        # independent: c = V^-1 1 has V c = 1.  This thin one, two vertices near
        # the antipode of the first, misses the hemisphere about its centroid.
        t = 0.3
        V = SphericalPolygon([[0.0, 0.0, 1.0], [math.sin(t), 0.0, -math.cos(t)],
                              [math.sin(t) * math.cos(1.0), math.sin(t) * math.sin(1.0),
                               -math.cos(t)]])._array
        assert _exact_det(V) > 0
        assert (V @ np.linalg.solve(V, np.ones(3)) > 0.5).all()
        assert not (V @ np.add.reduce(V, axis=0) > 0).all()
        # The sum of the unit poles witnesses every accepted polygon in exact
        # arithmetic only.  Beside an edge of sine 1.8e-6, the rounded dots on
        # that edge's circle are -3.3e-11, past the 1.3e-12 above the far one:
        # the rounded row sums are negative, yet the triangle is counterclockwise.
        P = SphericalPolygon(SHORT_EDGE_TRIANGLE)
        assert _exact_det(P._array) > 0
        assert (np.add.reduce(P._side_dots, axis=1)[1:] < 0).all()
        # Wide, thin and near-great-circle rings, both ways round: every one
        # built has positive rounded row sums and the kept arrays of the oracles,
        # and the fuzz builds some whose centroid misses a vertex's hemisphere.
        rng = np.random.default_rng(29)
        built = centroid_misses = 0
        for _ in range(300):
            n = int(rng.integers(3, 32))
            lons = np.sort(rng.uniform(0.0, 2.0 * math.pi, size=n))
            if rng.uniform() < 0.5:
                colat = rng.uniform(0.05, 3.1) * (1.0 + 1e-4 / n ** 2 * rng.uniform(-1.0, 1.0, n))
            else:
                colat = 0.5 * math.pi - 10.0 ** rng.uniform(-11.0, -2.0) * rng.uniform(0.9, 1.0, n)
            rows = np.array([spherical_row(c, lon) for c, lon in zip(colat, lons)])
            for W in (rows, rows[::-1]):
                try:
                    P = SphericalPolygon(W)
                except NotConvex as exc:
                    # The neighbour floor fires where |v_i . v_{i+1}| reaches 1 - SEPARATION_TOL.
                    U = reference_rows(W)
                    near = np.abs(np.einsum("ij,ij->i", U, np.roll(U, -1, axis=0)))
                    assert ("coincident" in str(exc)) == (near.max() >= 1.0 - SEPARATION_TOL)
                    continue
                V = P._array
                assert (np.add.reduce(P._side_dots, axis=1) > 0).all()
                assert V.tobytes() == reference_rows(W).tobytes()
                assert P._poles.tobytes() == fresh_poles(V).tobytes()
                assert P._side_dots.tobytes() == (V @ fresh_poles(V).T).tobytes()
                built += 1
                c = np.add.reduce(V, axis=0)
                centroid_misses += not (V @ (c / np.linalg.norm(c)) > SEPARATION_TOL).all()
        assert built >= 150 and centroid_misses >= 50

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

    def test_kept_poles_and_dots_are_read_only(self, pentagon):
        for kept in (pentagon._poles, pentagon._side_dots):
            with pytest.raises(ValueError):
                kept[0, 0] = 0.0


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

    @pytest.mark.parametrize("case", ["degenerate", "few", "coincident", "clockwise"])
    def test_same_errors_as_the_object_path(self, case):
        V = build_regular(5, QUARTER_PI).as_array()
        if case == "degenerate":
            V[3] = [1e-13, 0.0, 0.0]
        elif case == "coincident":
            V[2] = V[1]
        elif case == "few":
            V = V[:2]
        else:
            V = V[::-1]
        got = _raised(SphericalPolygon, V)
        assert got == _raised(_reference_build, V)
        want = {"degenerate": DegeneratePoint, "few": DomainError, "coincident": NotConvex,
                "clockwise": NotConvex}[case]
        assert issubclass(got[0], want)
        if case == "coincident":
            assert got[1] == "vertices 1 and 2 coincident or antipodal"

    @pytest.mark.parametrize("V", [
        [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
        [1.0, 0.0, 0.0],
        [[[1.0, 0.0, 0.0]]],
        [[1.0, 0.0, 0.0], [0.0, 1.0], [0.0, 0.0, 1.0]],
    ], ids=["two-columns", "one-row-1d", "three-dims", "ragged"])
    def test_only_n_by_3_arrays(self, V):
        with pytest.raises(DomainError, match=r"\(n, 3\) array"):
            SphericalPolygon(V)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, "overflow"],
                             ids=["nan", "inf", "overflow"])
    def test_non_finite_row_names_its_vertex(self, bad):
        # Raised before the row is divided by its norm, so without a RuntimeWarning;
        # a finite row whose squares overflow has an infinite norm.
        V = build_regular(5, QUARTER_PI).as_array()
        if bad == "overflow":
            V[3] = [1e200, 1e200, 1.0]
            bad = math.inf
        else:
            V[3, 1] = bad
            V[4, 0] = -bad
        with pytest.raises(DomainError, match=f"vertex 3 has a non-finite norm \\({bad}\\)"):
            SphericalPolygon(V)

    @pytest.mark.parametrize("case, error, message", [
        ("short", DegeneratePoint, "vector too short to normalize (norm=1e-13)"),
        ("short-then-nan", DomainError, "vertex 4 has a non-finite norm (nan)"),
        ("coincident", NotConvex, "vertices 4 and 0 coincident or antipodal"),
        ("antipodal", NotConvex, "vertices 1 and 2 coincident or antipodal"),
    ])
    def test_each_rejection_keeps_its_message(self, case, error, message):
        # A passing polygon skips the diagnostics; a failing one runs them and
        # names the first offending row or pair.
        V = build_regular(5, QUARTER_PI).as_array()
        if case.startswith("short"):
            V[2] = [1e-13, 0.0, 0.0]
            if case == "short-then-nan":
                V[4, 2] = math.nan
        elif case == "coincident":
            V[4] = V[0]
        else:
            V[2], V[4] = -V[1], V[0]
        with pytest.raises(error) as info:
            SphericalPolygon(V)
        assert str(info.value) == message

    @pytest.mark.parametrize("i", [1, 4])
    @pytest.mark.parametrize("scale", [0.99, 1.01])
    @pytest.mark.parametrize("antipodal", [False, True], ids=["near", "antipodal"])
    def test_neighbour_floor_is_the_dot_floor(self, i, scale, antipodal):
        # v_{i+1} at scale times arccos(1 - SEPARATION_TOL) from v_i, or from its
        # antipode, toward where it was: rejected below the floor, naming the
        # pair; above it, the near pair builds and the antipodal one is not convex.
        V = build_regular(5, QUARTER_PI).as_array()
        v, w = V[i], V[(i + 1) % 5]
        u = w - (v @ w) * v
        d = scale * math.acos(1.0 - SEPARATION_TOL)
        V[(i + 1) % 5] = math.cos(d) * v + math.sin(d) * u / np.linalg.norm(u)
        if antipodal:
            V[(i + 1) % 5] *= -1.0
        if scale > 1 and not antipodal:
            assert SphericalPolygon(V).n == 5
            return
        with pytest.raises(NotConvex) as info:
            SphericalPolygon(V)
        assert str(info.value) == (
            f"vertices {i} and {(i + 1) % 5} coincident or antipodal" if scale < 1 else
            "vertex on the wrong side of an edge circle (polygon non-convex or ordered clockwise)")


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


@pytest.mark.parametrize("n", range(3, 26))
class TestIndexTable:
    """index_table against closed forms, for odd and even n; its stage plans
    are pinned by reduced_check's oracle tests."""

    def test_entries_match_closed_forms(self, n):
        table = index_table(n)
        nxt, j, k = ring_closed_form(n)
        if n % 2:
            assert list(zip(j.tolist(), k.tolist())) == [opposite_side(i, n) for i in range(n)]
        for key, want in (("NEXT", nxt), ("NEAR", j), ("FAR", k)):
            assert np.array_equal(table[key], want), key
        on_side = [[i in (j[m], k[m]) for m in range(n)] for i in range(n)]
        assert np.array_equal(table["ON_SIDE"], on_side)
        gap_pairs = [(i, (i + g) % n) for g in range(1, n // 2 + 1) for i in range(n)]
        assert np.array_equal(table["GAP_PAIRS"], gap_pairs)
        V = np.random.default_rng(n).normal(size=(n, 3))
        assert np.array_equal(polygon_module.cross_rows(V, table["SIDES"]), np.cross(V[j], V[k]))

    def test_entries_are_read_only(self, n):
        for a in index_table(n).values():
            with pytest.raises(ValueError, match="read-only"):
                a.flat[0] = a.flat[0]

    def test_sampler_reads_the_tables_sides(self, n):
        # Uncached, so that the plan is built on the table cached now.
        assert sampler_module._plan.__wrapped__(n)["CROSS"] is index_table(n)["SIDES"]


class TestDotRows:
    """dot_rows is np.einsum("ij,ij->i") bit for bit: its C kernel, called directly."""

    @pytest.mark.parametrize("m", [1, 7, 63, 4830])
    def test_random_rows(self, m):
        rng = np.random.default_rng(m)
        for scale in (1e-9, 1.0, 1e9):
            X = scale * rng.standard_normal((m, 2, 3))
            # Strided views, as the kernels pass them, and contiguous copies.
            for A, B in ((X[:, 0], X[:, 1]), (X[:, 0].copy(), X[:, 1].copy())):
                want = np.einsum("ij,ij->i", A, B)
                assert polygon_module.dot_rows(A, B).tobytes() == want.tobytes()

    def test_stage_rows_of_grid_polygons(self, monkeypatch, sample_grid):
        # The rows of each stage of _measure_reduced, the last in _angles.
        calls = []
        dots = polygon_module.dot_rows
        monkeypatch.setattr(polygon_module, "dot_rows",
                            lambda A, B: calls.append((A, B)) or dots(A, B))
        for cell in sample_grid.cells:
            polygon_module._measure_reduced(sample_grid.converged(*cell)[0].polygon, REDUCED_TOL)
        assert len(calls) == 4 * len(sample_grid.cells)
        for A, B in calls:
            assert dots(A, B).tobytes() == np.einsum("ij,ij->i", A, B).tobytes()


class TestBuildRegular:
    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    @pytest.mark.parametrize("omega", [math.pi / 8, math.pi / 6, QUARTER_PI, math.pi / 3])
    def test_measures_match_closed_forms(self, n, omega):
        P = build_regular(n, omega)
        m = regular_metrics(n, omega)
        assert P.thickness() == pytest.approx(omega, abs=1e-9)
        assert P.lengths()[0] == pytest.approx(m.perimeter, abs=1e-9)
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
        assert P.lengths()[1] == pytest.approx(m.side, abs=1e-12)
        assert P.lengths()[1] == pytest.approx(diameter_bound(QUARTER_PI), abs=1e-9)


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

    def test_fresh_check_takes_four_einsums(self, monkeypatch, crooked_heptagon):
        # One per stage of _measure_reduced, the last in _angles.
        calls = []
        dots = polygon_module.dot_rows
        monkeypatch.setattr(polygon_module, "dot_rows", lambda A, B: calls.append(len(A)) or dots(A, B))
        w = reduced_check(SphericalPolygon(crooked_heptagon.as_array()))
        assert w.is_reduced
        assert len(calls) <= 4

    def test_witness_thickness_matches_polygon_thickness(self, crooked_heptagon):
        w = reduced_check(crooked_heptagon)
        assert crooked_heptagon.thickness() == pytest.approx(w.thickness, abs=1e-9)

    def test_matches_object_reference(self, sample_grid):
        polygons = [s.polygon for batch in sample_grid.cells.values()
                    for s in batch if s.polygon is not None]
        polygons += [build_regular(n, w) for n in (3, 5, 7, 9, 21) for w in OMEGA_GRID]
        # Every grid crossing is -(q_i x q_k); random hulls also have + ones.
        hulls = [P for P in _random_hulls(60, seed=11) if P.n % 2 == 1]
        assert sum(_plus_crossings(P) for P in hulls) > 0
        for P in polygons + hulls:
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
        # A polygon that passes otherwise needs every far angle for its claims,
        # so it fails with the measurements kept.
        for check in (reduced_check, reference_reduced_check):
            loose = check(P, tol=1.0)
            assert (loose.is_reduced, loose.reason, loose.max_residual) == (
                False, "ray endpoint coincident or antipodal with vertex", math.inf)
            np.testing.assert_array_equal(loose.foot_distances + loose.far_angles,
                                          check(P).foot_distances + check(P).far_angles)

    def test_vertex_at_the_pole_of_its_side_fails_in_band(self):
        cases = [
            # v_0 is the pole of the equator through v_1 and v_2, so it has no foot.
            ([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
             "point coincides with a circle pole"),
            # v_0 lies about 7e-9 above the equator through v_1 and v_2, so its
            # foot is too close to v_0 for an angle at v_0 toward it.
            ([[1.0, 1.0, 1e-8], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
             "ray endpoint coincident or antipodal with vertex"),
        ]
        for rows, reason in cases:
            P = SphericalPolygon(rows)
            for check in (reduced_check, reference_reduced_check):
                w = check(P, tol=1.0)
                assert (w.is_reduced, w.reason, w.max_residual) == (False, reason, math.inf)
                assert w.thickness == P.thickness() and w.feet.shape == (0, 3)

    @pytest.mark.parametrize("scale", [0.99, 1.01])
    @pytest.mark.parametrize("case", ["pole", "foot on v_i", "v_i on v_k", "t_i on v_k",
                                      "o_i on v_i", "o_i on t_k"])
    def test_each_floor_at_its_edge(self, case, scale):
        # With the decided arc at scale times the floor, by the oracle, the
        # polygon gets the reason, missing crossings and NaN far angles of
        # _FLOOR_CASES from reduced_check and from its oracle, whose floors are
        # 1 - SEPARATION_TOL dots.
        _, measure, below, above = _FLOOR_CASES[case]
        P = _floor_polygon(case, scale)
        assert measure(P) == pytest.approx(scale * _FLOOR, rel=1e-9)
        for check in (reduced_check, reference_reduced_check):
            w = check(P, tol=math.pi)
            assert w.is_reduced is (w.reason is None)
            assert (w.reason, _missing_crossings(w), [math.isnan(a) for a in w.far_angles]) == (
                below if scale < 1.0 else above)

    @pytest.mark.parametrize("beyond, crosses", [(3e-10, True), (7e-10, False)])
    def test_crossing_slack_at_spoke_end(self, beyond, crosses):
        # A crossing counts when it lies within ON_ARC_TOL / 2 = 5e-10 of both spokes.
        P = _triangle_with_crossing_beyond(beyond)
        assert _crossing_overshoot(P, 0) == pytest.approx(beyond, rel=0.0, abs=1e-13)
        got, want = reduced_check(P), reference_reduced_check(P)
        assert _missing_crossings(got) == _missing_crossings(want)
        assert (not _missing_crossings(got)[0]) is crosses


def _spoke_crossing(P, i):
    """The spokes v_i -> t_i and v_k -> t_k, k = i + (n + 1)/2, as oracle arcs,
    and their crossing: of the two points where their great circles meet, the
    one nearer the spokes, by _crossing_overshoot's measure."""
    n = P.n
    verts = _points(P)
    spokes = []
    for m in (i, (i + (n + 1) // 2) % n):
        j, k = opposite_side(m, n)
        circle = GreatCircle.through(verts[j], verts[k])
        spokes.append(Arc(verts[m], project_to_circle(verts[m], circle)))
    c = SpherePoint.from_vec(np.cross(spokes[0].circle.pole.vec, spokes[1].circle.pole.vec))
    return spokes, min(c, antipode(c), key=lambda o: _beyond(spokes, o))


def _beyond(spokes, o):
    return max(0.5 * (distance(s.a, o) + distance(o, s.b) - s.length) for s in spokes)


def _crossing_overshoot(P, i):
    """Arc length by which the crossing o_i lies beyond the ends of its spokes;
    a point at distance d beyond an arc end overshoots the arc-length sum of
    Arc.contains by 2d."""
    spokes, o = _spoke_crossing(P, i)
    return _beyond(spokes, o)


def _bisect(build, measure, target, lo, hi):
    """build(x) for the x in [lo, hi] where measure(build(x)), increasing in x,
    first reaches target, by bisection."""
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if measure(build(mid)) < target:
            lo = mid
        else:
            hi = mid
    return build(hi)


def _triangle_with_crossing_beyond(target):
    """Triangle whose crossing o_0 lies `target` beyond the ends of its spokes.

    With a right angle at v_2, the feet of v_0 and v_1 are both v_2, and the
    spokes of v_0 and v_2 meet at v_2: the end of one, the start of the other.
    Widening that angle by t moves the crossing past both ends, by an amount
    that grows with t; t is found by bisection.
    """
    return _bisect(side_end_triangle, lambda P: _crossing_overshoot(P, 0), target, 0.0, 1e-6)


def _foot(P, i):
    """The oracle's foot t_i of v_i on the circle of its opposite side."""
    verts = _points(P)
    j, k = opposite_side(i, P.n)
    return project_to_circle(verts[i], GreatCircle.through(verts[j], verts[k]))


def _pole_arc(P):
    """The least arc from a vertex to the pole of its opposite side."""
    verts = _points(P)
    sides = [opposite_side(i, P.n) for i in range(P.n)]
    return min(distance(v, GreatCircle.through(verts[j], verts[k]).pole)
               for v, (j, k) in zip(verts, sides))


def _low_apex_triangle(x):
    """A triangle whose v_0 lies x above the side from v_1 to v_2, at its middle."""
    return SphericalPolygon([spherical_row(0.5 * math.pi - x, 0.25 * math.pi),
                             [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


def _pinched_pentagon(d):
    """A convex pentagon whose v_0 and v_3 = v_k lie about d apart, drawn on the
    gnomonic chart z = 1: v_4 three floors below them, v_1 and v_2 far above."""
    rows = [(d, 0.0), (0.02, 0.5), (-0.02, 0.5), (0.0, 0.0), (0.5 * d, -3.0 * _FLOOR)]
    return SphericalPolygon([[x, y, 1.0] for x, y in rows])


def _crossing_arcs(P, i):
    """|o_i v_i| and |o_i t_k| by the oracle."""
    spokes, o = _spoke_crossing(P, i)
    return distance(o, spokes[0].a), distance(o, spokes[1].b)


# Every coincident, antipodal or pole decision of reduced_check turns at this arc,
# arccos(1 - SEPARATION_TOL) to 3e-13 relative.
_FLOOR = math.asin(SEPARATION_SINE)
_NO_ANGLE = "ray endpoint coincident or antipodal with vertex"
_OUTSIDE = "projection foot outside the open side interior"

# Per decision: a polygon family, the decided arc by the oracle, increasing in the
# family's parameter, and, with tol pi, the reason, missing crossings and NaN far
# angles just below the floor and just above it.  Near a right angle at v_2 of
# side_end_triangle, t_0 and t_1 near v_2 and the crossing near them move together,
# so more than one field turns there.  |o_i v_i| >= |o_i t_k|, as the spoke of v_k
# meets the circle through v_i at t_k at a right angle: a crossing within the
# floor of v_i is within it of t_k too, and reduced_check tests |o_i t_k| alone.
# So the case "o_i on v_i" takes a thin triangle, where the two arcs nearly
# agree, and the floor on |o_i t_k| decides it at the floor of |o_i v_i|.
_FLOOR_CASES = {
    "pole": (lambda x: build_regular(5, 0.5 * math.pi - x), _pole_arc,
             ("point coincides with a circle pole", [], []), (None, [False] * 5, [False] * 5)),
    "foot on v_i": (_low_apex_triangle, lambda P: distance(_points(P)[0], _foot(P, 0)),
                    (_NO_ANGLE, [], []), (_OUTSIDE, [True] * 3, [False] * 3)),
    "v_i on v_k": (_pinched_pentagon, lambda P: distance(_points(P)[0], _points(P)[3]),
                   (_NO_ANGLE, [], []),
                   (_OUTSIDE, [True, False, True, True, False], [True] + [False] * 4)),
    "t_i on v_k": (lambda x: side_end_triangle(-x), lambda P: distance(_foot(P, 0), _points(P)[2]),
                   (_NO_ANGLE, [False, True, True], [True, False, False]),
                   (None, [False, True, False], [False] * 3)),
    "o_i on v_i": (lambda x: side_end_triangle(-x, (1.4, 0.05)), lambda P: _crossing_arcs(P, 2)[0],
                   (_NO_ANGLE, [False, True, True], [True, False, False]),
                   (None, [False, True, False], [False] * 3)),
    "o_i on t_k": (lambda x: side_end_triangle(-x), lambda P: _crossing_arcs(P, 1)[1],
                   (None, [False, True, False], [False] * 3), (None, [False] * 3, [False] * 3)),
}


def _plus_crossings(P):
    """How many crossings o_i of reduced_check(P) lie on the +(q_i x q_k)
    side, with q the poles of the spokes v -> t and k = i + (n + 1)/2."""
    w = reduced_check(P)
    V = P.as_array()
    k = (np.arange(P.n) + (P.n + 1) // 2) % P.n
    Q = np.cross(V, w.feet)
    return int(np.sum(np.einsum("ij,ij->i", w.crossings, np.cross(Q, Q[k])) > 0.0))


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


@lru_cache(maxsize=None)
def _floor_polygon(case, scale):
    """_FLOOR_CASES[case]'s polygon whose decided arc is scale times the floor."""
    build, measure, _, _ = _FLOOR_CASES[case]
    return _bisect(build, measure, scale * _FLOOR, 0.0, 1e-4)


# ---------------------------------------------------------------------------
# The exact lune thickness and the definition of a reduced body, as oracles of
# thickness() and reduced_check.


def _unit(X):
    return X / np.linalg.norm(X, axis=-1, keepdims=True)


def _dots(X, Y):
    return np.einsum("...i,...i->...", X, Y)


def _on_minor_arc(A, X, B):
    """Whether the points X, on the great circles through A and B, lie on the
    closed minor arcs from A to B."""
    N = np.cross(A, B)
    return (_dots(np.cross(A, X), N) >= 0.0) & (_dots(np.cross(X, B), N) >= 0.0)


def lune_thickness(V):
    """Per polygon Z of a (c, m, 3) array V of counterclockwise unit rows: its
    thickness Delta(Z) = pi - diam(Z*), and the poles a and b of a lune of that
    width, {x : x . a >= 0, x . b >= 0} as test_sphere_core's Lune, that contains Z.

    Z* is the polar polygon {a : a . v >= 0 for every v in Z}: its vertices are
    the unit inward edge poles p_i = v_i x v_{i+1} / |.|, and its edges the minor
    arcs from p_{i-1} to p_i on the great circle with pole v_i.  A lune of
    poles a and b contains Z iff a and b lie in Z*, and its width is
    pi - |a b|.  Z* lies in an open hemisphere, so no two of its points are
    antipodal, and the farthest pair lies on its boundary: two vertices; a
    vertex p and the point -p + (p . v) v of an edge's circle farthest from it;
    or, on the circles of two edges with poles v and w, the points +-v x c and
    +-w x c, c = v x w, whose arc is perpendicular to both circles.  Each
    candidate counts where it lies on its edges, and distances are
    atan2(|x x y|, x . y).
    """
    V = np.asarray(V, dtype=float)
    c, m, _ = V.shape
    P = _unit(np.cross(V, np.roll(V, -1, axis=1)))
    # Edge e of Z* runs from P[e - 1] to P[e] on the circle with pole V[e].
    start = np.roll(P, 1, axis=1)
    e, f = np.indices((m, m)).reshape(2, -1)
    pairs = e < f
    X, Y, on = [P[:, e[pairs]]], [P[:, f[pairs]]], [np.ones((c, pairs.sum()), dtype=bool)]

    far = -P[:, e] + _dots(P[:, e], V[:, f])[..., None] * V[:, f]
    far_norm = np.linalg.norm(far, axis=-1)
    defined = far_norm > SEPARATION_TOL
    far /= np.where(defined, far_norm, 1.0)[..., None]
    X.append(P[:, e])
    Y.append(far)
    on.append(defined & _on_minor_arc(start[:, f], far, P[:, f]))

    e, f = e[pairs], f[pairs]
    C = np.cross(V[:, e], V[:, f])
    x, y = _unit(np.cross(V[:, e], C)), _unit(np.cross(V[:, f], C))
    # The four sign pairs (+-x, +-y).
    X.append(np.concatenate([x, x, -x, -x], axis=1))
    Y.append(np.concatenate([y, -y, y, -y], axis=1))
    e, f = np.tile(e, 4), np.tile(f, 4)
    on.append(_on_minor_arc(start[:, e], X[-1], P[:, e])
              & _on_minor_arc(start[:, f], Y[-1], P[:, f]))

    X, Y = np.concatenate(X, axis=1), np.concatenate(Y, axis=1)
    d = np.where(np.concatenate(on, axis=1),
                 np.arctan2(np.linalg.norm(np.cross(X, Y), axis=-1), _dots(X, Y)), -np.inf)
    best = d.argmax(axis=1)
    rows = np.arange(c)
    return math.pi - d[rows, best], X[rows, best], Y[rows, best]


# Chord ends of a corner cut, as arcs along the edges toward v_{i-1} and v_{i+1}
# in units of the shortest side: two depths, each at two skews.
_CUTS = np.array([(depth * a, depth * b) for depth in (1e-3, 1e-2)
                  for a, b in ((1.0, 0.5), (0.5, 1.0))])


def corner_cuts(V):
    """The convex (n + 1)-gons Z ⊊ P of the counterclockwise unit rows V of P
    that cut one vertex v_i off with a chord between its two edges, for each
    i and each pair of _CUTS: a (4n, n + 1, 3) array, vertex 0's cuts first."""
    n = len(V)
    side = row_angles(V, np.roll(V, -1, axis=0)).min()
    # Unit tangents at each vertex toward the previous and the next vertex.
    T = _unit(np.stack([tangent_rows(V, np.roll(V, 1, axis=0)),
                        tangent_rows(V, np.roll(V, -1, axis=0))], axis=1))
    arcs = side * _CUTS
    # [vertex, cut, chord end, xyz]
    ends = np.cos(arcs)[..., None] * V[:, None, None] + np.sin(arcs)[..., None] * T[:, None]
    rest = V[(np.arange(n)[:, None] + np.arange(1, n)) % n]
    rest = np.broadcast_to(rest[:, None], (n, len(_CUTS), n - 1, 3))
    return np.concatenate([ends, rest], axis=2).reshape(-1, n + 1, 3)


def definition_check(P):
    """P's verdict by the definition of a reduced body (Lassak, Colloq. Math.
    2015): P is reduced when every convex Z ⊊ P is thinner.  Returns whether
    every corner cut lowers the exact thickness by more than 1e-12, and the
    least drop.  A cut that keeps it proves P not reduced; cuts that all lower
    it are evidence, not proof, that P is."""
    V = P.as_array()
    drops = lune_thickness(V[None])[0][0] - lune_thickness(corner_cuts(V))[0]
    # Z ⊊ P puts P* inside Z*, so no cut is thicker.
    assert drops.min() >= -1e-12
    return bool(drops.min() > 1e-12), float(drops.min())


@pytest.fixture(scope="module")
def grid_slice(sample_grid):
    """40 converged samples per session-grid cell, by a seeded draw, and
    every rejection."""
    rng = np.random.default_rng(2015)
    polygons = []
    for batch in sample_grid.cells.values():
        converged = [s.polygon for s in batch if s.converged]
        polygons += [converged[i] for i in rng.choice(len(converged), 40, replace=False)]
        polygons += [s.polygon for s in batch if not s.converged]
    return polygons


def _assert_exact_thickness(P):
    """lune_thickness(P) is thickness() within 1e-12 and the width of an explicit
    lune that contains every vertex within 1e-12."""
    width, a, b = (x[0] for x in lune_thickness(P.as_array()[None]))
    lune = Lune(SpherePoint.from_vec(a), SpherePoint.from_vec(b))
    assert lune.thickness == pytest.approx(width, abs=1e-12)
    for vert in _points(P):
        assert lune.contains(vert, tol=1e-12)
    assert width == pytest.approx(P.thickness(), abs=1e-12)


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

    def test_regular_polygons_measure_their_exact_thickness(self):
        for n in range(3, 22, 2):
            for omega in (math.pi / 8, QUARTER_PI, math.pi / 3, 1.5):
                _assert_exact_thickness(build_regular(n, omega))

    def test_grid_slice_measures_its_exact_thickness(self, grid_slice):
        for P in grid_slice:
            _assert_exact_thickness(P)

    @pytest.mark.xfail(strict=True, reason="thickness() is the least edge's farthest-vertex "
                       "height, which reads low off the reduced family")
    def test_cut_triangle_measures_its_exact_thickness(self):
        # The regular triangle of thickness 1.5 with v_0 cut off 7.6e-4 along
        # its edge to v_2 and 1.52e-3 along its edge to v_1: thickness() reads
        # 1.1435, the exact lune thickness 1.4994.
        P = SphericalPolygon(corner_cuts(build_regular(3, 1.5).as_array())[1])
        _assert_exact_thickness(P)


class TestDefinition:
    """reduced_check against the definition of a reduced body.  Where
    reduced_check cannot measure a polygon (max_residual inf), the pair is
    unmeasured, not agreement."""

    def test_agrees_on_the_grid_slice(self, grid_slice):
        for P in grid_slice:
            w = reduced_check(P)
            assert math.isfinite(w.max_residual)
            reduced, least_drop = definition_check(P)
            assert reduced is w.is_reduced, least_drop

    @pytest.mark.parametrize("scale", [0.99, 1.01])
    @pytest.mark.parametrize("case", list(_FLOOR_CASES))
    def test_agrees_at_each_floor(self, case, scale):
        # By the definition only the regular pentagon of the pole floor is
        # reduced; below their floors, reduced_check cannot measure it, nor the
        # triangle with its foot on v_i, nor the pentagon with v_i on v_k.
        P = _floor_polygon(case, scale)
        reduced = case == "pole"
        assert definition_check(P)[0] is reduced, definition_check(P)[1]
        w = reduced_check(P)
        measured = scale > 1.0 or case not in ("pole", "foot on v_i", "v_i on v_k")
        assert math.isfinite(w.max_residual) is measured
        if measured:
            assert w.is_reduced is reduced

    def test_a_crossing_is_no_nearer_v_i_than_t_k(self, grid_slice):
        # Spoke k meets the circle through v_i and v_{i+1} at t_k at a right
        # angle, so o_i, t_k and v_i make a right triangle: the floor on
        # |o_i t_k| is a floor on |o_i v_i| too.
        crossings = 0
        for P in grid_slice:
            w = reduced_check(P)
            kept = ~np.isnan(w.crossings).any(axis=1)
            o = w.crossings[kept]
            v = P.as_array()[kept]
            t = w.feet[index_table(P.n)["FAR"]][kept]
            ov, ot, tv = row_angles(o, v), row_angles(o, t), row_angles(t, v)
            assert (ov >= ot).all()
            np.testing.assert_allclose(np.cos(ov), np.cos(ot) * np.cos(tv), rtol=0.0, atol=1e-12)
            crossings += len(o)
        assert crossings > 0


class TestPerimeter:
    def test_orthant_triangle(self):
        P = SphericalPolygon([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        assert P.lengths()[0] == pytest.approx(1.5 * math.pi, abs=1e-12)

    def test_matches_closed_form(self):
        for n in (3, 7, 21):
            P = build_regular(n, math.pi / 6)
            assert P.lengths()[0] == pytest.approx(
                regular_metrics(n, math.pi / 6).perimeter, abs=1e-12)

    def test_short_side_keeps_full_precision(self):
        # acos of the vertex dot product errs by about 2e-11 on a 2e-6 side.
        rows = [spherical_row(0.5, 0.0), spherical_row(0.5, 2e-6 / math.sin(0.5)),
                [0.0, 0.0, 1.0]]
        verts = [SpherePoint(*row) for row in rows]
        sides = sum(distance(verts[i], verts[(i + 1) % 3]) for i in range(3))
        assert abs(SphericalPolygon(rows).lengths()[0] - sides) < 1e-15


class TestDiameter:
    def test_restricted_scan_agrees_with_full_scan(self, crooked_heptagon):
        _, full, restricted = crooked_heptagon.lengths()
        assert abs(restricted - full) <= 1e-12

    def test_triangle_all_pairs_equal(self):
        _, full, restricted = build_regular(3, math.pi / 3).lengths()
        assert full == pytest.approx(restricted, abs=1e-12)


def separate_lengths(P):
    """Perimeter, diameter and restricted diameter from three row_angles calls,
    the oracle of the one pair pass of lengths()."""
    V = P.as_array()
    nxt, j, _ = ring_closed_form(P.n)
    a, b = _index_combinations(P.n, 2).T
    diameter = float(np.max(row_angles(V[a], V[b])))
    restricted = float(np.max(row_angles(V, V[j]))) if P.n % 2 else diameter
    return float(np.sum(row_angles(V, V[nxt]))), diameter, restricted


def fresh_poles(V):
    """Unit poles v_j x v_k of the sides opposite each vertex, computed with
    np.cross and np.linalg.norm, which the constructor's kernels match bit for bit."""
    _, j, k = ring_closed_form(len(V))
    P = np.cross(V[j], V[k])
    return P / np.linalg.norm(P, axis=1)[:, None]


def fresh_thickness(P):
    """thickness() from poles computed afresh, the oracle of the kept dots."""
    V = P.as_array()
    heights = np.arcsin(np.clip(V @ fresh_poles(V).T, -1.0, 1.0))
    return float(np.min(np.max(heights, axis=0)))


def _random_rings(count, seed):
    """Polygons of 3 to 101 vertices at random longitudes on a random small
    circle, slightly wobbled, then turned by a random rotation."""
    rng = np.random.default_rng(seed)

    def draw():
        n = int(rng.integers(3, 102))
        lons = np.sort(rng.uniform(0.0, 2.0 * math.pi, size=n))
        colat = rng.uniform(0.2, 1.2) * (1.0 + 1e-4 / n ** 2 * rng.uniform(-1.0, 1.0, size=n))
        turn, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        turn *= np.linalg.det(turn)
        return np.array([spherical_row(c, lon) for c, lon in zip(colat, lons)]) @ turn.T

    return _build_some(count, draw)


class TestMeasuredOnce:
    """lengths() and thickness() give their oracles' numbers bit for bit."""

    @pytest.fixture(scope="class")
    def polygons(self, sample_grid):
        polygons = [s.polygon for batch in sample_grid.cells.values()
                    for s in batch if s.polygon is not None]
        polygons += [build_regular(n, w) for n in range(3, 22, 2) for w in OMEGA_GRID]
        polygons += [SphericalPolygon(_ring(0.5, np.arange(n) * 2.0 * math.pi / n))
                     for n in range(4, 21, 2)]
        polygons.append(build_regular(101, QUARTER_PI))
        return polygons + _random_hulls(60, seed=11) + _random_rings(200, seed=12)

    def test_pair_pass_matches_separate_scans(self, polygons):
        for P in polygons:
            want = separate_lengths(P)
            assert P.lengths() == want
            assert (P.lengths()[0], P.lengths()[1]) == want[:2]

    def test_thickness_matches_fresh_poles(self, polygons):
        for P in polygons:
            assert P.thickness() == fresh_thickness(P)

    def test_kept_arrays_match_fresh_ones(self, polygons):
        for P in polygons:
            V = P.as_array()
            assert np.array_equal(P._poles, fresh_poles(V))
            assert np.array_equal(P._side_dots, V @ P._poles.T)


# A near-cocircular 11-gon of cap radius 0.0023, a random ring turned by a random rotation.
SMALL_RING = [
    [0.955759307611409, 0.15563726327671568, 0.24960205967478427],
    [0.9556368865899136, 0.1556181349236015, 0.25008226060965727],
    [0.9553912909210236, 0.15471611975575644, 0.2515758404934437],
    [0.9558305913332438, 0.1519455460829332, 0.2515957704276855],
    [0.9560143843837369, 0.15152136477573752, 0.2511528874368812],
    [0.9561307552868681, 0.15133087948404658, 0.2508245277263531],
    [0.9562876315946753, 0.15117086522955597, 0.2503224623656332],
    [0.9566904873429295, 0.1516881627522576, 0.2484633025386102],
    [0.9567152658134548, 0.1519289961913237, 0.2482206282237382],
    [0.9567233293577498, 0.1521004959373433, 0.24808448197788785],
    [0.9558471036142575, 0.1555923254898128, 0.24929368776787544],
]


# A quadrilateral of cap radius 9.6e-5, the hull of random points near the pole.
TINY_QUAD = [
    [-8.416915483607572e-05, -5.761518942907779e-05, 1.0],
    [-2.874218996664717e-05, -6.4191703238546e-05, 1.0],
    [5.1746776472219565e-05, -4.7136646028540244e-05, 1.0],
    [0.00010058117233841257, -3.5827616206585113e-06, 1.0],
]

# The dot with the cap's centre by which a vertex inside the cap of
# _near_tie(kind, gap) must clear the boundary for every pair or triple cap
# through it to cover 1e-12 more than the cap, so that the loop oracle's
# least cover is unique.  Wide for a pair, whose centre can slide along its
# bisector while its cover grows only to second order; narrow for a
# triple, whose cover grows to first order in every direction.
NEAR_TIE_BAND = {"pair": 5.01e-7, "triple": 1.44e-12}


def _near_tie(kind, gap):
    """A pair cap (longitudes 0 and pi, and a vertex at colatitude 0.3 inside
    it) or a triple cap (0, 2pi/3, 4pi/3) at colatitude 0.5 about the pole,
    with a vertex w at longitude pi/2 and the dot cos(0.5) + gap with the
    pole: inside the cap for a positive gap."""
    lons = [0.0, math.pi] if kind == "pair" else [0.0, 2.0 * math.pi / 3, 4.0 * math.pi / 3]
    rows = [spherical_row(0.5, lon) for lon in lons]
    if kind == "pair":
        rows.append(spherical_row(0.3, 1.5 * math.pi))
    z = math.cos(0.5) + gap
    rows.insert(1, [0.0, math.sqrt(1.0 - z * z), z])
    return SphericalPolygon(rows)


def _mp_cap_radius(P, dps=40):
    """The smallest cap's radius at dps digits, by brute force.

    For every unit c, min_k c . v_k is at most cos r, with equality at the
    cap's centre, which is a pair midpoint or a triple's normal; so cos r is
    the greatest min_k c . v_k over those candidates, both signs of each
    normal, with no filter and no tie to break.
    """
    with mpmath.workdps(dps):
        V = [[mpmath.mpf(x) for x in row] for row in P.as_array().tolist()]

        def least_dot(c):
            norm = mpmath.sqrt(sum(x * x for x in c))
            return min(sum(x * y for x, y in zip(c, v)) for v in V) / norm

        best = max(least_dot([x + y for x, y in zip(V[i], V[j])])
                   for i, j in combinations(range(P.n), 2))
        for i, j, k in combinations(range(P.n), 3):
            (p0, p1, p2), (q0, q1, q2) = ([x - y for x, y in zip(V[a], V[b])]
                                          for a, b in ((i, j), (j, k)))
            c = [p1 * q2 - p2 * q1, p2 * q0 - p0 * q2, p0 * q1 - p1 * q0]
            best = max(best, least_dot(c), least_dot([-x for x in c]))
        return float(mpmath.acos(best))


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
        # Bit for bit where the oracle's least cover is unique.  Reduced
        # polygons have three-point caps; random hulls also have two-point
        # ones.  The 21-gon's cap is the triple (7, 14, 20) of its vertices
        # at colatitude 0.5, late in the oracle's order; the pulled 25-gon's
        # is vertex 0's with the two across from it.
        untied = [s.polygon for s in sample_grid.all_converged()]
        untied += _random_hulls(60, seed=11)
        untied.append(SphericalPolygon([
            spherical_row(0.5 if k in (7, 14, 20) else 0.49, 2.0 * math.pi * k / 21)
            for k in range(21)]))
        untied.append(pulled_regular(25, QUARTER_PI, 0.01))
        for P in untied:
            _assert_same_cap(P.circumcap(), reference_circumcap(P))
        # Every vertex of a regular polygon is on its cap, which several pair
        # and triple caps give to rounding; circumcap's is one of them.
        tied = [build_regular(n, w) for n in range(3, 22, 2) for w in OMEGA_GRID]
        tied.append(pulled_regular(25, QUARTER_PI, 0.0))
        for P in tied:
            _assert_close_cap(P.circumcap(), reference_circumcap(P))

    @pytest.mark.parametrize("kind", ["pair", "triple"])
    @pytest.mark.parametrize("inside", [
        "1e-6", "above tau", "below tau", "on the boundary", "outside by 1e-9"])
    def test_near_ties_match_the_oracle(self, kind, inside):
        # A fourth vertex w inside the cap of a pair or a triple by a dot with
        # the centre of 1e-6, 1.01 tau or 0.99 tau, tau = NEAR_TIE_BAND[kind],
        # on its boundary, or outside it by 1e-9.  Beyond tau the oracle's
        # least cover is unique.  Within it a pair or triple cap through w
        # ties the cap; so does w just outside a pair cap, which joins the
        # support with a weight near 0.  Just outside the triple cap, w
        # makes a new triple cap that the vertex it displaced lies inside
        # by more than tau.
        tau = NEAR_TIE_BAND[kind]
        gap = {"1e-6": 1e-6, "above tau": 1.01 * tau, "below tau": 0.99 * tau,
               "on the boundary": 0.0, "outside by 1e-9": -1e-9}[inside]
        P = _near_tie(kind, gap)
        tied = inside in ("below tau", "on the boundary") or (
            inside == "outside by 1e-9" and kind == "pair")
        (_assert_close_cap if tied else _assert_same_cap)(P.circumcap(), reference_circumcap(P))

    def test_pair_cap_loses_its_bits_to_a_vertex_inside_by_1e_8(self):
        # A vertex inside a two-point cap by the angle 1e-8 puts the triple
        # cap through it within rounding of the pair's, and here the oracle
        # takes the triple.  circumcap keeps its support's pair.  The two
        # centres lie some 1e-8 apart on the pair's bisector, along which
        # the cover grows only to second order.
        c, s = math.cos(0.5), math.sin(0.5)
        rows = [spherical_row(0.5, 0.0), spherical_row(0.5 - 1e-8, 1.3),
                spherical_row(0.5, math.pi), spherical_row(0.3, 1.5 * math.pi)]
        P = SphericalPolygon([[c * x + s * z, y, c * z - s * x] for x, y, z in rows])
        pair = P.as_array()[[0, 2]].tolist()
        assert polygon_module._nearest_point(P.as_array()) == pair
        cap, want = P.circumcap(), reference_circumcap(P)
        assert np.array_equal(cap.center, polygon_module._support_center(pair))
        assert not np.array_equal(cap.center, want.center)
        assert abs(cap.radius - want.radius) <= 1e-14

    def test_small_near_cocircular_cap_matches_the_oracle(self):
        # An 11-gon close to a circle of radius 0.0023, just above the radius
        # where the oracle's arccos noise decides its own filter.
        P = SphericalPolygon(SMALL_RING)
        want = reference_circumcap(P)
        assert want.radius == pytest.approx(0.0023, abs=1e-4)
        _assert_close_cap(P.circumcap(), want)

    def test_tiny_cap_is_narrower_than_the_oracles(self):
        # Below a radius of 2e-3 the loop oracle's arccos noise reaches its
        # filter slack: here the smallest cap fails the filter, and the
        # oracle takes one 6e-5 wider.  circumcap takes the smallest.
        P = SphericalPolygon(TINY_QUAD)
        cap = P.circumcap()
        assert cap.radius < reference_circumcap(P).radius - 1e-5
        assert cap.radius == pytest.approx(_mp_cap_radius(P), rel=1e-6)

    @pytest.mark.parametrize("scale", [1e-2, 1e-3, 1e-4])
    def test_tiny_caps_match_a_40_digit_oracle(self, scale):
        # Hulls of random points within scale of the pole, turned by random
        # rotations; SMALL_RING too.
        rng = np.random.default_rng(41)
        polygons = [SphericalPolygon(SMALL_RING)]
        for P in _random_hulls(20, seed=int(1 / scale), scale=scale):
            turn, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            try:
                polygons.append(SphericalPolygon(P.as_array() @ turn.T))
            except NotConvex:
                continue
        assert len(polygons) > 15
        for P in polygons:
            assert P.circumcap().radius == pytest.approx(_mp_cap_radius(P), rel=1e-6)

    def test_negated_triple_centres_never_count(self):
        # circumcap builds only +c of a triple; -c, which the loop oracle
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

    def test_more_than_ninety_nine_vertices_supported(self):
        w = math.pi / 6
        cap = build_regular(101, w).circumcap()
        assert cap.radius == pytest.approx(regular_metrics(101, w).circumradius, abs=1e-9)

    def test_regular_401_gon(self):
        # Every vertex is on the cap, and the cap still takes a few passes.
        P = build_regular(401, QUARTER_PI)
        assert P.circumcap().radius == pytest.approx(
            regular_metrics(401, QUARTER_PI).circumradius, abs=1e-9)
        assert min(timeit.repeat(P.circumcap, number=1, repeat=5)) < 1e-3

    @pytest.mark.parametrize("n, pull", [(101, 1e-3), (401, 1e-4)])
    def test_past_ninety_nine_vertices(self, n, pull):
        # Vertex 0 pulled outward about as far as convexity allows: the
        # cap of vertex 0 and the two vertices across from it.
        P = pulled_regular(n, math.pi / 3, pull)
        cap = P.circumcap()
        V = P.as_array()
        assert float(np.arccos(np.clip(V @ cap.center, -1.0, 1.0)).max()) <= cap.radius + 1e-12
        rng = np.random.default_rng(37)
        centers = cap.center + 1e-3 * rng.normal(size=(10_000, 3))
        centers /= np.linalg.norm(centers, axis=1, keepdims=True)
        radii = np.arccos(np.clip(centers @ V.T, -1.0, 1.0)).max(axis=1)
        assert float(radii.min()) >= cap.radius - 1e-12
        if n == 401:
            assert min(timeit.repeat(P.circumcap, number=1, repeat=5)) < 1e-3


def _random_hulls(count, seed, scale=0.6):
    """Convex hulls of random points within scale of the north pole.

    Hulls are taken in the gnomonic projection, which maps great circles to
    lines; the monotone chain returns them counterclockwise.
    """
    rng = np.random.default_rng(seed)

    def draw():
        m = int(rng.integers(3, 13))
        colat = scale * np.sqrt(rng.uniform(size=m))
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
        return [[x, y, 1.0] for x, y in xy[hull]] if len(hull) >= 3 else None

    return _build_some(count, draw)


def _build_some(count, draw):
    """count polygons of the rows draw() returns, skipping None and NotConvex;
    after 100 * count draws, the test fails with the last rejection."""
    polygons, rejection = [], None
    for _ in range(100 * count):
        rows = draw()
        if rows is None:
            continue
        try:
            polygons.append(SphericalPolygon(rows))
        except NotConvex as exc:
            rejection = exc
        if len(polygons) == count:
            return polygons
    pytest.fail(f"{len(polygons)} of {count} polygons in {100 * count} draws; "
                f"last rejection: {rejection!r}")


def _turn(o, a, b):
    """Positive when o -> a -> b turns counterclockwise in the plane."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _assert_same_cap(got, want):
    assert got.radius == want.radius
    assert np.array_equal(got.center, want.center)


def _assert_close_cap(got, want):
    """Caps equal to rounding: the claims read only the radius, and on a tie
    the oracle's choice among equal caps is one of rounding."""
    assert abs(got.radius - want.radius) <= 1e-14
    assert float(np.abs(got.center - want.center).max()) <= 1e-14


class TestPolygonDocuments:
    def test_round_trip(self, tmp_path, pentagon):
        path = tmp_path / "p.json"
        save_polygon(path, pentagon, thickness_hint=QUARTER_PI)
        loaded = load_polygon(path)
        doc = json.loads(path.read_text())
        assert sorted(doc) == ["thickness_hint", "vertices"]
        assert doc["thickness_hint"] == QUARTER_PI
        for got, want in zip(_points(loaded), _points(pentagon)):
            assert distance(got, want) < 1e-15

    def test_unknown_keys_ignored(self, pentagon):
        doc = dict(polygon_to_doc(pentagon), label="pentagon", note=[1, 2])
        assert polygon_from_doc(doc) == pentagon

    @pytest.mark.parametrize("hint", [math.nan, math.inf, -math.inf])
    def test_non_finite_hint_rejected_before_writing(self, tmp_path, pentagon, hint):
        path = tmp_path / "p.json"
        with pytest.raises(DomainError, match="thickness_hint"):
            save_polygon(path, pentagon, thickness_hint=hint)
        assert not path.exists()

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
        with pytest.raises(PolygonDocumentError, match="at least 3 entries"):
            polygon_from_doc({"vertices": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]})

    def test_rows_match_scalar_points(self, crooked_heptagon):
        # Rows off the unit sphere by up to 6e-8 are normalized as SpherePoint does.
        doc = polygon_to_doc(crooked_heptagon)
        doc["vertices"] = [[c * (1.0 + 1e-8 * k) for c in row]
                           for k, row in enumerate(doc["vertices"])]
        want = np.array([SpherePoint(*row).vec for row in doc["vertices"]])
        assert polygon_from_doc(doc)._array.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                     pytest.param(10 ** 400, id="huge-int")])
    def test_non_finite_component_rejected(self, pentagon, bad):
        # abs(nan - 1) > 1e-6 is false, so a NaN passed the norm check; a JSON
        # integer beyond the float range made float() raise OverflowError.
        doc = polygon_to_doc(pentagon)
        doc["vertices"][2][1] = bad
        with pytest.raises(PolygonDocumentError, match="vertex 2 has a NaN or infinite"):
            polygon_from_doc(doc)

    @pytest.mark.parametrize("idx,row", [(0, ["0.6", "0", "0.8"]), (1, [True, False, False])],
                             ids=["strings", "booleans"])
    def test_non_number_component_rejected(self, idx, row):
        # float() takes both, and the triangle [0.6, 0, 0.8], [1, 0, 0], [0, 1, 0]
        # would build, but neither is a JSON number.
        doc = {"vertices": [[0.6, 0, 0.8], [1, 0, 0], [0, 1, 0]]}
        doc["vertices"][idx] = row
        with pytest.raises(PolygonDocumentError, match=f"vertex {idx} has a non-numeric"):
            polygon_from_doc(doc)

    def test_clockwise_document_rejected(self, pentagon):
        doc = polygon_to_doc(pentagon)
        doc["vertices"] = doc["vertices"][::-1]
        with pytest.raises(NotConvex):
            polygon_from_doc(doc)
