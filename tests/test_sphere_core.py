"""The row-wise kernel, and the scalar point, circle, arc and lune oracles."""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from redsphere import (
    DegenerateAngle,
    DegeneratePoint,
    DegenerateProjection,
    RedsphereError,
)
from redsphere.sphere_core import ON_ARC_TOL, SEPARATION_TOL, _angles, _norm_rows


# Points, great circles and arcs as objects.  No library code uses them;
# they are the building blocks of the per-vertex oracles in test_polygon.


def _cross(ax: float, ay: float, az: float,
           bx: float, by: float, bz: float) -> tuple[float, float, float]:
    return (ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx)


def _angle(ax: float, ay: float, az: float,
           bx: float, by: float, bz: float) -> float:
    """Angle in [0, pi] between two nonzero vectors: atan2(|a x b|, a . b)."""
    return math.atan2(math.hypot(*_cross(ax, ay, az, bx, by, bz)),
                      ax * bx + ay * by + az * bz)


@dataclass(frozen=True)
class SpherePoint:
    """A point on the unit sphere; renormalized on construction.

    The norm is sqrt((x*x + y*y) + z*z), as SphericalPolygon computes it
    per row, so a point and a polygon row of the same raw vector agree
    bit for bit.
    """

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        n = math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)
        if n < 1e-12:
            raise DegeneratePoint(f"vector too short to normalize (norm={n!r})")
        object.__setattr__(self, "x", self.x / n)
        object.__setattr__(self, "y", self.y / n)
        object.__setattr__(self, "z", self.z / n)

    @classmethod
    def from_vec(cls, v) -> "SpherePoint":
        return cls(float(v[0]), float(v[1]), float(v[2]))

    @classmethod
    def from_spherical(cls, colat: float, lon: float) -> "SpherePoint":
        """Point at the given colatitude from +z and longitude from +x."""
        s = math.sin(colat)
        return cls(s * math.cos(lon), s * math.sin(lon), math.cos(colat))

    @property
    def vec(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    def dot(self, other: "SpherePoint") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z


def distance(p: SpherePoint, q: SpherePoint) -> float:
    """Geodesic (angular) distance in [0, pi].

    Computed as atan2(|p x q|, p . q), accurate to about eps at every arc
    length; acos(p . q) would return 0 for arcs shorter than about 1e-8.
    """
    return _angle(p.x, p.y, p.z, q.x, q.y, q.z)


def angle_at(vertex: SpherePoint, p: SpherePoint, q: SpherePoint) -> float:
    """Angle at `vertex` between the arcs toward p and toward q, in [0, pi].

    The angle between the tangents t = r - (vertex . r) vertex of the two
    rays, taken as atan2(|t0 x t1|, t0 . t1) so that small angles keep full
    precision.
    """
    tangents = []
    for r in (p, q):
        d = vertex.dot(r)
        if abs(d) >= 1.0 - SEPARATION_TOL:
            raise DegenerateAngle("ray endpoint coincident or antipodal with vertex")
        tangents.append((r.x - d * vertex.x, r.y - d * vertex.y, r.z - d * vertex.z))
    return _angle(*tangents[0], *tangents[1])


def tangent_rows(V: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Rows r - (v . r) v: the tangents at the unit rows v toward the rows r.

    _angles of two tangent rows at one vertex is the angle there.
    """
    return R - np.einsum("ij,ij->i", V, R)[:, None] * V


class DegenerateArc(RedsphereError):
    """Arc endpoints coincident or antipodal; the shorter arc is undefined."""


class NoIntersection(RedsphereError):
    """Two arcs whose great circles meet outside both arcs."""


class CoplanarArcs(RedsphereError):
    """Two arcs on the same great circle; no transversal intersection."""


def cross(p: SpherePoint, q: SpherePoint) -> SpherePoint:
    """Unit vector along p x q; raises DegeneratePoint if p and q are parallel."""
    return SpherePoint(*_cross(p.x, p.y, p.z, q.x, q.y, q.z))


def antipode(p: SpherePoint) -> SpherePoint:
    return SpherePoint(-p.x, -p.y, -p.z)


@dataclass(frozen=True)
class GreatCircle:
    """Oriented great circle stored as its pole."""

    pole: SpherePoint

    @classmethod
    def through(cls, a: SpherePoint, b: SpherePoint) -> "GreatCircle":
        """Great circle through two distinct, non-antipodal points.

        Oriented so that the pole is a x b.
        """
        if abs(a.dot(b)) >= 1.0 - SEPARATION_TOL:
            raise DegenerateArc("points coincident or antipodal; circle not unique")
        return cls(cross(a, b))


def project_to_circle(p: SpherePoint, circle: GreatCircle) -> SpherePoint:
    """Nearest point of the great circle to p.

    Raises DegenerateProjection when p is within ~1e-12 of either pole,
    where every circle point is equally close.
    """
    d = p.dot(circle.pole)
    if abs(d) >= 1.0 - SEPARATION_TOL:
        raise DegenerateProjection("point coincides with a circle pole")
    v = p.vec - d * circle.pole.vec
    return SpherePoint.from_vec(v)


@dataclass(frozen=True)
class Arc:
    """The shorter great-circle segment between two endpoints."""

    a: SpherePoint
    b: SpherePoint

    def __post_init__(self) -> None:
        if abs(self.a.dot(self.b)) >= 1.0 - SEPARATION_TOL:
            raise DegenerateArc("arc endpoints coincident or antipodal")

    @property
    def length(self) -> float:
        return distance(self.a, self.b)

    @property
    def circle(self) -> GreatCircle:
        return GreatCircle.through(self.a, self.b)

    def contains(self, p: SpherePoint, tol: float = ON_ARC_TOL) -> bool:
        """True when p lies on the closed arc (within tol, radians)."""
        return abs(distance(self.a, p) + distance(p, self.b) - self.length) <= tol


def arc_intersection(u: Arc, v: Arc, tol: float = ON_ARC_TOL) -> SpherePoint:
    """The point where two arcs cross.

    Raises CoplanarArcs when both arcs share one great circle and
    NoIntersection when the circles meet outside the closed arcs.
    """
    c = np.cross(u.circle.pole.vec, v.circle.pole.vec)
    n = float(np.linalg.norm(c))
    if n < 1e-12:
        raise CoplanarArcs("arcs lie on the same great circle")
    cand = SpherePoint.from_vec(c / n)
    for q in (cand, antipode(cand)):
        if u.contains(q, tol) and v.contains(q, tol):
            return q
    raise NoIntersection("great circles cross outside the arcs")


EX = SpherePoint(1.0, 0.0, 0.0)
EY = SpherePoint(0.0, 1.0, 0.0)
EZ = SpherePoint(0.0, 0.0, 1.0)

coords = st.floats(min_value=-1.0, max_value=1.0,
                   allow_nan=False, allow_infinity=False, width=64)


@st.composite
def sphere_points(draw):
    v = np.array([draw(coords), draw(coords), draw(coords)])
    norm = float(np.linalg.norm(v))
    assume(norm > 1e-3)
    x, y, z = v / norm
    return SpherePoint(x, y, z)


def _rows(*points):
    """The unit vectors of points, as the rows of an array."""
    return np.array([p.vec for p in points])


def _rng_point(rng):
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    return SpherePoint(*v)


def _march(origin, toward, angle):
    """Walk from origin along the great circle toward a target point."""
    t = toward.vec - origin.dot(toward) * origin.vec
    t /= np.linalg.norm(t)
    return SpherePoint.from_vec(math.cos(angle) * origin.vec + math.sin(angle) * t)


class TestSpherePoint:
    def test_renormalizes_on_construction(self):
        p = SpherePoint(3.0, 0.0, 4.0)
        assert abs(p.x - 0.6) < 1e-15 and abs(p.z - 0.8) < 1e-15

    def test_zero_vector_rejected(self):
        with pytest.raises(DegeneratePoint):
            SpherePoint(0.0, 0.0, 0.0)

    def test_from_spherical(self):
        p = SpherePoint.from_spherical(0.5 * math.pi, 0.0)
        assert distance(p, EX) < 1e-15


class TestNormRows:
    @pytest.mark.parametrize("shape", [(1, 3), (7, 3), (26, 3), (26, 7, 3), (4, 21, 3)])
    def test_bit_for_bit_numpy_norm(self, shape):
        rng = np.random.default_rng(sum(shape))
        for scale in (1e-9, 1.0, 1e9):
            A = scale * rng.standard_normal(shape)
            assert np.array_equal(_norm_rows(A), np.linalg.norm(A, axis=-1))
            # Strided views, as the kernels pass them.
            assert np.array_equal(_norm_rows(A[..., ::2, :]),
                                  np.linalg.norm(A[..., ::2, :], axis=-1))


class TestDistance:
    """Geodesic distances as the library takes them: _angles of unit rows."""

    def test_identity(self):
        assert _angles(_rows(EZ), _rows(EZ))[0] == 0.0

    def test_antipodes(self):
        assert _angles(_rows(EZ), -_rows(EZ))[0] == pytest.approx(math.pi)

    def test_orthogonal(self):
        assert _angles(_rows(EX), _rows(EY))[0] == pytest.approx(0.5 * math.pi)

    @given(p=sphere_points(), q=sphere_points())
    def test_symmetry(self, p, q):
        d_pq, d_qp = _angles(_rows(p, q), _rows(q, p))
        assert d_pq == d_qp

    @given(p=sphere_points(), q=sphere_points(), r=sphere_points())
    def test_triangle_inequality(self, p, q, r):
        # Keep arccos well conditioned; near-coincident points add noise
        # beyond the 1e-12 budget without changing the geometry.
        for u, v in ((p, q), (q, r), (p, r)):
            assume(abs(u.dot(v)) <= 1.0 - 1e-6)
        d_pq, d_qr, d_pr = _angles(_rows(p, q, p), _rows(q, r, r))
        assert d_pr <= d_pq + d_qr + 1e-12


class TestProjection:
    def test_point_on_circle_is_fixed(self):
        c = GreatCircle(EZ)
        assert distance(project_to_circle(EX, c), EX) < 1e-15

    def test_tilted_pole_projects_along_meridian(self):
        p = SpherePoint.from_vec(EZ.vec + 1e-3 * EX.vec)
        t = project_to_circle(p, GreatCircle(EZ))
        assert distance(t, EX) < 1e-12

    def test_pole_rejected(self):
        with pytest.raises(DegenerateProjection):
            project_to_circle(EZ, GreatCircle(EZ))

    def test_projection_is_nearest_of_ten_thousand(self):
        # Grid spacing 2pi/1e4 costs about gap^2/(2 sin d) in the sampled
        # minimum, so keep the point at a moderate distance from the circle.
        rng = np.random.default_rng(20240811)
        thetas = 2.0 * math.pi * np.arange(10_000) / 10_000
        for _ in range(25):
            pole = _rng_point(rng)
            u = project_to_circle(_rng_point(rng), GreatCircle(pole)).vec
            w = np.cross(pole.vec, u)
            d0 = rng.uniform(0.3, 1.2)
            theta_star = rng.uniform(0.0, 2.0 * math.pi)
            foot = math.cos(theta_star) * u + math.sin(theta_star) * w
            p = SpherePoint.from_vec(math.cos(d0) * foot + math.sin(d0) * pole.vec)
            circle = GreatCircle(pole)
            t = project_to_circle(p, circle)
            closed = distance(p, t)
            assert closed == pytest.approx(d0, abs=1e-12)
            samples = np.outer(np.cos(thetas), u) + np.outer(np.sin(thetas), w)
            brute = float(np.min(np.arccos(np.clip(samples @ p.vec, -1.0, 1.0))))
            assert brute >= closed - 1e-12
            assert brute - closed <= 1e-6

    # Short arcs from p to its foot, where acos of a dot product near 1 errs
    # by more than the bound or rounds the whole arc to 0.
    @example(p=EY, pole=SpherePoint(0.9999999999999875, 1.5894571946666466e-07, 0.0))
    @example(p=EX, pole=SpherePoint(1e-08, 0.0, 1.0))
    @example(p=EX, pole=SpherePoint(1e-10, 0.0, 1.0))
    @given(p=sphere_points(), pole=sphere_points())
    def test_distance_to_circle_matches_projected_point(self, p, pole):
        assume(abs(p.dot(pole)) < 1.0 - 1e-6)
        circle = GreatCircle(pole)
        t = project_to_circle(p, circle)
        to_pole, to_foot = _angles(_rows(p, p), _rows(circle.pole, t))
        assert abs(abs(0.5 * math.pi - to_pole) - to_foot) < 1e-10

    def test_circle_distance_trivials(self):
        c = GreatCircle(EZ)
        assert abs(0.5 * math.pi - distance(EX, c.pole)) == pytest.approx(0.0)
        assert abs(0.5 * math.pi - distance(EZ, c.pole)) == pytest.approx(0.5 * math.pi)


class TestArcIntersection:
    def test_meridian_meets_equator(self):
        meridian = Arc(_march(EX, EZ, 0.4), _march(EX, EZ, -0.4))
        equator = Arc(_march(EX, EY, 0.5), _march(EX, EY, -0.5))
        q = arc_intersection(meridian, equator)
        assert distance(q, EX) < 1e-12

    def test_constructed_crossing_recovered(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            q = _rng_point(rng)
            r1, r2 = _rng_point(rng), _rng_point(rng)
            if abs(q.dot(r1)) > 0.9 or abs(q.dot(r2)) > 0.9:
                continue
            t1 = project_to_circle(r1, GreatCircle(q))
            t2 = project_to_circle(r2, GreatCircle(q))
            if abs(t1.dot(t2)) > 1.0 - 1e-6:
                continue
            u = Arc(_march(q, t1, 0.3), _march(q, t1, -0.4))
            v = Arc(_march(q, t2, 0.2), _march(q, t2, -0.5))
            got = arc_intersection(u, v)
            assert distance(got, q) < 1e-12

    def test_disjoint_arcs_raise(self):
        polar = Arc(_march(EZ, EX, 0.1), _march(EZ, EX, 0.5))
        equatorial = Arc(_march(EY, EX, -0.3), _march(EY, EX, 0.3))
        with pytest.raises(NoIntersection):
            arc_intersection(polar, equatorial)

    def test_coplanar_arcs_raise(self):
        u = Arc(EX, _march(EX, EY, 0.5))
        v = Arc(_march(EX, EY, 1.0), _march(EX, EY, 1.5))
        with pytest.raises(CoplanarArcs):
            arc_intersection(u, v)

    def test_intersection_lies_on_both_arcs(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            q = _rng_point(rng)
            r1, r2 = _rng_point(rng), _rng_point(rng)
            if abs(q.dot(r1)) > 0.9 or abs(q.dot(r2)) > 0.9:
                continue
            t1 = project_to_circle(r1, GreatCircle(q))
            t2 = project_to_circle(r2, GreatCircle(q))
            if abs(t1.dot(t2)) > 1.0 - 1e-6:
                continue
            u = Arc(_march(q, t1, 0.6), _march(q, t1, -0.2))
            v = Arc(_march(q, t2, 0.7), _march(q, t2, -0.3))
            got = arc_intersection(u, v)
            assert distance(got, u.a) + distance(got, u.b) <= u.length + 1e-10
            assert distance(got, v.a) + distance(got, v.b) <= v.length + 1e-10


class TestAngleAt:
    def test_same_direction_is_zero(self):
        p = _march(EZ, EX, 0.7)
        q = _march(EZ, EX, 0.3)
        assert angle_at(EZ, p, q) < 1e-12

    def test_orthant_corner(self):
        assert angle_at(EZ, EX, EY) == pytest.approx(0.5 * math.pi)

    def test_degenerate_leg_rejected(self):
        with pytest.raises(DegenerateAngle):
            angle_at(EZ, EZ, EX)

    def test_small_angle_recovered(self):
        # Small enough that acos of the tangent dot product loses half of it.
        p = _march(EZ, EX, 0.5)
        q = _march(EZ, SpherePoint(1.0, math.tan(1e-8), 0.0), 0.5)
        T = tangent_rows(_rows(EZ, EZ), _rows(p, q))
        assert abs(_angles(T[:1], T[1:])[0] - 1e-8) < 1e-15

    def test_sine_rule_on_random_triangles(self):
        rng = np.random.default_rng(424242)
        checked = 0
        while checked < 500:
            p, q, r = (_rng_point(rng) for _ in range(3))
            dots = (abs(p.dot(q)), abs(q.dot(r)), abs(p.dot(r)))
            if max(dots) > 0.95:
                continue
            # Per vertex: the side opposite it, and the angle there.
            V = _rows(p, q, r)
            nxt, prv = V[[1, 2, 0]], V[[2, 0, 1]]
            sides, angles = _angles(
                np.concatenate([nxt, tangent_rows(V, nxt)]),
                np.concatenate([prv, tangent_rows(V, prv)])).reshape(2, 3)
            if angles.min() < 0.05:
                continue
            ratios = np.sin(angles) / np.sin(sides)
            assert ratios.max() - ratios.min() < 1e-9
            checked += 1


class TestOraclesMatchKernel:
    """The scalar distance and angle_at agree with _angles, so the
    per-vertex oracles built on them stay evidence for the array code."""

    def test_distance_and_angle_at_agree_with_angles(self):
        rng = np.random.default_rng(20261018)
        points = [SpherePoint.from_vec(v) for v in rng.standard_normal((60_000, 3))]
        verts, ps, qs = points[0::3], points[1::3], points[2::3]
        V, P, Q = _rows(*verts), _rows(*ps), _rows(*qs)
        dist = _angles(V, P)
        ang = _angles(tangent_rows(V, P), tangent_rows(V, Q))
        want_dist = [distance(v, p) for v, p in zip(verts, ps)]
        want_ang = [angle_at(v, p, q) for v, p, q in zip(verts, ps, qs)]
        assert np.max(np.abs(dist - want_dist)) < 1e-13
        assert np.max(np.abs(ang - want_ang)) < 1e-13


@dataclass(frozen=True)
class Lune:
    """Intersection of two hemispheres, stored as their poles.

    The thickness oracle of test_polygon's explicit-lune test.
    """

    pole_a: SpherePoint
    pole_b: SpherePoint

    def __post_init__(self) -> None:
        if abs(self.pole_a.dot(self.pole_b)) >= 1.0 - SEPARATION_TOL:
            raise DegenerateArc("hemisphere poles coincident or antipodal")

    @property
    def thickness(self) -> float:
        """Distance between the midpoints of the two boundary arcs.

        Equals pi minus the angle between the poles; always in (0, pi).
        """
        return math.pi - distance(self.pole_a, self.pole_b)

    def boundary_midpoints(self) -> tuple[SpherePoint, SpherePoint]:
        """Midpoint of each boundary arc (deepest point inside the other hemisphere)."""
        d = self.pole_a.dot(self.pole_b)
        m_a = SpherePoint.from_vec(self.pole_b.vec - d * self.pole_a.vec)
        m_b = SpherePoint.from_vec(self.pole_a.vec - d * self.pole_b.vec)
        return m_a, m_b

    def contains(self, p: SpherePoint, tol: float = 0.0) -> bool:
        return p.dot(self.pole_a) >= -tol and p.dot(self.pole_b) >= -tol


class TestLune:
    def test_thickness_is_pi_minus_pole_angle(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            g, h = _rng_point(rng), _rng_point(rng)
            if abs(g.dot(h)) > 1.0 - 1e-6:
                continue
            lune = Lune(g, h)
            assert lune.thickness == pytest.approx(math.pi - distance(g, h))

    def test_thickness_equals_boundary_midpoint_distance(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            g, h = _rng_point(rng), _rng_point(rng)
            if not 0.1 < abs(g.dot(h)) < 0.9:
                continue
            lune = Lune(g, h)
            m_a, m_b = lune.boundary_midpoints()
            assert distance(m_a, m_b) == pytest.approx(lune.thickness, abs=1e-12)
            assert lune.contains(m_a, tol=1e-12) and lune.contains(m_b, tol=1e-12)

    def test_coincident_poles_rejected(self):
        with pytest.raises(DegenerateArc):
            Lune(EZ, EZ)
