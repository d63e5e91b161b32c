"""Spherically convex polygons and the reducedness criterion.

A polygon here is a counterclockwise list of unit vertices, strictly
convex, contained in an open hemisphere.  A convex odd-gon is *reduced*
when the projection of every vertex onto the great circle of its opposite
side lands in the relative interior of that side and all these
vertex-to-opposite-side distances agree; the common value is the
polygon's thickness (minimal width over containing lunes).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

try:
    # Private, but every numpy since 1.17 ships them: the C kernel np.einsum
    # passes its operands to when optimize is off, as it is by default; the C
    # functions under the array-function dispatchers of np.concatenate and
    # np.where; and the clip ufunc np.clip calls.
    from numpy._core._multiarray_umath import concatenate as c_concatenate, where as c_where
    from numpy._core.multiarray import c_einsum
    from numpy._core.umath import clip
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import concatenate as c_concatenate, where as c_where
    from numpy.core.multiarray import c_einsum
    from numpy.core.umath import clip

from . import formulas
from .errors import DegeneratePoint, DomainError, NotConvex, PolygonDocumentError

__all__ = [
    "SphericalPolygon",
    "ReducedWitness",
    "Cap",
    "build_regular",
    "reduced_check",
    "polygon_to_doc",
    "polygon_from_doc",
    "load_polygon",
    "save_polygon",
]

# Feet of the vertex projections must sit strictly inside their side:
# the arc parameter is required to lie in (EDGE_EPS, 1 - EDGE_EPS).
EDGE_EPS = 1e-9
# Default tolerance on the spread of vertex-to-opposite-side distances.
REDUCED_TOL = 1e-7
# Unit-vector tolerance: the sign-test margin and shortest row normalized.
SEPARATION_TOL = 1e-12
# Floor on the sine or arc of every coincident, antipodal or pole test: sin(arccos(1 - 1e-12)).
SEPARATION_SINE = math.sqrt(SEPARATION_TOL * (2.0 - SEPARATION_TOL))
# Slack on d(a, p) + d(p, b) - d(a, b) when p counts as on the closed arc (a, b);
# reduced_check turns it into a slack on the signed arc parameter.
ON_ARC_TOL = 1e-9

_NEXT = np.array([1, 2, 0])
_PREV = np.array([2, 0, 1])


def cross_plan(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Flat indices I with Z[0] - Z[1], Z = Y[:2] * Y[2:], Y = X.ravel()[I],
    the rows a x b of an (m, 3) array X, as np.cross computes them: Y stacks
    the rows a_next, a_prev, b_prev and b_next."""
    a3, b3 = 3 * a[:, None], 3 * b[:, None]
    return np.stack([a3 + _NEXT, a3 + _PREV, b3 + _PREV, b3 + _NEXT])


def cross_rows(X: np.ndarray, plan: np.ndarray) -> np.ndarray:
    """The rows of a cross_plan over the rows of X, by one flat gather, one
    multiply and one subtraction: bit for bit np.cross, whose products and
    differences round alike, without its fixed cost, and C-ordered like its
    result, since reductions over it round differently in F order."""
    Y = X.ravel()[plan]
    Z = Y[:2] * Y[2:]
    return Z[0] - Z[1]


def norm_rows(A: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis of A.

    The formula of np.linalg.norm(A, axis=-1), so bit for bit its result,
    without its argument handling, which dominates on the few rows of a
    polygon.
    """
    return np.sqrt(np.add.reduce(A * A, axis=-1))


def dot_rows(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The dot products of the rows of the (m, 3) arrays A and B: bit for bit
    np.einsum("ij,ij->i", A, B), by its C kernel, without its Python wrapper."""
    return c_einsum("ij,ij->i", A, B)


def _angles(X: np.ndarray) -> np.ndarray:
    """Angles in [0, pi] between the nonzero rows X[r, 0] and X[r, 1] of an
    (m, 2, 3) array.

    atan2(|a x b|, a . b) per row, at full precision for short arcs and small
    angles, unlike acos: the geodesic distance of unit rows, or the angle at
    a vertex between two tangent rows.  The cross products take one flat
    gather through _pair_plan(m).  Each call has a fixed cost of some
    microseconds, so callers stack every angle of one computation in one call.
    """
    return np.arctan2(norm_rows(cross_rows(X, _pair_plan(len(X)))), dot_rows(X[:, 0], X[:, 1]))


@lru_cache(maxsize=8)
def _pair_plan(m: int) -> np.ndarray:
    """cross_plan of the rows X[r, 0] x X[r, 1] of a raveled (m, 2, 3) array
    X (read-only).  Cached by m, not by n: _angles takes pairs of any count."""
    plan = cross_plan(2 * np.arange(m), 2 * np.arange(m) + 1)
    plan.flags.writeable = False
    return plan


@lru_cache(maxsize=32)
def index_table(n: int) -> dict[str, np.ndarray]:
    """Every index an n-gon's kernels read (read-only).  Per vertex i: NEXT,
    i + 1, and NEAR and FAR, the ends j = i + (n - 1)/2 and k = i + (n + 1)/2
    of its opposite side, all mod n; ON_SIDE, the mask [i, m] of v_i being an
    end of the side opposite v_m.  GAP_PAIRS: the rows (i, i + g mod n) by gap
    g = 1..n//2, then by i, every pair once but those of gap n/2 of an even n
    twice.  SIDES: the cross_plan of the side poles v_j x v_k.  Then the plans
    of _measure_reduced's stages on the base arrays named here: row pairs,
    taken as an (m, 2, 3) array, and cross_plans."""
    i = np.arange(n)
    nxt, j, k = (i + 1) % n, (i + (n - 1) // 2) % n, (i + (n + 1) // 2) % n

    def pairs(*ends):
        return np.stack([np.concatenate(ends[0::2]), np.concatenate(ends[1::2])], axis=1)

    def row(block, index=i):
        return block * n + index

    table = {
        "NEXT": nxt, "NEAR": j, "FAR": k,
        "ON_SIDE": (i[:, None] == j) | (i[:, None] == k),
        "GAP_PAIRS": np.stack([np.tile(i, n // 2),
                               ((i + np.arange(1, n // 2 + 1)[:, None]) % n).ravel()], 1),
        "SIDES": cross_plan(j, k),
        # A, on [V, P]: v . p, v . v_{i+1}; p x v_j.
        "A_DOTS": pairs(i, row(1), i, nxt),
        "A_CROSS": cross_plan(row(1), j),
        # B, on [V, F, S]: v . t, v . v_k, v_k . t, t . S, t . v_j; v x t.
        "B_DOTS": pairs(i, row(1), i, k, k, row(1), row(1), row(2), row(1), j),
        "B_CROSS": cross_plan(i, row(1)),
        # C, on [Q, V]: q_i x q_k, q_i x v_i; then on [O, V, T]:
        # o . v, o . T, o . T_k, o . v_k.
        "C_CROSS": cross_plan(np.concatenate([i, i]), np.concatenate([k, row(1)])),
        "C_DOTS": pairs(i, row(1), i, row(2), i, row(2, k), i, row(1, k)),
        # The spokes from v_i and from v_k, to index their lengths.
        "SPOKES": np.stack([i, k]),
        # D, on [V, F, Q, -Q, O]: the rows r and v of the tangents r - (v . r) v;
        # then on [V, F, Q, -Q, O, U] with U those tangents, the angles' pairs.
        "TANGENTS": pairs(nxt, i, row(1), i, k, i, i, k, row(1), k),
        "ANGLES": pairs(i, row(1), j, k, row(5), row(6), row(6), row(7), row(2), row(3, k),
                        row(8), row(9), i, row(1, k), row(1), k, row(4), row(1)),
    }
    for a in table.values():
        a.flags.writeable = False
    return table


# _nearest_point stops when no vertex undercuts |x|^2 by more than this times |x|,
# a few ulps of 1: the support's cap is then within about this / sin(r) of the
# smallest, r its radius, also on near-cocircular polygons.
_NEAREST_STOP = 1e-15


def _det(a, b, c) -> float:
    return (a[0] * (b[1] * c[2] - b[2] * c[1]) + a[1] * (b[2] * c[0] - b[0] * c[2])
            + a[2] * (b[0] * c[1] - b[1] * c[0]))


def _affine_weights(P: list) -> list[float]:
    """Barycentric weights of the point of the affine hull of the 1 to 4
    points P nearest the origin: scalar closed forms for 1, 2 and 3 points;
    for 4, whose hull is space, those of the origin, by Cramer's rule on the
    differences from the fourth point, or, should they be coplanar, those of
    the first three and a 0."""
    if len(P) == 1:
        return [1.0]
    if len(P) == 2:
        (a0, a1, a2), (b0, b1, b2) = P
        d0, d1, d2 = b0 - a0, b1 - a1, b2 - a2
        t = -(a0 * d0 + a1 * d1 + a2 * d2) / (d0 * d0 + d1 * d1 + d2 * d2)
        return [1.0 - t, t]
    if len(P) == 3:
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = P
        e0, e1, e2, f0, f1, f2 = b0 - a0, b1 - a1, b2 - a2, c0 - a0, c1 - a1, c2 - a2
        ee, ff = e0 * e0 + e1 * e1 + e2 * e2, f0 * f0 + f1 * f1 + f2 * f2
        ef = e0 * f0 + e1 * f1 + e2 * f2
        ae, af = a0 * e0 + a1 * e1 + a2 * e2, a0 * f0 + a1 * f1 + a2 * f2
        # s e + t f minimizes |a + s e + t f|: the 2x2 normal equations by Cramer's rule.
        det = ee * ff - ef * ef
        s, t = (ef * af - ff * ae) / det, (ef * ae - ee * af) / det
        return [1.0 - s - t, s, t]
    a, b, c, d = P
    e, f, g = ([p[0] - d[0], p[1] - d[1], p[2] - d[2]] for p in (a, b, c))
    det = _det(e, f, g)
    if not det:
        return [*_affine_weights(P[:3]), 0.0]
    # 0 = d + la e + lb f + lc g.  The determinants of the rows themselves are
    # near-equal on a small cap and cancel in their sum; those of the
    # differences do not.
    la, lb, lc = -_det(d, f, g) / det, -_det(e, d, g) / det, -_det(e, f, d) / det
    return [la, lb, lc, 1.0 - la - lb - lc]


def _corral_step(S: list[int], P: list[list], w: list[float]):
    """Wolfe's minor cycles on the corral S, rows P, of feasible weights w:
    to the nearest point of the affine hull of P if its weights are all
    positive, else as far toward it as the weights stay nonnegative,
    dropping the row whose weight reaches 0 first, and again.  Returns the
    corral that is left, its rows, its weights and its point."""
    beta = _affine_weights(P)
    while min(beta) <= 0.0:
        theta, drop = min((wi / (wi - bi) if wi > bi else 0.0, k)
                          for k, (wi, bi) in enumerate(zip(w, beta)) if bi <= 0.0)
        w = [(1.0 - theta) * wi + theta * bi for wi, bi in zip(w, beta)]
        w[drop] = 0.0
        keep = [k for k, wi in enumerate(w) if wi > 0.0]
        S, P, w = [S[k] for k in keep], [P[k] for k in keep], [w[k] for k in keep]
        beta = _affine_weights(P)
    x0 = x1 = x2 = 0.0
    for wi, (r0, r1, r2) in zip(beta, P):
        x0, x1, x2 = x0 + wi * r0, x1 + wi * r1, x2 + wi * r2
    return S, P, beta, (x0, x1, x2)


def _nearest_point(V: np.ndarray) -> list[list]:
    """The support of the point y* of conv(V) nearest the origin, by Wolfe's
    algorithm (Math. Programming 11, 1976; the GJK distance of Gilbert,
    Johnson and Keerthi, 1988, solves the same problem), for the unit rows V
    of a polygon.

    It starts from the corral of the three rows least aligned with the
    rows' sum, at their mean, and runs _corral_step; on the samples of a
    reduced heptagon that corral is most often the support, and one more
    pass confirms it.  Each major iteration takes the dots of every row
    with x, one pass of n dots, and stops when no row undercuts |x|^2 by
    more than _NEAREST_STOP |x| or the least dot is already a corral row's;
    else it adds the row of the least dot to the corral with weight 0 and
    runs _corral_step.  It stops too when x did not get shorter, which only
    rounding can cause; in a small cap's last steps |x|^2 falls by less
    than an ulp of 1, so the fall is taken from the differences of old and
    new x.  The passes are ndarray.dot calls and the corral steps scalar
    closed forms on rows as lists.  Returns the support, the rows of the
    last corral, as lists in index order.  Raises RuntimeError past 4n + 16
    major iterations, which Wolfe's finite descent never needs.
    """
    n = len(V)
    rows = V.tolist()
    S = V.dot(np.add.reduce(V)).argpartition(2)[:3].tolist()
    P = [rows[j] for j in S]
    S, P, w, (x0, x1, x2) = _corral_step(S, P, [1.0 / 3.0] * 3)
    xx = x0 * x0 + x1 * x1 + x2 * x2
    for _ in range(4 * n + 16):
        dots = V.dot((x0, x1, x2))
        j = int(dots.argmin())
        if xx - dots.item(j) <= _NEAREST_STOP * math.sqrt(xx) or j in S:
            break
        o0, o1, o2 = x0, x1, x2
        S, P, w, (x0, x1, x2) = _corral_step(S + [j], P + [rows[j]], w + [0.0])
        xx = x0 * x0 + x1 * x1 + x2 * x2
        if (o0 - x0) * (o0 + x0) + (o1 - x1) * (o1 + x1) + (o2 - x2) * (o2 + x2) <= 0.0:
            break
    else:
        raise RuntimeError(f"nearest point of {n} vertices not found in {4 * n + 16} iterations")
    return [row for _, row in sorted(zip(S, P))]


def _support_center(support: list[list]) -> np.ndarray:
    """The loop oracle's candidate centre of the rows support, in index
    order: the pair cap's v_i + v_j or the triple cap's (v_i - v_j) x
    (v_j - v_k), in Python floats, which round each product and difference
    like np.cross, as a fresh array divided by np.linalg.norm's sqrt(c . c)."""
    if len(support) == 2:
        a, b = support
        c = np.array([a[0] + b[0], a[1] + b[1], a[2] + b[2]])
    else:
        a, b, d = support
        p0, p1, p2 = a[0] - b[0], a[1] - b[1], a[2] - b[2]
        q0, q1, q2 = b[0] - d[0], b[1] - d[1], b[2] - d[2]
        c = np.array([p1 * q2 - p2 * q1, p2 * q0 - p0 * q2, p0 * q1 - p1 * q0])
    return c / math.sqrt(c.dot(c))


class SphericalPolygon:
    """Strictly convex spherical polygon with counterclockwise vertices.

    Immutable: the vertex array is read-only, so reduced_check keeps the
    witness it computes on the polygon and returns it again on a later call.
    """

    def __init__(self, V):
        """The polygon of the rows of an (n, 3) array-like V, in order.

        Each row is normalized once: divided by the square root of
        (x*x + y*y) + z*z, in that order, so the tests' scalar point oracle
        gives the same unit vector bit for bit.  A row whose norm is NaN or
        infinite, including one whose squares overflow, raises DomainError.
        Each edge's sine, its pole's norm, must exceed SEPARATION_SINE, and each
        vertex off a side lie above its circle by more than SEPARATION_TOL.  Then
        the sum c of the unit poles witnesses an open hemisphere, untested: in exact
        arithmetic v_i . c sums row i of the dots, 0 on the two sides through v_i.
        """
        try:
            V = np.asarray(V, dtype=float)
        except (TypeError, ValueError) as exc:
            raise DomainError(f"vertices are not an (n, 3) array of numbers: {exc}") from exc
        if V.ndim != 2 or V.shape[1] != 3:
            raise DomainError(f"vertices must be an (n, 3) array, got shape {V.shape}")
        with np.errstate(over="ignore"):
            norm = norm_rows(V)
        # A NaN norm fails both comparisons; the diagnostics run only on failure.
        if not np.logical_and.reduce((norm >= SEPARATION_TOL) & (norm < math.inf)):
            bad = np.flatnonzero(~np.isfinite(norm))
            if bad.size:
                raise DomainError(f"vertex {bad[0]} has a non-finite norm ({norm[bad[0]]})")
            short = np.flatnonzero(norm < SEPARATION_TOL)
            raise DegeneratePoint(f"vector too short to normalize (norm={float(norm[short[0]])!r})")
        if len(V) < 3:
            raise DomainError(f"need at least 3 vertices, got {len(V)}")
        V = V / norm[:, None]
        n = len(V)
        table = index_table(n)
        # Poles of the sides (v_j, v_k) opposite each vertex, the n edges once each.
        P = cross_rows(V, table["SIDES"])
        sines = norm_rows(P)
        if np.minimum.reduce(sines) <= SEPARATION_SINE:
            first = int(table["NEAR"][sines <= SEPARATION_SINE].min())
            raise NotConvex(f"vertices {first} and {(first + 1) % n} coincident or antipodal")
        P /= sines[:, None]
        dots = V @ P.T  # [vertex, side opposite vertex m]
        if not np.logical_and.reduce((dots > SEPARATION_TOL) | table["ON_SIDE"], axis=None):
            raise NotConvex("vertex on the wrong side of an edge circle "
                            "(polygon non-convex or ordered clockwise)")
        V.flags.writeable = P.flags.writeable = dots.flags.writeable = False
        # The convexity test's poles and dots, for thickness and reduced_check.
        self._array, self._poles, self._side_dots = V, P, dots
        # reduced_check's witnesses, by tolerance.
        self._witnesses: dict[float, ReducedWitness] = {}

    @property
    def n(self) -> int:
        return len(self._array)

    def as_array(self) -> np.ndarray:
        return self._array.copy()

    def thickness(self) -> float:
        """The least, over edges, of the farthest vertex's height above the
        edge's great circle: arcsines of the constructor's convexity-test dots.

        On a reduced polygon that is its thickness, the width of the thinnest
        lune containing it.  Off the reduced family it can read low, as the lune
        through an edge and its farthest vertex need not contain the others.
        """
        heights = np.arcsin(clip(self._side_dots, -1.0, 1.0))
        return float(np.minimum.reduce(np.maximum.reduce(heights)))

    def lengths(self) -> tuple[float, float, float]:
        """Perimeter, diameter and restricted diameter, from one pair pass.

        It takes the angles of index_table's GAP_PAIRS from one gather of V
        and one _angles call.  The perimeter sums the edges, the pairs of gap
        1, in order i = 0..n - 1.  The restricted diameter scans the pairs
        (i, i + (n - 1)/2) of odd n alone: each vertex with one end of its
        opposite side, since (i, i + (n + 1)/2) is the pair (m, m + (n - 1)/2)
        of m = i + (n + 1)/2.  Reduced polygons attain their diameter there.
        For even n it is the diameter.
        """
        n = self.n
        # [gap - 1, vertex]
        d = _angles(self._array.take(index_table(n)["GAP_PAIRS"], axis=0)).reshape(-1, n)
        diameter = float(np.maximum.reduce(d, axis=None))
        return (float(np.add.reduce(d[0])), diameter,
                float(np.maximum.reduce(d[-1])) if n % 2 else diameter)

    def circumcap(self) -> "Cap":
        """Smallest spherical cap containing every vertex.

        The vertices lie in an open hemisphere, so the point y* of conv(V)
        nearest the origin is not 0; the cap has centre y*/|y*| and radius
        arccos |y*|.  _nearest_point finds the support of y*, 2 or 3
        vertices, in a few passes of n dots; never 1, since the segment
        between two distinct unit rows passes nearer the origin than either.
        _support_center builds the support's pair or triple centre c with the
        arithmetic of the tests' loop oracle, and the radius is the cover
        arccos(V @ c).max() over every vertex, as the oracle takes it.  Where
        the oracle's least cover is unique the cap is its bit for bit; where
        several pair and triple caps tie to rounding, as on a regular
        polygon, it is one of them.
        """
        V = self._array
        center = _support_center(_nearest_point(V))
        # Every dot is at least |y*| > 0, so the oracle's clip at -1 is idle.
        cover = max(np.arccos(np.minimum(V @ center, 1.0)).tolist())
        center.flags.writeable = False
        return Cap(center=center, radius=cover)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SphericalPolygon) and np.array_equal(self._array, other._array)

    def __repr__(self) -> str:
        return f"SphericalPolygon(n={self.n})"


@dataclass(frozen=True, eq=False)
class Cap:
    """Closed spherical cap of radius in (0, pi/2].

    center is a read-only unit (3,) array, so equality is identity.
    """

    center: np.ndarray
    radius: float

    def __post_init__(self) -> None:
        if not 0.0 < self.radius <= 0.5 * math.pi:
            raise DomainError(f"cap radius {self.radius!r} outside (0, pi/2]")


# The feet and crossings of a witness without vertices (read-only).
_NO_POINTS = np.empty((0, 3))
_NO_POINTS.flags.writeable = False


@dataclass(frozen=True, eq=False)
class ReducedWitness:
    """Everything reduced_check measures about one polygon.

    Per vertex i, with k = i + (n + 1)/2 (empty for even vertex counts,
    which fail immediately): the foot t_i on the opposite side, its
    distance and whether it lies strictly inside the side; the spoke
    crossing o_i; the angles at v_i between the forward edge and the spoke
    (edge_foot_angles) and between the spoke and the diagonal to v_k
    (foot_diagonal_angles); at v_k between the arcs toward v_i and t_i
    (far_angles, NaN when t_i lies on v_k); |v_i t_k| - |t_i v_k|
    (boundary_arc_gaps); the vertical angle at o_i (crossing_angles) and
    |o_i t_i| (crossing_foot_distances).  feet and crossings are read-only
    (n, 3) arrays, so equality is identity; a missing crossing is a NaN
    row, with NaN in its two crossing fields.
    """

    thickness: float
    is_reduced: bool
    max_residual: float
    reason: Optional[str]
    feet: np.ndarray = field(default_factory=lambda: _NO_POINTS)
    foot_distances: tuple[float, ...] = ()
    foot_interior: tuple[bool, ...] = ()
    crossings: np.ndarray = field(default_factory=lambda: _NO_POINTS)
    edge_foot_angles: tuple[float, ...] = ()
    foot_diagonal_angles: tuple[float, ...] = ()
    far_angles: tuple[float, ...] = ()
    boundary_arc_gaps: tuple[float, ...] = ()
    crossing_angles: tuple[float, ...] = ()
    crossing_foot_distances: tuple[float, ...] = ()


# reduced_check's reason for a polygon whose angles it cannot measure.
_NO_ANGLE = "ray endpoint coincident or antipodal with vertex"


def _failed(polygon: SphericalPolygon, residual: float, reason: str) -> ReducedWitness:
    """The witness of a polygon that fails before its vertices are measured."""
    return ReducedWitness(thickness=polygon.thickness(), is_reduced=False,
                          max_residual=residual, reason=reason)


def reduced_check(polygon: SphericalPolygon, tol: float = REDUCED_TOL) -> ReducedWitness:
    """Decide reducedness and collect the per-vertex witness data.

    A polygon passes iff its vertex count is odd, every projection foot is
    strictly interior to its side, and the spread of the
    vertex-to-opposite-side distances stays within tol.

    The witness is computed once per polygon and tol: polygons are
    immutable, so a later call returns the same witness object.  A tol that
    is NaN, infinite or negative raises DomainError.
    """
    if not (math.isfinite(tol) and tol >= 0.0):
        raise DomainError(f"tol must be finite and >= 0, got {tol!r}")
    witness = polygon._witnesses.get(tol)
    if witness is None:
        witness = polygon._witnesses[tol] = _measure_reduced(polygon, tol)
    return witness


def _measure_reduced(polygon: SphericalPolygon, tol: float) -> ReducedWitness:
    """The witness of reduced_check, computed afresh.

    All vertices are handled at once on the (n, 3) vertex array.  With
    (v_j, v_k) the side opposite v_i and p its unit pole, the foot t_i is
    v_i - (v_i . p) p, normalized.  It is interior when its signed arc
    parameter from v_j lies in (EDGE_EPS, 1 - EDGE_EPS) times the side
    length.  The spokes v_i -> t_i and v_k -> t_k cross at +-(q_i x q_k),
    with q the unit spoke poles.  Every spoke is shorter than pi/2, since
    v_i is no pole of its side, so only the sign at a positive dot with v_i
    can land on both closed spokes; that sign is taken, + on a tie, and
    tested.  A point x at signed parameter s on the great circle of an arc
    (a, b) of length D has d(a, x) + d(x, b) - D equal to
    2 max(-s, s - D, 0), so a slack of ON_ARC_TOL on that arc-length sum
    allows s in [-ON_ARC_TOL/2, D + ON_ARC_TOL/2].

    Four stages each gather from one base array, through index_table, their dots
    (one take of row pairs, one dot_rows) and cross products (one cross_rows).
    A: the heights v . p, v . v_{i+1} and S = p x v_j, the side's tangent at
    v_j.  B: v . t, v . v_k, v_k . t, t . S, t . v_j and the spoke poles
    v x t.  C: q_i x q_k, T = q_i x v_i, the spoke's tangent at v_i, and the
    crossing's dots with v, T, T_k and v_k, which its sign flip negates
    exactly.  D: the tangents r - (v . r) v at v_i and v_k by one
    subtraction, every angle by one _angles call and the arc parameters of
    t_i from v_j and of o_i from v_i and v_k by one arctan2.

    A polygon it cannot measure fails in-band, with max_residual inf and the
    cause as reason: a vertex at the pole of its side or a foot on its vertex
    (as a vertex on +-v_k has), where |F| = sin|v p| or |Q| = sin|v t| is at
    most SEPARATION_SINE; or, passing otherwise, a foot t_i within that arc of
    +-v_k, where the claims' far angle is undefined.  A crossing within it of
    t_k (|dist_k - s_k|) is missing, having no vertical angle; so is one
    within it of v_i, as spoke k is normal to the edge from v_i at t_k.
    """
    n = polygon.n
    if n % 2 == 0:
        return _failed(polygon, math.nan, f"not an odd-gon: n={n}")

    V, P = polygon._array, polygon._poles
    table = index_table(n)
    k = table["FAR"]
    # Heights by dot_rows, not the diagonal of _side_dots, which can round differently.
    W = c_concatenate([V, P])
    X = W.take(table["A_DOTS"], axis=0)
    h, v_next = dot_rows(X[:, 0], X[:, 1]).reshape(2, n)
    S = cross_rows(W, table["A_CROSS"])
    F = V - h[:, None] * P
    f_norm = norm_rows(F)
    if np.minimum.reduce(f_norm) <= SEPARATION_SINE:
        return _failed(polygon, math.inf, "point coincides with a circle pole")
    F /= f_norm[:, None]

    W = c_concatenate([V, F, S])
    X = W.take(table["B_DOTS"], axis=0)
    vf, vk, kf, fs, fj = dot_rows(X[:, 0], X[:, 1]).reshape(5, n)
    Q = cross_rows(W, table["B_CROSS"])
    q_norm = norm_rows(Q)
    if np.minimum.reduce(q_norm) <= SEPARATION_SINE:
        return _failed(polygon, math.inf, _NO_ANGLE)
    Q /= q_norm[:, None]

    Y = cross_rows(c_concatenate([Q, V]), table["C_CROSS"])
    C, T = Y[:n], Y[n:]
    c_norm = norm_rows(C)
    crosses = c_norm >= SEPARATION_TOL
    O = C / c_where(crosses, c_norm, 1.0)[:, None]
    X = c_concatenate([O, V, T]).take(table["C_DOTS"], axis=0)
    od = dot_rows(X[:, 0], X[:, 1]).reshape(4, n)
    sign = c_where(od[0] < 0.0, -1.0, 1.0)
    O *= sign[:, None]
    od *= sign
    ov, ot, ot_k, ov_k = od

    # Tangents at v_i toward v_{i+1}, t_i and v_k and at v_k toward v_i and
    # t_i.  The vertical angle at a crossing, between its rays toward v_i and
    # t_k, is the angle between q_i and -q_k for either sign.
    W = c_concatenate([V, F, Q, -Q, O])
    X = W.take(table["TANGENTS"], axis=0)
    U = X[:, 0] - c_concatenate([v_next, vf, vk, vk, kf])[:, None] * X[:, 1]
    ang = _angles(c_concatenate([W, U]).take(table["ANGLES"], axis=0)).reshape(9, n)
    dist, side, alpha, beta, phi, far, near_arc, far_arc, o_foot = ang
    # Rows: theta, then the crossing's parameters s_i and s_k on spokes i and k.
    arcs = np.arctan2(c_concatenate([fs, ot, ot_k]), c_concatenate([fj, ov, ov_k])).reshape(3, n)
    theta = arcs[0]
    interior = (EDGE_EPS * side < theta) & (theta < (1.0 - EDGE_EPS) * side)

    slack = 0.5 * ON_ARC_TOL
    spokes = dist[table["SPOKES"]]
    crosses &= np.logical_and.reduce((-slack <= arcs[1:]) & (arcs[1:] <= spokes + slack))
    crosses &= np.abs(spokes[1] - arcs[2]) > SEPARATION_SINE
    # A foot t_i on or opposite v_k leaves a zero tangent, so no angle at v_k.
    far_defined = (SEPARATION_SINE < far_arc) & (far_arc < math.pi - SEPARATION_SINE)
    far[~far_defined] = math.nan
    missing = ~crosses
    phi[missing] = o_foot[missing] = O[missing] = math.nan
    F.flags.writeable = O.flags.writeable = False

    gaps = tuple((near_arc - far_arc).tolist())
    dist, _, alpha, beta, phi, far, _, _, o_foot = map(tuple, ang.tolist())
    # The angles of unit rows are finite, so Python's min and max are numpy's.
    thickness = min(dist)
    spread = max(dist) - thickness
    foot_interior = tuple(interior.tolist())
    if not all(foot_interior):
        reason = "projection foot outside the open side interior"
    elif spread > tol:
        reason = f"distance spread {spread:.3e} exceeds tolerance {tol:.1e}"
    elif not np.logical_and.reduce(far_defined):
        # The claims read the far angles of every polygon that passes.
        reason, spread = _NO_ANGLE, math.inf
    else:
        reason = None
    return ReducedWitness(
        feet=F,
        foot_distances=dist,
        foot_interior=foot_interior,
        crossings=O,
        edge_foot_angles=alpha,
        foot_diagonal_angles=beta,
        far_angles=far,
        boundary_arc_gaps=gaps,
        crossing_angles=phi,
        crossing_foot_distances=o_foot,
        thickness=thickness,
        is_reduced=reason is None,
        max_residual=spread,
        reason=reason,
    )


def build_regular(n: int, thickness: float) -> SphericalPolygon:
    """Regular reduced n-gon of the given thickness around the north pole.

    Vertices sit at colatitude circumradius, longitudes 2*pi*k/n.
    """
    colat = formulas.regular_metrics(n, thickness).circumradius
    s, c = math.sin(colat), math.cos(colat)
    # math's sin and cos: numpy's SIMD ones can round differently.
    lons = [2.0 * math.pi * k / n for k in range(n)]
    return SphericalPolygon([[s * math.cos(lon), s * math.sin(lon), c] for lon in lons])


# ---------------------------------------------------------------------------
# Polygon JSON documents.


def polygon_to_doc(polygon: SphericalPolygon, thickness_hint: Optional[float] = None) -> dict:
    """Plain-dict form {"vertices": [[x, y, z], ...], ...} in full precision;
    a NaN or infinite thickness_hint, not strict JSON, raises DomainError."""
    doc: dict = {"vertices": polygon._array.tolist()}
    if thickness_hint is not None:
        if not math.isfinite(thickness_hint):
            raise DomainError(f"thickness_hint={thickness_hint!r} must be finite")
        doc["thickness_hint"] = thickness_hint
    return doc


def polygon_from_doc(doc: dict) -> SphericalPolygon:
    """Build a polygon from its document form.

    Vertices are renormalized; the load fails on a component that is not a
    JSON number (a string or a boolean, say) or is NaN or infinite, when any
    norm strays from 1 by more than 1e-6, or on structural junk.  Other keys
    are ignored.  Convexity violations propagate as NotConvex.
    """
    if not isinstance(doc, dict) or "vertices" not in doc:
        raise PolygonDocumentError("document must be an object with a 'vertices' key")
    raw = doc["vertices"]
    if not isinstance(raw, list) or len(raw) < 3:
        raise PolygonDocumentError("'vertices' must list at least 3 entries")
    rows = []
    for idx, entry in enumerate(raw):
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            raise PolygonDocumentError(f"vertex {idx} is not an [x, y, z] triple")
        if not all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in entry):
            raise PolygonDocumentError(f"vertex {idx} has a non-numeric component")
        try:
            vec = [float(c) for c in entry]
        except OverflowError as exc:  # an integer beyond the float range
            raise PolygonDocumentError(f"vertex {idx} has a NaN or infinite component") from exc
        if not all(map(math.isfinite, vec)):
            raise PolygonDocumentError(f"vertex {idx} has a NaN or infinite component")
        norm = math.sqrt(sum(c * c for c in vec))
        if abs(norm - 1.0) > 1e-6:
            raise PolygonDocumentError(f"vertex {idx} norm {norm!r} strays from 1 by more than 1e-6")
        rows.append(vec)
    return SphericalPolygon(rows)


def load_polygon(path) -> SphericalPolygon:
    """Read a polygon JSON file; returns the polygon polygon_from_doc builds."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad UTF-8 or JSON
        raise PolygonDocumentError(f"cannot read polygon file {path}: {exc}") from exc
    return polygon_from_doc(doc)


def save_polygon(path, polygon: SphericalPolygon, thickness_hint: Optional[float] = None) -> None:
    """Write polygon_to_doc's document as strict JSON."""
    doc = polygon_to_doc(polygon, thickness_hint=thickness_hint)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, allow_nan=False)
        fh.write("\n")
