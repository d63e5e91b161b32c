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
from itertools import chain, combinations
from typing import Optional

import numpy as np

from . import formulas
from .errors import (
    DegenerateAngle,
    DegeneratePoint,
    DegenerateProjection,
    DomainError,
    NoEnclosingCap,
    NotConvex,
    NotInHemisphere,
    PolygonDocumentError,
)
from .sphere_core import (
    ON_ARC_TOL,
    SEPARATION_TOL,
    _angles,
    _cross_rows,
    _norm_rows,
)

__all__ = [
    "SphericalPolygon",
    "ReducedWitness",
    "Cap",
    "build_regular",
    "reduced_check",
    "edge_poles",
    "opposite_side_heights",
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
# Strictness margin for convexity / hemisphere sign tests.
_SIGN_EPS = 1e-12


@lru_cache(maxsize=32)
def _ring_indices(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per vertex i of an n-gon: the next vertex i + 1, and the ends
    i + (n - 1)/2 and i + (n + 1)/2 of the opposite side, all mod n (read-only)."""
    i = np.arange(n)
    out = ((i + 1) % n, (i + (n - 1) // 2) % n, (i + (n + 1) // 2) % n)
    for a in out:
        a.flags.writeable = False
    return out


def edge_poles(V: np.ndarray) -> np.ndarray:
    """Unit poles of the edge great circles v_i -> v_{i+1} (rows)."""
    P = _cross_rows(V, V[_ring_indices(len(V))[0]])
    return P / _norm_rows(P)[:, None]


def _opposite_poles(V: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Indices j, k of the side opposite each vertex and its unit pole v_j x v_k.

    The vertex axis of V is -2, so a (..., n, 3) stack gives (..., n, 3) poles.
    """
    _, j, k = _ring_indices(V.shape[-2])
    P = _cross_rows(V[..., j, :], V[..., k, :])
    P /= _norm_rows(P)[..., None]
    return j, k, P


def opposite_side_heights(V: np.ndarray) -> np.ndarray:
    """Signed height of each vertex over its opposite side's great circle.

    V is an (n, 3) array of unit rows in counterclockwise order, n odd, or a
    (..., n, 3) stack of them; each polygon of a stack gets the heights it
    gets alone, bit for bit.  Positive on the polygon's interior side.
    """
    _, _, P = _opposite_poles(V)
    return np.arcsin(np.clip(np.einsum("...ij,...ij->...i", V, P), -1.0, 1.0))


# Candidate centres that circumcap scores at once.
_CAP_BLOCK = 2048


@lru_cache(maxsize=8)
def _index_combinations(n: int, k: int) -> np.ndarray:
    """The k-subsets of range(n) as rows, in combinations order (read-only)."""
    rows = np.fromiter(chain.from_iterable(combinations(range(n), k)), dtype=np.intp)
    rows = rows.reshape(-1, k)
    rows.flags.writeable = False
    return rows


def _unit_rows(R: np.ndarray, anchor: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of R at least _SIGN_EPS long, normalized, with their anchors.

    The norm is the square root of a batched-matmul self dot, which rounds
    like the 1-D np.linalg.norm; np.linalg.norm(axis=1) does not.
    """
    norm = np.sqrt((R[:, None, :] @ R[:, :, None])[:, 0, 0])
    keep = norm >= _SIGN_EPS
    return R[keep] / norm[keep, None], anchor[keep]


def _cap_candidates(V: np.ndarray):
    """Blocks (centres, anchors) of circumcap's candidate centres, in order.

    Pair midpoints first, then the triple centres; a block holds up to
    _CAP_BLOCK candidates and may run across from pairs to triples.  Row m
    of a block is a candidate whose cap boundary passes through V[anchor[m]].
    """
    n = V.shape[0]
    pairs = _index_combinations(n, 2)
    triples = _index_combinations(n, 3)
    m = len(pairs)
    for start in range(0, m + len(triples), _CAP_BLOCK):
        stop = start + _CAP_BLOCK
        i, j = pairs[start:stop].T
        a, b, c = triples[max(start - m, 0):max(stop - m, 0)].T
        R = np.concatenate([V[i] + V[j], _cross_rows(V[a] - V[b], V[b] - V[c])])
        yield _unit_rows(R, np.concatenate([i, a]))


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
        infinite raises DomainError.
        """
        try:
            V = np.asarray(V, dtype=float)
        except (TypeError, ValueError) as exc:
            raise DomainError(f"vertices are not an (n, 3) array of numbers: {exc}") from exc
        if V.ndim != 2 or V.shape[1] != 3:
            raise DomainError(f"vertices must be an (n, 3) array, got shape {V.shape}")
        x, y, z = V.T
        norm = np.sqrt((x * x + y * y) + z * z)
        bad = np.flatnonzero(~np.isfinite(norm))
        if bad.size:
            raise DomainError(f"vertex {bad[0]} has a non-finite norm ({norm[bad[0]]})")
        short = np.flatnonzero(norm < 1e-12)
        if short.size:
            raise DegeneratePoint(
                f"vector too short to normalize (norm={float(norm[short[0]])!r})")
        if len(V) < 3:
            raise DomainError(f"need at least 3 vertices, got {len(V)}")
        V = V / norm[:, None]
        n = len(V)
        nxt = _ring_indices(n)[0]
        # Neighbour dots by matmul, which rounds like the 1-D dot product.
        nxt_dots = (V[:, None, :] @ V[nxt, :, None])[:, 0, 0]
        touching = np.flatnonzero(np.abs(nxt_dots) >= 1.0 - _SIGN_EPS)
        if touching.size:
            first = int(touching[0])
            raise NotConvex(f"vertices {first} and {(first + 1) % n} coincident or antipodal")
        dots = V @ edge_poles(V).T  # [vertex j, edge i]
        i = np.arange(n)
        on_edge = (i[:, None] == i) | (i[:, None] == nxt)
        if not np.all((dots > _SIGN_EPS) | on_edge):
            raise NotConvex(
                "vertex on the wrong side of an edge circle "
                "(polygon non-convex or ordered clockwise)"
            )
        centroid = np.add.reduce(V, axis=0) / n
        norm = float(np.linalg.norm(centroid))
        if norm < _SIGN_EPS or not np.all(V @ (centroid / norm) > _SIGN_EPS):
            raise NotInHemisphere("no open hemisphere contains every vertex")
        V.flags.writeable = False
        self._array = V
        # reduced_check's witnesses, by tolerance.
        self._witnesses: dict[float, ReducedWitness] = {}

    @property
    def n(self) -> int:
        return len(self._array)

    def as_array(self) -> np.ndarray:
        return self._array.copy()

    def perimeter(self) -> float:
        V = self._array
        return float(np.sum(_angles(V, V[_ring_indices(self.n)[0]])))

    def thickness(self) -> float:
        """Width of the thinnest lune containing the polygon.

        For every edge, the farthest vertex height over the edge's great
        circle is the thickness of the tightest lune with that edge on its
        boundary; the minimum over edges is taken.  That the minimal lune
        is supported by an edge this way is validated against a random
        lune oracle in the test-suite rather than assumed silently.
        """
        V = self._array
        poles = edge_poles(V)
        heights = np.arcsin(np.clip(V @ poles.T, -1.0, 1.0))
        return float(np.min(np.max(heights, axis=0)))

    def diameter(self, reduced_hint: bool = False) -> float:
        """Largest pairwise vertex distance.

        With reduced_hint (odd n only) just the pairs (i, i + (n - 1)/2) are
        scanned: each vertex with one end of its opposite side.  The pair
        with the other end, (i, i + (n + 1)/2), is the pair (m, m + (n - 1)/2)
        of m = i + (n + 1)/2.  For reduced polygons the diameter is attained
        at these pairs.
        """
        V = self._array
        n = self.n
        if reduced_hint and n % 2 == 1:
            return float(np.max(_angles(V, V[_ring_indices(n)[1]])))
        a, b = _index_combinations(n, 2).T
        return float(np.max(_angles(V[a], V[b])))

    def circumcap(self) -> "Cap":
        """Smallest spherical cap containing every vertex.

        Brute force over the O(n^2) two-point caps and O(n^3) three-point
        caps, as array code over all candidate centres.  The candidates are
        every pair midpoint, in combinations order, then every triple's
        c = (v_i - v_j) x (v_j - v_k), in combinations order; pairs and
        triples whose direction is shorter than _SIGN_EPS are skipped.  A
        candidate counts when its own cap (radius to v_i) is at most pi/2 and
        covers every vertex; of those, the first with the least cover wins.
        The centre -c of a triple is not a candidate: c . v_i = det(v_i, v_j,
        v_k), which is positive for i < j < k of a counterclockwise strictly
        convex polygon, so the cap around -c has a radius above pi/2 and
        never counts.  Candidates are scored in blocks of _CAP_BLOCK, which
        run across from pairs to triples, so every n <= 23 takes one block
        and memory stays bounded at n = 99.  Norms and dot products are
        batched matmuls, which round like 1-D dot products, so the cap is bit
        for bit the one a loop over candidates with 1-D dot products finds;
        the tests keep that loop as the oracle.
        """
        n = self.n
        if n > 99:
            raise DomainError(f"circumcap supports at most 99 vertices, got {n}")
        V = self._array
        slack = 1e-12
        best_cover, best_center = math.inf, None
        for C, anchor in _cap_candidates(V):
            radius = np.arccos(np.clip((C[:, None, :] @ V[anchor][:, :, None])[:, 0, 0],
                                       -1.0, 1.0))
            cover = np.arccos(np.clip((V @ C[:, :, None])[..., 0], -1.0, 1.0)).max(axis=1)
            ok = np.flatnonzero((radius <= 0.5 * math.pi + slack) & (cover <= radius + slack))
            if ok.size:
                m = ok[np.argmin(cover[ok])]
                # Strict: on equal covers the earlier block's candidate stays.
                if cover[m] < best_cover:
                    best_cover, best_center = float(cover[m]), C[m].copy()
        if best_center is None:
            raise NoEnclosingCap("no cap of radius <= pi/2 encloses the vertices")
        best_center.flags.writeable = False
        return Cap(center=best_center, radius=best_cover)

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


def _dots(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", A, B)


def _degenerate(d: np.ndarray) -> bool:
    """Any unit-vector dot product that marks a coincident or antipodal pair."""
    return bool(np.any(np.abs(d) >= 1.0 - SEPARATION_TOL))


def _arc_parameter(X: np.ndarray, A: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Signed arc length from a to x along the great circle leaving a in direction t.

    Rows of X lie on the circle; A and T are orthonormal rows.
    """
    return np.arctan2(_dots(X, T), _dots(X, A))


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
    with q the unit spoke poles; the sign whose arc parameters land on both
    closed spokes is taken.  A point x at signed parameter s on the great
    circle of an arc (a, b) of length D has d(a, x) + d(x, b) - D equal to
    2 max(-s, s - D, 0), so a slack of ON_ARC_TOL on that arc-length sum
    allows s in [-ON_ARC_TOL/2, D + ON_ARC_TOL/2].  Every angle and arc comes
    from one stacked _angles call, |o_i t_i| for both signs of the crossing.
    """
    n = polygon.n
    if n % 2 == 0:
        return ReducedWitness(thickness=polygon.thickness(), is_reduced=False,
                              max_residual=math.nan, reason=f"not an odd-gon: n={n}")

    V = polygon._array
    j, k, P = _opposite_poles(V)
    h = _dots(V, P)
    if _degenerate(h):
        raise DegenerateProjection("point coincides with a circle pole")
    F = V - h[:, None] * P
    F /= _norm_rows(F)[:, None]
    Vk, Fk = V[k], F[k]
    vf = _dots(V, F)
    vk = _dots(V, Vk)
    if _degenerate(vf) or _degenerate(vk):
        raise DegenerateAngle("ray endpoint coincident or antipodal with vertex")
    kf = _dots(Vk, F)

    # Spoke poles q_i and the unit tangent at v_j along its side.
    X = _cross_rows(np.concatenate([V, P]), np.concatenate([F, V[j]]))
    Q = X[:n] / _norm_rows(X[:n])[:, None]
    S = X[n:]
    # Crossing directions q_i x q_k, and the unit tangent at v_i along its spoke.
    Y = _cross_rows(np.concatenate([Q, Q]), np.concatenate([Q[k], V]))
    C, T = Y[:n], Y[n:]
    c_norm = _norm_rows(C)
    crosses = c_norm >= 1e-12
    O = C / np.where(crosses, c_norm, 1.0)[:, None]

    # Tangents r - (v . r) v at v_i toward v_{i+1}, t_i and v_k and at v_k
    # toward v_i and t_i, whose _angles are the angles there.  The vertical angle
    # at a crossing, between its rays toward v_i and t_k, is the angle between
    # q_i and -q_k for either sign.
    nxt = V[_ring_indices(n)[0]]
    t_next = nxt - _dots(V, nxt)[:, None] * V
    t_foot = F - vf[:, None] * V
    t_far = Vk - vk[:, None] * V
    u_near = V - vk[:, None] * Vk
    u_foot = F - kf[:, None] * Vk
    signed = np.concatenate([O, -O])
    ang = _angles(np.concatenate([V, V[j], t_next, t_foot, Q, u_near, V, F, signed]),
                  np.concatenate([F, Vk, t_foot, t_far, -Q[k], u_foot, Fk, Vk, F, F]))
    dist, side, alpha, beta, phi, far, near_arc, far_arc, o_plus, o_minus = ang.reshape(10, n)

    theta = _arc_parameter(F, V[j], S)
    interior = (EDGE_EPS * side < theta) & (theta < (1.0 - EDGE_EPS) * side)

    slack = 0.5 * ON_ARC_TOL

    # Both signs of every crossing at once: rows [O; -O] against the spokes twice.
    twice = np.arange(2 * n) % n
    kk = k[twice]
    s_i = _arc_parameter(signed, V[twice], T[twice])
    s_k = _arc_parameter(signed, V[kk], T[kk])
    on = ((-slack <= s_i) & (s_i <= dist[twice] + slack)
          & (-slack <= s_k) & (s_k <= dist[kk] + slack))
    plus = on[:n]
    minus = on[n:] & ~plus
    O = np.where(minus[:, None], -O, O)
    crosses &= plus | minus
    # A crossing on v_i or t_k leaves a zero tangent, so no vertical angle.
    crosses &= (np.abs(_dots(O, V)) < 1.0 - SEPARATION_TOL) & (
        np.abs(_dots(O, Fk)) < 1.0 - SEPARATION_TOL)
    phi = np.where(crosses, phi, math.nan)
    # A foot t_i on v_k leaves a zero tangent, so no angle at v_k.
    far = np.where(np.abs(kf) < 1.0 - SEPARATION_TOL, far, math.nan)
    o_foot = np.where(crosses, np.where(minus, o_minus, o_plus), math.nan)
    O[~crosses] = math.nan
    F.flags.writeable = O.flags.writeable = False

    thickness = float(np.min(dist))
    spread = float(np.max(dist)) - thickness
    all_interior = bool(np.all(interior))
    if not all_interior:
        reason = "projection foot outside the open side interior"
    elif spread > tol:
        reason = f"distance spread {spread:.3e} exceeds tolerance {tol:.1e}"
    else:
        reason = None
        if _degenerate(kf):
            # The claims read the far angles of every polygon that passes.
            raise DegenerateAngle("ray endpoint coincident or antipodal with vertex")
    return ReducedWitness(
        feet=F,
        foot_distances=tuple(dist.tolist()),
        foot_interior=tuple(interior.tolist()),
        crossings=O,
        edge_foot_angles=tuple(alpha.tolist()),
        foot_diagonal_angles=tuple(beta.tolist()),
        far_angles=tuple(far.tolist()),
        boundary_arc_gaps=tuple((near_arc - far_arc).tolist()),
        crossing_angles=tuple(phi.tolist()),
        crossing_foot_distances=tuple(o_foot.tolist()),
        thickness=thickness,
        is_reduced=all_interior and spread <= tol,
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


def polygon_to_doc(
    polygon: SphericalPolygon,
    thickness_hint: Optional[float] = None,
    label: Optional[str] = None,
) -> dict:
    """Plain-dict form: {"vertices": [[x, y, z], ...], ...} in full precision."""
    doc: dict = {"vertices": polygon._array.tolist()}
    if thickness_hint is not None:
        doc["thickness_hint"] = thickness_hint
    if label is not None:
        doc["label"] = label
    return doc


def polygon_from_doc(doc: dict) -> SphericalPolygon:
    """Build a polygon from its document form.

    Vertices are renormalized; the load fails on a NaN or infinite
    component, when any norm strays from 1 by more than 1e-6, or on
    structural junk.  Convexity violations propagate as NotConvex.
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
        try:
            vec = [float(c) for c in entry]
        except (TypeError, ValueError) as exc:
            raise PolygonDocumentError(f"vertex {idx} has a non-numeric component") from exc
        if not all(map(math.isfinite, vec)):
            raise PolygonDocumentError(f"vertex {idx} has a NaN or infinite component")
        norm = math.sqrt(sum(c * c for c in vec))
        if abs(norm - 1.0) > 1e-6:
            raise PolygonDocumentError(f"vertex {idx} norm {norm!r} strays from 1 by more than 1e-6")
        rows.append(vec)
    return SphericalPolygon(rows)


def load_polygon(path) -> tuple[SphericalPolygon, dict]:
    """Read a polygon JSON file; returns (polygon, document)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise PolygonDocumentError(f"cannot read polygon file {path}: {exc}") from exc
    return polygon_from_doc(doc), doc


def save_polygon(
    path,
    polygon: SphericalPolygon,
    thickness_hint: Optional[float] = None,
    label: Optional[str] = None,
) -> None:
    doc = polygon_to_doc(polygon, thickness_hint=thickness_hint, label=label)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
