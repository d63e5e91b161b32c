"""Floating-point geometry kernel on the unit sphere.

Points on the unit sphere, with distance and angle primitives and their
row-wise array forms.  All lengths and angles are radians in 64-bit
floats.  Distances and angles are taken as atan2 of a cross-product norm
over a dot product, so they keep full precision for short arcs and small
angles, where acos of a dot product near 1 loses about
eps/sqrt(2(1 - dot)).  Degenerate configurations raise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateAngle, DegeneratePoint

__all__ = [
    "SpherePoint",
    "distance",
    "angle_at",
]

# |dot| above this bound means "coincident or antipodal" for unit vectors.
SEPARATION_TOL = 1e-12
# Slack on d(a, p) + d(p, b) - d(a, b) when p counts as on the closed arc (a, b).
ON_ARC_TOL = 1e-9


def _cross(ax: float, ay: float, az: float,
           bx: float, by: float, bz: float) -> tuple[float, float, float]:
    return (ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx)


def _angle(ax: float, ay: float, az: float,
           bx: float, by: float, bz: float) -> float:
    """Angle in [0, pi] between two nonzero vectors: atan2(|a x b|, a . b)."""
    return math.atan2(math.hypot(*_cross(ax, ay, az, bx, by, bz)),
                      ax * bx + ay * by + az * bz)


_NEXT = np.array([1, 2, 0])
_PREV = np.array([2, 0, 1])


def _cross_rows(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Row-wise cross product of (..., m, 3) arrays.

    Bit for bit np.cross, at a third of its fixed cost per call, which
    dominates on the few rows of a polygon.  The result is C-ordered like
    np.cross's, since reductions over it round differently in F order.
    """
    return np.subtract(A[..., _NEXT] * B[..., _PREV], A[..., _PREV] * B[..., _NEXT], order="C")


def _norm_rows(A: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis of A.

    The formula of np.linalg.norm(A, axis=-1), so bit for bit its result,
    without its argument handling, which dominates on the few rows of a
    polygon.
    """
    return np.sqrt(np.add.reduce(A * A, axis=-1))


def _angles(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Row-wise `_angle` of two (m, 3) arrays of nonzero rows.

    Each call has a fixed cost of some microseconds, so callers stack every
    angle of one computation into a single call.
    """
    return np.arctan2(_norm_rows(_cross_rows(A, B)), np.einsum("ij,ij->i", A, B))


@dataclass(frozen=True)
class SpherePoint:
    """A point on the unit sphere; renormalized on construction."""

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
