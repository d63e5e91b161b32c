"""Row-wise floating-point geometry kernel on the unit sphere.

Cross products, norms and angles of (m, 3) arrays of rows, plus the two
tolerances the polygon layer shares.  All lengths and angles are radians
in 64-bit floats.  Angles are taken as atan2 of a cross-product norm over
a dot product, so they keep full precision for short arcs and small
angles, where acos of a dot product near 1 loses about
eps/sqrt(2(1 - dot)).
"""

from __future__ import annotations

import numpy as np

__all__: list[str] = []

# |dot| above this bound means "coincident or antipodal" for unit vectors.
SEPARATION_TOL = 1e-12
# Slack on d(a, p) + d(p, b) - d(a, b) when p counts as on the closed arc (a, b);
# reduced_check turns it into a slack on the signed arc parameter.
ON_ARC_TOL = 1e-9

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
    """Angles in [0, pi] between the nonzero rows of two (m, 3) arrays.

    atan2(|a x b|, a . b) per row: the geodesic distance of unit rows, or
    the angle at a vertex between two tangent rows.  Each call has a fixed
    cost of some microseconds, so callers stack every angle of one
    computation into a single call.
    """
    return np.arctan2(_norm_rows(_cross_rows(A, B)), np.einsum("ij,ij->i", A, B))
