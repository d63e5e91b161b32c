"""Metamorphic invariance: the claims survive a rotation, a relabelling and a mirror.

Every claim about a polygon is invariant under a rotation of the sphere, a
cyclic shift of the vertex labels and a mirror with the vertex order
reversed, so its verdict must be too, and its residual may move by rounding
alone.  A rotation or a shift moves each residual by at most SPREAD.  The
mirror pairs each spoke with its other neighbour, so the claims that read
the spoke crossings are evaluated on a second crossing decomposition, which
reads the vertices' own error (ROADMAP item 1): MIRROR_SPREAD bounds those.
"""

import math

import numpy as np
import pytest

from conftest import GRID_N, GRID_OMEGA
from redsphere import SphericalPolygon, Splitmix64, polygon_reports, reduced_check

# Converged samples per grid cell.
PER_CELL = 40
SPREAD = 1e-12
# Per claim past SPREAD, the largest mirror spread measured on this slice with
# headroom: 3.5e-11, 1.1e-12 and 5e-13.  On the whole grid they reach 4.2e-10,
# 1.2e-12 and 6e-13.
MIRROR_SPREAD = {
    "perimeter-witness-identity": 1e-10,
    "angle-sandwich-lower": 5e-12,
    "angle-sandwich-upper": 5e-12,
}


def _rotation(rng: Splitmix64) -> np.ndarray:
    """The rotation matrix of a unit quaternion drawn uniformly: a point
    drawn in the unit ball of R^4, away from its centre, then normalized."""
    while True:
        q = np.array([rng.symmetric(1.0) for _ in range(4)])
        norm = math.sqrt(q.dot(q))
        if 0.1 < norm <= 1.0:
            break
    w, x, y, z = q / norm
    return np.array([[1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                     [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                     [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]])


def _transformed(V: np.ndarray, transform: str, rng: Splitmix64) -> np.ndarray:
    if transform == "rotation":
        return V @ _rotation(rng).T
    if transform == "shift":
        return np.roll(V, -3, axis=0)
    # x -> -x reverses the orientation; reversing the order restores it.
    return (V * [-1.0, 1.0, 1.0])[::-1]


def _verdicts(P: SphericalPolygon, thickness: float) -> list[tuple[str, bool, float]]:
    """(claim, passed, residual) of the reducedness check and every claim row."""
    w = reduced_check(P)
    rows = polygon_reports(P, w, thickness, "") if w.is_reduced else []
    return [("reduced-check", w.is_reduced, w.max_residual)] + [
        (r.claim_id, r.passed, r.residual) for r in rows]


@pytest.fixture(scope="module")
def grid_slice(sample_grid):
    """PER_CELL converged samples of each cell of the session grid, in a
    seeded order, with their verdicts."""
    rng = Splitmix64(15)
    out = []
    for n in GRID_N:
        for omega in GRID_OMEGA:
            cell = sample_grid.converged(n, omega)
            keys = [rng.next_uint64() for _ in cell]
            out += [cell[i] for i in sorted(range(len(cell)), key=keys.__getitem__)[:PER_CELL]]
    return [(s, _verdicts(s.polygon, s.config.thickness)) for s in out]


@pytest.mark.parametrize("transform", ["rotation", "shift", "mirror"])
def test_verdicts_survive_the_transform(grid_slice, transform):
    rng = Splitmix64(20261019)
    bounds = MIRROR_SPREAD if transform == "mirror" else {}
    worst: dict[str, float] = {}
    for s, want in grid_slice:
        thickness = s.config.thickness
        got = _verdicts(SphericalPolygon(_transformed(s.polygon.as_array(), transform, rng)),
                        thickness)
        tag = f"{transform} of n={s.config.n} thickness={thickness:.6g} seed={s.config.seed}"
        assert [row[:2] for row in got] == [row[:2] for row in want], tag
        for (claim, _, a), (_, _, b) in zip(got, want):
            if math.isnan(a) or math.isnan(b):
                spread = 0.0 if math.isnan(a) and math.isnan(b) else math.inf
            else:
                spread = abs(a - b)
            worst[claim] = max(worst.get(claim, 0.0), spread)
    over = {claim: spread for claim, spread in worst.items()
            if not spread <= bounds.get(claim, SPREAD)}
    assert not over, f"{transform}: residual spreads past their bounds: {over}"
