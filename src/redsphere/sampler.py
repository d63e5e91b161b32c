"""Random reduced polygons of prescribed thickness.

Starts from the regular n-gon, perturbs every vertex, and projects back
onto the manifold of constant vertex-to-opposite-side distance with a
damped Gauss-Newton iteration.  Counting degrees of freedom (2n vertex
coordinates, minus the 3-dimensional rotation group, against n distance
constraints) suggests an (n-3)-dimensional solution family, so n = 3
collapses to the regular triangle while n >= 5 yields genuinely
non-regular reduced polygons; that dimension count is a working
hypothesis probed by the test-suite, not a proven theorem of this code.

The Jacobian is analytic and is evaluated only at the point each
iteration starts from; trials pay for their residual alone.

Determinism: all randomness flows from splitmix64 (seeded, portable), and
re-running a configuration reproduces results bit for bit under the same
numpy SIMD and BLAS dispatch.  Across dispatch, vertex rows agree to within
1e-12 (tests/test_dispatch.py).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np
# Private, but every numpy since 1.8 ships it: the gufuncs np.linalg wraps.
from numpy.linalg import _umath_linalg

try:
    # Private, but every numpy since 1.17 ships them: the C function under
    # np.concatenate's array-function dispatcher, and the clip ufunc np.clip calls.
    from numpy._core._multiarray_umath import concatenate as c_concatenate
    from numpy._core.umath import clip
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import concatenate as c_concatenate
    from numpy.core.umath import clip

from .errors import RedsphereError
from .formulas import regular_metrics
from .polygon import (REDUCED_TOL, ReducedWitness, SphericalPolygon, cross_plan, cross_rows,
                      dot_rows, index_table, norm_rows, reduced_check)

__all__ = ["Splitmix64", "SamplerConfig", "SampleResult", "sample_reduced", "sample_batch"]

_MASK64 = (1 << 64) - 1
_MU_CEIL = 1e13
_MU_FLOOR = 1e-14
# Initial Levenberg-Marquardt damping.  It also sets how far the samples spread
# from the regular polygon, so convergence is not to be bought with it.
_DAMPING = 1e-3
_MAX_ITERATIONS = 200
# Shallow spoke crossings amplify distance residuals by up to about 3e7
# in downstream claim checks (perimeter-witness-identity, measured on
# n = 9 and 15 samples), so stop far below the 1e-8 claim tolerances.
# At the worst crossings even this misses them; a lower tolerance leaves
# those samples unconverged instead.
_RESIDUAL_TOL = 1e-13


class Splitmix64:
    """splitmix64: 64-bit-state shift/multiply generator (public domain).

    state += 0x9E3779B97F4A7C15; z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB;
    output z ^ (z >> 31), all modulo 2^64.

    Doubles take the top 53 bits: (z >> 11) * 2^-53, uniform on [0, 1).
    First three outputs for seed 0: 0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4, 0x06C45D188009454F.
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_uint64s(self, count: int) -> list[int]:
        """The next count outputs, stepping a local copy of the state."""
        state, out = self._state, []
        for _ in range(count):
            state = (state + 0x9E3779B97F4A7C15) & _MASK64
            z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
            out.append(z ^ (z >> 31))
        self._state = state
        return out

    def next_uint64(self) -> int:
        return self.next_uint64s(1)[0]

    def uniform(self) -> float:
        return (self.next_uint64() >> 11) * 2.0**-53

    def symmetric(self, scale: float) -> float:
        """Uniform draw on [-scale, scale]."""
        return self.symmetrics(scale, 1)[0]

    def symmetrics(self, scale: float, count: int) -> list[float]:
        """count successive draws on [-scale, scale], (2 u - 1) scale for the
        doubles u of uniform(), from one next_uint64s call."""
        return [(2.0 * ((z >> 11) * 2.0**-53) - 1.0) * scale for z in self.next_uint64s(count)]


def _is_a(x, kind) -> bool:
    """An instance of kind and not a bool, which would pass for 0 or 1 and print as True."""
    return isinstance(x, kind) and not isinstance(x, bool)


@dataclass(frozen=True)
class SamplerConfig:
    """Target polygon family, seed and the size of the initial perturbation."""

    n: int
    thickness: float
    seed: int
    perturbation_scale: float = 0.05

    def __post_init__(self) -> None:
        if not (_is_a(self.n, int) and self.n >= 3 and self.n % 2 == 1):
            raise ValueError(f"n={self.n!r} must be an odd integer >= 3")
        if not (_is_a(self.thickness, numbers.Real) and 0.0 < self.thickness < 0.5 * math.pi):
            raise ValueError(f"thickness={self.thickness!r} must be a number in (0, pi/2)")
        if not (_is_a(self.seed, int) and 0 <= self.seed <= _MASK64):
            raise ValueError(f"seed={self.seed!r} must be an integer in [0, 2**64)")
        if not (_is_a(self.perturbation_scale, numbers.Real)
                and 0.0 <= self.perturbation_scale < self.thickness / 4.0):
            raise ValueError(f"perturbation_scale={self.perturbation_scale!r} outside [0, thickness/4)")


@dataclass(frozen=True)
class SampleResult:
    """One solver run.  converged implies the witness passed reduced_check."""

    polygon: Optional[SphericalPolygon]
    witness: Optional[ReducedWitness]
    converged: bool
    iterations: int
    final_residual: float
    config: SamplerConfig
    failure_reason: Optional[str]
    residual_history: tuple[float, ...]


class _Point(NamedTuple):
    """A parameter point's residual and the intermediates its Jacobian reuses.

    F is a raveled (3n, 3) array: the n vertices, their colatitude tangents,
    then their longitude tangents; V is the (n, 3) view of the vertices.  p
    are the unit poles of the sides opposite each vertex, c_norm the lengths
    of the cross products v_j x v_k they normalize, and s = v_i . p, clipped
    to [-1, 1], the sines of the heights.
    """

    r: np.ndarray
    F: np.ndarray
    V: np.ndarray
    p: np.ndarray
    c_norm: np.ndarray
    s: np.ndarray


@lru_cache(maxsize=32)
def _plan(n: int) -> dict[str, np.ndarray]:
    """Index plans of _residual and _jacobian for n-gons (read-only).  The side
    ends j and k and "CROSS", the side poles' cross_plan, are index_table's.

    The trig table is [sin(angles), cos(angles), 1, -1, 0] over the angles
    (colat_0..colat_{n-1}, lon_1..lon_{n-1}, lon_0); "FACTORS" picks, per
    entry of F, the three table entries whose product it is.
    """
    ring = index_table(n)
    i, j, k = np.arange(n), ring["NEAR"], ring["FAR"]
    lon = np.where(i == 0, 2 * n - 1, n - 1 + i)
    sin_t, sin_l, cos_t, cos_l = i, lon, 2 * n + i, 2 * n + lon
    one, neg, zero = 4 * n, 4 * n + 1, 4 * n + 2
    # Per block of F and coordinate, the three factors of each vertex:
    # v = (sin t cos l, sin t sin l, cos t), dv/dt and dv/dl.
    blocks = [
        [(sin_t, cos_l, one), (sin_t, sin_l, one), (cos_t, one, one)],
        [(cos_t, cos_l, one), (cos_t, sin_l, one), (neg, sin_t, one)],
        [(neg, sin_t, sin_l), (sin_t, cos_l, one), (zero, one, one)],
    ]
    factors = np.array([[[np.broadcast_to(f, n) for f in xyz] for xyz in b] for b in blocks])
    # [block, coordinate, factor, vertex] -> [factor, block, vertex, coordinate]
    factors = factors.transpose(2, 0, 3, 1).reshape(3, -1)

    # Parameter c moves vertex vertex[c] along row F_row[c] of F: the
    # colatitude tangents, then the longitude tangents but vertex 0's.
    vertex = np.concatenate([i, i[1:]])
    F_row = np.concatenate([n + i, 2 * n + i[1:]])
    # The 3n gradient rows of _jacobian stack p_i, v_k x u_i and u_i x v_j:
    # gradient q of height row[q] at vertex m[q], which parameters cols move.
    row, m = np.tile(i, 3), np.concatenate([i, j, k])
    q, cols = np.nonzero(m[:, None] == vertex)
    xyz = np.arange(3)
    n_params = 2 * n - 1
    plan = {
        "FACTORS": factors,
        "CROSS": ring["SIDES"],
        # Rows of [V; u]: v_k x u_i, then u_i x v_j.
        "GRAD_CROSS": cross_plan(np.concatenate([k, n + i]),
                                 np.concatenate([n + i, j])).reshape(4, -1),
        "GRAD": 3 * q[:, None] + xyz,
        "TANGENT": 3 * F_row[cols, None] + xyz,
        "HEIGHT": row[q],
        # The gauge rows: each tangent's x, then its y.
        "GAUGE": np.concatenate([3 * F_row, 3 * F_row + 1]),
        # Flat indices into J of the height gradients and of the gauge rows.
        "DEST_H": row[q] * n_params + cols,
        "DEST_G": n * n_params + np.arange(2 * n_params),
    }
    for a in plan.values():
        a.flags.writeable = False
    return plan


_UNITS = np.array([1.0, -1.0, 0.0])
_UNITS.flags.writeable = False


def _residual(params: np.ndarray, n: int, lon0: float, w: float) -> _Point:
    """Heights minus w, then the centroid's x and y, at packed parameters
    (colat_0..colat_{n-1}, lon_1..lon_{n-1}); vertex 0 has longitude lon0.

    Each vertex is (sin t cos l, sin t sin l, cos t), and each height the
    arcsine of v_i . (v_j x v_k)/|v_j x v_k| over the side (v_j, v_k)
    opposite v_i.
    """
    plan = _plan(n)
    angles = c_concatenate((params, (lon0,)))
    trig = c_concatenate((np.sin(angles), np.cos(angles), _UNITS))
    G = trig[plan["FACTORS"]]
    F = G[0] * G[1] * G[2]
    V = F[:3 * n].reshape(n, 3)
    c = cross_rows(F, plan["CROSS"])
    c_norm = norm_rows(c)
    p = c / c_norm[:, None]
    s = clip(dot_rows(V, p), -1.0, 1.0)
    r = np.empty(n + 2)
    np.subtract(np.arcsin(s), w, out=r[:n])
    np.divide(np.add.reduce(V[:, :2], axis=0), n, out=r[n:])
    return _Point(r, F, V, p, c_norm, s)


def _jacobian(point: _Point) -> np.ndarray:
    """The Jacobian of _residual at point: (n + 2) rows, 2n - 1 columns.

    With c = v_j x v_k, p = c/|c|, s_i = v_i . p and u = (v_i - s_i p)/|c|,
    the gradient of s_i is p at v_i, v_k x u at v_j and u x v_j at v_k.
    Each is dotted with the vertex's colatitude and longitude tangents and
    scaled by the arcsine's 1/sqrt(1 - s^2); the gauge rows are the
    tangents' x and y over n.
    """
    n = len(point.s)
    plan = _plan(n)
    u = (point.V - point.s[:, None] * point.p) / point.c_norm[:, None]
    X = c_concatenate((point.F[:3 * n], u.ravel()))
    grad = c_concatenate((point.p.ravel(), cross_rows(X, plan["GRAD_CROSS"])))
    g = 1.0 / np.sqrt(1.0 - point.s * point.s)
    heights = np.add.reduce(grad[plan["GRAD"]] * point.F[plan["TANGENT"]], axis=1)
    J = np.zeros((n + 2) * (2 * n - 1))
    J[plan["DEST_H"]] = heights * g[plan["HEIGHT"]]
    J[plan["DEST_G"]] = point.F[plan["GAUGE"]] / n
    return J.reshape(n + 2, 2 * n - 1)


def _damped_step(J: np.ndarray, r: np.ndarray, mu: float) -> np.ndarray:
    """The Levenberg step -J^T (J J^T + mu I)^-1 r from an (n + 2)-row solve.

    It is the least-squares solution of [J; sqrt(mu) I] d = [-r; 0].  The
    step must depend on J's values only, and a product with a transposed
    view rounds differently, so a J that is not C-ordered is copied first.
    The solve is the LAPACK gesv gufunc under numpy's solve, without its
    wrapper: the same bytes.  A singular system gives NaN and an "invalid
    value" warning, not LinAlgError; but with mu >= _MU_FLOOR and a finite J
    the system is positive definite, and a non-finite J gives a NaN step
    from either call, which the trial test rejects.
    """
    J = np.ascontiguousarray(J)
    G = J @ J.T
    G.reshape(-1)[::G.shape[0] + 1] += mu
    return J.T @ _umath_linalg.solve1(G, -r)


def sample_reduced(cfg: SamplerConfig) -> SampleResult:
    """Draw one perturbed polygon and project it back to constant distances.

    Residuals are the n signed vertex-to-opposite-side heights minus the
    target thickness, plus two gauge terms pinning the centroid over the
    pole; vertex 0 keeps its initial longitude.  Each trial takes the step
    of _damped_step, whose damping falls tenfold after an accepted trial and
    rises tenfold after a rejected one.  The loop runs while the distance
    residuals' max-norm exceeds _RESIDUAL_TOL and no failure is set.
    Failures are reported in-band as failure_reason, never raised; a solver
    failure keeps its reason when the polygon fails as well.
    """
    n, w = cfg.n, cfg.thickness
    met = regular_metrics(n, w)
    # Draw order (fixed for reproducibility): colatitude then longitude,
    # vertex by vertex.
    draws = Splitmix64(cfg.seed).symmetrics(cfg.perturbation_scale, 2 * n)
    colat = [met.circumradius + d for d in draws[0::2]]
    lon = [2.0 * math.pi * i / n + d for i, d in enumerate(draws[1::2])]
    lon0 = lon[0]
    params = np.array(colat + lon[1:])

    point = _residual(params, n, lon0, w)
    # np.linalg.norm's formula for a vector, and the distance residuals' max-norm.
    norm = math.sqrt(point.r.dot(point.r))
    history = [float(np.maximum.reduce(abs(point.r[:n])))]
    mu = _DAMPING
    failure: Optional[str] = None

    while history[-1] > _RESIDUAL_TOL and failure is None:
        if len(history) > _MAX_ITERATIONS:
            failure = "max_iterations reached"
            continue
        # Only the accepted point's Jacobian is used: trials, rejected or
        # converging, pay for their residual alone.
        J = _jacobian(point)
        while mu <= _MU_CEIL:
            step = _damped_step(J, point.r, mu)
            trial = params + step
            # False on a NaN colatitude, as the trial must be rejected then.
            if all(1e-6 < t < math.pi - 1e-6 for t in trial[:n].tolist()):
                t_point = _residual(trial, n, lon0, w)
                t_norm = math.sqrt(t_point.r.dot(t_point.r))
                if t_norm < norm:
                    params, point, norm = trial, t_point, t_norm
                    mu = max(mu / 10.0, _MU_FLOOR)
                    break
            mu *= 10.0
        else:
            failure = "stalled: damping exhausted without improvement"
        # Python's max is numpy's on floats without a NaN: an accepted point
        # has a finite norm, and the start point a history entry that is not NaN.
        history.append(max(map(abs, point.r[:n].tolist())))

    polygon: Optional[SphericalPolygon] = None
    witness: Optional[ReducedWitness] = None
    try:
        polygon = SphericalPolygon(point.V)
    except RedsphereError as exc:
        failure = failure or f"degenerate geometry at the solution: {exc}"
    else:
        witness = reduced_check(polygon, tol=REDUCED_TOL)
        if not witness.is_reduced:
            failure = failure or "constraint violation: " + witness.reason
    return SampleResult(
        polygon=polygon,
        witness=witness,
        converged=failure is None,
        iterations=len(history) - 1,
        final_residual=history[-1],
        config=cfg,
        failure_reason=failure,
        residual_history=tuple(history),
    )


def sample_batch(cfg: SamplerConfig, count: int) -> list[SampleResult]:
    """count independent samples from seeds cfg.seed, cfg.seed+1, ... < 2**64.

    Per-sample failures are recorded in the results, never raised.
    """
    if not (_is_a(count, int) and count >= 1):
        raise ValueError(f"count={count!r} must be an integer >= 1")
    if cfg.seed + count > 1 << 64:
        raise ValueError(f"seeds {cfg.seed}..{cfg.seed + count - 1} pass 2**64 - 1")
    return [sample_reduced(replace(cfg, seed=cfg.seed + k)) for k in range(count)]
