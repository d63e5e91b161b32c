"""Random reduced polygons of prescribed thickness.

Starts from the regular n-gon, perturbs every vertex, and projects back
onto the manifold of constant vertex-to-opposite-side distance with a
damped Gauss-Newton iteration.  Counting degrees of freedom (2n vertex
coordinates, minus the 3-dimensional rotation group, against n distance
constraints) suggests an (n-3)-dimensional solution family, so n = 3
collapses to the regular triangle while n >= 5 yields genuinely
non-regular reduced polygons; that dimension count is a working
hypothesis probed by the test-suite, not a proven theorem of this code.

Determinism: all randomness flows from splitmix64 (seeded, portable), the
iteration is plain floating point, and re-running a configuration
reproduces results bit for bit on the same platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from typing import Optional

import numpy as np

from .errors import RedsphereError
from .formulas import regular_metrics
from .polygon import (
    REDUCED_TOL,
    ReducedWitness,
    SphericalPolygon,
    opposite_side_heights,
    reduced_check,
)

__all__ = ["Splitmix64", "SamplerConfig", "SampleResult", "sample_reduced", "sample_batch"]

_MASK64 = (1 << 64) - 1
# Central finite-difference step for the Jacobian; the Jacobian is always
# finite-difference here, so consistency checks against an analytic one
# are vacuous for this implementation.
_FD_STEP = 1e-7
_MU_CEIL = 1e13
_MU_FLOOR = 1e-14
# Initial Levenberg-Marquardt damping.
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

    def next_uint64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        return (self.next_uint64() >> 11) * 2.0**-53

    def symmetric(self, scale: float) -> float:
        """Uniform draw on [-scale, scale]."""
        return (2.0 * self.uniform() - 1.0) * scale


@dataclass(frozen=True)
class SamplerConfig:
    """Target polygon family, seed and the size of the initial perturbation."""

    n: int
    thickness: float
    seed: int
    perturbation_scale: float = 0.05

    def __post_init__(self) -> None:
        if not (isinstance(self.n, int) and self.n >= 3 and self.n % 2 == 1):
            raise ValueError(f"n={self.n!r} must be an odd integer >= 3")
        if not 0.0 < self.thickness < 0.5 * math.pi:
            raise ValueError(f"thickness={self.thickness!r} outside (0, pi/2)")
        if not (isinstance(self.seed, int) and self.seed >= 0):
            raise ValueError(f"seed={self.seed!r} must be a non-negative integer")
        if not 0.0 <= self.perturbation_scale < self.thickness / 4.0:
            raise ValueError("perturbation_scale must lie in [0, thickness/4)")


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


def _embed(params: np.ndarray, n: int, lon0: float) -> np.ndarray:
    """Unit vertices from packed (colat_0..colat_{n-1}, lon_1..lon_{n-1}) rows.

    A (..., 2n - 1) stack of parameter rows gives a (..., n, 3) stack of
    vertex arrays.
    """
    colat = params[..., :n]
    lon = np.empty(colat.shape)
    lon[..., 0] = lon0
    lon[..., 1:] = params[..., n:]
    s = np.sin(colat)
    V = np.empty(colat.shape + (3,))
    np.multiply(s, np.cos(lon), out=V[..., 0])
    np.multiply(s, np.sin(lon), out=V[..., 1])
    V[..., 2] = np.cos(colat)
    return V


def _full_residual(params: np.ndarray, n: int, lon0: float, w: float) -> np.ndarray:
    """Heights minus w, then the centroid's x and y, for each parameter row."""
    V = _embed(params, n, lon0)
    r = np.empty(params.shape[:-1] + (n + 2,))
    r[..., :n] = opposite_side_heights(V) - w
    # V.mean(axis=-2), whose sum and division these are, without its dispatch.
    r[..., n:] = np.add.reduce(V, axis=-2)[..., :2] / n
    return r


@lru_cache(maxsize=32)
def _eye(p: int, scale: float) -> np.ndarray:
    """scale * np.eye(p), read-only."""
    E = scale * np.eye(p)
    E.flags.writeable = False
    return E


def _residual_and_jacobian(fun, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """fun at x and its central-difference Jacobian, from one stacked call.

    fun gets the rows [x; x + E; x - E], E = _FD_STEP * I.  Row j of x + E
    (x - E) is x with entry j moved by +_FD_STEP (-_FD_STEP), and fun works
    row by row, so the residual is fun(x) and the columns equal those of
    differencing one column at a time, bit for bit.
    """
    p = x.size
    E = _eye(p, _FD_STEP)
    R = fun(np.concatenate([x[None], x + E, x - E]))
    return R[0], ((R[1:p + 1] - R[p + 1:]) / (2.0 * _FD_STEP)).T


def _damped_step(J: np.ndarray, r: np.ndarray, mu: float) -> np.ndarray:
    """The Levenberg step -J^T (J J^T + mu I)^-1 r from an (n + 2)-row solve.

    It is the least-squares solution of [J; sqrt(mu) I] d = [-r; 0].  J is
    copied to C order: a product with a transposed view rounds differently,
    and the step must depend on J's values only.
    """
    J = np.ascontiguousarray(J)
    G = J @ J.T
    G.flat[::G.shape[0] + 1] += mu
    return J.T @ np.linalg.solve(G, -r)


def sample_reduced(cfg: SamplerConfig) -> SampleResult:
    """Draw one perturbed polygon and project it back to constant distances.

    Residuals are the n signed vertex-to-opposite-side heights minus the
    target thickness, plus two gauge terms pinning the centroid over the
    pole; vertex 0 keeps its initial longitude.  Each trial takes the step
    of _damped_step, whose damping falls tenfold after an accepted trial and
    rises tenfold after a rejected one.  The iteration stops once the
    distance residuals drop to max-norm <= _RESIDUAL_TOL.  Failures are
    reported in-band: converged=False plus a failure_reason, never an
    exception.
    """
    n, w = cfg.n, cfg.thickness
    met = regular_metrics(n, w)
    rng = Splitmix64(cfg.seed)
    colat = np.empty(n)
    lon = np.empty(n)
    # Draw order (fixed for reproducibility): colatitude then longitude,
    # vertex by vertex.
    for i in range(n):
        colat[i] = met.circumradius + rng.symmetric(cfg.perturbation_scale)
        lon[i] = 2.0 * math.pi * i / n + rng.symmetric(cfg.perturbation_scale)
    lon0 = float(lon[0])
    params = np.concatenate([colat, lon[1:]])

    full_residual = partial(_full_residual, n=n, lon0=lon0, w=w)
    # Every point is evaluated with its Jacobian: an accepted trial's is the
    # next iteration's, and the one of the converging point goes unused.
    full, J = _residual_and_jacobian(full_residual, params)
    norm = float(np.linalg.norm(full))
    history = [float(np.max(np.abs(full[:n])))]
    converged = history[-1] <= _RESIDUAL_TOL
    mu = _DAMPING
    iterations = 0
    stall_reason: Optional[str] = None

    while not converged and iterations < _MAX_ITERATIONS:
        iterations += 1
        improved = False
        while mu <= _MU_CEIL:
            step = _damped_step(J, full, mu)
            trial = params + step
            t_colat = trial[:n]
            # False on a NaN colatitude, as the trial must be rejected then.
            if (t_colat > 1e-6).all() and (t_colat < math.pi - 1e-6).all():
                t_full, t_J = _residual_and_jacobian(full_residual, trial)
                t_norm = float(np.linalg.norm(t_full))
                if t_norm < norm:
                    params, full, J, norm = trial, t_full, t_J, t_norm
                    mu = max(mu / 10.0, _MU_FLOOR)
                    improved = True
                    break
            mu *= 10.0
        history.append(float(np.max(np.abs(full[:n]))))
        if history[-1] <= _RESIDUAL_TOL:
            converged = True
            break
        if not improved:
            stall_reason = "stalled: damping exhausted without improvement"
            break

    final_residual = history[-1]
    polygon: Optional[SphericalPolygon] = None
    witness: Optional[ReducedWitness] = None
    failure: Optional[str] = None if converged else (stall_reason or "max_iterations reached")
    try:
        polygon = SphericalPolygon(_embed(params, n, lon0))
    except RedsphereError as exc:
        if converged:
            converged = False
            failure = f"degenerate geometry at the solution: {exc}"
    else:
        witness = reduced_check(polygon, tol=REDUCED_TOL)
        if converged and not witness.is_reduced:
            converged = False
            failure = "constraint violation: " + witness.reason
    return SampleResult(
        polygon=polygon,
        witness=witness,
        converged=converged,
        iterations=iterations,
        final_residual=final_residual,
        config=cfg,
        failure_reason=None if converged else failure,
        residual_history=tuple(history),
    )


def sample_batch(cfg: SamplerConfig, count: int) -> list[SampleResult]:
    """count independent samples from seeds cfg.seed, cfg.seed+1, ...

    Per-sample failures are recorded in the results, never raised.
    """
    if count < 1:
        raise ValueError(f"count={count!r} must be >= 1")
    return [sample_reduced(replace(cfg, seed=cfg.seed + k)) for k in range(count)]
