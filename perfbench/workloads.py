"""Benchmark inputs and items, built on redsphere's public API.

Import this module only after `src/` of the checkout is on `sys.path`.

Every workload turns its seed into one *round*: a fixed list of items that
the timed phase runs in order, again and again.  Cells are interleaved so
that any stretch of the round mixes every cell.

Sampler seeds come from the Tier-1 session grid of the test-suite
(tests/conftest.py: n in {5, 7} x the three thicknesses, sampler seeds
0..POOL-1 per cell): the end-to-end run ROADMAP.md names, and the samples
on which the test-suite checks the paper's claims.  A workload seed picks,
per cell, a seeded ordering of that pool.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass

from redsphere import SamplerConfig, SampleResult, reports_to_json, sample_reduced
from redsphere import formulas, polygon, sampler, verify

THICKNESSES = (math.pi / 6, math.pi / 4, math.pi / 3)
GRID_CELLS = tuple((n, t) for n in (5, 7) for t in THICKNESSES)
# Sampler seeds per cell of the Tier-1 session grid (SAMPLES_PER_CELL there).
POOL = 240


@dataclass(frozen=True)
class Workload:
    name: str
    cells: tuple[tuple[int, float], ...]
    per_cell: int
    # True: the round is converged samples drawn in set-up and an item only
    # verifies one.  False: an item samples one config and verifies it.
    presampled: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sample-grid", GRID_CELLS, 120, False),
        # n = 7 only: its verification costs about twice that of n = 5, so
        # item times of both would form two clusters, and a median between
        # them would follow the noisy edge of one.
        Workload("verify-batch", tuple((7, t) for t in THICKNESSES), 80, True),
    )
}


@dataclass(frozen=True)
class Outcome:
    """What the benchmark checks about one item."""

    converged: bool
    witness_reduced: bool
    rows: int
    rows_failed: int
    digest: str
    iterations: int
    failure_reason: str | None


def pool_orders(w: Workload, seed: int) -> list[list[int]]:
    """Per cell, the pool's sampler seeds in the order this workload seed draws them."""
    rng = random.Random(seed)
    return [rng.sample(range(POOL), POOL) for _ in w.cells]


def configs(w: Workload, seed: int) -> list[SamplerConfig]:
    """The round of a sampling workload: one unperturbed config per cell, then
    the first per_cell pool seeds of each cell, interleaved."""
    orders = pool_orders(w, seed)
    out = [SamplerConfig(n=n, thickness=t, seed=0, perturbation_scale=0.0) for n, t in w.cells]
    for k in range(w.per_cell):
        out.extend(SamplerConfig(n=n, thickness=t, seed=order[k])
                   for (n, t), order in zip(w.cells, orders))
    return out


def draw_converged(w: Workload, seed: int) -> list[SampleResult]:
    """per_cell converged samples of every cell, the first ones in pool order."""
    per_cell: list[list[SampleResult]] = []
    for (n, t), order in zip(w.cells, pool_orders(w, seed)):
        got: list[SampleResult] = []
        for k in order:
            s = sample_reduced(SamplerConfig(n=n, thickness=t, seed=k))
            if s.converged:
                got.append(s)
                if len(got) == w.per_cell:
                    break
        else:
            raise RuntimeError(f"cell n={n} thickness={t:.6g}: {len(got)} of "
                               f"{w.per_cell} samples converged")
        per_cell.append(got)
    return [cell[k] for k in range(w.per_cell) for cell in per_cell]


def build_items(w: Workload, seed: int) -> list:
    """The round of the workload for this seed."""
    return draw_converged(w, seed) if w.presampled else configs(w, seed)


def run_item(w: Workload, item, sample=sample_reduced, suite=verify.full_suite):
    """The timed work of one item; returns (sample, report rows)."""
    s = item if w.presampled else sample(item)
    return s, suite([s], include_formula_checks=False)


def outcome(w: Workload, s: SampleResult, rows) -> Outcome:
    witness_reduced = s.witness is not None and s.witness.is_reduced
    return Outcome(
        converged=s.converged,
        witness_reduced=witness_reduced,
        rows=len(rows),
        rows_failed=sum(not r.passed for r in rows),
        digest=hashlib.sha256(reports_to_json(rows).encode()).hexdigest(),
        iterations=0 if w.presampled else s.iterations,
        failure_reason=None if w.presampled else s.failure_reason,
    )


# (owner, attribute, span name).  Functions are patched where the calling
# module looks them up, so a span is a call from that module into a layer.
TRACE_TARGETS = [
    (sampler, "opposite_side_heights", "polygon.opposite_side_heights"),
    (sampler, "reduced_check", "polygon.reduced_check"),
    (sampler, "regular_metrics", "formulas.regular_metrics"),
    (verify, "reduced_check", "polygon.reduced_check"),
    (verify, "polygon_reports", "verify.polygon_reports"),
    (verify, "angle_at", "sphere_core.angle_at"),
    (verify, "distance", "sphere_core.distance"),
    (polygon, "angle_at", "sphere_core.angle_at"),
    (polygon, "distance", "sphere_core.distance"),
    (polygon.SphericalPolygon, "circumcap", "polygon.circumcap"),
    (polygon.SphericalPolygon, "diameter", "polygon.diameter"),
    (polygon.SphericalPolygon, "perimeter", "polygon.perimeter"),
] + [
    (verify, name, f"formulas.{name}")
    for name in formulas.__all__
    if getattr(verify, name, None) is getattr(formulas, name)
]
