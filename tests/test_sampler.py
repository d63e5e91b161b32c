"""Deterministic sampling of perturbed reduced polygons."""

import dataclasses
import math

import numpy as np
import pytest

from conftest import GRID_OMEGA

from redsphere import (
    NotConvex,
    SamplerConfig,
    Splitmix64,
    build_regular,
    full_suite,
    reduced_check,
    regular_metrics,
    sample_batch,
    sample_reduced,
    sampler,
)
from redsphere.polygon import opposite_side_heights

QUARTER_PI = 0.25 * math.pi


# The column-by-column central differences the sampler made before it
# stacked all columns into one residual call; with a separate call at the
# point itself, kept as the oracle of sampler._residual_and_jacobian.
def reference_fd_jacobian(fun, params):
    columns = []
    for j in range(params.size):
        hi = params.copy()
        hi[j] += sampler._FD_STEP
        lo = params.copy()
        lo[j] -= sampler._FD_STEP
        columns.append((fun(hi) - fun(lo)) / (2.0 * sampler._FD_STEP))
    return np.column_stack(columns)


def reference_residual_and_jacobian(fun, params):
    return fun(params), reference_fd_jacobian(fun, params)


# The stacked least-squares Levenberg step the sampler took before its dual
# form, kept as the oracle of sampler._damped_step.
def reference_damped_step(J, r, mu):
    p = J.shape[1]
    A = np.concatenate([J, math.sqrt(mu) * np.eye(p)])
    b = np.concatenate([-r, np.zeros(p)])
    return np.linalg.lstsq(A, b, rcond=None)[0]


def _nan_equal(a, b) -> bool:
    """a == b, with NaN equal to NaN, through tuples."""
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(map(_nan_equal, a, b))
    return a == b or (isinstance(a, float) and isinstance(b, float)
                      and math.isnan(a) and math.isnan(b))


def _assert_same_witness(got, want):
    """Equal witnesses field by field; arrays by value, NaN rows included."""
    if got is None or want is None:
        assert got is want
        return
    for field in dataclasses.fields(got):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(a, np.ndarray):
            assert np.array_equal(a, b, equal_nan=True), field.name
        else:
            assert _nan_equal(a, b), field.name


class TestSplitmix64:
    def test_known_answer_sequence(self):
        # First three outputs for seed 0, fixed by the published constants.
        rng = Splitmix64(0)
        assert rng.next_uint64() == 0xE220A8397B1DCDAF
        assert rng.next_uint64() == 0x6E789E6AA1B965F4
        assert rng.next_uint64() == 0x06C45D188009454F

    def test_uniform_range(self):
        rng = Splitmix64(42)
        values = [rng.uniform() for _ in range(1000)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert 0.4 < sum(values) / len(values) < 0.6

    def test_symmetric_range(self):
        rng = Splitmix64(7)
        values = [rng.symmetric(0.05) for _ in range(1000)]
        assert all(-0.05 <= v <= 0.05 for v in values)
        assert any(v < 0 for v in values) and any(v > 0 for v in values)

    def test_seed_sensitivity(self):
        assert Splitmix64(1).next_uint64() != Splitmix64(2).next_uint64()


class TestSamplerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig(n=4, thickness=QUARTER_PI, seed=0)
        with pytest.raises(ValueError):
            SamplerConfig(n=1, thickness=QUARTER_PI, seed=0)
        with pytest.raises(ValueError):
            SamplerConfig(n=5, thickness=0.5 * math.pi, seed=0)
        with pytest.raises(ValueError):
            SamplerConfig(n=5, thickness=QUARTER_PI, seed=-1)
        with pytest.raises(ValueError):
            SamplerConfig(n=5, thickness=QUARTER_PI, seed=0,
                          perturbation_scale=QUARTER_PI / 4.0)

    def test_batch_count_validated(self):
        cfg = SamplerConfig(n=5, thickness=QUARTER_PI, seed=0)
        with pytest.raises(ValueError):
            sample_batch(cfg, 0)


class TestSampleReduced:
    def test_zero_perturbation_is_immediate(self):
        cfg = SamplerConfig(n=5, thickness=QUARTER_PI, seed=0, perturbation_scale=0.0)
        res = sample_reduced(cfg)
        assert res.converged
        assert res.iterations <= 1
        reg = build_regular(5, QUARTER_PI)
        dots = np.einsum("ij,ij->i", res.polygon.as_array(), reg.as_array())
        assert np.all(dots > 1.0 - 1e-12)

    def test_converged_sample_is_reduced(self):
        res = sample_reduced(SamplerConfig(n=5, thickness=QUARTER_PI, seed=11))
        assert res.converged
        assert res.witness.is_reduced
        assert res.final_residual <= 1e-10
        assert abs(res.polygon.thickness() - QUARTER_PI) < 1e-7

    def test_nonregular_crossing_angles_exceed_pi(self):
        res = sample_reduced(SamplerConfig(n=7, thickness=math.pi / 6, seed=2))
        assert res.converged
        phis = res.witness.crossing_angles
        assert max(abs(p - math.pi / 7) for p in phis) > 1e-6
        assert sum(phis) > math.pi + 1e-9

    def test_rejected_sample_reported_in_band(self):
        # This seed converges to a solution whose foot exits its side.
        res = sample_reduced(SamplerConfig(n=7, thickness=math.pi / 3, seed=14))
        assert not res.converged
        assert "interior" in res.failure_reason
        assert res.witness is not None and not res.witness.is_reduced

    def test_witness_is_the_polygons_reduced_check(self):
        res = sample_reduced(SamplerConfig(n=7, thickness=QUARTER_PI, seed=5))
        assert res.witness is reduced_check(res.polygon)

    def test_residual_history_recorded(self):
        res = sample_reduced(SamplerConfig(n=5, thickness=QUARTER_PI, seed=3))
        assert len(res.residual_history) == res.iterations + 1
        assert res.residual_history[-1] == res.final_residual

    def test_triangle_always_lands_on_regular(self):
        reg = build_regular(3, QUARTER_PI).as_array()
        for seed in range(5):
            res = sample_reduced(SamplerConfig(n=3, thickness=QUARTER_PI, seed=seed))
            assert res.converged
            assert _alignment_deviation(res.polygon.as_array(), reg) < 1e-6


class TestFailureReasons:
    """The solver's in-band failure reasons, forced on a seed that converges."""

    CFG = SamplerConfig(n=7, thickness=QUARTER_PI, seed=3)

    def test_damping_ceiling_stalls(self, monkeypatch):
        monkeypatch.setattr(sampler, "_MU_CEIL", 1e-4)
        res = sample_reduced(self.CFG)
        assert not res.converged and res.iterations == 1
        assert res.failure_reason == "stalled: damping exhausted without improvement"
        assert res.polygon is not None and res.witness is not None

    def test_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(sampler, "_MAX_ITERATIONS", 1)
        res = sample_reduced(self.CFG)
        assert not res.converged and res.iterations == 1
        assert res.failure_reason == "max_iterations reached"
        assert res.polygon is not None

    def test_unbuildable_solution_is_degenerate(self, monkeypatch):
        def not_convex(V):
            raise NotConvex("forced")

        monkeypatch.setattr(sampler, "SphericalPolygon", not_convex)
        res = sample_reduced(self.CFG)
        assert not res.converged
        assert res.failure_reason == "degenerate geometry at the solution: forced"
        assert res.polygon is None and res.witness is None
        rows = full_suite([res], include_formula_checks=False)
        assert [(r.claim_id, r.passed) for r in rows] == [("sample-rejected", True)]
        assert rows[0].inputs.endswith("reason=degenerate geometry at the solution: forced")


def _alignment_deviation(V, W):
    """Max vertex distance after the best orthogonal fit over relabelings."""
    best = math.inf
    for refl in (False, True):
        U = V[:, [0, 2, 1]] if refl else V
        for shift in range(len(V)):
            A = np.roll(U, shift, axis=0)
            u, _, vt = np.linalg.svd(A.T @ W)
            rot = u @ vt
            best = min(best, float(np.max(np.linalg.norm(A @ rot - W, axis=1))))
    return best


class TestDeterminism:
    def test_identical_config_identical_result(self):
        cfg = SamplerConfig(n=5, thickness=math.pi / 3, seed=9)
        a, b = sample_reduced(cfg), sample_reduced(cfg)
        assert np.array_equal(a.polygon.as_array(), b.polygon.as_array())
        assert a.iterations == b.iterations
        assert a.final_residual == b.final_residual
        assert a.residual_history == b.residual_history

    def test_batch_uses_offset_seeds(self):
        cfg = SamplerConfig(n=5, thickness=QUARTER_PI, seed=5)
        batch = sample_batch(cfg, 3)
        assert [s.config.seed for s in batch] == [5, 6, 7]
        single = sample_reduced(SamplerConfig(n=5, thickness=QUARTER_PI, seed=6))
        assert np.array_equal(batch[1].polygon.as_array(), single.polygon.as_array())

    def test_single_batch_equals_direct_call(self):
        cfg = SamplerConfig(n=7, thickness=QUARTER_PI, seed=1)
        batch = sample_batch(cfg, 1)
        direct = sample_reduced(cfg)
        assert np.array_equal(batch[0].polygon.as_array(), direct.polygon.as_array())
        assert batch[0].residual_history == direct.residual_history


class TestBatchQuality:
    # Converged solves per session-grid cell, the same for the dual and the
    # least-squares Levenberg step; a faster solver may not converge less.
    CONVERGED_FLOOR = {
        (5, math.pi / 6): 240, (5, math.pi / 4): 240, (5, math.pi / 3): 240,
        (7, math.pi / 6): 223, (7, math.pi / 4): 230, (7, math.pi / 3): 214,
    }

    def test_session_grid_convergence_floor(self, sample_grid):
        got = {cell: len(sample_grid.converged(*cell)) for cell in sample_grid.cells}
        assert got.keys() == self.CONVERGED_FLOOR.keys()
        for cell, floor in self.CONVERGED_FLOOR.items():
            assert got[cell] >= floor, cell

    def test_most_samples_converge_and_verify(self):
        batch = sample_batch(SamplerConfig(n=5, thickness=QUARTER_PI, seed=100), 25)
        converged = [s for s in batch if s.converged]
        assert len(converged) >= 23
        for s in converged:
            w = reduced_check(s.polygon)
            assert w.is_reduced
            assert abs(w.thickness - QUARTER_PI) < 1e-7


def _random_params(rng, n, omega):
    """Packed sampler parameters of a perturbed regular n-gon, and lon_0."""
    met = regular_metrics(n, omega)
    colat = met.circumradius + rng.uniform(-0.05, 0.05, n)
    lon = 2.0 * math.pi * np.arange(n) / n + rng.uniform(-0.05, 0.05, n)
    return np.concatenate([colat, lon[1:]]), float(lon[0])


class TestStackedJacobian:
    @pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 15, 21])
    def test_matches_column_by_column(self, n):
        rng = np.random.default_rng(n)
        for omega in GRID_OMEGA:
            for _ in range(20):
                params, lon0 = _random_params(rng, n, omega)

                def fun(P):
                    return sampler._full_residual(P, n, lon0, omega)

                r, J = sampler._residual_and_jacobian(fun, params)
                want_r, want_J = reference_residual_and_jacobian(fun, params)
                assert r.shape == want_r.shape and np.array_equal(r, want_r)
                assert np.array_equal(J, want_J)
                stack = params + rng.uniform(-1e-3, 1e-3, (4, params.size))
                assert np.array_equal(fun(stack), np.array([fun(row) for row in stack]))

    @pytest.mark.parametrize("n", [3, 7, 21])
    def test_heights_of_a_stack_equal_single_calls(self, n):
        rng = np.random.default_rng(100 + n)
        for B in (1, 2, 2 * (2 * n - 1)):
            rows = np.array([_random_params(rng, n, QUARTER_PI)[0] for _ in range(B)])
            V = sampler._embed(rows, n, 0.1)
            assert V.shape == (B, n, 3)
            assert np.array_equal(opposite_side_heights(V),
                                  np.array([opposite_side_heights(W) for W in V]))

    def test_grid_solves_equal_column_by_column(self, sample_grid, monkeypatch):
        monkeypatch.setattr(sampler, "_residual_and_jacobian", reference_residual_and_jacobian)
        for (n, omega), batch in sample_grid.cells.items():
            for got in batch[:20]:
                want = sample_reduced(got.config)
                assert (got.converged, got.iterations, got.final_residual,
                        got.failure_reason, got.residual_history) == (
                    want.converged, want.iterations, want.final_residual,
                    want.failure_reason, want.residual_history)
                _assert_same_witness(got.witness, want.witness)
                assert (got.polygon is None) == (want.polygon is None)
                if got.polygon is not None:
                    assert np.array_equal(got.polygon.as_array(), want.polygon.as_array())

    def test_one_residual_call_per_accepted_step(self, sample_grid, monkeypatch):
        # A solve that rejects no trial takes one damped step per iteration;
        # it then evaluates the start and each accepted trial once.
        calls = {"heights": 0, "steps": 0}

        def counted(name, fun):
            def wrapper(*args):
                calls[name] += 1
                return fun(*args)
            return wrapper

        monkeypatch.setattr(sampler, "opposite_side_heights",
                            counted("heights", sampler.opposite_side_heights))
        monkeypatch.setattr(sampler, "_damped_step", counted("steps", sampler._damped_step))
        checked = 0
        for batch in sample_grid.cells.values():
            for got in batch[:20]:
                calls.update(heights=0, steps=0)
                res = sample_reduced(got.config)
                assert res.iterations == got.iterations
                if calls["steps"] == res.iterations:
                    assert calls["heights"] == res.iterations + 1
                    checked += 1
        assert checked > 0


def _grid_step_inputs(sample_grid, monkeypatch, per_cell=3):
    """Each distinct (J, r) the first solves of every grid cell stepped from."""
    seen = []

    def recording(J, r, mu, step=sampler._damped_step):
        if not seen or seen[-1][0] is not J:
            seen.append((J, r))
        return step(J, r, mu)

    monkeypatch.setattr(sampler, "_damped_step", recording)
    for batch in sample_grid.cells.values():
        for got in batch[:per_cell]:
            sample_reduced(got.config)
    monkeypatch.undo()
    return seen


class TestDampedStep:
    MUS = (sampler._MU_FLOOR, sampler._DAMPING, sampler._MU_CEIL)

    def test_matches_stacked_least_squares(self, sample_grid, monkeypatch):
        inputs = _grid_step_inputs(sample_grid, monkeypatch)
        assert len(inputs) > 50
        for J, r in inputs:
            for mu in self.MUS:
                got = sampler._damped_step(J, r, mu)
                want = reference_damped_step(J, r, mu)
                assert got.shape == want.shape
                assert np.linalg.norm(got - want) <= 1e-12 * (1.0 + np.linalg.norm(want))

    def test_depends_on_values_not_layout(self, sample_grid, monkeypatch):
        # The solver's J is a transposed, F-ordered view; the oracle
        # Jacobian of TestStackedJacobian is C-ordered.
        for J, r in _grid_step_inputs(sample_grid, monkeypatch, per_cell=1):
            C, F = np.ascontiguousarray(J), np.asfortranarray(J)
            assert C.flags.c_contiguous and F.flags.f_contiguous
            for mu in self.MUS:
                assert np.array_equal(sampler._damped_step(C, r, mu),
                                      sampler._damped_step(F, r, mu))

    def test_rank_deficient_jacobian_at_floor(self, sample_grid, monkeypatch):
        J, r = _grid_step_inputs(sample_grid, monkeypatch, per_cell=1)[0]
        J = J.copy()
        J[1] = J[0]
        step = sampler._damped_step(J, r, sampler._MU_FLOOR)
        assert step.shape == (J.shape[1],) and np.all(np.isfinite(step))
