"""Deterministic sampling of perturbed reduced polygons."""

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

QUARTER_PI = 0.25 * math.pi
FD_STEP = 1e-7


# The sampler's residual as it was written before its fused kernel: the
# oracle of sampler._residual, bit for bit.
def reference_embed(params, n, lon0):
    colat = params[:n]
    lon = np.concatenate([[lon0], params[n:]])
    s = np.sin(colat)
    return np.column_stack([s * np.cos(lon), s * np.sin(lon), np.cos(colat)])


def reference_residual(params, n, lon0, w):
    V = reference_embed(params, n, lon0)
    i = np.arange(n)
    P = np.cross(V[(i + (n - 1) // 2) % n], V[(i + (n + 1) // 2) % n])
    P /= np.linalg.norm(P, axis=-1)[:, None]
    heights = np.arcsin(np.clip(np.einsum("ij,ij->i", V, P), -1.0, 1.0))
    return np.concatenate([heights - w, np.add.reduce(V, axis=0)[:2] / n])


# Column-by-column central differences, the sampler's Jacobian before the
# analytic one: the oracle of sampler._jacobian, to within their error.
def reference_fd_jacobian(params, n, lon0, w):
    columns = []
    for j in range(params.size):
        hi = params.copy()
        hi[j] += FD_STEP
        lo = params.copy()
        lo[j] -= FD_STEP
        columns.append((reference_residual(hi, n, lon0, w)
                        - reference_residual(lo, n, lon0, w)) / (2.0 * FD_STEP))
    return np.column_stack(columns)


# The stacked least-squares Levenberg step the sampler took before its dual
# form, kept as the oracle of sampler._damped_step.
def reference_damped_step(J, r, mu):
    p = J.shape[1]
    A = np.concatenate([J, math.sqrt(mu) * np.eye(p)])
    b = np.concatenate([-r, np.zeros(p)])
    return np.linalg.lstsq(A, b, rcond=None)[0]


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

    def test_bool_is_not_an_integer(self):
        # A bool is an int to isinstance; seed=True once ran as seed 1 and
        # tagged its report rows seed=True.
        for kwargs in ({"n": True, "seed": 0}, {"n": 5, "seed": True}, {"n": 5, "seed": False}):
            with pytest.raises(ValueError, match="must be"):
                SamplerConfig(thickness=QUARTER_PI, **kwargs)

    @pytest.mark.parametrize("value", [True, False, "0.5", None, [0.5]])
    def test_thickness_must_be_a_number(self, value):
        # thickness=True once ran as thickness 1 and tagged its report rows
        # thickness=1; a string raised TypeError from the comparison.
        with pytest.raises(ValueError, match="thickness="):
            SamplerConfig(n=5, thickness=value, seed=0)

    @pytest.mark.parametrize("value", [True, False, "0", None])
    def test_perturbation_scale_must_be_a_number(self, value):
        with pytest.raises(ValueError, match="perturbation_scale="):
            SamplerConfig(n=5, thickness=QUARTER_PI, seed=0, perturbation_scale=value)

    def test_numeric_types_accepted(self):
        cfg = SamplerConfig(n=5, thickness=np.float64(QUARTER_PI), seed=0, perturbation_scale=0)
        assert cfg.perturbation_scale == 0 and cfg.thickness == QUARTER_PI

    def test_batch_count_validated(self):
        cfg = SamplerConfig(n=5, thickness=QUARTER_PI, seed=0)
        for count in (0, True, 2.0, "2"):
            with pytest.raises(ValueError, match="must be an integer >= 1"):
                sample_batch(cfg, count)

    def test_seeds_past_two_to_the_64_refused(self):
        # Splitmix64 reduces its seed mod 2**64: seed 2**64 once gave seed 0's
        # polygon bit for bit under report rows tagged seed=18446744073709551616.
        with pytest.raises(ValueError, match=r"in \[0, 2\*\*64\)"):
            SamplerConfig(n=5, thickness=QUARTER_PI, seed=2**64)
        last = SamplerConfig(n=5, thickness=QUARTER_PI, seed=2**64 - 1)
        with pytest.raises(ValueError, match="pass 2"):
            sample_batch(last, 2)
        (s,) = sample_batch(last, 1)
        assert s.config.seed == 2**64 - 1
        first = sample_reduced(SamplerConfig(n=5, thickness=QUARTER_PI, seed=0))
        assert not np.array_equal(s.polygon.as_array(), first.polygon.as_array())


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
        assert res.failure_reason == (
            "constraint violation: projection foot outside the open side interior")
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


def _not_convex(V):
    raise NotConvex("forced")


class TestFailureReasons:
    """The solver's in-band failure reasons, forced on a seed that converges.

    A solver failure keeps its reason when the polygon fails as well.
    """

    CFG = SamplerConfig(n=7, thickness=QUARTER_PI, seed=3)

    def sample(self):
        res = sample_reduced(self.CFG)
        assert res.converged == (res.failure_reason is None)
        assert res.iterations == len(res.residual_history) - 1
        assert res.final_residual == res.residual_history[-1]
        return res

    def test_damping_ceiling_stalls(self, monkeypatch):
        monkeypatch.setattr(sampler, "_MU_CEIL", 1e-4)
        res = self.sample()
        assert not res.converged and res.iterations == 1
        assert res.failure_reason == "stalled: damping exhausted without improvement"
        assert res.polygon is not None and res.witness is not None

    def test_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(sampler, "_MAX_ITERATIONS", 1)
        res = self.sample()
        assert not res.converged and res.iterations == 1
        assert res.failure_reason == "max_iterations reached"
        assert res.polygon is not None
        assert not res.witness.is_reduced

    def test_unbuildable_solution_is_degenerate(self, monkeypatch):
        monkeypatch.setattr(sampler, "SphericalPolygon", _not_convex)
        res = self.sample()
        assert not res.converged
        assert res.failure_reason == "degenerate geometry at the solution: forced"
        assert res.polygon is None and res.witness is None
        rows = full_suite([res], include_formula_checks=False)
        assert [(r.claim_id, r.passed) for r in rows] == [("sample-rejected", True)]
        assert rows[0].inputs.endswith("reason=degenerate geometry at the solution: forced")

    def test_stall_keeps_its_reason_over_degenerate_geometry(self, monkeypatch):
        monkeypatch.setattr(sampler, "_MU_CEIL", 1e-4)
        monkeypatch.setattr(sampler, "SphericalPolygon", _not_convex)
        res = self.sample()
        assert not res.converged
        assert res.failure_reason == "stalled: damping exhausted without improvement"
        assert res.polygon is None and res.witness is None


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

    # Per n = 7 cell, the converged samples' spread, a sample's largest
    # |phi_i - pi/n| over its crossing angles, has a 90th percentile of at least
    # SPREAD_FLOOR, and the least phi_i is at most LEAST_PHI_CEIL: 0.143-0.165
    # and 0.065-0.118 at the initial damping of 1e-3.  An initial 3e-2 that
    # falls a hundredfold after an accepted trial converges more samples only
    # by pulling them toward the regular heptagon (0.057-0.058 and 0.343-0.368).
    SPREAD_FLOOR, LEAST_PHI_CEIL = 0.10, 0.20

    def test_session_grid_coverage_floor(self, sample_grid):
        for omega in GRID_OMEGA:
            phi = np.array([s.witness.crossing_angles for s in sample_grid.converged(7, omega)])
            spread = np.abs(phi - math.pi / 7).max(axis=1)
            assert np.percentile(spread, 90) >= self.SPREAD_FLOOR, omega
            assert phi.min() <= self.LEAST_PHI_CEIL, omega

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
    """The residual kernel and the Jacobian of its stacked height and gauge rows."""

    @pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 15, 21])
    def test_residual_is_the_formula_bit_for_bit(self, n):
        rng = np.random.default_rng(200 + n)
        for omega in GRID_OMEGA:
            for _ in range(20):
                params, lon0 = _random_params(rng, n, omega)
                point = sampler._residual(params, n, lon0, omega)
                assert np.array_equal(point.r, reference_residual(params, n, lon0, omega))
                assert np.array_equal(point.V, reference_embed(params, n, lon0))

    @pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 15, 21])
    def test_matches_column_by_column(self, n):
        # Central differences err by about eps / FD_STEP; the analytic
        # Jacobian is within 1e-8 of them.
        rng = np.random.default_rng(n)
        for omega in GRID_OMEGA:
            for _ in range(20):
                params, lon0 = _random_params(rng, n, omega)
                J = sampler._jacobian(sampler._residual(params, n, lon0, omega))
                want = reference_fd_jacobian(params, n, lon0, omega)
                assert J.shape == want.shape == (n + 2, 2 * n - 1)
                assert np.max(np.abs(J - want)) <= 1e-8

    def test_grid_solves_match_finite_difference_solves(self, sample_grid, monkeypatch):
        # Solved with the central-difference Jacobian instead, every grid
        # solve ends the same way, and a converged one within 1e-6.
        at = {}

        def recording(params, n, lon0, w, residual=sampler._residual):
            point = residual(params, n, lon0, w)
            at[id(point)] = (point, (params, n, lon0, w))
            return point

        monkeypatch.setattr(sampler, "_residual", recording)
        monkeypatch.setattr(sampler, "_jacobian",
                            lambda point: reference_fd_jacobian(*at[id(point)][1]))
        for batch in sample_grid.cells.values():
            for got in batch[:20]:
                at.clear()
                want = sample_reduced(got.config)
                assert (got.converged, got.failure_reason) == (want.converged, want.failure_reason)
                if got.converged:
                    assert np.max(np.abs(got.polygon.as_array() - want.polygon.as_array())) <= 1e-6

    def test_one_residual_call_per_accepted_step(self, sample_grid, monkeypatch):
        # The Jacobian is evaluated once per iteration, at the accepted point
        # it starts from; the residual at the start and at every trial, as
        # each grid trial passes the colatitude test.
        calls = _count_kernel_calls(monkeypatch)
        for batch in sample_grid.cells.values():
            for got in batch[:20]:
                calls.update(residual=0, jacobian=0, steps=0)
                res = sample_reduced(got.config)
                assert res.iterations == got.iterations
                assert calls["jacobian"] == res.iterations
                assert calls["residual"] == 1 + calls["steps"]

    def test_trial_outside_the_colatitude_band_is_not_evaluated(self, monkeypatch):
        calls = _count_kernel_calls(monkeypatch)
        step = sampler._damped_step

        def first_past_the_pole(J, r, mu):
            d = step(J, r, mu)
            return d - 10.0 if calls["steps"] == 1 else d

        monkeypatch.setattr(sampler, "_damped_step", first_past_the_pole)
        res = sample_reduced(SamplerConfig(n=7, thickness=QUARTER_PI, seed=3))
        assert res.converged
        assert calls["jacobian"] == res.iterations
        assert calls["residual"] == calls["steps"]

    def test_trial_with_a_nan_colatitude_is_not_evaluated(self, monkeypatch):
        # One NaN among finite colatitudes: the band test must not skip it.
        calls = _count_kernel_calls(monkeypatch)
        step = sampler._damped_step

        def first_to_nan(J, r, mu):
            d = step(J, r, mu)
            if calls["steps"] == 1:
                d[3] = math.nan
            return d

        monkeypatch.setattr(sampler, "_damped_step", first_to_nan)
        res = sample_reduced(SamplerConfig(n=7, thickness=QUARTER_PI, seed=3))
        assert res.converged
        assert calls["jacobian"] == res.iterations
        assert calls["residual"] == calls["steps"]


def _count_kernel_calls(monkeypatch):
    """Counts of sampler._residual, _jacobian and _damped_step calls, patched in."""
    calls = {"residual": 0, "jacobian": 0, "steps": 0}

    def counted(name, fun):
        def wrapper(*args):
            calls[name] += 1
            return fun(*args)
        return wrapper

    monkeypatch.setattr(sampler, "_residual", counted("residual", sampler._residual))
    monkeypatch.setattr(sampler, "_jacobian", counted("jacobian", sampler._jacobian))
    monkeypatch.setattr(sampler, "_damped_step", counted("steps", sampler._damped_step))
    return calls


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
        # The solver's J is C-ordered; a transposed view of the same values
        # is F-ordered.
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

    def test_equals_the_numpy_solve_bit_for_bit(self, sample_grid, monkeypatch):
        # The gesv gufunc without np.linalg.solve's wrapper; G built as the step builds it.
        for J, r in _grid_step_inputs(sample_grid, monkeypatch):
            for mu in self.MUS:
                G = J @ J.T
                G.flat[::G.shape[0] + 1] += mu
                assert np.array_equal(sampler._damped_step(J, r, mu),
                                      J.T @ np.linalg.solve(G, -r))

    def test_singular_system_gives_a_nan_step_not_an_error(self, sample_grid, monkeypatch):
        # np.linalg.solve raises LinAlgError here; mu = 0 is below any damping
        # the loop reaches, and the trial test rejects a NaN step.
        J, r = _grid_step_inputs(sample_grid, monkeypatch, per_cell=1)[0]
        J = J.copy()
        J[1] = J[0]
        with pytest.warns(RuntimeWarning, match="invalid value"):
            step = sampler._damped_step(J, r, 0.0)
        assert step.shape == (J.shape[1],) and not np.isfinite(step).any()
