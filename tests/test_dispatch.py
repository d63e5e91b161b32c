"""Samples depend on their seed, not on the CPU's SIMD or BLAS dispatch.

The first 20 seeds of every session-grid cell are solved again in fresh
interpreters, with numpy's AVX-512 loops switched off and OpenBLAS's
Haswell kernels, then with OpenBLAS's Prescott kernels.  The settings reach
those processes only.  On a host without AVX-512 the numpy setting is a
no-op and the BLAS ones still apply; with another BLAS all are no-ops.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import redsphere
from redsphere import SamplerConfig, full_suite, sample_reduced

SEEDS_PER_CELL = 20
DISPATCH = {
    "no AVX-512, Haswell BLAS": {"NPY_DISABLE_CPU_FEATURES": "X86_V4",
                                 "OPENBLAS_CORETYPE": "Haswell"},
    "Prescott BLAS": {"OPENBLAS_CORETYPE": "Prescott"},
}


def _outcome(samples):
    """Converged flags, vertex rows and (claim_id, passed) report rows."""
    return {
        "converged": [s.converged for s in samples],
        "vertices": [None if s.polygon is None else s.polygon.as_array().tolist()
                     for s in samples],
        "rows": [[r.claim_id, r.passed]
                 for r in full_suite(samples, include_formula_checks=False)],
    }


def _solve(triples):
    return _outcome([sample_reduced(SamplerConfig(n=n, thickness=w, seed=seed))
                     for n, w, seed in triples])


def _solve_elsewhere(configs, settings):
    """_solve's JSON from a fresh interpreter with the settings in its environment."""
    paths = [str(Path(redsphere.__file__).resolve().parents[1]), str(Path(__file__).parent)]
    env = dict(os.environ, **settings)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, paths + [env.get("PYTHONPATH")]))
    code = "import json, sys; from test_dispatch import _solve; print(json.dumps(_solve(json.loads(sys.argv[1]))))"
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps([[c.n, c.thickness, c.seed] for c in configs])],
        env=env, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout)


@pytest.mark.parametrize("name", DISPATCH)
def test_grid_solves_agree_across_dispatch(sample_grid, name):
    samples = [s for batch in sample_grid.cells.values() for s in batch[:SEEDS_PER_CELL]]
    here = _outcome(samples)
    there = _solve_elsewhere([s.config for s in samples], DISPATCH[name])
    assert there["converged"] == here["converged"]
    assert there["rows"] == here["rows"]
    for a, b in zip(here["vertices"], there["vertices"], strict=True):
        assert (a is None) == (b is None)
        if a is not None:
            assert np.max(np.abs(np.array(a) - np.array(b))) <= 1e-12
