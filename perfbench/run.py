"""Benchmark of the redsphere pipeline: sample reduced polygons, verify the claims.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sample-grid --seed 1 --seconds 40 --trace 0

The package is imported from the checkout's own `src/`.  Load model: a
closed loop, one client, one process, one thread; an item starts only when
the previous one has finished.  Workloads (see workloads.py):

  sample-grid   n in {5, 7} x thickness in {pi/6, pi/4, pi/3}, 120 sampler
                seeds per cell plus one unperturbed sample per cell.  An
                item is sample_reduced then full_suite([s]).  The session
                sample grid and `redsphere suite` traffic; the sampler's
                finite-difference Jacobian dominates.
  verify-batch  80 converged samples per cell of the n = 7 half of the same
                grid, drawn in set-up.  An item is full_suite([s]), so the
                sampler does no timed work and circumcap dominates.

Sampler seeds are drawn, in an order made from --seed, from the Tier-1
session grid of the test-suite (seeds 0..239 per cell).

The timed phase repeats the workload's round of items for --seconds, and at
least one whole round and MIN_ITEMS items.  Every time is scaled to a
nominal host speed with a reference computation run between blocks of items
(see REF_NOMINAL_S); the unscaled figures are printed as well.  item_ms.p50
and item_ms.p90 are medians over windows of MIN_ITEMS consecutive items
(see windowed).  --trace 1 adds one traced round
afterwards, writes its spans to .perfbench/spans-<workload>.jsonl and prints
per-layer metrics; --trace 0 installs no wrappers and prints end-to-end
metrics.  The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; attempted and failed count verification
report rows (failed also counts every other failed check), so failed /
attempted is the claims-failed fraction.

Correctness gate: every report row passes; every converged sample's witness
is reduced; every repeat of an item, untraced or traced, gives the same
outcome and report digest as its first run; and the converged fraction and
report digest of a (workload, seed) equal those recorded by earlier runs of
the same code in .perfbench/records.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# p90 needs at least 10 latencies beyond it; also the window of windowed().
MIN_ITEMS = 100
SETUP_REPEATS = 3
# Host speed: on a shared machine the CPU speed one process gets can drift by
# tens of percent within minutes.  Every measured time is multiplied by REF_NOMINAL_S / (time of a fixed
# reference computation run next to it), i.e. reported at the host speed at
# which the reference takes REF_NOMINAL_S.  Both constants define the units
# of every time metric; changing either makes old and new results
# incomparable.
REF_REPEATS = 250
REF_NOMINAL_S = 0.016
BLOCK_S = 1.0
# SampleResult.failure_reason prefix -> rejection class; anything else is "other".
FAILURE_PREFIXES = {
    "stalled": "stalled",
    "max_iterations": "max_iterations",
    "constraint violation": "constraint_violation",
    "degenerate geometry": "degenerate_geometry",
}
FAILURE_CLASSES = tuple(FAILURE_PREFIXES.values()) + ("other",)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q% of the
    values at or below it."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(count: int, q: float) -> int:
    """How many of count values lie strictly beyond the nearest-rank q-th percentile."""
    return count - max(1, math.ceil(q / 100.0 * count))


def windowed(values, q: float, size: int = MIN_ITEMS) -> float:
    """Median, over consecutive whole windows of `size` values, of each
    window's q-th percentile.  A short burst of host interference then
    moves one window, not the tail of the whole run."""
    if len(values) < size:
        raise ValueError(f"{len(values)} values make no window of {size}")
    return statistics.median(percentile(values[i:i + size], q)
                             for i in range(0, len(values) - size + 1, size))


def failure_class(reason: str | None) -> str | None:
    """Bucket a SampleResult.failure_reason; None for a converged sample."""
    if reason is None:
        return None
    return next((cls for prefix, cls in FAILURE_PREFIXES.items()
                 if reason.startswith(prefix)), "other")


def code_digest() -> str:
    """Digest of the package and benchmark sources: the 'same code' of a record."""
    h = hashlib.sha256()
    for path in sorted(list(SRC.rglob("*.py")) + list(Path(__file__).parent.glob("*.py"))):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def blas_threads() -> str:
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "seed": seed,
    }


def import_seconds() -> float:
    """Median time for a fresh interpreter to import redsphere (and numpy)."""
    code = ("import time; t = time.perf_counter(); import redsphere; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        done, _, factor = host_scaled(lambda: subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT,
            capture_output=True, text=True, check=True, timeout=60))
        times.append(float(done.stdout.strip().splitlines()[-1]) * factor)
    return statistics.median(times)


class Checker:
    """Correctness gate and determinism check over every item run."""

    def __init__(self, size: int):
        self.first = [None] * size
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, idx: int, out) -> None:
        self.attempted += out.rows
        self.failed += out.rows_failed
        if out.rows_failed:
            self.problem(f"item {idx}: {out.rows_failed} claim rows failed", count=0)
        if out.converged and not out.witness_reduced:
            self.problem(f"item {idx}: converged sample whose witness is not reduced")
        if self.first[idx] is None:
            self.first[idx] = out
        elif self.first[idx] != out:
            self.problem(f"item {idx}: outcome or report digest differs between repeats")

    def problem(self, text: str, count: int = 1) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(text)

    def round_digest(self) -> str:
        return hashlib.sha256("".join(o.digest for o in self.first).encode()).hexdigest()


def prepare(wl, w, seed: int) -> list:
    """Set-up: build the round's items and run the first one once."""
    items = wl.build_items(w, seed)
    wl.run_item(w, items[0])
    return items


def check_record(checker: Checker, key: str, record: dict) -> None:
    """Compare with, or add, the record of this (workload, seed, code)."""
    path = STATE / "records.json"
    records = json.loads(path.read_text()) if path.exists() else {}
    if key in records:
        for field, value in record.items():
            if records[key][field] != value:
                checker.problem(f"{field} {value!r} differs from the recorded "
                                f"{records[key][field]!r}")
        return
    records[key] = record
    STATE.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(records, indent=1, sort_keys=True))
    os.replace(tmp, path)


def reference_s() -> float:
    """Seconds one run of the fixed reference computation takes right now.

    It mixes small numpy calls, a LAPACK least-squares solve and scalar
    math, as the package does, and calls nothing of redsphere.
    """
    import numpy as np

    angles = 2.0 * math.pi * np.arange(7) / 7
    V = np.column_stack([np.cos(angles), np.sin(angles), np.full(7, 0.6)])
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    j = (np.arange(7) + 3) % 7
    k = (np.arange(7) + 4) % 7
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(REF_REPEATS):
        P = np.cross(V[j], V[k])
        P /= np.linalg.norm(P, axis=1, keepdims=True)
        h = np.arcsin(np.clip(np.einsum("ij,ij->i", V, P), -1.0, 1.0))
        A = np.vstack([V, np.eye(3)])
        acc += float(np.linalg.lstsq(A, np.ones(len(A)), rcond=None)[0][0])
        for x in h.tolist():
            acc += math.acos(max(-1.0, min(1.0, 0.5 * math.cos(x))))
    return time.perf_counter() - t0


def host_factor(ref_before: float, ref_after: float) -> float:
    """Scale for a time measured between two reference runs."""
    return 2.0 * REF_NOMINAL_S / (ref_before + ref_after)


def host_scaled(fn):
    """Run fn(); return its result, its time scaled to the nominal host speed,
    and the scale factor, taken from reference runs just before and after."""
    before = reference_s()
    t0 = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - t0
    factor = host_factor(before, reference_s())
    return result, elapsed * factor, factor


def run_blocks(step, stop):
    """Closed loop: step(i) runs item i and returns its timed seconds, until
    stop(i + 1) is true.  A reference run closes every block of about
    BLOCK_S; each item time is scaled by the mean reference time of the two
    runs around its block.  Returns (raw, scaled) item times."""
    clock = time.perf_counter
    raw: list[float] = []
    scaled: list[float] = []
    ref_before = reference_s()
    i = 0
    done = False
    while not done:
        block: list[float] = []
        block_end = clock() + BLOCK_S
        while not done and clock() < block_end:
            block.append(step(i))
            i += 1
            done = stop(i)
        ref_after = reference_s()
        factor = host_factor(ref_before, ref_after)
        raw.extend(block)
        scaled.extend(t * factor for t in block)
        ref_before = ref_after
    return raw, scaled


def timed_phase(wl, w, items, checker: Checker, seconds: float):
    """Repeat the round for `seconds`, and at least one whole round and
    MIN_ITEMS items; only run_item is timed, the checks are not.  Returns raw
    and scaled item times and the number of items whose sample converged and
    passed every claim."""
    verified = 0

    def step(i: int) -> float:
        nonlocal verified
        idx = i % len(items)
        t0 = time.perf_counter()
        s, rows = wl.run_item(w, items[idx])
        elapsed = time.perf_counter() - t0
        out = wl.outcome(w, s, rows)
        checker.check(idx, out)
        verified += out.converged and not out.rows_failed
        return elapsed

    deadline = time.perf_counter() + seconds
    raw, scaled = run_blocks(
        step, lambda i: i >= max(len(items), MIN_ITEMS) and time.perf_counter() >= deadline)
    return raw, scaled, verified


def traced_round(wl, w, items, checker: Checker, workload: str):
    """One traced round.  Returns per-layer metrics, times scaled like the
    timed phase, and the round's scaled item time."""
    from tracing import Tracer, busy_with_prefix, summarize

    tracer = Tracer()
    sample = tracer.wrap("sampler.sample_reduced", wl.sample_reduced)
    suite = tracer.wrap("verify.full_suite", wl.verify.full_suite)
    outs = []

    def step(i: int) -> float:
        tracer.current_item = i
        t0 = time.perf_counter()
        s, rows = wl.run_item(w, items[i], sample=sample, suite=suite)
        elapsed = time.perf_counter() - t0
        outs.append(wl.outcome(w, s, rows))
        return elapsed

    tracer.install(wl.TRACE_TARGETS)
    try:
        raw, scaled = run_blocks(step, lambda i: i >= len(items))
    finally:
        tracer.uninstall()
    for idx, out in enumerate(outs):
        checker.check(idx, out)
    spans = tracer.spans()
    tracer.write(STATE / f"spans-{workload}.jsonl")
    layer = summarize(spans)
    factor = sum(scaled) / sum(raw)

    def get(name: str, field: str) -> float:
        value = layer.get(name, {}).get(field, 0)
        return value * factor if field.endswith("_s") else value

    solves = 0 if w.presampled else len(outs)
    classes = [failure_class(o.failure_reason) for o in outs] if solves else []
    m = {
        "sampler.sample_reduced.busy_s": (get("sampler.sample_reduced", "busy_s"), "s"),
        "sampler.sample_reduced.self_s": (get("sampler.sample_reduced", "self_s"), "s"),
        "sampler.residual_evals": (get("polygon.opposite_side_heights", "calls"), "count"),
        "sampler.iterations": (sum(o.iterations for o in outs), "count"),
    }
    for cls in FAILURE_CLASSES:
        m[f"sampler.rejected.{cls}"] = (classes.count(cls), "count")
    m["sampler.converged_ratio"] = (
        sum(o.converged for o in outs) / solves if solves else 0.0, "ratio")
    for name in ("opposite_side_heights", "circumcap", "reduced_check"):
        m[f"polygon.{name}.busy_s"] = (get(f"polygon.{name}", "busy_s"), "s")
    for name in ("circumcap", "reduced_check", "diameter", "perimeter"):
        m[f"polygon.{name}.calls"] = (get(f"polygon.{name}", "calls"), "count")
    m["sphere_core.distance.calls"] = (get("sphere_core.distance", "calls"), "count")
    m["sphere_core.angle_at.calls"] = (get("sphere_core.angle_at", "calls"), "count")
    m["sphere_core.angle_at.busy_s"] = (get("sphere_core.angle_at", "busy_s"), "s")
    m["formulas.arm_length.calls"] = (get("formulas.arm_length", "calls"), "count")
    m["formulas.arm_from_angle.calls"] = (get("formulas.arm_from_angle", "calls"), "count")
    m["formulas.busy_s"] = (busy_with_prefix(spans, "formulas.") * factor, "s")
    m["verify.full_suite.busy_s"] = (get("verify.full_suite", "busy_s"), "s")
    m["verify.polygon_reports.self_s"] = (get("verify.polygon_reports", "self_s"), "s")
    m["verify.rows"] = (sum(o.rows for o in outs), "count")
    m["trace.spans"] = (len(spans), "count")
    return m, sum(scaled)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "redsphere" / "__init__.py").is_file():
        print(f"error: no redsphere package under {SRC}", file=sys.stderr)
        return 2

    for var, value in SINGLE_THREAD_ENV.items():
        os.environ.setdefault(var, value)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).parent))
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(wl.WORKLOADS)}")
    w = wl.WORKLOADS[args.workload]
    env = environment(args.seed)

    imported = import_seconds()
    setups = []
    for _ in range(SETUP_REPEATS):
        items, scaled_s, _ = host_scaled(lambda: prepare(wl, w, args.seed))
        setups.append(scaled_s)
    setup_s = imported + statistics.median(setups)

    checker = Checker(len(items))
    raw, scaled, verified = timed_phase(wl, w, items, checker, args.seconds)
    # Over the samples the timed items verify; on verify-batch they are all
    # converged, so a sampler change leaves it at 1 there.
    converged_fraction = sum(o.converged for o in checker.first) / len(items)
    check_record(checker, f"{args.workload} seed={args.seed} code={code_digest()[:16]}",
                 {"converged_fraction": converged_fraction, "digest": checker.round_digest()})

    n = len(scaled)
    lat_ms = [1e3 * t for t in scaled]
    metrics = {
        "items_per_s": (n / sum(scaled), "1/s"),
        "verified_per_s": (verified / sum(scaled), "1/s"),
        "item_ms.p50": (windowed(lat_ms, 50), "ms"),
        "item_ms.p90": (windowed(lat_ms, 90), "ms"),
        "converged_fraction": (converged_fraction, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    print(f"environment {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload} seed={args.seed} round={len(items)} "
          f"item_ms samples={n} windows={n // MIN_ITEMS} "
          f"beyond_p90_per_window={beyond(MIN_ITEMS, 90)} "
          f"digest={checker.round_digest()[:16]}")
    print(f"unscaled: items_per_s={n / sum(raw):.6g} "
          f"item_ms.p50={1e3 * windowed(raw, 50):.6g} "
          f"item_ms.p90={1e3 * windowed(raw, 90):.6g} "
          f"host_slowdown={sum(raw) / sum(scaled):.4g}")
    if args.trace:
        size = len(items)
        untraced_round_s = statistics.median(
            sum(scaled[r * size:(r + 1) * size]) for r in range(n // size))
        metrics, traced_round_s = traced_round(wl, w, items, checker, args.workload)
        metrics["trace.overhead"] = (traced_round_s / untraced_round_s, "ratio")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    for text in checker.problems:
        print(f"FAILED {text}")

    correct = not checker.problems
    result = {
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    STATE.mkdir(exist_ok=True)
    with open(STATE / "results.jsonl", "a") as fh:
        fh.write(json.dumps({"workload": args.workload, "trace": args.trace,
                             "environment": env, **result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
