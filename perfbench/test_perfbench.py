"""Tests of the benchmark's own arithmetic.  Run: python3 -m pytest perfbench"""

import types

import pytest

import run
from tracing import NO_PARENT, Tracer, busy_with_prefix, covered, self_times, summarize


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 90) == 90
    assert run.percentile(values, 100) == 100
    assert run.percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        run.percentile([], 50)


def test_p90_needs_min_items_for_ten_samples_beyond():
    assert run.beyond(100, 90) == 10
    assert run.beyond(99, 90) == 9
    assert run.beyond(run.MIN_ITEMS, 90) >= 10
    assert run.beyond(run.MIN_ITEMS - 1, 90) < 10
    values = list(range(1, 101))
    p90 = run.percentile(values, 90)
    assert sum(v > p90 for v in values) == run.beyond(100, 90)


def test_windowed_is_median_of_whole_window_percentiles():
    values = [1.0] * 100 + [50.0] * 100 + [2.0] * 100 + [9.0] * 99
    assert run.windowed(values, 50) == 2.0
    assert run.windowed(list(range(250)), 90, size=100) == (89 + 189) / 2
    with pytest.raises(ValueError):
        run.windowed([1.0] * 99, 50)


@pytest.mark.parametrize("reason, cls", [
    (None, None),
    ("stalled: damping exhausted without improvement", "stalled"),
    ("max_iterations reached", "max_iterations"),
    ("constraint violation: projection foot outside the open side interior",
     "constraint_violation"),
    ("degenerate geometry at the solution: vertices 0 and 1 coincident", "degenerate_geometry"),
    ("something new", "other"),
])
def test_failure_class_buckets_failure_reason(reason, cls):
    assert run.failure_class(reason) == cls


def test_covered_merges_overlaps_and_gaps():
    assert covered([]) == 0.0
    assert covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0
    assert covered([(0.0, 10.0), (2.0, 3.0)]) == 10.0


def test_self_time_subtracts_nested_children_once():
    spans = [
        ("a", 0.0, 10.0, NO_PARENT, 0),
        ("b", 1.0, 4.0, 0, 0),
        ("c", 2.0, 3.0, 1, 0),
        ("b", 5.0, 7.0, 0, 0),
        ("a", 20.0, 21.0, NO_PARENT, 1),
    ]
    assert self_times(spans) == [5.0, 2.0, 1.0, 2.0, 1.0]
    layer = summarize(spans)
    assert layer["a"] == {"calls": 2, "busy_s": 11.0, "self_s": 6.0}
    assert layer["b"] == {"calls": 2, "busy_s": 5.0, "self_s": 4.0}
    assert busy_with_prefix(spans, "b") == 5.0
    assert busy_with_prefix(spans, "") == 11.0


def test_tracer_records_parents_items_and_restores_targets():
    mod = types.SimpleNamespace()
    mod.leaf = lambda x: x + 1
    mod.mid = lambda x: mod.leaf(x) * 2
    original_leaf = mod.leaf
    tracer = Tracer()
    tracer.install([(mod, "leaf", "L.leaf"), (mod, "mid", "L.mid"), (mod, "absent", "L.absent")])
    top = tracer.wrap("top", lambda: mod.mid(1) + mod.leaf(0))
    tracer.current_item = 3
    try:
        assert top() == 5
    finally:
        tracer.uninstall()
    assert mod.leaf is original_leaf and not hasattr(mod, "absent")
    spans = tracer.spans()
    assert [(name, parent, item) for name, _, _, parent, item in spans] == [
        ("top", NO_PARENT, 3), ("L.mid", 0, 3), ("L.leaf", 1, 3), ("L.leaf", 0, 3)]
    for (_, s, e, parent, _), own in zip(spans, self_times(spans)):
        assert s <= e and 0.0 <= own <= e - s + 1e-12
        if parent != NO_PARENT:
            assert spans[parent][1] <= s and e <= spans[parent][2]
