"""Span recording for the traced benchmark run, and the arithmetic on spans.

A `Tracer` replaces functions by wrappers that record one span per call:
name, start, end, the span that was open when the call began (its parent)
and the benchmark item being run.  Spans stay in memory until `write`.
Nothing here imports redsphere; the caller names the attributes to patch.
"""

from __future__ import annotations

import json
import time
from array import array
from pathlib import Path
from typing import Callable, Iterable, Sequence

NO_PARENT = -1


class Tracer:
    """Records spans of wrapped calls made from one thread."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.item = array("i")
        self.current_item = -1
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        clock = time.perf_counter
        open_spans = self._open

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(open_spans[-1] if open_spans else NO_PARENT)
            self.item.append(self.current_item)
            self.end.append(0.0)
            open_spans.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                open_spans.pop()

        return traced

    def install(self, targets: Iterable[tuple[object, str, str]]) -> None:
        """Patch each (owner, attribute, span name) that exists; `uninstall`
        restores them.  A missing attribute means the call site is gone, so
        its spans are rightly absent."""
        for owner, attr, name in targets:
            original = getattr(owner, attr, None)
            if original is None:
                continue
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def spans(self) -> list[tuple[str, float, float, int, int]]:
        return [
            (self.names[nid], s, e, p, it)
            for nid, s, e, p, it in zip(self.name_id, self.start, self.end, self.parent, self.item)
        ]

    def write(self, path: Path) -> None:
        """One JSON array per line: name, start, end, parent index, item."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans():
                fh.write(json.dumps(span) + "\n")


def covered(intervals: Iterable[tuple[float, float]]) -> float:
    """Length of the union of the given [start, end] intervals."""
    total = 0.0
    hi = None
    lo = 0.0
    for s, e in sorted(intervals):
        if hi is None or s > hi:
            if hi is not None:
                total += hi - lo
            lo, hi = s, e
        else:
            hi = max(hi, e)
    if hi is not None:
        total += hi - lo
    return total


def self_times(spans: Sequence[tuple[str, float, float, int, int]]) -> list[float]:
    """Per span: its duration minus the part of it that child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for _, s, e, parent, _ in spans:
        if parent != NO_PARENT:
            children[parent].append((s, e))
    out = []
    for (_, s, e, _, _), kids in zip(spans, children):
        inside = [(max(a, s), min(b, e)) for a, b in kids if b > s and a < e]
        out.append((e - s) - covered(inside))
    return out


def summarize(spans: Sequence[tuple[str, float, float, int, int]]) -> dict[str, dict[str, float]]:
    """Calls, busy time (union of the name's spans) and self time per span name."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    intervals: dict[str, list[tuple[float, float]]] = {}
    for (name, s, e, _, _), own in zip(spans, selfs):
        row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += own
        intervals.setdefault(name, []).append((s, e))
    for name, ivs in intervals.items():
        out[name]["busy_s"] = covered(ivs)
    return out


def busy_with_prefix(spans: Sequence[tuple[str, float, float, int, int]], prefix: str) -> float:
    """Time covered by any span whose name starts with prefix."""
    return covered((s, e) for name, s, e, _, _ in spans if name.startswith(prefix))
