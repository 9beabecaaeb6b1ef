"""In-memory spans around calls into freespec's layers, and their analysis.

A span is a list ``[id, parent_id, name, start, end, attrs]``.  Spans are
kept in memory while the program runs and written out once at the end.
Parents come from a per-thread stack, so spans opened in pool threads can
name their parent explicitly.
"""
from __future__ import annotations

import functools
import threading
import time


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, parent=None) -> list:
        stack = self.stack()
        if parent is None and stack:
            parent = stack[-1][0]
        with self._lock:
            span = [len(self.spans), parent, name, 0.0, None, {}]
            self.spans.append(span)
        stack.append(span)
        span[3] = self.clock()
        return span

    def close(self, span: list) -> None:
        span[4] = self.clock()
        self.stack().pop()

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records one span per call.

        ``after(span_attrs, result, args)`` runs once the span has ended, so
        the counts it records are not charged to the layer's time.
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if after is not None:
                after(span[5], result, args)
            return result

        setattr(owner, attr, traced)


def union_length(intervals) -> float:
    """Total length covered by a collection of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> its duration minus the part of it covered by child spans.

    Children running concurrently (cells on a thread pool) overlap; the
    covered part is the union of their intervals, clipped to the parent.
    """
    children: dict[int, list] = {}
    for span in spans:
        if span[1] is not None:
            children.setdefault(span[1], []).append(span)
    out = {}
    for sid, _, _, start, end, _ in spans:
        covered = union_length(
            (max(c[3], start), min(c[4], end))
            for c in children.get(sid, ())
            if c[4] > start and c[3] < end
        )
        out[sid] = (end - start) - covered
    return out


def busy_time(spans, name: str) -> float:
    """Wall time during which at least one span with this name was open."""
    return union_length((s[3], s[4]) for s in spans if s[2] == name)
