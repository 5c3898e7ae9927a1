"""Thread-aware span recorder for the traced benchmark run.

A span is one call into a layer: its name, thread, start and end, and the
span that was open on the same thread when it began.  Each thread keeps its
own stack of open spans, so calls made by Monte Carlo worker threads nest
under their own parents and self time is attributed per thread.  Spans stay
in memory; the caller writes them out once when the run ends.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict


class SpanRecorder:
    def __init__(self):
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, *args, attrs: dict | None = None, **kwargs):
        """Run ``fn`` inside a span; ``attrs`` is stored with the span and may
        be filled by the caller after the call returns."""
        stack = self._stack()
        span = {"name": name, "thread": threading.get_ident(), "parent": stack[-1] if stack else None}
        if attrs is not None:
            span["attrs"] = attrs
        with self._lock:
            span["id"] = len(self.spans)
            self.spans.append(span)
        stack.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return wrapper


def summarize(spans: list[dict]) -> dict[str, dict]:
    """Per span name: ``calls``, ``busy_s`` (summed durations), ``self_s``
    (durations minus the time of direct children) and the collected attrs."""
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out: dict[str, dict] = {}
    for s in spans:
        entry = out.setdefault(s["name"], {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "attrs": []})
        duration = s["end"] - s["start"]
        entry["calls"] += 1
        entry["busy_s"] += duration
        entry["self_s"] += duration - child_time[s["id"]]
        if "attrs" in s:
            entry["attrs"].append(s["attrs"])
    return out
