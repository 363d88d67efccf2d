"""In-memory span recorder for the benchmark's traced runs.

A span is one call from the benchmark into a layer of `polsim` (or one
workload item).  Its name is ``<layer>.<what>``; the layer is the part before
the first dot.  Spans are kept in a list and written out when the run ends.
A disabled tracer hands back one shared no-op context, so untraced runs pay
only an attribute lookup per call.
"""

from __future__ import annotations

import contextlib
import json
import time

_NULL = contextlib.nullcontext()


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.index = self.tracer.open(self.name, time.monotonic())
        return self

    def __exit__(self, *exc):
        self.tracer.close(self.index, time.monotonic())
        return False


class Tracer:
    """Records (name, start, end, parent) spans; parent is a span index or -1."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self._stack = []

    def span(self, name):
        return _Span(self, name) if self.enabled else _NULL

    def open(self, name, start):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, None, parent])
        self._stack.append(index)
        return index

    def close(self, index, end):
        self.spans[index][2] = end
        self._stack.pop()

    def add(self, name, start, end):
        """Record a finished span (e.g. measured in a child process) under the open one."""
        if self.enabled:
            self.close(self.open(name, start), end)

    def self_times(self):
        """Per span: duration minus the part of it covered by its children."""
        children = [[] for _ in self.spans]
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                children[parent].append(i)
        out = []
        for i, (_, start, end, _) in enumerate(self.spans):
            covered, reach = 0.0, start
            for lo, hi in sorted((self.spans[c][1], self.spans[c][2]) for c in children[i]):
                lo, hi = max(lo, reach), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append((end - start) - covered)
        return out

    def totals(self):
        """(seconds by span name, self seconds by layer, calls by span name)."""
        by_name, by_layer, calls = {}, {}, {}
        for (name, start, end, _), own in zip(self.spans, self.self_times()):
            by_name[name] = by_name.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
            layer = name.split(".", 1)[0]
            by_layer[layer] = by_layer.get(layer, 0.0) + own
        return by_name, by_layer, calls

    def dump(self, path):
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)
