"""In-memory spans around the benchmark's calls into the package.

A span records its name, start, end and the index of its parent span.
Spans stay in memory while the run measures and are written out once at
the end.  Self time is a span's duration minus the time its child spans
cover; children never overlap because the benchmark is single-threaded.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    """Records spans when enabled; otherwise ``call`` is a plain call."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []          # [name, start, end, parent index or -1]
        self._open = []
        self.counts = defaultdict(int)

    def call(self, name, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end()

    def begin(self, name):
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, _clock(), None, parent])
        self._open.append(len(self.spans) - 1)

    def end(self):
        self.spans[self._open.pop()][2] = _clock()

    def count(self, name, n=1):
        if self.enabled:
            self.counts[name] += n

    def summary(self, since=0):
        """{name: (self seconds, calls)} over spans from index ``since``."""
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans[since:]:
            if parent >= since:
                child_time[parent] += end - start
        out = defaultdict(lambda: [0.0, 0])
        for i, (name, start, end, _) in enumerate(self.spans[since:], since):
            out[name][0] += (end - start) - child_time[i]
            out[name][1] += 1
        return {k: tuple(v) for k, v in out.items()}

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)


def span_cost(samples=20000):
    """Seconds one enabled span costs, measured on an empty call."""
    tr = Tracer(True)
    noop = (lambda: None)
    t0 = _clock()
    for _ in range(samples):
        tr.call("x", noop)
    return (_clock() - t0) / samples
