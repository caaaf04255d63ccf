"""Span recorder for the traced run.

The benchmark routes each call it makes into a braidkit module through
``rec.call(name, fn, *args)``.  Untraced, that is a plain call.  Traced, it
records a span ``(name, start, end, parent, job)``; spans stay in memory and
are written out when the run ends.  A span's self time is its duration minus
the time its child spans cover.
"""
from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class NullRecorder:
    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Recorder:
    enabled = True

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, job id)
        self._stack = []
        self.job = None
        self.counts = defaultdict(float)
        self.peaks = defaultdict(float)

    def call(self, name, fn, *args, **kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, t0, t1, parent, self.job)

    def count(self, name, value=1):
        self.counts[name] += value

    def peak(self, name, value):
        self.peaks[name] = max(self.peaks[name], value)

    def busy(self):
        """Summed duration and call count of the spans of each name."""
        total, calls = defaultdict(float), defaultdict(int)
        for name, t0, t1, _, _ in self.spans:
            total[name] += t1 - t0
            calls[name] += 1
        return total, calls

    def self_times(self):
        """Summed self time (duration minus children) of the spans of each name."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(float)
        for k, (name, t0, t1, _, _) in enumerate(self.spans):
            out[name] += (t1 - t0) - child[k]
        return out

    def by_job(self):
        """``{job: {name: summed duration}}``."""
        out = defaultdict(lambda: defaultdict(float))
        for name, t0, t1, _, job in self.spans:
            out[job][name] += t1 - t0
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "job"],
                    "spans": self.spans,
                },
                fh,
            )
