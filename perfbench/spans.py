"""In-memory span recorder for the benchmark's traced runs.

A span is one timed call across a layer boundary: name, start, end (both
``time.perf_counter_ns``, which is CLOCK_MONOTONIC on Linux and so shared by
every process on the machine), the span that caused it, and the op it
belongs to.  Spans stay in memory and are written out once, at the end of a
run.  A span's self time is its duration minus the time its direct children
cover; calls within one op never overlap, so children can simply be summed.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext

OP_SPAN = "bench.op"
_NULL = nullcontext()


class SpanRecorder:
    """Records nested spans and counts while ``enabled``.

    ``span`` is a context manager that yields the span's record, or None
    while the recorder is off; an off recorder records nothing, so the same
    op code serves untraced and traced runs.
    """

    def __init__(self, enabled=True):
        self.enabled = enabled
        self.spans = []  # [id, name, start_ns, end_ns, parent_id, op_id]
        self.counts = {}
        self._stack = []
        self._op_id = None

    def span(self, name):
        return self._span(name) if self.enabled else _NULL

    @contextmanager
    def _span(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        if name == OP_SPAN:
            self._op_id = sid
        record = [sid, name, time.perf_counter_ns(), None, parent, self._op_id]
        self.spans.append(record)
        self._stack.append(sid)
        try:
            yield record
        finally:
            self._stack.pop()
            record[3] = time.perf_counter_ns()

    def count(self, name, value):
        """Add ``value`` to a work counter recorded beside the spans."""
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + value

    def adopt(self, child_spans):
        """Attach spans recorded in another process under the open span.

        ``child_spans`` are ``[name, start_ns, end_ns, local_parent]`` rows
        whose ``local_parent`` indexes the same list (or is None).
        """
        base = len(self.spans)
        outer = self._stack[-1] if self._stack else None
        for name, start, end, local_parent in child_spans:
            owner = outer if local_parent is None else base + local_parent
            self.spans.append([len(self.spans), name, start, end, owner, self._op_id])

    def dump(self, path, meta):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "counts": self.counts, "spans": self.spans}, fh)


def self_times(spans):
    """Per-name (summed self time in ns, call count) over a span list."""
    covered = {}
    for sid, name, start, end, parent, op in spans:
        if parent is not None:
            covered[parent] = covered.get(parent, 0) + (end - start)
    totals = {}
    for sid, name, start, end, parent, op in spans:
        own = (end - start) - covered.get(sid, 0)
        ns, calls = totals.get(name, (0, 0))
        totals[name] = (ns + own, calls + 1)
    return totals
