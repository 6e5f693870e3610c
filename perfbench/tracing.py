"""Spans recorded by the benchmark around the calls it makes into fsusy.

A span is (name, start, end, parent, run).  Spans are kept in memory and
handed back to the parent process at the end of a child run, which writes
them out in one file.  The untraced variant keeps no spans at all; both
variants still time every call, because the end-to-end latencies need the
per-call durations.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    """Collects spans for one run.  `run` names the run every span belongs
    to; `root` is the parent id for spans opened outside any other span."""

    def __init__(self, run: str, root: str | None = None):
        self.run = run
        self.spans: list = []
        self._stack = [root]

    @contextmanager
    def span(self, name: str, **attrs):
        record = {
            "id": f"{self.run}/{len(self.spans)}",
            "name": name,
            "parent": self._stack[-1],
            "run": self.run,
            **attrs,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()


class NullTracer:
    """Same interface, records nothing."""

    spans = ()

    @contextmanager
    def span(self, name: str, **attrs):
        yield None

