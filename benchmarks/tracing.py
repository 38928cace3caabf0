"""Spans around the benchmark's calls into the library.

A workload query never calls a library function directly: it goes
through a `call(fn, *args)` hook.  The untraced run passes `direct`,
which adds one Python call per library call; the traced run passes
`Tracer.call`, which records a span with its parent and query id.  A
span is named `<module>.<function>` after the function it wraps.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


def direct(fn, *args, **kwargs):
    """The untraced hook: call straight through."""
    return fn(*args, **kwargs)


def span_name(fn) -> str:
    """`<module>.<function>` for functions, bound methods and classes."""
    return fn.__module__.rsplit(".", 1)[-1] + "." + fn.__name__


class Tracer:
    """In-memory span recorder; spans are written out once, at the end.

    A span is the list [name, start, end, parent_index, query_id].
    """

    QUERY = "query"

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.query_id = None

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, self.query_id])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = perf_counter()

    def call(self, fn, *args, **kwargs):
        self._open(span_name(fn))
        try:
            return fn(*args, **kwargs)
        finally:
            self._close()

    def run_query(self, query_id, fn, *args):
        """Run one query under a root span and return its result."""
        self.query_id = query_id
        self._open(self.QUERY)
        try:
            return fn(*args)
        finally:
            self._close()
            self.query_id = None

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its children cover."""
        children = defaultdict(list)
        for span in self.spans:
            if span[3] is not None:
                children[span[3]].append((span[1], span[2]))
        out = []
        for idx, (_, start, end, _, _) in enumerate(self.spans):
            covered, reach = 0.0, start
            for c_start, c_end in sorted(children.get(idx, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out.append(end - start - covered)
        return out

    def layer_totals(self):
        """Per span name: (calls, busy seconds), busy being self time."""
        calls, busy = defaultdict(int), defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            calls[span[0]] += 1
            busy[span[0]] += own
        return calls, busy

    def query_seconds(self) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0] == self.QUERY)

    def write(self, path):
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for idx, (name, start, end, parent, qid) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": idx, "name": name, "parent": parent, "query": qid,
                    "start_s": start - origin, "end_s": end - origin,
                }) + "\n")
