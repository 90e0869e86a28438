"""In-memory span recorder and the self-time arithmetic the traced run reports.

A span is one call into a layer: name, start, end, the span that caused it,
the request it belongs to (workload/instance/config) and optional counts the
call returned. Spans are kept in memory and written out once, when the
benchmark ends, so recording costs a lock and a list append per call.
"""

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    request: str
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Thread-safe span sink with one open-span stack per thread.

    A span opened on a thread whose stack is empty gets ``detached_parent``
    as its parent, so workers running on a pool thread still hang under the
    portfolio span that launched them.
    """

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self.detached_parent: int | None = None
        self._clock = clock
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request: str | None = None, adopt_threads: bool = False):
        """Record the enclosed block; yields the span so callers can add attrs.

        With ``adopt_threads``, spans opened meanwhile on threads with no open
        span of their own become children of this one.
        """
        stack = self._stack()
        parent = stack[-1] if stack else self.detached_parent
        if request is None:
            request = self.spans[parent].request if parent is not None else ""
        record = Span(name, self._clock(), float("nan"), parent, request)
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        if adopt_threads:
            self.detached_parent = index
        try:
            yield record
        finally:
            if adopt_threads:
                self.detached_parent = None
            stack.pop()
            record.end = self._clock()

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for index, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "request": s.request,
                            "attrs": s.attrs,
                        }
                    )
                    + "\n"
                )


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cursor = lo
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, hi)
        if b > a:
            total += b - a
            cursor = b
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children of one span may overlap (workers on a thread pool), so their
    union is subtracted, not their sum.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [
        s.duration - _covered(children.get(i, ()), s.start, s.end)
        for i, s in enumerate(spans)
    ]


def layer_self_seconds(spans: list[Span]) -> dict[str, float]:
    """Self time summed per layer (the part of a span name before the dot)."""
    totals: dict[str, float] = {}
    for s, own in zip(spans, self_times(spans)):
        totals[s.layer] = totals.get(s.layer, 0.0) + own
    return totals


def layer_shares(spans: list[Span]) -> dict[str, float]:
    """Each layer's self time as a share of all recorded self time."""
    totals = layer_self_seconds(spans)
    whole = sum(totals.values())
    return {layer: (t / whole if whole > 0 else 0.0) for layer, t in totals.items()}


def named(spans: list[Span], name: str) -> list[Span]:
    return [s for s in spans if s.name == name]


def ratio(numerator: float, denominator: float) -> float:
    """numerator / denominator, or 0 when nothing was measured."""
    return numerator / denominator if denominator else 0.0
