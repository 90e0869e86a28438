"""The span recorder and the self-time arithmetic on hand-built spans."""

import threading

import pytest

from spans import Span, SpanRecorder, layer_self_seconds, layer_shares, ratio, self_times


def _nested():
    return [
        Span("bench.unit", 0.0, 10.0, None, "w/i/c"),
        Span("alns.run_worker", 1.0, 4.0, 0, "w/i/c"),
        Span("lp.solve_relaxation", 2.0, 3.0, 1, "w/i/c"),
        Span("alns.run_worker", 5.0, 6.0, 0, "w/i/c"),
    ]


def test_self_time_subtracts_children():
    assert self_times(_nested()) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_overlapping_children_subtract_their_union():
    spans = [
        Span("orchestrator.run_portfolio", 0.0, 10.0, None, ""),
        Span("alns.run_worker", 1.0, 6.0, 0, ""),
        Span("alns.run_worker", 4.0, 8.0, 0, ""),
        Span("alns.run_worker", 9.0, 12.0, 0, ""),  # clipped to the parent
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 7.0 - 1.0)


def test_layer_totals_and_shares():
    spans = _nested()
    assert layer_self_seconds(spans) == pytest.approx({"bench": 6.0, "alns": 3.0, "lp": 1.0})
    shares = layer_shares(spans)
    assert shares == pytest.approx({"bench": 0.6, "alns": 0.3, "lp": 0.1})
    assert sum(shares.values()) == pytest.approx(1.0)


def test_ratio_of_nothing_is_zero():
    assert ratio(3.0, 4.0) == 0.75
    assert ratio(5.0, 0) == 0.0


class _Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def test_recorder_links_parents_and_requests():
    rec = SpanRecorder(clock=_Clock())
    with rec.span("alns.run_worker", request="sweep/knap/default"):
        with rec.span("subsolver.solve_mip") as inner:
            inner.attrs["nodes"] = 3
    outer, inner = rec.spans
    assert (outer.start, inner.start, inner.end, outer.end) == (1.0, 2.0, 3.0, 4.0)
    assert inner.parent == 0 and outer.parent is None
    assert inner.request == "sweep/knap/default"
    assert inner.attrs == {"nodes": 3}
    assert self_times(rec.spans) == pytest.approx([2.0, 1.0])


def test_adopted_thread_spans_hang_under_the_adopter():
    rec = SpanRecorder()
    with rec.span("orchestrator.run_portfolio", request="wall", adopt_threads=True):
        worker = threading.Thread(target=lambda: rec.span("alns.run_worker").__enter__())
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
    with rec.span("after"):
        pass
    assert rec.spans[1].parent == 0
    assert rec.spans[1].request == "wall"
    assert rec.spans[2].parent is None
