"""The tracer records each layer and leaves the program as it found it."""

import parlns.alns
import parlns.bandit
import parlns.operators
import parlns.orchestrator
import parlns.subsolver
from parlns import instances
from parlns.configspace import DEFAULT_CONFIG
from parlns.orchestrator import SIMULATED, PortfolioPlan, run_portfolio

from layers import CountingBackend, Tracer
from spans import SpanRecorder


def _entry_points():
    return [
        parlns.subsolver.solve_relaxation,
        parlns.subsolver.build_relaxation,
        parlns.subsolver.evaluate,
        parlns.alns.solve_lp,
        parlns.alns.evaluate,
        parlns.alns.apply_neighborhood,
        parlns.operators.build_neighborhood,
        parlns.orchestrator.run_worker,
        parlns.bandit.EpsilonGreedy,
        parlns.bandit.Softmax,
        parlns.bandit.ThompsonSampling,
    ]


def test_traced_portfolio_matches_untraced_and_restores():
    model = instances.knapsack(12, seed=3)
    plan = PortfolioPlan((DEFAULT_CONFIG,), 1, 1, 0.3, 5)
    before = _entry_points()
    plain = CountingBackend()
    expected = run_portfolio(model, plan, clock_mode=SIMULATED, backend=plain.backend)

    rec = SpanRecorder()
    counted = CountingBackend(rec)
    with Tracer(rec, "test"):
        got = run_portfolio(model, plan, clock_mode=SIMULATED, backend=counted.backend)
    assert _entry_points() == before

    worker, traced_worker = expected.workers["default"], got.workers["default"]
    assert (worker.iterations, worker.skipped, worker.raw_points) == (
        traced_worker.iterations, traced_worker.skipped, traced_worker.raw_points
    )
    assert counted.nodes == plain.nodes > 0
    names = {s.name for s in rec.spans}
    assert {
        "alns.run_worker", "subsolver.find_first_feasible", "subsolver.solve_mip",
        "lp.solve_relaxation", "lp.solve_lp", "model.evaluate", "model.apply_neighborhood",
        "operators.build_neighborhood", "bandit.select_arm", "bandit.update",
    } <= names
    nodes = sum(s.attrs["nodes"] for s in rec.spans if s.name.startswith("subsolver."))
    assert nodes == counted.nodes
    worker_span = next(s for s in rec.spans if s.name == "alns.run_worker")
    assert worker_span.request == f"test/{model.name}/default"
    assert worker_span.attrs["iterations"] == traced_worker.iterations
