import itertools
import time
from dataclasses import replace

import pytest

import parlns.alns
import parlns.orchestrator
from parlns.alns import STATUS_OK, build_trace, run_worker
from parlns.clock import SimulatedClock
from parlns.configspace import DEFAULT_CONFIG, generate_pool
from parlns.instances import independent_set, knapsack
from parlns.lp import LP_OPTIMAL, LP_STOPPED
from parlns.metrics import aggregate_min
from parlns.model import BINARY, GE, LE, MINIMIZE, LinearConstraint, Variable, make_model
from parlns.orchestrator import (
    AllWorkersInfeasible,
    PlanInvalid,
    PortfolioPlan,
    PortfolioResult,
    plan_for_threads,
    run_portfolio,
    worker_seed,
)
from parlns.subsolver import Backend, get_backend

from support import binary_optimum, solution_fields


def _plan(pool, wall=1.0, threads=1, cap=None, seed=0):
    return PortfolioPlan(
        configs=tuple(pool),
        threads_per_worker=threads,
        core_cap=cap if cap is not None else len(pool) * threads,
        wall_seconds=wall,
        master_seed=seed,
    )


def test_plan_validation_rejects_cap_violation():
    pool = generate_pool(20, seed=1)
    with pytest.raises(PlanInvalid):
        _plan(pool, threads=10, cap=192)  # 20 * 10 = 200 > 192


def test_plan_validation_passes_at_cap():
    pool = generate_pool(4, seed=1)
    assert _plan(pool, threads=1, cap=4).n_workers == 4


def test_plan_for_threads_reproduces_paper_counts():
    pool = generate_pool(180, seed=3)
    plan4 = plan_for_threads(pool, 4, 180)
    assert plan4.n_workers == 45
    assert [c.id for c in plan4.configs] == [c.id for c in pool[:45]]
    # the 8-thread reduced pool is a 20-entry ranking, as in the setup it models
    ranking20 = [c.id for c in pool[:20]]
    plan8 = plan_for_threads(pool, 8, 180, ranking=ranking20)
    assert plan8.n_workers == 20
    # pure division without a ranking caps at floor(180 / 16) = 11
    plan16 = plan_for_threads(pool, 16, 180)
    assert plan16.n_workers == 11
    plan16r = plan_for_threads(pool, 16, 180, ranking=[c.id for c in pool[:10]])
    assert plan16r.n_workers == 10


def test_plan_for_threads_respects_ranking_order():
    pool = generate_pool(6, seed=5)
    ranking = [pool[3].id, pool[0].id, pool[5].id]
    plan = plan_for_threads(pool, 1, 2, ranking=ranking)
    assert [c.id for c in plan.configs] == ranking[:2]


def test_worker_seed_is_stable():
    assert worker_seed(7, "cfg_000") == worker_seed(7, "cfg_000")
    assert worker_seed(7, "cfg_000") != worker_seed(8, "cfg_000")
    assert worker_seed(7, "cfg_000") != worker_seed(7, "cfg_001")


def test_single_worker_portfolio_aggregate_equals_trace():
    model = knapsack(12, seed=3)
    pool = generate_pool(1, seed=2)
    result = run_portfolio(model, _plan(pool, wall=1.0), clock_mode="simulated")
    worker = result.workers[pool[0].id]
    assert result.aggregate == worker.trace
    assert result.best_config_id == pool[0].id


def test_aggregate_dominates_every_worker():
    model = knapsack(20, seed=5)
    pool = generate_pool(4, seed=9)
    result = run_portfolio(
        model,
        _plan(pool, wall=1.5, seed=4),
        reference_objective=100.0,
        clock_mode="simulated",
    )
    finals = [result.workers[c.id].trace.final_gap() for c in pool]
    assert result.aggregate.final_gap() <= min(finals)
    assert result.aggregate.final_gap() == min(finals)
    assert (
        result.workers[result.best_config_id].trace.final_gap()
        == result.aggregate.final_gap()
    )


def test_portfolio_determinism_and_nested_monotonicity():
    model = knapsack(16, seed=6)
    pool = generate_pool(4, seed=10)
    kwargs = dict(reference_objective=50.0, clock_mode="simulated")
    small = run_portfolio(model, _plan(pool[:2], wall=1.0, seed=3), **kwargs)
    big = run_portfolio(model, _plan(pool, wall=1.0, seed=3), **kwargs)
    # identical seeds derive from config ids, so the shared workers repeat
    for config in pool[:2]:
        assert big.workers[config.id].raw_points == small.workers[config.id].raw_points
    for t in [0.25, 0.5, 0.75, 1.0]:
        assert big.aggregate.gap_at(t) <= small.aggregate.gap_at(t) + 1e-15
    again = run_portfolio(model, _plan(pool, wall=1.0, seed=3), **kwargs)
    assert again.aggregate == big.aggregate


def test_all_workers_infeasible_raises():
    model = make_model(
        "inf",
        MINIMIZE,
        [Variable("x", BINARY)],
        [
            LinearConstraint("ge", {0: 1.0}, GE, 1.0),
            LinearConstraint("le", {0: 1.0}, LE, 0.0),
        ],
        {0: 1.0},
    )
    pool = generate_pool(2, seed=1)
    with pytest.raises(AllWorkersInfeasible, match="failed on inf$"):
        run_portfolio(model, _plan(pool, wall=0.5), clock_mode="simulated")


def test_self_reference_uses_portfolio_best():
    model = knapsack(12, seed=3)
    optimum = binary_optimum(model)
    pool = generate_pool(2, seed=8)
    result = run_portfolio(model, _plan(pool, wall=2.0, seed=5), clock_mode="simulated")
    # reference defaults to the portfolio's own best objective
    assert result.reference_objective == min(
        result.workers[c.id].best.objective for c in pool
    )
    assert result.aggregate.final_gap() == 0.0


def test_wall_clock_mode_runs_threads():
    model = knapsack(10, seed=2)
    pool = generate_pool(3, seed=12)
    result = run_portfolio(model, _plan(pool, wall=0.5, seed=6), clock_mode="wall")
    assert isinstance(result, PortfolioResult)
    assert set(result.workers) == {c.id for c in pool}
    assert any(
        worker.status == STATUS_OK and len(worker.raw_points) >= 1
        for worker in result.workers.values()
    )


@pytest.mark.parametrize("clock_mode", ["simulated", "wall"])
def test_a_failing_worker_stops_its_siblings(clock_mode):
    # the first repair of either worker raises; the other worker must stop
    # at its next cancellation check, not spend the wall budget
    reference = get_backend()
    calls = itertools.count()

    def solve_mip(*args, **kwargs):
        if next(calls) == 0:
            raise RuntimeError("backend failed")
        return reference.solve_mip(*args, **kwargs)

    backend = Backend("fails-once", solve_mip, reference.find_first_feasible)
    plan = _plan(generate_pool(2, seed=7), wall=6.0, seed=1)
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="backend failed"):
        run_portfolio(knapsack(40, seed=7), plan, clock_mode=clock_mode, backend=backend)
    assert time.perf_counter() - start < plan.wall_seconds / 4
    if clock_mode == "simulated":
        # the workers take turns, and the second starts cancelled: the one
        # solve_mip call is the failing one
        assert next(calls) == 1


@pytest.mark.parametrize("wall", [float("nan"), float("inf"), 0.0, -1.0])
def test_plan_validation_rejects_a_budget_that_is_not_positive_and_finite(wall):
    # a NaN budget used to pass and never end the wall timer or a worker
    with pytest.raises(PlanInvalid, match="wall_seconds"):
        _plan(generate_pool(2, seed=1), wall=wall)


def test_portfolio_rejects_a_nan_node_seconds_before_any_work(monkeypatch):
    solves = []
    monkeypatch.setattr(parlns.alns, "solve_lp", lambda *a, **k: solves.append(a))
    plan = _plan(generate_pool(2, seed=1), wall=1.0)
    with pytest.raises(ValueError, match="node_seconds"):
        run_portfolio(knapsack(10, seed=2), plan, clock_mode="simulated", node_seconds=float("nan"))
    assert solves == []


@pytest.mark.parametrize("reference", [float("nan"), float("inf"), -float("inf")])
def test_portfolio_rejects_a_reference_that_is_not_finite_before_any_work(monkeypatch, reference):
    def search_started(*args, **kwargs):
        raise AssertionError("the search started")

    monkeypatch.setattr(parlns.alns, "solve_lp", search_started)
    monkeypatch.setattr(parlns.orchestrator, "run_worker", search_started)
    plan = _plan(generate_pool(2, seed=1), wall=1.0)
    with pytest.raises(ValueError, match="reference_objective"):
        run_portfolio(knapsack(10, seed=2), plan, reference, clock_mode="simulated")


def _counting_solve_lp(monkeypatch):
    """Record every root LP a portfolio solves, by the name the portfolio
    looks it up by."""
    roots = []
    real = parlns.alns.solve_lp

    def solve_lp(model, **kwargs):
        roots.append(real(model, **kwargs))
        return roots[-1]

    monkeypatch.setattr(parlns.alns, "solve_lp", solve_lp)
    return roots


@pytest.mark.parametrize("clock_mode", ["simulated", "wall"])
def test_a_portfolio_solves_its_root_lp_once(monkeypatch, clock_mode):
    roots = _counting_solve_lp(monkeypatch)
    pool = generate_pool(3, seed=12)
    result = run_portfolio(knapsack(10, seed=2), _plan(pool, wall=0.3, seed=6), clock_mode=clock_mode)
    assert len(roots) == 1 and roots[0].status == LP_OPTIMAL
    assert set(result.workers) == {c.id for c in pool}


def test_simulated_portfolio_workers_equal_workers_run_alone(monkeypatch):
    # the shared root LP is the one each worker would solve for itself
    model = independent_set(30, 0.2, seed=5)
    pool = [DEFAULT_CONFIG] + generate_pool(2, seed=4)
    plan = _plan(pool, wall=0.5, seed=9)
    roots = _counting_solve_lp(monkeypatch)
    result = run_portfolio(model, plan, -12.0, clock_mode="simulated", node_seconds=0.01)
    assert len(roots) == 1
    reference = model.to_internal_objective(-12.0)
    for config in pool:
        alone = run_worker(
            model,
            config,
            plan.wall_seconds,
            worker_seed(plan.master_seed, config.id),
            SimulatedClock(0.01),
        )
        trace = build_trace(model, alone.raw_points, reference, plan.wall_seconds)
        worker = result.workers[config.id]
        assert solution_fields(worker.best) == solution_fields(alone.best)
        assert replace(worker, best=None) == replace(alone, best=None, trace=trace)
    assert len(roots) == 1 + len(pool)  # each lone worker solved its own


class _ExpiredTimer:
    """A wall timer whose budget has run out when it starts."""

    def __init__(self, interval, function):
        self.function = function
        self.daemon = False

    def start(self):
        self.function()

    def cancel(self):
        pass


def test_a_wall_portfolio_cancelled_before_its_root_lp_stops(monkeypatch):
    roots = _counting_solve_lp(monkeypatch)
    monkeypatch.setattr(parlns.orchestrator.threading, "Timer", _ExpiredTimer)
    plan = _plan(generate_pool(2, seed=7), wall=60.0, seed=1)
    start = time.perf_counter()
    with pytest.raises(AllWorkersInfeasible):
        run_portfolio(knapsack(40, seed=7), plan, clock_mode="wall")
    assert time.perf_counter() - start < 10.0
    # the stopped root reaches the workers as a worker's own stopped root did
    assert len(roots) == 1
    assert roots[0].status == LP_STOPPED and roots[0].basis is None
