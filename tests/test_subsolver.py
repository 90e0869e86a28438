import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parlns.clock import SimulatedClock
from parlns.instances import independent_set, knapsack, set_cover
from parlns.model import (
    BINARY,
    GE,
    LE,
    MINIMIZE,
    LinearConstraint,
    Variable,
    evaluate,
    make_model,
)
import parlns.subsolver
from parlns.lp import LP_ITERATION_LIMIT, LpResult
from parlns.subsolver import (
    FEASIBLE,
    INFEASIBLE,
    OPTIMAL,
    UNKNOWN,
    SolveBudget,
    _most_fractional,
    find_first_feasible,
    get_backend,
    solve_mip,
)

from support import binary_optimum, most_fractional_oracle


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(-3, 3),
            st.sampled_from((0.0, 0.25, 0.5, 0.75, 5e-7, 2e-6, 1 - 5e-7, 1 - 2e-6)),
            st.booleans(),
        ),
        min_size=1,
        max_size=8,
    )
)
def test_most_fractional_matches_loop_oracle(columns):
    x = np.array([k + frac for k, frac, _ in columns])
    integer = np.array([is_int for _, _, is_int in columns])
    expected = most_fractional_oracle(x.tolist(), np.flatnonzero(integer).tolist())
    assert _most_fractional(x, integer) == expected


def test_budget_requires_a_finite_cap():
    with pytest.raises(ValueError):
        SolveBudget()
    SolveBudget(wall_seconds=1.0)
    SolveBudget(node_limit=5)


def test_knapsack_matches_enumeration():
    model = knapsack(12, seed=9)
    res = solve_mip(model, budget=SolveBudget(wall_seconds=30.0))
    assert res.status == OPTIMAL
    assert res.incumbent.objective == binary_optimum(model)


def test_integral_relaxation_solves_at_root():
    model = make_model(
        "root",
        MINIMIZE,
        [Variable("x", BINARY), Variable("y", BINARY)],
        [LinearConstraint("c", {0: 1.0}, GE, 1.0)],
        {0: 1.0, 1: 1.0},
    )
    res = solve_mip(model, budget=SolveBudget(wall_seconds=10.0))
    assert res.status == OPTIMAL
    assert res.nodes == 1


def test_zero_budget_returns_warm_start():
    model = knapsack(10, seed=2)
    warm = evaluate(model, tuple(0.0 for _ in model.variables))
    assert warm.feasible and warm.integral
    res = solve_mip(model, warm_start=warm, budget=SolveBudget(wall_seconds=0.0))
    assert res.status == FEASIBLE
    assert res.incumbent.values == warm.values
    assert res.nodes == 0


def test_never_worse_than_warm_start():
    model = knapsack(12, seed=5)
    optimum = binary_optimum(model)
    warm = evaluate(model, tuple(0.0 for _ in model.variables))
    res = solve_mip(model, warm_start=warm, budget=SolveBudget(node_limit=3))
    assert res.incumbent.objective <= warm.objective
    res = solve_mip(model, warm_start=warm, budget=SolveBudget(node_limit=100000))
    assert res.incumbent.objective == optimum


def test_find_first_feasible_on_set_cover():
    model = set_cover(12, 10, seed=4)
    res = find_first_feasible(model, SolveBudget(wall_seconds=30.0))
    assert res.incumbent is not None
    assert res.status in (FEASIBLE, OPTIMAL)
    checked = evaluate(model, res.incumbent.values)
    assert checked.feasible and checked.integral


def test_find_first_feasible_all_ones_cover_is_feasible_status():
    # three elements, pairwise-overlapping unit-cost sets: LP sits at 1/2
    model = make_model(
        "ones",
        MINIMIZE,
        [Variable(name, BINARY) for name in ("A", "B", "C")],
        [
            LinearConstraint("e1", {0: 1.0, 2: 1.0}, GE, 1.0),
            LinearConstraint("e2", {0: 1.0, 1: 1.0}, GE, 1.0),
            LinearConstraint("e3", {1: 1.0, 2: 1.0}, GE, 1.0),
        ],
        {0: 1.0, 1: 1.0, 2: 1.0},
    )
    res = find_first_feasible(model, SolveBudget(wall_seconds=30.0))
    assert res.status == FEASIBLE
    checked = evaluate(model, res.incumbent.values)
    assert checked.feasible and checked.integral


def test_find_first_feasible_stops_early():
    # fractional root: stopping at the first incumbent leaves open nodes
    model = set_cover(16, 12, seed=8)
    first = find_first_feasible(model, SolveBudget(wall_seconds=30.0))
    full = solve_mip(model, budget=SolveBudget(wall_seconds=30.0))
    assert first.nodes <= full.nodes


def test_infeasible_toy_is_proven():
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
    res = find_first_feasible(model, SolveBudget(wall_seconds=10.0))
    assert res.status == INFEASIBLE
    res = solve_mip(model, budget=SolveBudget(wall_seconds=10.0))
    assert res.status == INFEASIBLE


def test_no_integers_solves_like_lp():
    model = make_model(
        "lp",
        MINIMIZE,
        [Variable("x", "continuous", 0.0, 2.0)],
        [LinearConstraint("c", {0: 1.0}, GE, 0.5)],
        {0: 1.0},
    )
    res = find_first_feasible(model, SolveBudget(wall_seconds=10.0))
    assert res.status == OPTIMAL
    assert res.nodes == 1
    assert abs(res.incumbent.objective - 0.5) <= 1e-9


def _oracle_instances():
    rng = random.Random(123)
    out = []
    for k in range(12):
        out.append(knapsack(rng.randint(8, 15), seed=rng.randrange(10**6)))
        out.append(set_cover(rng.randint(6, 12), rng.randint(6, 15), seed=rng.randrange(10**6)))
        out.append(independent_set(rng.randint(8, 15), 0.3, seed=rng.randrange(10**6)))
    return out


def test_oracle_equivalence_and_dual_bounds():
    for model in _oracle_instances():
        optimum = binary_optimum(model)
        res = solve_mip(model, budget=SolveBudget(wall_seconds=60.0, node_limit=200000))
        assert optimum is not None
        assert res.status == OPTIMAL
        assert res.incumbent.objective == optimum
        assert res.dual_bound <= optimum + 1e-9
        assert optimum <= res.incumbent.objective


def test_seed_determinism_with_node_limit():
    model = independent_set(14, 0.3, seed=6)
    budget = SolveBudget(node_limit=50)
    a = solve_mip(model, budget=budget)
    b = solve_mip(model, budget=budget)
    assert a.nodes == b.nodes
    assert (a.incumbent is None) == (b.incumbent is None)
    if a.incumbent is not None:
        assert a.incumbent.values == b.incumbent.values


def test_simulated_clock_charges_nodes():
    clock = SimulatedClock(0.5)
    model = knapsack(10, seed=1)
    res = solve_mip(model, budget=SolveBudget(wall_seconds=2.0), clock=clock)
    # 2s at 0.5s per node admits 4 nodes at most
    assert res.nodes <= 4
    assert clock.now() == res.nodes * 0.5


def test_backend_registry():
    backend = get_backend("reference")
    assert backend.name == "reference"
    with pytest.raises(ValueError):
        get_backend("gurobi")


def test_cancellation_stops_search():
    import threading

    event = threading.Event()
    event.set()
    model = knapsack(12, seed=3)
    res = solve_mip(model, budget=SolveBudget(wall_seconds=60.0), cancel=event)
    assert res.nodes == 0
    assert res.status == "unknown"


def _failing_lp(monkeypatch, failing_calls):
    """Make the given solve_relaxation calls (1-based) hit the iteration limit."""
    real = parlns.subsolver.solve_relaxation
    calls = []

    def solve(*args, **kwargs):
        calls.append(kwargs.get("warm") is not None)
        if len(calls) in failing_calls:
            return LpResult(LP_ITERATION_LIMIT, iterations=1)
        return real(*args, **kwargs)

    monkeypatch.setattr(parlns.subsolver, "solve_relaxation", solve)
    return calls


def test_failed_warm_node_lp_is_retried_cold(monkeypatch):
    model = knapsack(12, seed=9)
    expected = solve_mip(model, budget=SolveBudget(wall_seconds=30.0))
    calls = _failing_lp(monkeypatch, {2})
    res = solve_mip(model, budget=SolveBudget(wall_seconds=30.0))
    assert calls[1] and not calls[2]  # the warm child, then its cold retry
    assert res.status == OPTIMAL
    assert res.dropped_nodes == 0
    assert res.incumbent.objective == expected.incumbent.objective
    assert res.nodes == expected.nodes


def test_node_lp_failing_once_is_dropped_and_the_search_goes_on(monkeypatch):
    model = knapsack(12, seed=9)
    calls = _failing_lp(monkeypatch, {1})  # the root, solved cold
    res = solve_mip(model, budget=SolveBudget(wall_seconds=30.0))
    assert res.dropped_nodes == 1
    assert res.status == UNKNOWN
    assert res.dual_bound == -float("inf")

    warm = evaluate(model, tuple(0.0 for _ in model.variables))
    calls = _failing_lp(monkeypatch, {2, 3})  # a child, warm and cold
    res = solve_mip(model, warm_start=warm, budget=SolveBudget(wall_seconds=30.0))
    assert len(calls) > 3
    assert res.nodes > 2
    assert res.dropped_nodes == 1
    assert res.status == FEASIBLE
    assert res.dual_bound <= binary_optimum(model) + 1e-9


def test_dropped_node_never_claims_infeasibility(monkeypatch):
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
    _failing_lp(monkeypatch, {1})
    res = solve_mip(model, budget=SolveBudget(wall_seconds=10.0))
    assert res.status == UNKNOWN
    assert res.dropped_nodes == 1


class _CancelAfter:
    """An event that reads as set from its (k+1)-th check on."""

    def __init__(self, k):
        self.checks = 0
        self.k = k

    def is_set(self):
        self.checks += 1
        return self.checks > self.k


def test_cancel_inside_a_node_lp_stops_the_search():
    model = independent_set(60, 0.1, seed=7)
    # the first check passes the loop head and the next two a pivot each
    cancel = _CancelAfter(3)
    res = solve_mip(model, budget=SolveBudget(wall_seconds=60.0), cancel=cancel)
    assert cancel.checks == 4  # the fourth stopped the LP before its third pivot
    assert res.nodes == 0
    assert res.dropped_nodes == 0
    assert res.status == UNKNOWN
    assert res.dual_bound == -float("inf")

    warm = evaluate(model, tuple(0.0 for _ in model.variables))
    res = solve_mip(
        model, warm_start=warm, budget=SolveBudget(wall_seconds=60.0), cancel=_CancelAfter(3)
    )
    assert res.status == FEASIBLE
    assert res.incumbent.objective == warm.objective
    assert res.dual_bound == -float("inf")  # the open root still bounds it


class _TickingClock:
    """Wall-like clock that moves a fixed step every time it is read."""

    def __init__(self, step):
        self.step = step
        self.t = 0.0

    def now(self):
        self.t += self.step
        return self.t

    def charge_nodes(self, count=1):
        pass


def test_deadline_inside_a_node_lp_stops_the_search():
    model = independent_set(60, 0.1, seed=7)
    clock = _TickingClock(1.0)
    res = solve_mip(model, budget=SolveBudget(wall_seconds=5.5), clock=clock)
    # reads: start 1.0 (deadline 6.5), loop head 2.0, pivot checks 3.0 to
    # 6.0, the stop at 7.0, and the final elapsed time 8.0
    assert clock.t == 8.0
    assert res.nodes == 0
    assert res.dropped_nodes == 0
    assert res.status == UNKNOWN
