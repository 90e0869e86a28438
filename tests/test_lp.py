import random

from parlns.lp import (
    LP_INFEASIBLE,
    LP_OPTIMAL,
    LP_UNBOUNDED,
    solve_lp,
)
from parlns.model import (
    CONTINUOUS,
    GE,
    INF,
    LE,
    MINIMIZE,
    LinearConstraint,
    Variable,
    make_model,
)

from support import _point_feasible, lp_vertex_optimum, random_lp


def test_box_only_model():
    model = make_model(
        "box", MINIMIZE, [Variable("x", CONTINUOUS, 0.0, 1.0)], [], {0: -1.0}
    )
    res = solve_lp(model)
    assert res.status == LP_OPTIMAL
    assert res.values == (1.0,)
    assert res.objective == -1.0


def test_infeasible_pair():
    model = make_model(
        "inf",
        MINIMIZE,
        [Variable("x", CONTINUOUS, 0.0, 10.0)],
        [
            LinearConstraint("ge", {0: 1.0}, GE, 1.0),
            LinearConstraint("le", {0: 1.0}, LE, 0.0),
        ],
        {0: 1.0},
    )
    assert solve_lp(model).status == LP_INFEASIBLE


def test_unbounded_direction():
    model = make_model(
        "unb",
        MINIMIZE,
        [Variable("x", CONTINUOUS, 0.0, INF)],
        [LinearConstraint("c", {0: 1.0}, GE, 1.0)],
        {0: -1.0},
    )
    assert solve_lp(model).status == LP_UNBOUNDED


def test_random_lps_match_vertex_enumeration_oracle():
    rng = random.Random(20240)
    checked = 0
    for _ in range(60):
        model = random_lp(rng)
        oracle = lp_vertex_optimum(model)
        res = solve_lp(model)
        if oracle is None:
            assert res.status == LP_INFEASIBLE
        else:
            assert res.status == LP_OPTIMAL
            assert abs(res.objective - oracle) <= 1e-6 * max(1.0, abs(oracle))
        checked += 1
    assert checked == 60


def test_deterministic_repeat():
    rng = random.Random(5)
    model = random_lp(rng)
    first = solve_lp(model)
    second = solve_lp(model)
    assert first.status == second.status
    assert first.objective == second.objective
    assert first.values == second.values


def test_optimal_point_is_locally_optimal():
    # perturbing along random directions either exits the region or worsens
    rng = random.Random(77)
    for _ in range(10):
        model = random_lp(rng)
        res = solve_lp(model)
        if res.status != LP_OPTIMAL:
            continue
        c = model.objective
        for _ in range(20):
            direction = [rng.uniform(-1.0, 1.0) for _ in model.variables]
            point = [v + 1e-3 * d for v, d in zip(res.values, direction)]
            delta = sum(c.get(j, 0.0) * 1e-3 * d for j, d in enumerate(direction))
            if _point_feasible(model, point, tol=0.0) and delta < -1e-6:
                # strictly improving direction must leave the feasible region
                raise AssertionError("found a feasible strict descent direction")


def test_iteration_limit_status(monkeypatch):
    from parlns import lp
    from parlns.lp import LP_ITERATION_LIMIT

    rng = random.Random(8)
    model = random_lp(rng)
    monkeypatch.setattr(lp, "_ITERATION_LIMIT", 0)
    res = solve_lp(model)
    assert res.status == LP_ITERATION_LIMIT
    assert res.values is None


def test_equality_constraints():
    model = make_model(
        "eq",
        MINIMIZE,
        [Variable("x", CONTINUOUS, 0.0, 5.0), Variable("y", CONTINUOUS, 0.0, 5.0)],
        [LinearConstraint("sum", {0: 1.0, 1: 1.0}, "=", 4.0)],
        {0: 1.0, 1: 3.0},
    )
    res = solve_lp(model)
    assert res.status == LP_OPTIMAL
    assert abs(res.objective - (4.0 * 1.0)) <= 1e-9  # x=4, y=0
