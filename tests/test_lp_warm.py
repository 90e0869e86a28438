"""Warm-started node LPs against cold solves and the vertex oracle.

Each case is a random LP whose feasible region is bounded, stated with free,
upper-only and negative-bounded variables and with equality rows. A free or
upper-only variable is kept inside a box by explicit rows, so the vertex
oracle can be handed the same region with finite bounds. A sequence of
branching-style bound tightenings then re-solves each node from its parent's
optimal basis.
"""

import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from parlns.instances import independent_set
from parlns.lp import (
    LP_INFEASIBLE,
    LP_OPTIMAL,
    build_relaxation,
    solve_lp,
    solve_relaxation,
)
from parlns.model import (
    CONTINUOUS,
    EQ,
    GE,
    INF,
    LE,
    MINIMIZE,
    LinearConstraint,
    Variable,
    make_model,
)

from support import lp_vertex_optimum

KINDS = ("box", "negative", "upper_only", "free")


def _tenths(draw, lo, hi):
    return draw(st.integers(lo, hi)) / 10


@st.composite
def lp_cases(draw):
    n = draw(st.integers(2, 4))
    kinds = [draw(st.sampled_from(KINDS)) for _ in range(n)]
    bounds, box = [], []  # the model's bounds, and the box rows keep x in
    for kind in kinds:
        if kind == "negative":
            lo, hi = _tenths(draw, -50, -20), _tenths(draw, -15, -5)
        else:
            lo, hi = _tenths(draw, -30, 0), _tenths(draw, 5, 30)
        box.append((lo, hi))
        if kind == "upper_only":
            bounds.append((-INF, hi))
        elif kind == "free":
            bounds.append((-INF, INF))
        else:
            bounds.append((lo, hi))
    point = [_tenths(draw, round(lo * 10), round(hi * 10)) for lo, hi in box]

    constraints = []
    for i in range(draw(st.integers(1, 4))):
        coefs = {j: float(draw(st.integers(-5, 5))) for j in range(n) if draw(st.booleans())}
        coefs = {j: v for j, v in coefs.items() if v != 0.0} or {draw(st.integers(0, n - 1)): 1.0}
        relation = draw(st.sampled_from((LE, LE, GE, GE, EQ)))
        activity = round(sum(v * point[j] for j, v in coefs.items()), 6)
        if relation == EQ:
            rhs = activity
        else:
            # a negative margin may cut the drawn point off, or everything
            margin = _tenths(draw, -20, 20)
            rhs = activity + margin if relation == LE else activity - margin
        constraints.append(LinearConstraint(f"c{i}", coefs, relation, round(rhs, 6)))
    for j, (lo, hi) in enumerate(box):
        if bounds[j][0] == -INF:
            constraints.append(LinearConstraint(f"lo{j}", {j: 1.0}, GE, lo))
        if bounds[j][1] == INF:
            constraints.append(LinearConstraint(f"hi{j}", {j: 1.0}, LE, hi))

    objective = {j: float(draw(st.integers(-5, 5))) for j in range(n)}
    model = make_model(
        "warm",
        MINIMIZE,
        [Variable(f"x{j}", CONTINUOUS, lo, hi) for j, (lo, hi) in enumerate(bounds)],
        constraints,
        objective,
    )
    branches = draw(st.lists(st.tuples(st.integers(0, n - 1), st.booleans()), max_size=4))
    return model, box, branches


def _oracle(model, lower, upper, box):
    """Status and objective of the vertex oracle over the same region."""
    lo = np.maximum(lower, [b[0] for b in box])
    hi = np.minimum(upper, [b[1] for b in box])
    if np.any(lo > hi):
        return LP_INFEASIBLE, None
    bounded = make_model(
        "oracle",
        MINIMIZE,
        [
            Variable(v.name, CONTINUOUS, float(a), float(b))
            for v, a, b in zip(model.variables, lo, hi)
        ],
        model.constraints,
        dict(model.objective),
    )
    optimum = lp_vertex_optimum(bounded)
    return (LP_INFEASIBLE, None) if optimum is None else (LP_OPTIMAL, optimum)


def _assert_matches(result, status, optimum):
    assert result.status == status
    if status == LP_OPTIMAL:
        assert abs(result.objective - optimum) <= 1e-6 * max(1.0, abs(optimum))


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(lp_cases())
def test_warm_branching_matches_cold_and_oracle(case):
    model, box, branches = case
    relax = build_relaxation(model)
    lower, upper = relax.lower.copy(), relax.upper.copy()
    parent = solve_relaxation(relax)
    _assert_matches(parent, *_oracle(model, lower, upper, box))
    for j, go_up in branches:
        if parent.status != LP_OPTIMAL:
            break
        value = parent.values[j]
        if go_up:
            lower[j] = math.ceil(value) if value != math.ceil(value) else value + 0.5
        else:
            upper[j] = math.floor(value) if value != math.floor(value) else value - 0.5
        expected = _oracle(model, lower, upper, box)
        cold = solve_relaxation(relax, lower, upper)
        warm = solve_relaxation(relax, lower, upper, warm=(parent.basis, parent.pos))
        _assert_matches(cold, *expected)
        _assert_matches(warm, *expected)
        parent = warm


def test_unchanged_bounds_resolve_without_pivots():
    relax = build_relaxation(independent_set(20, 0.3, seed=4))
    root = solve_relaxation(relax)
    again = solve_relaxation(relax, warm=(root.basis, root.pos))
    assert again.status == LP_OPTIMAL
    assert again.iterations == 0
    assert abs(again.objective - root.objective) <= 1e-9


def test_warm_child_takes_fewer_pivots_than_cold():
    relax = build_relaxation(independent_set(30, 0.2, seed=5))
    root = solve_relaxation(relax)
    assert root.status == LP_OPTIMAL
    fractional = [j for j, v in enumerate(root.values) if abs(v - round(v)) > 1e-6]
    assert fractional
    warm_pivots = cold_pivots = 0
    for j in fractional:
        upper = relax.upper.copy()
        upper[j] = 0.0
        cold = solve_relaxation(relax, upper=upper)
        warm = solve_relaxation(relax, upper=upper, warm=(root.basis, root.pos))
        assert warm.status == cold.status == LP_OPTIMAL
        assert abs(warm.objective - cold.objective) <= 1e-6
        warm_pivots += warm.iterations
        cold_pivots += cold.iterations
    assert warm_pivots < cold_pivots


def test_singular_warm_basis_falls_back_to_cold():
    relax = build_relaxation(independent_set(12, 0.3, seed=2))
    root = solve_relaxation(relax)
    singular = root.basis.copy()
    singular[1] = singular[0]
    res = solve_relaxation(relax, warm=(singular, root.pos))
    assert res.status == LP_OPTIMAL
    assert abs(res.objective - root.objective) <= 1e-9


def test_dual_infeasible_or_free_nonbasic_warm_basis_falls_back_to_cold():
    # min -x - y over x + y <= 4, x <= 3 with x, y >= 0 unbounded above:
    # on the slack basis both reduced costs are negative with no upper bound
    unbounded_above = make_model(
        "dual_infeasible",
        MINIMIZE,
        [Variable("x", CONTINUOUS, 0.0, INF), Variable("y", CONTINUOUS, 0.0, INF)],
        [
            LinearConstraint("sum", {0: 1.0, 1: 1.0}, LE, 4.0),
            LinearConstraint("cap", {0: 1.0}, LE, 3.0),
        ],
        {0: -1.0, 1: -1.0},
    )
    # min -y over y <= 1 with a free x that no row uses: x stays nonbasic
    # with no finite bound to sit at
    free_nonbasic = make_model(
        "free_nonbasic",
        MINIMIZE,
        [Variable("x", CONTINUOUS, -INF, INF), Variable("y", CONTINUOUS, 0.0, INF)],
        [LinearConstraint("cap", {1: 1.0}, LE, 1.0)],
        {1: -1.0},
    )
    for model, optimum in ((unbounded_above, -4.0), (free_nonbasic, -1.0)):
        relax = build_relaxation(model)
        m = len(model.constraints)
        slack_basis = np.arange(model.n_vars, model.n_vars + m)
        pos = np.zeros(model.n_vars + m, dtype=np.int8)
        res = solve_relaxation(relax, warm=(slack_basis, pos))
        assert res.status == LP_OPTIMAL
        assert abs(res.objective - optimum) <= 1e-9


def test_packing_lp_cold_start_skips_phase_one():
    # x = 0 satisfies every packing row, so every slack is basic in the crash
    # basis and no artificial needs pivoting out: fewer pivots than rows,
    # where an all-artificial start spends at least one per row
    model = independent_set(60, 0.1, seed=7)
    res = solve_lp(model)
    assert res.status == LP_OPTIMAL
    assert res.iterations < len(model.constraints)
