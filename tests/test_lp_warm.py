"""Warm-started node LPs against cold solves and the vertex oracle.

Each case is a random LP whose feasible region is bounded, stated with free,
upper-only and negative-bounded variables and with equality rows. A free or
upper-only variable is kept inside a box by explicit rows, so the vertex
oracle can be handed the same region with finite bounds. A sequence of
branching-style bound tightenings then re-solves each node from its parent's
optimal basis; an appended row or a swapped cost vector re-solves a sub-MIP
root from the base model's optimal basis.
"""

import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from parlns import lp
from parlns.instances import independent_set
from parlns.lp import (
    LP_INFEASIBLE,
    LP_OPTIMAL,
    LP_STOPPED,
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
    NeighborhoodSpec,
    Variable,
    apply_neighborhood,
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


@st.composite
def sub_mip_root_cases(draw):
    """A base LP plus its sub-problem: one appended random row, a swapped
    cost vector, or both, as local branching and proximity build them."""
    base, box, _ = draw(lp_cases())
    n = base.n_vars
    change = draw(st.sampled_from(("row", "cost", "both")))
    constraints = list(base.constraints)
    objective = dict(base.objective)
    if change in ("row", "both"):
        coefs = {j: float(draw(st.integers(-5, 5))) for j in range(n)}
        coefs = {j: v for j, v in coefs.items() if v != 0.0} or {0: 1.0}
        relation = draw(st.sampled_from((LE, GE)))
        center = sum(v * (box[j][0] + box[j][1]) / 2 for j, v in coefs.items())
        rhs = round(center + _tenths(draw, -30, 30), 6)
        constraints.append(LinearConstraint("appended", coefs, relation, rhs))
    if change in ("cost", "both"):
        objective = {j: float(draw(st.integers(-5, 5))) for j in range(n)}
    sub = make_model("sub", MINIMIZE, list(base.variables), constraints, objective)
    return base, sub, box


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sub_mip_root_cases())
def test_warm_start_from_a_smaller_relaxation_matches_cold_and_oracle(case):
    base, sub, box = case
    root = solve_relaxation(build_relaxation(base))
    if root.status != LP_OPTIMAL or root.basis is None:
        return
    relax = build_relaxation(sub)
    expected = _oracle(sub, relax.lower, relax.upper, box)
    _assert_matches(solve_relaxation(relax), *expected)
    _assert_matches(solve_relaxation(relax, warm=(root.basis, root.pos)), *expected)


def test_appended_row_keeps_the_base_optimum_without_pivots():
    # a row the base optimum already satisfies changes nothing: the base
    # basis plus the row's slack is optimal as it stands
    base = independent_set(20, 0.3, seed=4)
    root = solve_lp(base)
    loose = LinearConstraint("loose", {j: 1.0 for j in range(base.n_vars)}, LE, base.n_vars)
    sub = apply_neighborhood(base, NeighborhoodSpec(extra_constraints=(loose,)))
    res = solve_relaxation(build_relaxation(sub), warm=(root.basis, root.pos))
    assert res.status == LP_OPTIMAL
    assert res.iterations == 0
    assert abs(res.objective - root.objective) <= 1e-9


def _packing_tableau(seed):
    relax = build_relaxation(independent_set(30, 0.2, seed=seed))
    m = relax.A_full.shape[0]
    c = np.concatenate([relax.c, np.zeros(m)])
    tab = lp._Tableau(
        relax.A_full,
        relax.b,
        np.concatenate([relax.lower, relax.slack_lower]),
        np.concatenate([relax.upper, relax.slack_upper]),
    )
    tab.set_basis(np.arange(relax.n_structural, tab.n_cols))  # x = 0 is feasible
    return tab, c


def _assert_inverse(tab):
    product = tab.binv @ tab.A[:, tab.basis]
    assert np.max(np.abs(product - np.eye(tab.m))) <= 1e-9


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 50), st.integers(1, 150))
def test_pivots_update_the_basis_inverse_in_place(seed, pivots):
    tab, c = _packing_tableau(seed)
    buffer = tab.binv
    state = lp._new_state(0, None)
    # fewer pivots than a refactorization interval, which replaces binv
    assert pivots < lp._REFACTOR_EVERY
    lp._optimize(tab, c, tab.n_cols, state, pivots)
    assert state["iterations"] > 0
    assert tab.binv is buffer
    _assert_inverse(tab)


def test_pivot_on_a_non_contiguous_inverse_keeps_the_update():
    tab, c = _packing_tableau(3)
    tab.binv = np.asfortranarray(tab.binv)
    state = lp._new_state(0, None)
    lp._optimize(tab, c, tab.n_cols, state, 5)
    assert state["iterations"] == 5
    assert tab.binv.flags.c_contiguous
    _assert_inverse(tab)


def _stop_after(k):
    """A stop callable that trips on its (k+1)-th call, i.e. after k pivots."""
    calls = []

    def stop():
        calls.append(None)
        return len(calls) > k

    return stop


def test_stop_ends_a_cold_solve_within_k_pivots():
    relax = build_relaxation(independent_set(60, 0.1, seed=7))
    full = solve_relaxation(relax)
    assert full.iterations > 10
    for k in (0, 1, 4, 10):
        res = solve_relaxation(relax, stop=_stop_after(k))
        assert res.status == LP_STOPPED
        assert res.iterations <= k


def test_stop_ends_a_warm_solve_without_a_cold_fallback():
    relax = build_relaxation(independent_set(30, 0.2, seed=5))
    root = solve_relaxation(relax)
    fractional = [j for j, v in enumerate(root.values) if abs(v - round(v)) > 1e-6]
    upper = relax.upper.copy()
    upper[fractional] = 0.0
    full = solve_relaxation(relax, upper=upper, warm=(root.basis, root.pos))
    assert full.status == LP_OPTIMAL and full.iterations > 2
    res = solve_relaxation(
        relax, upper=upper, warm=(root.basis, root.pos), stop=_stop_after(2)
    )
    assert res.status == LP_STOPPED
    assert res.iterations <= 2
