"""Warm-started node LPs against cold solves and the vertex oracle.

Each case is a random LP whose feasible region is bounded, stated with free,
upper-only and negative-bounded variables and with equality rows. A free or
upper-only variable is kept inside a box by explicit rows, so the vertex
oracle can be handed the same region with finite bounds. A sequence of
branching-style bound tightenings then re-solves each node from its parent's
optimal basis; an appended row or a swapped cost vector re-solves a sub-MIP
root from the base model's optimal basis, also for the proximity roots of
generated instances. Chains of nodes that start from their parent's carried
basis inverse are checked the same way, and the inverse itself against a
fresh one, for appended rows too, and for being left intact by a sibling.
A warm start that fails is followed by the slack start within one solve, and
a model without rows solves to its closed-form box optimum, cold and warm.
A warm optimum's reduced costs equal a fresh pricing bit for bit, and a
child over the same relaxation and inverse starts from them without pricing,
while a start over another relaxation prices again. The slack start is the
warm start from a basis of no rows, and its inverse is the identity bit for
bit.
"""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from parlns import lp
from parlns.instances import independent_set, set_cover
from parlns.lp import (
    LP_INFEASIBLE,
    LP_OPTIMAL,
    LP_STOPPED,
    LP_UNBOUNDED,
    LpResult,
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
from parlns.operators import PROXIMITY, OperatorContext, OperatorSpec, build_neighborhood
from parlns.subsolver import SolveBudget, find_first_feasible

from support import dict_form, lp_vertex_optimum, with_slacks

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
            Variable(name, CONTINUOUS, float(a), float(b))
            for name, a, b in zip(model.column_names, lo, hi)
        ],
        model.constraints,
        dict_form(model).objective,
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
        warm = solve_relaxation(relax, lower, upper, warm=replace(parent, binv=None))
        _assert_matches(cold, *expected)
        _assert_matches(warm, *expected)
        parent = warm


def test_unchanged_bounds_resolve_without_pivots():
    relax = build_relaxation(independent_set(20, 0.3, seed=4))
    root = solve_relaxation(relax)
    again = solve_relaxation(relax, warm=replace(root, binv=None))
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
        warm = solve_relaxation(relax, upper=upper, warm=replace(root, binv=None))
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
    res = solve_relaxation(relax, warm=replace(root, basis=singular, binv=None))
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
        m = len(model.row_names)
        slack_basis = np.arange(model.n_vars, model.n_vars + m)
        pos = np.zeros(model.n_vars + m, dtype=np.int8)
        res = solve_relaxation(relax, warm=LpResult(LP_OPTIMAL, basis=slack_basis, pos=pos))
        assert res.status == LP_OPTIMAL
        assert abs(res.objective - optimum) <= 1e-9


def test_packing_lp_cold_start_skips_phase_one():
    # the slack basis is never singular and needs no artificial column: the
    # dual simplex from it takes fewer pivots than there are rows, where an
    # all-artificial start spends at least one per row
    model = independent_set(60, 0.1, seed=7)
    res = solve_lp(model)
    assert res.status == LP_OPTIMAL
    assert res.iterations < len(model.row_names)


@st.composite
def sub_mip_root_cases(draw):
    """A base LP plus its sub-problem: one appended random row, a swapped
    cost vector, or both, as local branching and proximity build them."""
    base, box, _ = draw(lp_cases())
    n = base.n_vars
    change = draw(st.sampled_from(("row", "cost", "both")))
    records = dict_form(base)
    constraints = list(records.constraints)
    objective = records.objective
    if change in ("row", "both"):
        coefs = {j: float(draw(st.integers(-5, 5))) for j in range(n)}
        coefs = {j: v for j, v in coefs.items() if v != 0.0} or {0: 1.0}
        relation = draw(st.sampled_from((LE, GE)))
        center = sum(v * (box[j][0] + box[j][1]) / 2 for j, v in coefs.items())
        rhs = round(center + _tenths(draw, -30, 30), 6)
        constraints.append(LinearConstraint("appended", coefs, relation, rhs))
    if change in ("cost", "both"):
        objective = {j: float(draw(st.integers(-5, 5))) for j in range(n)}
    sub = make_model("sub", MINIMIZE, records.variables, constraints, objective)
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
    _assert_matches(solve_relaxation(relax, warm=replace(root, binv=None)), *expected)


def test_appended_row_keeps_the_base_optimum_without_pivots():
    # a row the base optimum already satisfies changes nothing: the base
    # basis plus the row's slack is optimal as it stands
    base = independent_set(20, 0.3, seed=4)
    root = solve_lp(base)
    loose = NeighborhoodSpec(rows=(np.ones((1, base.n_vars)), [base.n_vars]))
    sub = apply_neighborhood(base, loose)
    res = solve_relaxation(build_relaxation(sub), warm=replace(root, binv=None))
    assert res.status == LP_OPTIMAL
    assert res.iterations == 0
    assert abs(res.objective - root.objective) <= 1e-9


def _proximity_root(model, percentage):
    """A proximity sub-model around the model's first incumbent, the base
    model's root LP, and the sub-model's relaxation."""
    incumbent = find_first_feasible(model, SolveBudget(node_limit=1000)).incumbent
    spec = build_neighborhood(
        OperatorSpec(PROXIMITY, percentage), OperatorContext(incumbent=incumbent), model
    )
    return solve_lp(model), build_relaxation(apply_neighborhood(model, spec))


def test_proximity_root_warm_starts_from_the_dual_infeasible_base_basis():
    # the swapped cost vector leaves the base optimum dual infeasible; cost
    # shifting starts from it anyway, and the result is the cold one
    model = independent_set(60, 0.1, seed=7)
    for percentage in (5, 15):
        root, relax = _proximity_root(model, percentage)
        cold = solve_relaxation(relax)
        warm = solve_relaxation(relax, warm=replace(root, binv=None))
        assert cold.status == warm.status == LP_OPTIMAL
        assert abs(warm.objective - cold.objective) <= 1e-6 * max(1.0, abs(cold.objective))
        assert warm.iterations < cold.iterations


def test_proximity_root_past_the_lp_bound_is_proven_infeasible_warm():
    # the first set-cover incumbent already meets the LP bound, so the
    # cutoff row is infeasible and the base basis certifies it
    root, relax = _proximity_root(set_cover(30, 40, seed=7), 5)
    cold = solve_relaxation(relax)
    warm = solve_relaxation(relax, warm=replace(root, binv=None))
    assert cold.status == warm.status == LP_INFEASIBLE
    assert warm.iterations < cold.iterations


def _packing_tableau(seed, pivots):
    """A packing LP's tableau at its slack basis, where x = 0 is feasible,
    allowed ``pivots`` pivots."""
    relax = build_relaxation(independent_set(30, 0.2, seed=seed))
    m = relax.A.shape[0]
    c = np.concatenate([relax.c, np.zeros(m)])
    tab = lp._Tableau(
        relax.A,
        relax.b,
        np.concatenate([relax.lower, relax.slack_lower]),
        np.concatenate([relax.upper, relax.slack_upper]),
    )
    tab.basis = np.arange(relax.n_structural, tab.n_cols)
    tab.pos[tab.basis] = lp._BASIC
    tab.binv = np.eye(m)
    tab.start(np.zeros(tab.n_cols))
    tab.limit = pivots
    return tab, c


def _assert_inverse(tab):
    product = tab.binv @ with_slacks(tab.A)[:, tab.basis]
    assert np.max(np.abs(product - np.eye(tab.m))) <= 1e-9


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 50), st.integers(1, 150))
def test_pivots_update_the_basis_inverse_in_place(seed, pivots):
    tab, c = _packing_tableau(seed, pivots)
    buffer = tab.binv
    # fewer pivots than a refactorization interval, which replaces binv
    assert pivots < lp._REFACTOR_EVERY
    lp._optimize(tab, c)
    assert tab.iterations > 0
    assert tab.binv is buffer
    _assert_inverse(tab)


def test_pivot_on_a_non_contiguous_inverse_keeps_the_update():
    tab, c = _packing_tableau(3, 5)
    tab.binv = np.asfortranarray(tab.binv)
    lp._optimize(tab, c)
    assert tab.iterations == 5
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
    full = solve_relaxation(relax, upper=upper, warm=replace(root, binv=None))
    assert full.status == LP_OPTIMAL and full.iterations > 2
    res = solve_relaxation(
        relax, upper=upper, warm=replace(root, binv=None), stop=_stop_after(2)
    )
    assert res.status == LP_STOPPED
    assert res.iterations <= 2


@pytest.mark.parametrize("failure", ["unbounded", "residual"])
def test_failed_warm_start_is_followed_by_the_slack_start(monkeypatch, failure):
    relax = build_relaxation(independent_set(30, 0.2, seed=5))
    root = solve_relaxation(relax)
    fractional = [j for j, v in enumerate(root.values) if abs(v - round(v)) > 1e-6]
    upper = relax.upper.copy()
    upper[fractional] = 0.0
    warm_alone = solve_relaxation(relax, upper=upper, warm=root)
    cold = solve_relaxation(relax, upper=upper)
    assert warm_alone.status == cold.status == LP_OPTIMAL and warm_alone.iterations > 0
    real = lp._solve_from
    starts = []

    def solve_from(system, stop, warm):
        status, tab = real(system, stop, warm)
        starts.append(warm is not None)
        if warm is not None and failure == "unbounded":
            status = LP_UNBOUNDED
        elif warm is not None:
            tab.xb = tab.xb + 1.0  # basic values off the rows
        return status, tab

    monkeypatch.setattr(lp, "_solve_from", solve_from)
    res = solve_relaxation(relax, upper=upper, warm=root)
    assert starts == [True, False]
    assert res.status == LP_OPTIMAL
    assert res.objective == cold.objective
    assert res.iterations == warm_alone.iterations + cold.iterations


def _with_starts(solve, *args, **kwargs):
    """A solve's result and, per start it made, whether it was warm."""
    real, starts = lp._solve_from, []

    def solve_from(system, stop, warm):
        starts.append(warm is not None)
        return real(system, stop, warm)

    with mock.patch.object(lp, "_solve_from", solve_from):
        return solve(*args, **kwargs), starts


# bounds of a model without rows, and the costs its columns get
ROWLESS_BOUNDS = {
    "box": (-1.5, 2.0),
    "negative": (-3.0, -0.5),
    "upper_only": (-INF, 2.5),
    "free": (-INF, INF),
    "fixed": (1.25, 1.25),
}
ROWLESS_COSTS = (-2.0, -1.0, 0.0, 1.0, 3.0)


def _box_optimum(columns):
    """Each column at the bound its cost prefers, at its finite bound (the
    lower one first, else zero) when it costs nothing; None if unbounded."""
    values = []
    for kind, cost in columns:
        lo, up = ROWLESS_BOUNDS[kind]
        if cost > 0:
            if lo == -INF:
                return None
            values.append(lo)
        elif cost < 0:
            if up == INF:
                return None
            values.append(up)
        else:
            values.append(lo if lo > -INF else (up if up < INF else 0.0))
    return values


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(sorted(ROWLESS_BOUNDS)), st.sampled_from(ROWLESS_COSTS)),
        min_size=1,
        max_size=5,
    )
)
def test_rowless_model_solves_to_the_box_optimum_cold_and_warm(columns):
    model = make_model(
        "rowless",
        MINIMIZE,
        [Variable(f"x{j}", CONTINUOUS, *ROWLESS_BOUNDS[kind]) for j, (kind, _) in enumerate(columns)],
        [],
        {j: cost for j, (_, cost) in enumerate(columns)},
    )
    expected = _box_optimum(columns)
    res = solve_lp(model)
    if expected is None:
        assert res.status == LP_UNBOUNDED
        return
    assert res.status == LP_OPTIMAL
    assert res.values.tolist() == expected
    assert res.objective == pytest.approx(sum(c * v for (_, c), v in zip(columns, expected)))
    assert res.iterations == 0
    warm, starts = _with_starts(solve_relaxation, build_relaxation(model), warm=res)
    assert warm.status == LP_OPTIMAL and starts == [True]  # one start: the warm one
    assert np.array_equal(warm.values, res.values)
    assert warm.iterations == 0


@st.composite
def branching_chains(draw):
    """An LP case and a chain of up to twelve branching tightenings."""
    model, box, branches = draw(lp_cases())
    n = model.n_vars
    more = draw(st.lists(st.tuples(st.integers(0, n - 1), st.booleans()), max_size=8))
    return model, box, branches + more


def _assert_carried_inverse(res, relax):
    """The carried inverse is the inverse of the result's basis."""
    product = res.binv @ with_slacks(relax.A)[:, res.basis]
    assert np.max(np.abs(product - np.eye(len(res.basis)))) <= 1e-9
    assert res.since_refactor <= lp._REFACTOR_EVERY


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(branching_chains(), st.integers(1, 3))
def test_carried_inverse_chain_matches_cold_and_oracle(case, refactor_every):
    # each node starts from its parent's basis and carried inverse; a short
    # refactorization interval makes the chain run past it, so the pivot
    # count carried along the chain must trigger the refactorizations
    model, box, branches = case
    relax = build_relaxation(model)
    lower, upper = relax.lower.copy(), relax.upper.copy()
    with mock.patch.object(lp, "_REFACTOR_EVERY", refactor_every):
        parent = solve_relaxation(relax)
        _assert_matches(parent, *_oracle(model, lower, upper, box))
        for j, go_up in branches:
            if parent.status != LP_OPTIMAL:
                break
            _assert_carried_inverse(parent, relax)
            value = parent.values[j]
            if go_up:
                lower[j] = math.ceil(value) if value != math.ceil(value) else value + 0.5
            else:
                upper[j] = math.floor(value) if value != math.floor(value) else value - 0.5
            expected = _oracle(model, lower, upper, box)
            _assert_matches(solve_relaxation(relax, lower, upper), *expected)
            child, starts = _with_starts(solve_relaxation, relax, lower, upper, warm=parent)
            _assert_matches(child, *expected)
            # crossed bounds need no start; otherwise the warm start holds
            assert starts in ([], [True])
            parent = child


def test_carried_inverse_runs_past_the_refactorization_interval():
    # plunges on a 40-row packing LP, every node from its parent's carried
    # inverse, take more pivots than two refactorization intervals; the
    # pivots counted along the chain refactor at least once per interval
    relax = build_relaxation(independent_set(30, 0.2, seed=5))
    upper = relax.upper.copy()
    parent = solve_relaxation(relax)
    total = parent.iterations
    refactors = []
    real_refactor = lp._Tableau.refactor

    def refactor(tab):
        refactors.append(None)
        real_refactor(tab)

    while total <= 2 * lp._REFACTOR_EVERY:
        fractional = [j for j, v in enumerate(parent.values) if abs(v - round(v)) > 1e-6]
        if not fractional:
            upper = relax.upper.copy()  # start another plunge from the root
            fractional = [j for j, v in enumerate(parent.values) if v > 1e-6][:1]
        upper[fractional[0]] = 0.0
        with mock.patch.object(lp._Tableau, "refactor", refactor):
            child = solve_relaxation(relax, upper=upper, warm=parent)
        cold = solve_relaxation(relax, upper=upper)
        assert child.status == cold.status == LP_OPTIMAL
        assert abs(child.objective - cold.objective) <= 1e-9 * max(1.0, abs(cold.objective))
        _assert_carried_inverse(child, relax)
        total += child.iterations
        parent = child
    assert len(refactors) >= total // lp._REFACTOR_EVERY - 1 >= 1


def test_appended_rows_extend_the_inverse_in_closed_form():
    base = independent_set(20, 0.3, seed=4)
    root = solve_lp(base)
    n, m = base.n_vars, len(base.row_names)
    # a cap, sum(x) <= floor(root) - 1, and a cover, sum((j % 3 + 1) x_j) >= 2, as <= rows
    rows = np.array([np.ones(n), -(np.arange(n) % 3 + 1.0)])
    rhs = [math.floor(sum(root.values)) - 1, -2.0]
    sub = build_relaxation(apply_neighborhood(base, NeighborhoodSpec(rows=(rows, rhs))))
    extended = lp._extended_inverse(root.binv, root.basis, sub.A[m:])
    basis = np.concatenate([root.basis, [n + m, n + m + 1]])
    assert np.max(np.abs(extended - lp._invert(sub.A, basis))) <= 1e-9
    res = solve_relaxation(sub, warm=root)
    cold = solve_relaxation(sub)
    assert res.status == cold.status == LP_OPTIMAL
    assert abs(res.objective - cold.objective) <= 1e-9 * max(1.0, abs(cold.objective))


def test_solving_a_child_leaves_the_shared_inverse_unchanged():
    relax = build_relaxation(independent_set(30, 0.2, seed=5))
    root = solve_relaxation(relax)
    j = next(j for j, v in enumerate(root.values) if abs(v - round(v)) > 1e-6)
    before = root.binv.copy()
    assert not root.binv.flags.writeable
    upper = relax.upper.copy()
    upper[j] = 0.0
    floor_child = solve_relaxation(relax, upper=upper, warm=root)
    assert floor_child.status == LP_OPTIMAL and floor_child.iterations > 0
    assert np.array_equal(root.binv, before)
    lower = relax.lower.copy()
    lower[j] = 1.0
    ceil_child = solve_relaxation(relax, lower=lower, warm=root)
    cold = solve_relaxation(relax, lower=lower)
    assert ceil_child.status == cold.status
    if cold.status == LP_OPTIMAL:
        assert abs(ceil_child.objective - cold.objective) <= 1e-9 * max(1.0, abs(cold.objective))
    assert np.array_equal(root.binv, before)


def _fresh_reduced_costs(relax, res):
    """``c - price(c_B @ binv)`` at a result's basis and inverse."""
    c = np.concatenate([relax.c, np.zeros(relax.b.shape[0])])
    y = c[res.basis] @ res.binv
    return c - np.concatenate([y @ relax.A, y])


def _counting_prices(monkeypatch):
    """The list each ``_Tableau.price`` call appends its ``y`` to."""
    prices = []
    price = lp._Tableau.price
    monkeypatch.setattr(lp._Tableau, "price", lambda tab, y: prices.append(y) or price(tab, y))
    return prices


def test_a_warm_optimum_carries_its_reduced_costs_and_a_child_reuses_them(monkeypatch):
    relax = build_relaxation(independent_set(30, 0.2, seed=5))
    root = solve_relaxation(relax)
    assert root.iterations > 0 and root.reduced_costs is None  # refactored at the optimum
    parent, lower, upper = root, relax.lower.copy(), relax.upper.copy()
    for _ in range(4):  # a plunge, each node from its parent
        j = next((j for j, v in enumerate(parent.values) if abs(v - round(v)) > 1e-6), None)
        if j is None:
            break
        upper[j] = 0.0
        child = solve_relaxation(relax, lower, upper, warm=parent)
        assert child.status == LP_OPTIMAL
        assert not child.reduced_costs.flags.writeable and child.priced is relax
        assert child.reduced_costs.tobytes() == _fresh_reduced_costs(relax, child).tobytes()
        parent = child
    assert parent is not root

    prices = _counting_prices(monkeypatch)
    again = solve_relaxation(relax, lower, upper, warm=parent)
    assert (again.iterations, prices) == (0, [])  # priced by the parent
    assert again.reduced_costs.tobytes() == parent.reduced_costs.tobytes()
    solve_relaxation(relax, lower, upper, warm=replace(parent, binv=None))
    assert len(prices) == 1  # a refactored inverse prices afresh


def test_a_warm_start_prices_again_over_another_relaxation(monkeypatch):
    relax = build_relaxation(independent_set(30, 0.2, seed=5))
    root = solve_relaxation(relax)
    j = next(j for j, v in enumerate(root.values) if abs(v - round(v)) > 1e-6)
    upper = relax.upper.copy()
    upper[j] = 0.0
    child = solve_relaxation(relax, upper=upper, warm=root)
    assert child.status == LP_OPTIMAL and child.priced is relax
    # the same costs and rows, but another relaxation object
    other = replace(relax, upper=upper)
    assert other.c is relax.c and other.A is relax.A

    prices = _counting_prices(monkeypatch)
    grandchild = solve_relaxation(relax, upper=upper, warm=child)
    assert (grandchild.iterations, len(prices)) == (0, 0)  # copies the child's
    again = solve_relaxation(other, warm=child)
    assert (again.iterations, len(prices)) == (0, 1)  # priced afresh, once
    assert again.priced is other and again.objective == child.objective


def _rowless(n):
    variables = [Variable(f"x{j}", CONTINUOUS, -1.0, 2.0) for j in range(n)]
    return make_model("rowless", MINIMIZE, variables, [], {j: (-1.0) ** j for j in range(n)})


@pytest.mark.parametrize(
    "model", [_rowless(3), set_cover(6, 8, seed=1), independent_set(30, 0.2, seed=5)],
    ids=["rowless", "set_cover", "independent_set"],
)
def test_the_slack_start_is_the_identity_bit_for_bit(monkeypatch, model):
    relax = build_relaxation(model)
    n, m = relax.n_structural, relax.b.shape[0]
    starts = []
    start = lp._Tableau.start

    def recording_start(tab, x):
        starts.append((tab.basis.copy(), tab.binv.copy(), tab.since_refactor))
        start(tab, x)

    monkeypatch.setattr(lp._Tableau, "start", recording_start)
    assert solve_relaxation(relax).status == LP_OPTIMAL
    [(basis, binv, since_refactor)] = starts
    assert basis.tolist() == list(range(n, n + m))
    assert binv.shape == (m, m) and binv.tobytes() == np.eye(m).tobytes()
    assert since_refactor == 0
