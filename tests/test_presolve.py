"""The presolve of a fixing neighbourhood's sub-MIP against the unpresolved search.

``subsolver._presolve`` decides whether ``solve_mip`` searches the presolved
sub-problem; each test here forces one side or the other by patching it, so
the same sub-problem is solved both ways. Real crossover, mutation, rens and
rins sub-problems of the benchmark instances must give the same status,
objective and incumbent; random small MIPs with every column kind, relation
and bound shape must give the same status and objective, and the binary
enumeration oracle's optimum where every column is binary.
"""

import random
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parlns.subsolver
from parlns.clock import SimulatedClock
from parlns.instances import independent_set, set_cover
from parlns.lp import LP_INFEASIBLE, solve_lp, solve_relaxation
from parlns.model import (
    BINARY,
    CONTINUOUS,
    EQ,
    GE,
    INF,
    INTEGER,
    LE,
    MINIMIZE,
    LinearConstraint,
    Variable,
    apply_neighborhood,
    evaluate,
    make_model,
    presolve,
)
from parlns.operators import (
    CROSSOVER,
    MUTATION,
    RENS,
    RINS,
    EmptyNeighborhood,
    OperatorContext,
    OperatorSpec,
    build_neighborhood,
)
from parlns.subsolver import INFEASIBLE, OPTIMAL, SolveBudget, find_first_feasible, solve_mip

from support import (
    apply_neighborhood_oracle, binary_optimum, dict_form, fixing_spec, solution_fields,
)

AMPLE = SolveBudget(node_limit=20000)


def _solve(sub, presolved, warm_start=None, root_basis=None, clock=None):
    """``solve_mip`` on ``sub`` with the presolve forced on or off."""
    rule = (lambda relax, root: presolve(relax)) if presolved else (lambda relax, root: None)
    with mock.patch.object(parlns.subsolver, "_presolve", rule):
        return solve_mip(sub, warm_start, AMPLE, clock=clock, root_basis=root_basis)


def _assert_same_search(sub, warm_start=None, root_basis=None):
    plain = _solve(sub, False, warm_start, root_basis)
    reduced = _solve(sub, True, warm_start, root_basis)
    assert reduced.status == plain.status
    assert solution_fields(reduced.incumbent) == solution_fields(plain.incumbent)
    return plain, reduced


# --------------------------------------------------------------------------
# real sub-MIPs of the benchmark instances


def _worker_state(model):
    """A root LP, an incumbent and an archived solution as a worker holds them."""
    root = solve_lp(model)
    first = find_first_feasible(model, SolveBudget(node_limit=2000), root_basis=root).incumbent
    better = solve_mip(model, first, SolveBudget(node_limit=15), root_basis=root).incumbent
    return root, better, first


@pytest.mark.parametrize(
    "model", [independent_set(60, 0.1, 7), set_cover(30, 40, 7)], ids=lambda m: m.name
)
@pytest.mark.parametrize(
    "op",
    [OperatorSpec(CROSSOVER), OperatorSpec(MUTATION, 30), OperatorSpec(RENS, 40), OperatorSpec(RINS, 20)],
    ids=lambda op: op.identifier,
)
def test_fixing_sub_mips_give_the_same_result_presolved(model, op):
    root, incumbent, archived = _worker_state(model)
    solved = 0
    for seed in range(3):
        ctx = OperatorContext(incumbent, (archived,), root.values, random.Random(seed))
        try:
            spec = build_neighborhood(op, ctx, model)
        except EmptyNeighborhood:
            continue
        sub = apply_neighborhood(model, spec)
        plain, reduced = _assert_same_search(sub, incumbent, root)
        assert reduced.incumbent is not None
        assert len(reduced.incumbent.values) == model.n_vars
        assert solution_fields(evaluate(sub, reduced.incumbent.values)) == solution_fields(
            reduced.incumbent)
        solved += 1
    # the set cover's root LP is integral, so rens and rins fix every column
    assert solved or (op.family in (RENS, RINS) and model.name.startswith("setcover"))


def test_the_rule_presolves_where_the_root_point_leaves_the_box():
    # the indepset root is half-integral, so a fixing moves it; the set-cover
    # root lies in the fixing's box, where the root basis stays primal feasible
    for model, presolved in ((independent_set(60, 0.1, 7), True), (set_cover(30, 40, 7), False)):
        root, incumbent, archived = _worker_state(model)
        ctx = OperatorContext(incumbent, (archived,), root.values, random.Random(0))
        sub = apply_neighborhood(model, build_neighborhood(OperatorSpec(MUTATION, 30), ctx, model))
        assert (parlns.subsolver._presolve(sub, root) is not None) == presolved
        assert parlns.subsolver._presolve(sub, None) is not None
    # nothing fixed: nothing to drop
    model = independent_set(20, 0.2, 3)
    assert parlns.subsolver._presolve(model.relaxation, None) is None


def test_one_build_relaxation_per_solve(monkeypatch):
    model = independent_set(60, 0.1, 7)
    root, incumbent, archived = _worker_state(model)
    ctx = OperatorContext(incumbent, (archived,), root.values, random.Random(1))
    sub = apply_neighborhood(model, build_neighborhood(OperatorSpec(CROSSOVER), ctx, model))
    builds, rows = [], []
    build, solve = parlns.subsolver.build_relaxation, parlns.subsolver.solve_relaxation

    def counted_build(model):
        builds.append(model)
        return build(model)

    def counted_solve(relax, *args, **kwargs):
        rows.append(relax.A.shape)
        return solve(relax, *args, **kwargs)

    monkeypatch.setattr(parlns.subsolver, "build_relaxation", counted_build)
    monkeypatch.setattr(parlns.subsolver, "solve_relaxation", counted_solve)
    result = solve_mip(sub, incumbent, AMPLE, root_basis=root)
    assert builds == [sub]
    assert len(rows) == result.nodes
    assert all(m < sub.A.shape[0] and n < sub.A.shape[1] for m, n in rows)


# --------------------------------------------------------------------------
# edge cases


def _binaries(n):
    return [Variable(f"x{j}", BINARY) for j in range(n)]


def test_crossed_singleton_bounds_are_infeasible_at_one_node():
    # with x0 = 0, the rows leave x1 >= 0.3 and x1 <= 0.6; rounded inward on
    # the binary x1 they intersect to the empty [1, 0]
    model = make_model(
        "crossed", MINIMIZE, _binaries(3),
        [LinearConstraint("up", {0: 1.0, 1: 1.0}, GE, 0.3),
         LinearConstraint("down", {0: -1.0, 1: 5.0}, LE, 3.0),
         LinearConstraint("other", {1: 1.0, 2: 1.0}, LE, 2.0)],
        {1: 1.0, 2: -1.0},
    )
    sub = apply_neighborhood(model, fixing_spec(model, {0: 0.0}))
    reduced = presolve(sub).relaxation
    assert np.count_nonzero(reduced.lower > reduced.upper)
    assert solve_relaxation(reduced).status == LP_INFEASIBLE
    clock = SimulatedClock(0.25)
    result = _solve(sub, True, clock=clock)
    assert (result.status, result.nodes, clock.now()) == (INFEASIBLE, 1, 0.25)
    assert _solve(sub, False).status == INFEASIBLE


def test_an_empty_violated_row_is_infeasible_at_one_node():
    model = make_model(
        "empty", MINIMIZE, _binaries(3),
        [LinearConstraint("pair", {0: 1.0, 1: 1.0}, LE, 1.0),
         LinearConstraint("free", {1: 1.0, 2: 1.0}, GE, 1.0)],
        {2: 1.0},
    )
    sub = apply_neighborhood(model, fixing_spec(model, {0: 1.0, 1: 1.0}))
    reduced = presolve(sub).relaxation
    assert reduced.lower.tolist() == [1.0] and reduced.upper.tolist() == [0.0]
    clock = SimulatedClock(0.25)
    result = _solve(sub, True, clock=clock)
    assert (result.status, result.nodes, clock.now()) == (INFEASIBLE, 1, 0.25)
    assert _solve(sub, False).status == INFEASIBLE


def test_a_sub_mip_that_fixes_every_column_keeps_one():
    model = independent_set(8, 0.4, 2)
    sub = apply_neighborhood(model, fixing_spec(model, {j: 0.0 for j in range(8)}))
    reduced = presolve(sub)
    assert reduced.free.tolist() == [7]
    plain, presolved = _assert_same_search(sub)
    assert presolved.status == OPTIMAL and presolved.incumbent.objective == 0.0


def test_a_warm_start_that_breaks_a_fixing_is_ignored():
    model = independent_set(20, 0.3, 4)
    zeros = evaluate(model, [0.0] * 20)
    assert zeros.feasible and zeros.integral
    best = solve_mip(model, None, AMPLE).incumbent
    one = next(j for j, v in enumerate(best.values) if v == 1.0)
    fixings = {j: best.values[j] for j in range(10)}
    fixings[one] = 1.0
    sub = apply_neighborhood(model, fixing_spec(model, fixings))
    assert not evaluate(sub, zeros.values).feasible
    plain, presolved = _assert_same_search(sub, warm_start=zeros)
    assert presolved.status == OPTIMAL
    assert presolved.incumbent.values[one] == 1.0
    assert presolved.incumbent.objective == best.objective


def test_infinite_bounds_form_no_nan():
    # a free, an upper-only and a lower-only column, in rows and singletons
    variables = [
        Variable("free", CONTINUOUS, -INF, INF),
        Variable("upper_only", INTEGER, -INF, 3.0),
        Variable("lower_only", CONTINUOUS, -2.0, INF),
        Variable("b", BINARY),
    ]
    model = make_model(
        "inf", MINIMIZE, variables,
        [LinearConstraint("box_free", {0: 1.0, 3: 2.0}, LE, 4.0),
         LinearConstraint("box_free_low", {0: 1.0, 3: -1.0}, GE, -4.0),
         LinearConstraint("link", {0: 1.0, 1: 1.0, 2: -1.0}, EQ, 1.0),
         LinearConstraint("box_up", {1: 1.0, 3: 1.0}, GE, -5.5),
         LinearConstraint("box_low", {2: 1.0}, LE, 6.0)],
        {0: 1.0, 1: 2.0, 2: 1.0, 3: -1.0},
    )
    sub = apply_neighborhood(model, fixing_spec(model, {3: 1.0}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reduced = presolve(sub)
        plain, presolved = _assert_same_search(sub)
    assert reduced.relaxation.upper[0] == 2.0  # box_free with b = 1
    assert reduced.relaxation.lower[1] == -6.0  # box_up rounded inward
    assert presolved.status == OPTIMAL
    assert abs(presolved.incumbent.objective - plain.incumbent.objective) <= 1e-9


# --------------------------------------------------------------------------
# random small MIPs

_BOUNDS = {
    BINARY: [(0.0, 1.0)],
    INTEGER: [(-2.0, 3.0), (0.0, 4.0), (-INF, 2.0), (-1.0, INF), (-INF, INF)],
    CONTINUOUS: [(-1.5, 2.5), (0.0, INF), (-INF, 1.0), (-INF, INF)],
}


@st.composite
def fixed_sub_mips(draw):
    """A feasible random MIP, a neighbourhood fixing some of its columns, and
    whether every column is binary. Rows hold a drawn point feasible, a
    column with an infinite bound is boxed by rows, and a fixing takes the
    point's value or another one in the column's bounds."""
    n = draw(st.integers(2, 5))
    kinds = [draw(st.sampled_from((BINARY, BINARY, BINARY, INTEGER, CONTINUOUS))) for _ in range(n)]
    variables, point, rows = [], [], []
    for j, kind in enumerate(kinds):
        lower, upper = draw(st.sampled_from(_BOUNDS[kind]))
        variables.append(Variable(f"x{j}", kind, lower, upper))
        lo, up = max(lower, -4.0), min(upper, 4.0)
        if kind == CONTINUOUS:
            value = draw(st.integers(int(2 * lo), int(2 * up))) / 2
        else:
            value = float(draw(st.integers(int(lo), int(up))))
        point.append(value)
    binaries = [k for k, kind in enumerate(kinds) if kind == BINARY]
    for j, var in enumerate(variables):
        # a box row on a column with an infinite bound: a singleton, or a row
        # with a binary, so that the infinite bound meets the row checks
        box = {j: 1.0}
        if binaries and draw(st.booleans()):
            box[draw(st.sampled_from(binaries))] = 1.0
        if var.lower == -INF:
            rows.append((box, GE, -4.0))
        if var.upper == INF:
            rows.append((box, LE, 5.0))
    for _ in range(draw(st.integers(1, 4))):
        coefficients = {
            j: float(draw(st.integers(-3, 3))) for j in draw(st.sets(st.integers(0, n - 1), min_size=1))
        }
        activity = sum(a * point[j] for j, a in coefficients.items())
        relation = draw(st.sampled_from((LE, GE, EQ, "range")))
        slack = draw(st.integers(0, 2))
        if relation == "range":  # a ranged row as its two sides
            rows.append((coefficients, LE, activity + slack))
            rows.append((coefficients, GE, activity - draw(st.integers(0, 2))))
        else:
            rhs = {LE: activity + slack, GE: activity - slack, EQ: activity}[relation]
            rows.append((coefficients, relation, rhs))
    constraints = [
        LinearConstraint(f"r{i}", coefficients, relation, rhs)
        for i, (coefficients, relation, rhs) in enumerate(rows)
        if any(coefficients.values())
    ]
    objective = {j: float(draw(st.integers(-3, 3))) for j in range(n)}
    model = make_model("random", MINIMIZE, variables, constraints, objective)
    records = dict_form(model)
    fixings = {}
    for j in draw(st.sets(st.integers(0, n - 1), max_size=n)):
        var = records.variables[j]
        if draw(st.booleans()):
            fixings[j] = point[j]
        else:
            lo, up = max(var.lower, -4.0), min(var.upper, 4.0)
            step = 2 if var.kind == CONTINUOUS else 1
            fixings[j] = draw(st.integers(int(step * lo), int(step * up))) / step
    all_binary = all(v.kind == BINARY for v in records.variables)
    return model, fixing_spec(model, fixings), all_binary


@settings(derandomize=True, max_examples=250, deadline=None)
@given(fixed_sub_mips())
def test_presolved_search_matches_the_unpresolved_one(case):
    model, spec, all_binary = case
    sub = apply_neighborhood(model, spec)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        plain = _solve(sub, False)
        reduced = _solve(sub, True)
    assert reduced.status == plain.status
    assert reduced.status in (OPTIMAL, INFEASIBLE)
    if reduced.status == OPTIMAL:
        assert abs(reduced.incumbent.objective - plain.incumbent.objective) <= 1e-6
        assert len(reduced.incumbent.values) == model.n_vars
        checked = evaluate(sub, reduced.incumbent.values)
        assert checked.feasible and checked.integral
        # the reduced problem prices the incumbent's free part as the full one
        presolved = presolve(sub)
        x = np.array(reduced.incumbent.values)
        assert np.array_equal(presolved.lift(x[presolved.free]), x)
        relax = presolved.relaxation
        assert abs(relax.c @ x[presolved.free] + relax.offset - checked.objective) <= 1e-9
    if all_binary:
        optimum = binary_optimum(apply_neighborhood_oracle(model, spec))
        if optimum is None:
            assert reduced.status == INFEASIBLE
        else:
            assert abs(reduced.incumbent.objective - optimum) <= 1e-6
