import random
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parlns.clock import SimulatedClock
from parlns.instances import independent_set, knapsack, set_cover
from parlns.model import (
    BINARY,
    CONTINUOUS,
    GE,
    INF,
    INTEGER,
    LE,
    MAXIMIZE,
    MINIMIZE,
    LinearConstraint,
    Solution,
    Variable,
    build_model,
    evaluate,
    make_model,
)
from parlns.mps import parse_mps, write_mps
import parlns.subsolver
from parlns import lp
from parlns.lp import LP_ITERATION_LIMIT, LP_UNBOUNDED, LpResult
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

from support import binary_optimum, most_fractional_oracle, solution_fields


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


def test_budget_rejects_a_nan_wall_cap_and_keeps_inf_as_none():
    with pytest.raises(ValueError, match="wall_seconds"):
        SolveBudget(wall_seconds=float("nan"), node_limit=5)
    with pytest.raises(ValueError, match="wall_seconds"):
        SolveBudget(wall_seconds=-1.0, node_limit=5)
    SolveBudget(wall_seconds=float("inf"), node_limit=5)


@pytest.mark.parametrize("step", [float("nan"), float("inf"), 0.0, -0.5])
def test_simulated_clock_needs_a_positive_finite_step(step):
    with pytest.raises(ValueError, match="node_seconds"):
        SimulatedClock(step)


def test_model_without_columns_is_optimal_at_its_offset():
    model = make_model("empty", MINIMIZE, [], [], {}, offset=2.5)
    for result in (solve_mip(model, None, SolveBudget(node_limit=10)),
                   find_first_feasible(model, SolveBudget(node_limit=10))):
        assert (result.status, result.dual_bound) == (OPTIMAL, 2.5)
        assert solution_fields(result.incumbent) == ([], 2.5, True, True)


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
    warm = evaluate(model, tuple(0.0 for _ in range(model.n_vars)))
    assert warm.feasible and warm.integral
    res = solve_mip(model, warm_start=warm, budget=SolveBudget(wall_seconds=0.0))
    assert res.status == FEASIBLE
    assert np.array_equal(res.incumbent.values, warm.values)
    assert res.nodes == 0


def test_a_warm_start_that_is_not_finite_is_ignored():
    # max x + y, x binary, y in [0, 3], x + y <= 4: -4 at (1, 3). A NaN warm
    # start was taken as a feasible incumbent of objective NaN
    model = make_model(
        "m", MAXIMIZE, [Variable("x", BINARY), Variable("y", CONTINUOUS, 0.0, 3.0)],
        [LinearConstraint("r", {0: 1.0, 1: 1.0}, LE, 4.0)], {0: 1.0, 1: 1.0},
    )
    nan = float("nan")
    for warm in (None, Solution((1.0, nan), nan, True, True)):
        res = solve_mip(model, warm_start=warm, budget=SolveBudget(wall_seconds=30.0))
        assert res.status == OPTIMAL
        assert res.incumbent.values.tolist() == [1.0, 3.0] and res.incumbent.objective == -4.0
        assert res.dual_bound == -4.0


def test_never_worse_than_warm_start():
    model = knapsack(12, seed=5)
    optimum = binary_optimum(model)
    warm = evaluate(model, tuple(0.0 for _ in range(model.n_vars)))
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


def _infeasible_toy():
    """x >= 1 and x <= 0 over one binary: its root LP is infeasible."""
    return make_model(
        "inf",
        MINIMIZE,
        [Variable("x", BINARY)],
        [
            LinearConstraint("ge", {0: 1.0}, GE, 1.0),
            LinearConstraint("le", {0: 1.0}, LE, 0.0),
        ],
        {0: 1.0},
    )


def test_infeasible_toy_is_proven():
    model = _infeasible_toy()
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


@st.composite
def small_binary_models(draw):
    """A model ``binary_optimum`` can enumerate: a small generated knapsack,
    set cover or independent set, or up to eight binaries under random rows,
    which may leave it infeasible."""
    kind = draw(st.sampled_from(("knapsack", "set_cover", "independent_set", "rows")))
    seed = draw(st.integers(0, 10**6))
    if kind == "knapsack":
        return knapsack(draw(st.integers(8, 14)), seed=seed)
    if kind == "set_cover":
        return set_cover(draw(st.integers(6, 12)), draw(st.integers(8, 14)), seed=seed)
    if kind == "independent_set":
        return independent_set(draw(st.integers(8, 14)), 0.3, seed=seed)
    n = draw(st.integers(1, 8))
    coefs = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    rows = draw(
        st.lists(st.tuples(coefs, st.sampled_from((LE, GE)), st.integers(-3, 6)), max_size=4)
    )
    constraints = [
        LinearConstraint(
            f"r{i}", {j: float(a) for j, a in enumerate(row) if a} or {0: 1.0}, relation, rhs
        )
        for i, (row, relation, rhs) in enumerate(rows)
    ]
    objective = {j: float(c) for j, c in enumerate(draw(coefs)) if c}
    variables = [Variable(f"x{j}", BINARY) for j in range(n)]
    return make_model("rows", MINIMIZE, variables, constraints, objective)


def _assert_bound_rule(res, optimum):
    """A result's dual bound is below its incumbent and the true optimum, and
    a proof matches the enumeration."""
    if res.incumbent is not None:
        assert res.dual_bound <= res.incumbent.objective
    if optimum is not None:
        assert res.dual_bound <= optimum + 1e-9
    if res.status == OPTIMAL:
        assert abs(res.incumbent.objective - optimum) <= 1e-9
    if res.status == INFEASIBLE:
        assert optimum is None and res.incumbent is None
        assert res.dual_bound == float("inf")


@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(small_binary_models())
# full searches of 6 and 36 nodes that a node limit at that count stops with
# open nodes that the incumbent prunes: a proof, bound -58 and -181
@example(independent_set(14, 0.3, seed=1))
@example(knapsack(12, seed=6))
# a deadline on its one node leaves nothing open: infeasible, bound inf
@example(_infeasible_toy())
def test_every_node_limit_bounds_the_optimum_and_the_full_count_proves_it(model):
    optimum = binary_optimum(model)
    full = solve_mip(model, budget=SolveBudget(node_limit=1 << 20))
    assert full.status == (INFEASIBLE if optimum is None else OPTIMAL)
    for limit in range(1, full.nodes + 1):
        res = solve_mip(model, budget=SolveBudget(node_limit=limit))
        assert res.nodes == limit
        _assert_bound_rule(res, optimum)
    assert res.status == full.status
    # a simulated deadline that lands on the last node stops the search
    # where the node limit does
    clock = SimulatedClock(1.0)
    res = solve_mip(model, budget=SolveBudget(wall_seconds=float(full.nodes)), clock=clock)
    assert res.nodes == full.nodes and clock.now() == full.nodes
    _assert_bound_rule(res, optimum)
    assert res.status == full.status


def test_seed_determinism_with_node_limit():
    model = independent_set(14, 0.3, seed=6)
    budget = SolveBudget(node_limit=50)
    a = solve_mip(model, budget=budget)
    b = solve_mip(model, budget=budget)
    assert a.nodes == b.nodes
    assert (a.incumbent is None) == (b.incumbent is None)
    if a.incumbent is not None:
        assert np.array_equal(a.incumbent.values, b.incumbent.values)


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
    # the first child's warm start ends unbounded; its one solve_relaxation
    # call starts again from the slack basis, so the search is the same
    model = knapsack(12, seed=9)
    expected = solve_mip(model, budget=SolveBudget(wall_seconds=30.0))
    calls = _failing_lp(monkeypatch, set())
    real = lp._solve_from
    starts = []

    def solve_from(system, stop, warm):
        status, tab = real(system, stop, warm)
        starts.append(warm is not None)
        return (LP_UNBOUNDED if len(starts) == 2 else status), tab

    monkeypatch.setattr(lp, "_solve_from", solve_from)
    res = solve_mip(model, budget=SolveBudget(wall_seconds=30.0))
    assert starts[1] and not starts[2]  # the warm child, then its slack start
    assert calls[1] and calls[2]  # within the child's one call
    assert len(calls) == res.nodes
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

    warm = evaluate(model, tuple(0.0 for _ in range(model.n_vars)))
    calls = _failing_lp(monkeypatch, {2})  # a child, its one call
    res = solve_mip(model, warm_start=warm, budget=SolveBudget(wall_seconds=30.0))
    assert calls[1] and calls[2]  # the failed child is not solved again
    assert len(calls) == res.nodes > 2
    assert res.dropped_nodes == 1
    assert res.status == FEASIBLE
    assert res.dual_bound <= binary_optimum(model) + 1e-9


def test_dropped_node_never_claims_infeasibility(monkeypatch):
    model = _infeasible_toy()
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

    warm = evaluate(model, tuple(0.0 for _ in range(model.n_vars)))
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

    def charge_nodes(self):
        pass


def test_deadline_inside_a_node_lp_stops_the_search():
    model = independent_set(60, 0.1, seed=7)
    clock = _TickingClock(1.0)
    res = solve_mip(model, budget=SolveBudget(wall_seconds=5.5), clock=clock)
    # reads: start 1.0 (deadline 6.5), loop head 2.0, pivot checks 3.0 to
    # 6.0, and the stop at 7.0
    assert clock.t == 7.0
    assert res.nodes == 0
    assert res.dropped_nodes == 0
    assert res.status == UNKNOWN


def test_open_list_past_the_inverse_cap_finds_the_same_optimum(monkeypatch):
    model = knapsack(30, seed=3)
    real = parlns.subsolver.solve_relaxation

    def search(cap):
        warms = []

        def solve(*args, **kwargs):
            warms.append(kwargs.get("warm"))
            return real(*args, **kwargs)

        monkeypatch.setattr(parlns.subsolver, "solve_relaxation", solve)
        monkeypatch.setattr(parlns.subsolver, "_OPEN_INVERSE_BYTES", cap)
        res = solve_mip(model, budget=SolveBudget(wall_seconds=60.0))
        return res, [w.binv is not None for w in warms if w is not None]

    uncapped, with_inverse = search(1 << 30)
    assert with_inverse and set(with_inverse) == {True}
    capped, with_inverse = search(8 * 8)  # room for eight 1x1 inverses
    assert {False, True} <= set(with_inverse)  # children past the cap carry no inverse
    assert capped.status == uncapped.status == OPTIMAL
    assert capped.incumbent.objective == uncapped.incumbent.objective
    assert capped.dual_bound == pytest.approx(uncapped.dual_bound)


def _as_record_pairs(model):
    """The same model with each range stated as two rows, from its records."""
    relax = model.relaxation
    variables = [Variable(name, INTEGER if integer else CONTINUOUS, lo, up) for name, integer, lo, up
                 in zip(model.column_names, relax.integer.tolist(), relax.lower.tolist(),
                        relax.upper.tolist())]
    objective = dict(enumerate(model.to_external_objective(c) for c in relax.c.tolist()))
    offset = model.to_external_objective(relax.offset)
    return make_model(model.name, model.sense, variables, model.constraints, objective, offset)


_RANGED = (Path(__file__).parent / "data" / "ranged.mps").read_text()


@pytest.mark.parametrize("text", [
    _RANGED,
    _RANGED.replace("RNG  cep  3.0  cen  -4.0", "RNG  cep  -3.0  cen  4.0"),
    _RANGED.replace("NAME ranged", "NAME ranged\nOBJSENSE\n    MAX"),
])
def test_a_ranged_row_solves_as_its_two_row_form(text):
    model = parse_mps(text)
    pairs = _as_record_pairs(model)
    assert len(pairs.row_names) == 2 * len(model.row_names)
    budget = SolveBudget(node_limit=20000)
    got, want = solve_mip(model, budget=budget), solve_mip(pairs, budget=budget)
    assert got.status == want.status == OPTIMAL
    assert got.incumbent.objective == pytest.approx(want.incumbent.objective, rel=1e-9, abs=1e-9)


def test_the_ranged_fixture_reaches_the_optimum_by_branching():
    result = solve_mip(parse_mps(_RANGED), budget=SolveBudget(node_limit=20000))
    assert result.status == OPTIMAL and result.nodes > 1
    assert result.incumbent.objective == pytest.approx(-19.0, abs=1e-9)
    assert result.incumbent.values == pytest.approx((2.0, 4.0, 1.0), abs=1e-9)


# the five row forms as slack bounds; a range's width R is filled in
_ROW_FORMS = ("=", "<=", ">=", "ranged <=", "ranged >=")


@st.composite
def _small_mip(draw):
    """A MIP of up to 6 columns (binary, general integer or continuous, with
    finite and possibly negative bounds, integral on an integer column) and
    up to 5 rows of all five forms, in either sense; half of them after a
    ``write_mps``/``parse_mps`` round trip. Most rows hold at a point of the
    box that is integral on the integer columns, so that most models are
    feasible."""
    n = draw(st.integers(1, 6))
    kinds, lower, upper, point = [], [], [], []
    for _ in range(n):
        kind = draw(st.sampled_from((BINARY, INTEGER, CONTINUOUS)))
        step = 0.5 if kind == CONTINUOUS else 1.0
        lo, width = (0.0, 1) if kind == BINARY else (draw(st.integers(-10, 10)) * step,
                                                      draw(st.integers(0, 8)))
        kinds.append(kind)
        lower.append(lo)
        upper.append(lo + width * step)
        point.append(lo + draw(st.integers(0, width)) * step)
    m = draw(st.integers(0, 5))
    A = np.zeros((m, n))
    slack_lower, slack_upper, b = [], [], []
    for i in range(m):
        columns = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        A[i, columns] = [draw(st.sampled_from((-3.0, -2.0, -1.0, 1.0, 2.0, 3.0, 0.5)))
                         for _ in columns]
        r = draw(st.sampled_from((0.0, 0.5, 1.0, 2.5, 4.0)))
        form = draw(st.sampled_from(_ROW_FORMS))
        slack_lower.append({"=": 0.0, "<=": 0.0, ">=": -INF, "ranged <=": 0.0, "ranged >=": -r}[form])
        slack_upper.append({"=": 0.0, "<=": INF, ">=": 0.0, "ranged <=": r, "ranged >=": 0.0}[form])
        if draw(st.integers(0, 3)):
            # the point's slack is at an end of the row's slack range or inside it
            ends = (slack_lower[-1], slack_upper[-1], -0.5 * r, 0.5 * r)
            slack = draw(st.sampled_from([v for v in ends if abs(v) < INF and
                                          slack_lower[-1] <= v <= slack_upper[-1]]))
            b.append(float(A[i] @ point) + slack)
        else:
            b.append(draw(st.integers(-12, 12).map(lambda v: v / 2)))
    c = np.array([float(draw(st.integers(-5, 5))) for _ in range(n)])
    model = build_model(
        "oracle", draw(st.sampled_from((MINIMIZE, MAXIMIZE))), [f"x{j}" for j in range(n)],
        [f"r{i}" for i in range(m)], kinds=kinds, lower=lower, upper=upper,
        slack_lower=slack_lower, slack_upper=slack_upper, A=A, b=b, c=c,
        offset=float(draw(st.integers(-3, 3))),
    )
    return parse_mps(write_mps(model)) if draw(st.booleans()) else model


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_small_mip())
def test_solve_mip_agrees_with_highs(model):
    """HiGHS, through ``scipy.optimize.milp``, as an outside oracle for the
    branch and bound on models that binary enumeration cannot reach."""
    relax = model.relaxation
    rows = ()
    if relax.A.shape[0]:
        rows = scipy.optimize.LinearConstraint(
            relax.A, relax.b - relax.slack_upper, relax.b - relax.slack_lower)
    want = scipy.optimize.milp(
        relax.c, integrality=relax.integer.astype(int),
        bounds=scipy.optimize.Bounds(relax.lower, relax.upper), constraints=rows,
    )
    got = solve_mip(model, budget=SolveBudget(node_limit=20000))
    assert want.status in (0, 2), want.message  # optimal or infeasible
    if want.status == 2:
        assert got.status == INFEASIBLE
        return
    assert got.status == OPTIMAL
    optimum = want.fun + relax.offset
    assert abs(got.incumbent.objective - optimum) <= 1e-6 * max(1.0, abs(optimum))
