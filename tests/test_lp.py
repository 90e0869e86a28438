import random

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from parlns import lp
from parlns.instances import knapsack
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

from support import _point_feasible, dict_form, lp_vertex_optimum, random_lp, with_slacks

# small entries, mostly zero, so that some structural columns have one nonzero
_ENTRIES = st.sampled_from([0.0, 0.0, 0.0, 1.0, -1.0, 2.0, 3.0, 0.5])
_KNAPSACK = knapsack(8, seed=1).relaxation.A


@st.composite
def rows(draw, m, n):
    return np.array(draw(st.lists(_ENTRIES, min_size=m * n, max_size=m * n))).reshape(m, n)


@st.composite
def bases(draw):
    """Structural rows ``A`` and a basis: m distinct columns of ``[A, I]``,
    slacks and structural columns mixed."""
    m, n = draw(st.integers(0, 6)), draw(st.integers(1, 6))
    A = draw(rows(m, n))
    return A, np.array(draw(st.permutations(range(n + m)))[:m], dtype=np.int64)


def _well_conditioned(A, basis):
    return not len(basis) or np.linalg.cond(with_slacks(A)[:, basis]) < 1e6


def _assert_close(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-9 * max(1.0, np.max(np.abs(want), initial=0.0))


@settings(max_examples=400, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(bases())
@example((np.zeros((0, 3)), np.zeros(0, dtype=np.int64)))  # rowless
@example((_KNAPSACK, np.array([2])))  # one row: a structural column with one nonzero
@example((_KNAPSACK, np.array([8])))  # one row: its slack
def test_invert_matches_the_inverse_of_the_dense_basis(case):
    A, basis = case
    assume(_well_conditioned(A, basis))
    binv = lp._invert(A, basis)
    dense = with_slacks(A)[:, basis]
    _assert_close(binv, np.linalg.inv(dense))
    _assert_close(binv @ dense, np.eye(len(basis)))


@st.composite
def singular_bases(draw):
    """A basis whose structural column j is zero outside the rows of the basic
    slacks, or which holds one slack twice."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    A = draw(rows(m, n)).copy()
    if m > 1 and draw(st.booleans()):
        slack = n + draw(st.integers(0, m - 1))
        rest = [col for col in range(n + m) if col != slack]
        return A, np.array([slack, slack] + draw(st.permutations(rest))[: m - 2], dtype=np.int64)
    j = draw(st.integers(0, n - 1))
    slack_rows = draw(st.lists(st.integers(0, m - 1), max_size=m - 1, unique=True))
    others = [i for i in range(m) if i not in slack_rows]
    A[others, j] = 0.0
    rest = [col for col in range(n + m) if col != j and col - n not in slack_rows]
    filler = draw(st.permutations(rest))[: m - 1 - len(slack_rows)]
    return A, np.array([j] + [n + i for i in slack_rows] + filler, dtype=np.int64)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(singular_bases())
@example((np.zeros((1, 2)), np.array([0])))  # one row, a zero column
@example((np.eye(2), np.array([0, 2])))  # a one-nonzero column and its row's slack
def test_invert_rejects_a_singular_basis(case):
    A, basis = case
    assert np.linalg.matrix_rank(with_slacks(A)[:, basis]) < len(basis) or len(set(basis)) < len(basis)
    with pytest.raises(np.linalg.LinAlgError):
        lp._invert(A, basis)


@st.composite
def extended_bases(draw):
    """A basis of some rows, as in ``bases``, and up to three rows appended
    below them."""
    A, basis = draw(bases())
    return A, basis, draw(rows(draw(st.integers(0, 3)), A.shape[1]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(extended_bases())
@example((np.zeros((0, 3)), np.zeros(0, dtype=np.int64), np.array([[1.0, 0.0, 2.0]])))
@example((_KNAPSACK, np.array([2]), np.ones((1, 8))))
def test_extended_inverse_matches_inverting_the_extended_basis(case):
    A, basis, appended = case
    assume(_well_conditioned(A, basis))
    (m, n), k = A.shape, len(appended)
    binv = lp._invert(A, basis)
    extended = lp._extended_inverse(binv, basis, appended)
    slacks = np.arange(n + m, n + m + k)
    _assert_close(extended, lp._invert(np.vstack([A, appended]), np.concatenate([basis, slacks])))
    if not k:
        assert extended is not binv


def test_box_only_model():
    model = make_model(
        "box", MINIMIZE, [Variable("x", CONTINUOUS, 0.0, 1.0)], [], {0: -1.0}
    )
    res = solve_lp(model)
    assert res.status == LP_OPTIMAL
    assert res.values == (1.0,)
    assert res.objective == -1.0


def test_model_without_columns_is_optimal_at_its_offset():
    res = solve_lp(make_model("empty", MINIMIZE, [], [], {}, offset=2.5))
    assert (res.status, res.values.tolist(), res.objective) == (LP_OPTIMAL, [], 2.5)


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
    assert np.array_equal(first.values, second.values)


def test_optimal_point_is_locally_optimal():
    # perturbing along random directions either exits the region or worsens
    rng = random.Random(77)
    for _ in range(10):
        model = random_lp(rng)
        res = solve_lp(model)
        if res.status != LP_OPTIMAL:
            continue
        c, records = model.objective.tolist(), dict_form(model)
        for _ in range(20):
            direction = [rng.uniform(-1.0, 1.0) for _ in range(model.n_vars)]
            point = [v + 1e-3 * d for v, d in zip(res.values, direction)]
            delta = sum(c[j] * 1e-3 * d for j, d in enumerate(direction))
            if _point_feasible(records, point, tol=0.0) and delta < -1e-6:
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
