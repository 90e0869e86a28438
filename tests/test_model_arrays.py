"""A model's one array form: ``evaluate`` against the dict-loop oracle, and
sub-models whose arrays come from their parent's."""

import dataclasses
import math
import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parlns.model
from parlns.alns import run_worker
from parlns.clock import SimulatedClock
from parlns.configspace import DEFAULT_CONFIG
from parlns.instances import independent_set, knapsack
from parlns.lp import solve_lp
from parlns.model import (
    BINARY,
    BOUND_TOL,
    CONTINUOUS,
    EQ,
    FEASIBILITY_TOL,
    GE,
    INF,
    INTEGER,
    INTEGRALITY_TOL,
    LE,
    MAXIMIZE,
    MINIMIZE,
    LinearConstraint,
    LpRelaxation,
    ModelError,
    Variable,
    apply_neighborhood,
    evaluate,
    make_model,
    relaxation_from_dicts,
)
from parlns.operators import (
    CROSSOVER,
    FAMILIES,
    PERCENTAGE_POOL,
    OperatorContext,
    OperatorSpec,
    build_neighborhood,
)
from parlns.subsolver import SolveBudget, find_first_feasible

from support import apply_neighborhood_oracle, assert_same_arrays, evaluate_oracle

_BOUNDS = (
    (-INF, INF),
    (-INF, 3.0),
    (-4.0, INF),
    (-4.0, -1.0),
    (0.0, INF),
    (0.0, 1.0),
    (-2.0, 5.0),
    (2.0, 2.0),
)


def _offsets(tol):
    """Half and twice a tolerance, on either side."""
    return (0.5 * tol, -0.5 * tol, 2.0 * tol, -2.0 * tol)


# zero offsets repeat so that feasible integral points stay common
_POINT_OFFSETS = (0.0,) * 6 + (0.5,) + _offsets(BOUND_TOL) + _offsets(INTEGRALITY_TOL)
_ROW_OFFSETS = (0.0,) * 3 + _offsets(FEASIBILITY_TOL)


@st.composite
def _model_and_point(draw):
    n = draw(st.integers(1, 5))
    variables, x = [], []
    for j in range(n):
        kind = draw(st.sampled_from((CONTINUOUS, INTEGER, BINARY)))
        lower, upper = (0.0, 1.0) if kind == BINARY else draw(st.sampled_from(_BOUNDS))
        variables.append(Variable(f"x{j}", kind, lower, upper))
        inside = min(max(float(draw(st.integers(-5, 5))), lower), upper)
        anchors = [b for b in (lower, upper) if math.isfinite(b)] + [inside]
        x.append(draw(st.sampled_from(anchors)) + draw(st.sampled_from(_POINT_OFFSETS)))
    coefficient = st.integers(-3, 3).filter(lambda v: v != 0).map(float)
    constraints = []
    for i in range(draw(st.integers(0, 4))):
        columns = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        coefficients = {j: draw(coefficient) for j in columns}
        if draw(st.integers(0, 3)):
            activity = sum(coef * x[j] for j, coef in coefficients.items())
            rhs = activity + draw(st.sampled_from(_ROW_OFFSETS))
        else:
            rhs = float(draw(st.integers(-6, 6)))
        relation = draw(st.sampled_from((LE, GE, EQ)))
        constraints.append(LinearConstraint(f"r{i}", coefficients, relation, rhs))
    objective = draw(st.dictionaries(st.integers(0, n - 1), st.integers(-4, 4).map(float)))
    sense = draw(st.sampled_from((MINIMIZE, MAXIMIZE)))
    offset = float(draw(st.integers(-3, 3)))
    return make_model("m", sense, variables, constraints, objective, offset), tuple(x)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_model_and_point())
def test_evaluate_matches_dict_loop_oracle(case):
    model, x = case
    got, want = evaluate(model, x), evaluate_oracle(model, x)
    assert got.values == want.values
    assert type(got.feasible) is bool and type(got.integral) is bool
    assert (got.feasible, got.integral) == (want.feasible, want.integral)
    if all(v == round(v) for v in x):
        assert got.objective == want.objective  # integer data: exact
    else:
        assert math.isclose(got.objective, want.objective, rel_tol=1e-12, abs_tol=1e-12)


def _contexts():
    """Per model, an operator context with LP values and an archive partner."""
    for model in (knapsack(20, seed=1), independent_set(20, 0.3, seed=4)):
        lp = solve_lp(model)
        first = find_first_feasible(model, SolveBudget(node_limit=200))
        assert first.incumbent is not None
        partner = evaluate(model, [float(v.upper if v.upper < INF else 0) for v in model.variables])
        if not partner.feasible:
            partner = evaluate(model, [0.0] * model.n_vars)
        yield model, OperatorContext(
            incumbent=first.incumbent, archive=(partner,), lp_values=lp.values, rng=random.Random(1)
        )


@pytest.mark.parametrize("family", FAMILIES)
def test_derived_arrays_equal_a_build_from_dicts(family):
    op = OperatorSpec(family, None if family == CROSSOVER else PERCENTAGE_POOL[family][0])
    for model, ctx in _contexts():
        base = model.relaxation
        spec = build_neighborhood(op, ctx, model)
        sub = apply_neighborhood(model, spec)
        assert_same_arrays(sub, relaxation_from_dicts(apply_neighborhood_oracle(model, spec)))
        assert sub.integer is base.integer
        if spec.extra_constraints:
            m = base.A.shape[0]
            assert np.array_equal(sub.A[:m], base.A)
        else:
            assert sub.A is base.A
            assert sub.b is base.b
        if spec.objective_override is None:
            assert sub.c is base.c


_FIXING_OFFSETS = (0.0,) * 12 + (0.5, -1.0) + _offsets(BOUND_TOL) + _offsets(INTEGRALITY_TOL)
_OVERRIDE_BOUNDS = (-INF, -2.0, 0.0, 1.0, 3.0, INF)


@st.composite
def _model_and_spec(draw):
    """A model as in ``_model_and_point`` and a spec over it: fixings at or
    near a bound or an integer inside, bound overrides, extra rows and an
    objective override; each part is now and then malformed (a fixing off
    its bounds or fractional, an empty override range, a row with only
    zeros, an out-of-range index or an unknown relation)."""
    model, _ = draw(_model_and_point())
    n = model.n_vars
    index = st.integers(0, n - 1)
    fixings = {}
    for j in draw(st.lists(index, max_size=n, unique=True)):
        var = model.variables[j]
        inside = min(max(float(draw(st.integers(-3, 3))), var.lower), var.upper)
        anchors = [b for b in (var.lower, var.upper) if math.isfinite(b)] + [inside]
        fixings[j] = draw(st.sampled_from(anchors)) + draw(st.sampled_from(_FIXING_OFFSETS))
    overrides = {}
    for j in draw(st.lists(index, max_size=n, unique=True)):
        var = model.variables[j]
        bound = st.sampled_from(_OVERRIDE_BOUNDS + (var.lower, var.upper))
        lo, up = draw(bound), draw(bound)
        overrides[j] = (lo, up) if draw(st.integers(0, 5)) == 0 else (min(lo, up), max(lo, up))
    # mostly in range and nonzero; index n, zeros and "<" are malformed
    coefficients = st.dictionaries(
        st.integers(0, n) if draw(st.integers(0, 7)) == 0 else index,
        st.sampled_from((1.0, -2.0, 3.0, 0.0, -0.0)),
        min_size=1,
        max_size=n,
    )
    relation = st.sampled_from((LE, GE, EQ, LE, GE, EQ, "<"))
    rhs = st.integers(-4, 4).map(float)
    # "r0" may be a base row's name too
    row = st.builds(LinearConstraint, st.sampled_from(("r0", "e")), coefficients, relation, rhs)
    extra = draw(st.lists(row, max_size=3))
    override = draw(st.none() | st.tuples(coefficients, rhs))
    spec = parlns.model.NeighborhoodSpec(
        fixings=fixings, bound_overrides=overrides, extra_constraints=tuple(extra),
        objective_override=override,
    )
    return model, spec


def _outcome(apply, model, spec):
    try:
        return apply(model, spec)
    except ModelError as exc:
        return type(exc)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_model_and_spec())
def test_apply_neighborhood_matches_the_dict_model_oracle(case):
    model, spec = case
    got = _outcome(apply_neighborhood, model, spec)
    want = _outcome(lambda m, s: relaxation_from_dicts(apply_neighborhood_oracle(m, s)), model, spec)
    if isinstance(want, LpRelaxation):
        assert isinstance(got, LpRelaxation)
        assert_same_arrays(got, want)
    else:
        assert got is want


def test_relaxation_arrays_are_read_only():
    model = knapsack(12, seed=3)
    sub = apply_neighborhood(
        model,
        parlns.model.NeighborhoodSpec(
            fixings={0: 0.0},
            extra_constraints=(LinearConstraint("extra", {1: 1.0}, LE, 1.0),),
            objective_override=({2: 1.0}, 0.0),
        ),
    )
    for relax in (model.relaxation, sub.relaxation):
        for f in dataclasses.fields(LpRelaxation):
            value = getattr(relax, f.name)
            if isinstance(value, np.ndarray):
                with pytest.raises(ValueError, match="read-only"):
                    value[...] = 0


def test_worker_builds_base_arrays_once_and_only_appended_rows(monkeypatch):
    built, row_counts = [], []
    real_build, real_rows = parlns.model.relaxation_from_dicts, parlns.model._rows

    def counting_build(model):
        built.append(model)
        return real_build(model)

    def counting_rows(constraints, n, above=None):
        row_counts.append(len(constraints))
        return real_rows(constraints, n, above)

    monkeypatch.setattr(parlns.model, "relaxation_from_dicts", counting_build)
    monkeypatch.setattr(parlns.model, "_rows", counting_rows)
    model = independent_set(30, 0.2, seed=5)
    result = run_worker(model, DEFAULT_CONFIG, 0.5, seed=1, clock=SimulatedClock(0.01))
    assert result.iterations > 0
    assert len(built) == 1 and built[0] is model
    assert row_counts[0] == len(model.constraints)
    # local branching and proximity sub-MIPs read only their one new row
    assert len(row_counts) > 1 and set(row_counts[1:]) == {1}


def test_threads_sharing_a_model_see_one_set_of_arrays():
    # on Python 3.12+ cached_property has no lock, so racing threads may each
    # build the arrays; whichever build wins, every reader must see equal ones
    model = independent_set(40, 0.2, seed=3)
    point = tuple(0.0 for _ in range(model.n_vars))
    seen, errors = [], []

    def read():
        try:
            seen.append((model.relaxation, evaluate(model, point)))
        except Exception as exc:  # reported below; a thread cannot fail the test
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not errors
    assert len(seen) == 8
    final = model.relaxation
    for relax, solution in seen:
        assert_same_arrays(relax, final)
        assert solution == seen[0][1] and solution.feasible
