"""A model's one array form: ``make_model``'s arrays and their MPS round
trip against the densification oracle, ``evaluate`` against the dict-loop
oracle, and sub-models whose arrays come from their parent's."""

import dataclasses
import itertools
import math
import pickle
import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import parlns.alns
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
    presolve,
)
from parlns.mps import parse_mps, write_mps
from parlns.operators import (
    CROSSOVER,
    FAMILIES,
    PERCENTAGE_POOL,
    OperatorContext,
    OperatorSpec,
    build_neighborhood,
)
from parlns.subsolver import SolveBudget, find_first_feasible

from support import (
    apply_neighborhood_oracle,
    assert_same_arrays,
    assert_same_model,
    dict_model,
    evaluate_oracle,
    relaxation_from_dicts,
    solution_fields,
)

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
    assert got.values.tolist() == list(want.values)
    assert type(got.feasible) is bool and type(got.integral) is bool
    assert (got.feasible, got.integral) == (want.feasible, want.integral)
    if all(v == round(v) for v in x):
        assert got.objective == want.objective  # integer data: exact
    else:
        assert math.isclose(got.objective, want.objective, rel_tol=1e-12, abs_tol=1e-12)


# bounds of -0.0, as an MPS file's "-0" reads
_SIGNED_ZEROS = ((-0.0, 2.0), (-3.0, -0.0), (-0.0, -0.0))
_COLUMN_BOUNDS = {
    CONTINUOUS: _BOUNDS + _SIGNED_ZEROS,
    # inside [0, 1], to BOUND_TOL on either side, an integer column is a binary
    INTEGER: _BOUNDS + _SIGNED_ZEROS + (
        (0.0, 0.0), (-0.5 * BOUND_TOL, 1.0 + 0.5 * BOUND_TOL), (0.0, 0.5), (-0.0, 1.0)),
    BINARY: ((0.0, INF), (-INF, INF), (-2.0, 5.0), (0.0, 0.0), (1.0, 1.0), (-1.0, 0.5),
             (-0.0, 1.0), (-0.0, -0.0)),
}


@st.composite
def _model_records(draw):
    """A model's records, as ``make_model`` takes them: columns of every kind
    with free, negative, infinite and fixed bounds, rows of every relation
    with explicit zero coefficients, and an objective with zero costs, in
    either sense with an offset; a rhs, a bound or the offset may be -0.0."""
    n = draw(st.integers(1, 5))
    variables = []
    for j in range(n):
        kind = draw(st.sampled_from((CONTINUOUS, INTEGER, BINARY)))
        lower, upper = draw(st.sampled_from(_COLUMN_BOUNDS[kind]))
        variables.append(Variable(f"x{j}", kind, lower, upper))
    nonzero = st.sampled_from((1.0, -2.0, 3.0, 0.5, -1.0))
    entry = st.one_of(nonzero, st.sampled_from((0.0, -0.0)))
    constraints = []
    for i in range(draw(st.integers(0, 4))):
        columns = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        coefficients = {j: draw(nonzero if k == 0 else entry) for k, j in enumerate(columns)}
        rhs = draw(st.one_of(st.integers(-12, 12).map(lambda v: v / 2), st.just(-0.0)))
        constraints.append(LinearConstraint(f"r{i}", coefficients, draw(st.sampled_from((LE, GE, EQ))), rhs))
    costs = st.sampled_from((1.0, -4.0, 2.5, 0.0, -0.0))
    objective = draw(st.dictionaries(st.integers(0, n - 1), costs))
    sense = draw(st.sampled_from((MINIMIZE, MAXIMIZE)))
    offset = draw(st.sampled_from((-3.0, -1.0, -0.0, 0.0, 2.0, 3.0)))
    return "m", sense, variables, constraints, objective, offset


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_model_records())
def test_model_arrays_match_the_densification_oracle(records):
    model = make_model(*records)
    _, sense, variables, constraints, _, _ = records
    assert model.sense == sense
    assert model.column_names == tuple(v.name for v in variables)
    assert model.row_names == tuple(c.name for c in constraints)
    assert_same_arrays(model.relaxation, relaxation_from_dicts(dict_model(*records)))
    assert_same_model(parse_mps(write_mps(model)), model)


@st.composite
def _ranged_model_and_point(draw):
    """A model from ``_model_records`` with some of its rows made ranges,
    stated to ``build_model`` by slack bounds: a ranged ``<=`` (0, R) or
    ``>=`` (-R, 0), with R possibly 0 or -0.0; and a point near its box.
    Most ranged rows get a rhs that puts the point at or near one end of
    the range, or inside it."""
    model = make_model(*draw(_model_records()))
    relax = model.relaxation
    x = [min(max(float(draw(st.integers(-4, 4))), lo), up) + draw(st.sampled_from(_ROW_OFFSETS))
         for lo, up in zip(relax.lower.tolist(), relax.upper.tolist())]
    activity = relax.A @ np.array(x)
    b, slack_lower, slack_upper = relax.b.copy(), relax.slack_lower.copy(), relax.slack_upper.copy()
    width = st.sampled_from((0.5, 2.0, 3.0, 7.25, 1e-3, 0.0, -0.0))
    for i in range(len(model.row_names)):
        form = draw(st.sampled_from((None, LE, GE)))
        if form is None:
            continue
        r = draw(width)
        slack_lower[i], slack_upper[i] = (0.0, r) if form == LE else (-r, 0.0)
        if draw(st.integers(0, 3)):
            # activity + s = b: the point's slack is s, at an end of the range or inside
            s = draw(st.sampled_from((0.0, abs(r), -abs(r), 0.5 * abs(r))))
            b[i] = activity[i] + s + draw(st.sampled_from(_ROW_OFFSETS))
    sign = -1.0 if model.sense == MAXIMIZE else 1.0
    ranged = parlns.model.build_model(
        model.name, model.sense, list(model.column_names), list(model.row_names),
        kinds=[INTEGER if integer else CONTINUOUS for integer in relax.integer.tolist()],
        lower=relax.lower, upper=relax.upper, slack_lower=slack_lower, slack_upper=slack_upper,
        A=relax.A, b=b, c=sign * relax.c, offset=sign * relax.offset,
    )
    assert_same_arrays(ranged.relaxation, dataclasses.replace(
        relax, b=b + 0.0, slack_lower=slack_lower + 0.0, slack_upper=slack_upper + 0.0))
    return ranged, x


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_ranged_model_and_point())
def test_ranged_rows_round_trip_and_restate_as_record_pairs(case):
    model, x = case
    assert_same_model(parse_mps(write_mps(model)), model)
    # the records state a range as two rows; the dict-loop oracle reads them
    got, want = evaluate(model, x), evaluate_oracle(model, x)
    assert (got.feasible, got.integral) == (want.feasible, want.integral)
    assert math.isclose(got.objective, want.objective, rel_tol=1e-12, abs_tol=1e-12)


def test_model_arrays_hold_no_negative_zero():
    # an MPS file states no absent zero, so a zero's sign could not survive
    # a round trip: the arrays hold none
    for sense, offset in itertools.product((MINIMIZE, MAXIMIZE), (0.0, -0.0)):
        records = (
            "z", sense, [Variable("x", CONTINUOUS, -0.0, 2.0), Variable("y", INTEGER, -3.0, -0.0)],
            [LinearConstraint("r", {0: 1.0, 1: -0.0}, GE, -0.0)], {1: -0.0}, offset,
        )
        model = make_model(*records)
        relax = model.relaxation
        values = np.concatenate(
            [relax.c, relax.A.ravel(), relax.b, relax.lower, relax.upper, [relax.offset]])
        assert not np.signbit(values[values == 0.0]).any()
        assert_same_arrays(relax, relaxation_from_dicts(dict_model(*records)))
        assert_same_model(parse_mps(write_mps(model)), model)


def _contexts():
    """Per model, an operator context with LP values and an archive partner."""
    for model in (knapsack(20, seed=1), independent_set(20, 0.3, seed=4)):
        lp = solve_lp(model)
        first = find_first_feasible(model, SolveBudget(node_limit=200))
        assert first.incumbent is not None
        partner = evaluate(model, np.where(model.relaxation.upper < INF, model.relaxation.upper, 0.0))
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
        if spec.rows is not None:
            m = base.A.shape[0]
            assert np.array_equal(sub.A[:m], base.A)
        else:
            assert sub.A is base.A
            assert sub.b is base.b
            assert sub.slack_lower is base.slack_lower and sub.slack_upper is base.slack_upper
        if spec.objective is None:
            assert sub.c is base.c
        if spec.bounds is None:
            assert sub.lower is base.lower and sub.upper is base.upper


_FIXING_OFFSETS = (0.0,) * 12 + (0.5, -1.0) + _offsets(BOUND_TOL) + _offsets(INTEGRALITY_TOL)
_RANGE_BOUNDS = (-INF, -2.0, 0.0, -0.0, 1.0, 3.0, INF)
_RANGE_OFFSETS = (0.0,) + _offsets(BOUND_TOL)
_NON_FINITE = (INF, -INF, float("nan"))


@st.composite
def _model_and_spec(draw):
    """A model as in ``_model_and_point`` and a spec over it in its arrays:
    bounds that fix columns at or near a bound or an integer inside and
    narrow others, appended rows and a new objective; each part is now and
    then malformed (a fixing off its bounds, fractional or infinite, an empty
    range, a NaN bound, a row with only zeros, a non-finite entry or a wrong
    shape). A range may cross within ``BOUND_TOL``."""
    model, _ = draw(_model_and_point())
    n = model.n_vars
    index = st.integers(0, n - 1)
    fields = {}
    present = st.integers(0, 2)  # two in three specs set a field
    flaw = st.sampled_from((None,) * 12 + (0, 1, 2))  # now and then one of three flaws
    if draw(present):
        lower, upper = list(model.relaxation.lower), list(model.relaxation.upper)
        base_lower, base_upper = model.relaxation.lower.tolist(), model.relaxation.upper.tolist()
        for j in draw(st.lists(index, max_size=n, unique=True)):
            bound = st.sampled_from((base_upper[j], base_lower[j]) + _RANGE_BOUNDS)
            lo, up = draw(bound), draw(bound)
            if draw(st.integers(0, 5)):
                lo, up = min(lo, up), max(lo, up)
            offset = draw(st.sampled_from(_RANGE_OFFSETS))
            lower[j], upper[j] = lo + offset if offset else lo, up  # -0.0 + 0.0 is 0.0
        for j in draw(st.lists(index, max_size=n, unique=True)):
            inside = min(max(float(draw(st.integers(-3, 3))), base_lower[j]), base_upper[j])
            anchors = [b for b in (base_lower[j], base_upper[j]) if math.isfinite(b)] + [inside]
            value = draw(st.sampled_from(anchors)) + draw(st.sampled_from(_FIXING_OFFSETS))
            lower[j] = upper[j] = value
        kind = draw(flaw)
        if kind == 0:
            (lower if draw(st.booleans()) else upper)[draw(index)] = float("nan")
        elif kind == 1:
            upper = upper[1:]
        elif kind == 2:
            j = draw(index)
            lower[j] = upper[j] = draw(st.sampled_from(_NON_FINITE[:2]))
        fields["bounds"] = (lower, upper)
    if draw(present):
        k = draw(st.integers(0, 3))
        entry = st.sampled_from((1.0, -2.0, 0.0, 3.0, -0.0, -1.0))
        rows = np.array([[draw(entry) for _ in range(n)] for _ in range(k)]).reshape(k, n)
        rhs = np.array([float(draw(st.integers(-4, 4))) for _ in range(k)])
        kind = draw(flaw)
        if kind == 0 and k:
            rows[draw(st.integers(0, k - 1)), draw(index)] = draw(st.sampled_from(_NON_FINITE))
        elif kind == 1 and k:
            rhs[draw(st.integers(0, k - 1))] = draw(st.sampled_from(_NON_FINITE))
        elif kind == 2:
            rows = np.hstack([rows, np.ones((k, 1))])
        fields["rows"] = (rows, rhs)
    if draw(present):
        costs = [draw(st.sampled_from((1.0, -2.0, 0.5, 0.0, -0.0))) for _ in range(n)]
        offset = float(draw(st.integers(-4, 4)))
        kind = draw(flaw)
        if kind == 0:
            costs[draw(index)] = draw(st.sampled_from(_NON_FINITE))
        elif kind == 1:
            offset = draw(st.sampled_from(_NON_FINITE))
        elif kind == 2:
            costs = costs[1:]
        fields["objective"] = (costs, offset)
    return model, parlns.model.NeighborhoodSpec(**fields)


def _outcome(apply, model, spec):
    try:
        return apply(model, spec)
    except ModelError as exc:
        return type(exc)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_model_and_spec())
@example((  # a range crossed within BOUND_TOL, which closes to its upper bound
    make_model("crossed", MINIMIZE, [Variable("x", CONTINUOUS, 0.0, 1.0)], [], {0: 1.0}),
    parlns.model.NeighborhoodSpec(bounds=([1.0 + 0.5 * BOUND_TOL], [2.0])),
))
@example((  # bounds that tie with the model's but for the sign of zero keep their own
    make_model("ties", MINIMIZE, [Variable("x", CONTINUOUS, 0.0, 3.0),
                                  Variable("y", CONTINUOUS, -2.0, 0.0)], [], {0: 1.0}),
    parlns.model.NeighborhoodSpec(bounds=([-0.0, -1.0], [2.0, -0.0])),
))
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
            bounds=(np.zeros(12), np.concatenate([[0.0], np.ones(11)])),
            rows=(np.eye(12)[[1]], [1.0]),
            objective=(np.eye(12)[2], 0.0),
        ),
    )
    for relax in (model.relaxation, sub.relaxation):
        for f in dataclasses.fields(LpRelaxation):
            value = getattr(relax, f.name)
            if isinstance(value, np.ndarray):
                with pytest.raises(ValueError, match="read-only"):
                    value[...] = 0


def test_unpickled_models_and_sub_problems_are_read_only_and_solve_alike():
    model = independent_set(20, 0.1, seed=7)
    n = model.n_vars
    upper = np.ones(n)
    upper[:6] = 0.0
    sub = apply_neighborhood(
        model, parlns.model.NeighborhoodSpec(bounds=(np.zeros(n), upper), rows=(np.ones((1, n)), [5.0]))
    )
    reduced = presolve(sub).relaxation
    assert reduced.A.shape[1] < n
    for original in (model, sub, reduced):
        want = solve_lp(original)
        copy = pickle.loads(pickle.dumps(original))
        relax = copy.relaxation
        for f in dataclasses.fields(LpRelaxation):
            value = getattr(relax, f.name)
            if isinstance(value, np.ndarray):
                assert not value.flags.writeable, f.name
        assert_same_arrays(relax, original.relaxation)
        assert solve_lp(copy) == want


def test_worker_builds_base_arrays_once_and_only_appended_rows(monkeypatch):
    # the model's arrays are built with the model; a worker builds no others
    built, applied = [], []
    real_build, real_apply = parlns.model.build_model, parlns.alns.apply_neighborhood

    def counting_build(*args, **kwargs):
        built.append(args)
        return real_build(*args, **kwargs)

    def recording_apply(model, spec):
        sub = real_apply(model, spec)
        applied.append((spec, sub))
        return sub

    monkeypatch.setattr(parlns.model, "build_model", counting_build)
    monkeypatch.setattr(parlns.alns, "apply_neighborhood", recording_apply)
    model = independent_set(30, 0.2, seed=5)
    base = model.relaxation
    result = run_worker(model, DEFAULT_CONFIG, 0.5, seed=1, clock=SimulatedClock(0.01))
    assert result.iterations > 0
    assert len(built) == 1 and model.relaxation is base
    m = base.A.shape[0]
    with_row = 0
    for spec, sub in applied:
        if spec.rows is None:
            assert sub.A is base.A and sub.b is base.b and sub.slack_upper is base.slack_upper
            continue
        # local branching and proximity sub-MIPs add their one row below the base rows
        with_row += 1
        assert sub.A.shape == (m + 1, model.n_vars)
        assert np.array_equal(sub.A[:m], base.A) and np.array_equal(sub.b[:m], base.b)
        assert np.array_equal(sub.slack_upper[:m], base.slack_upper)
    assert with_row and len(applied) > with_row


def test_threads_sharing_a_model_see_one_set_of_arrays():
    # the arrays are built with the model, so racing readers all see them
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
        assert relax is final
        assert solution_fields(solution) == solution_fields(seen[0][1]) and solution.feasible
