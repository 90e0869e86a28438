import numpy as np
import pytest

from parlns.lp import LP_OPTIMAL, solve_relaxation
from parlns.model import (
    BINARY,
    BOUND_TOL,
    CONTINUOUS,
    EQ,
    GE,
    INF,
    INTEGER,
    LE,
    MAXIMIZE,
    MINIMIZE,
    ConflictingFixing,
    DimensionMismatch,
    LinearConstraint,
    LpRelaxation,
    ModelError,
    NeighborhoodSpec,
    Variable,
    apply_neighborhood,
    build_model,
    evaluate,
    make_model,
)

from support import assert_same_arrays, fixing_spec, tiny_cover_model


def test_evaluate_feasible_integral():
    model = tiny_cover_model()
    sol = evaluate(model, (1.0, 0.0))
    assert sol.objective == 1.0
    assert sol.feasible and sol.integral


def test_evaluate_infeasible():
    sol = evaluate(tiny_cover_model(), (0.0, 0.0))
    assert sol.objective == 0.0
    assert not sol.feasible


def test_evaluate_fractional():
    sol = evaluate(tiny_cover_model(), (0.5, 0.5))
    assert sol.objective == 1.0
    assert sol.feasible
    assert not sol.integral


def test_evaluate_calls_a_point_that_is_not_finite_infeasible():
    from parlns.instances import knapsack

    # both were feasible: a NaN fails no comparison, and +inf meets an
    # infinite upper bound
    assert not evaluate(knapsack(5, seed=1), [float("nan")] * 5).feasible
    model = make_model("m", MINIMIZE, [Variable("x", BINARY), Variable("y", CONTINUOUS, -INF)], [], {1: 1.0})
    for y in (INF, -INF):
        sol = evaluate(model, (1.0, y))
        assert sol.integral and sol.objective == y
        assert not sol.feasible


def test_evaluate_dimension_mismatch():
    from parlns.instances import knapsack

    with pytest.raises(DimensionMismatch):
        evaluate(tiny_cover_model(), (1.0,))
    # five rows of one value each: a 2-D point, not five values
    with pytest.raises(DimensionMismatch, match=r"expected 5 values, got shape \(5, 1\)"):
        evaluate(knapsack(5, seed=1), [[0.0]] * 5)
    with pytest.raises(DimensionMismatch):
        evaluate(tiny_cover_model(), 1.0)
    # ragged points: numpy's own ValueError escaped before
    for point in ([[0.0], [0.0, 1.0]], [0.0, [1.0, 0.0]]):
        with pytest.raises(DimensionMismatch, match="point: .*sequence"):
            evaluate(knapsack(2, seed=1), point)


def test_evaluate_refuses_a_non_numeric_point_as_a_model_error():
    from parlns.instances import knapsack

    # numpy's own ValueError and TypeError escaped before
    for point, match in ((["a", "b"], "could not convert string to float: 'a'"), ([{0.0}, 1.0], "")):
        with pytest.raises(ModelError, match=f"point: {match}") as err:
            evaluate(knapsack(2, seed=1), point)
        assert not isinstance(err.value, DimensionMismatch)


def test_evaluate_keeps_its_own_read_only_copy_of_the_point():
    point = np.array([1.0, 0.0])
    sol = evaluate(tiny_cover_model(), point)
    point[:] = (0.0, 1.0)
    assert sol.values.tolist() == [1.0, 0.0]
    assert sol.values.dtype == np.float64 and sol.values.shape == (2,)
    with pytest.raises(ValueError, match="read-only"):
        sol.values[0] = 2.0


def test_objective_matches_dot_product():
    model = make_model(
        "m",
        MINIMIZE,
        [Variable("a", CONTINUOUS, 0, 10), Variable("b", CONTINUOUS, 0, 10)],
        [LinearConstraint("c", {0: 1.0}, LE, 10.0)],
        {0: 2.0, 1: -3.0},
        offset=1.5,
    )
    sol = evaluate(model, (2.0, 1.0))
    assert abs(sol.objective - (2.0 * 2 - 3.0 * 1 + 1.5)) <= 1e-9 * abs(sol.objective)


def test_maximize_is_negated_internally():
    model = make_model(
        "m",
        MAXIMIZE,
        [Variable("a", CONTINUOUS, 0, 10)],
        [LinearConstraint("c", {0: 1.0}, LE, 10.0)],
        {0: 5.0},
        offset=2.0,
    )
    assert model.objective.tolist() == [-5.0] and model.objective is model.relaxation.c
    assert model.relaxation.offset == -2.0
    sol = evaluate(model, (3.0,))
    assert sol.objective == -17.0
    assert model.to_external_objective(sol.objective) == 17.0


def test_binary_normalization():
    model = make_model(
        "m",
        MINIMIZE,
        [Variable("i", INTEGER, -0.5 * BOUND_TOL, 1), Variable("b", BINARY), Variable("j", INTEGER, 0, 2)],
        [],
        {0: 1.0},
    )
    relax = model.relaxation
    assert relax.integer.tolist() == [True, True, True]
    assert relax.lower.tolist() == [0.0, 0.0, 0.0]  # an integer inside [0, 1] is clamped
    assert relax.upper.tolist() == [1.0, 1.0, 2.0]  # a binary's upper clamped from +inf


def test_binaries_are_the_integer_columns_inside_unit_bounds():
    variables = [
        Variable("b", BINARY), Variable("i", INTEGER, 0, 1), Variable("fixed", INTEGER, 1, 1),
        Variable("wide", INTEGER, 0, 2), Variable("negative", INTEGER, -1, 0), Variable("x", CONTINUOUS, 0, 1),
    ]
    relax = make_model("m", MINIMIZE, variables, [], {}).relaxation
    assert relax.binary.tolist() == [True, True, True, False, False, False]


def test_validation_rejects_duplicates_and_bad_indices():
    with pytest.raises(ModelError):
        make_model("m", MINIMIZE, [Variable("x"), Variable("x")], [], {})
    with pytest.raises(ModelError):
        make_model(
            "m",
            MINIMIZE,
            [Variable("x")],
            [LinearConstraint("c", {3: 1.0}, LE, 0.0)],
            {},
        )
    with pytest.raises(ModelError):
        make_model("m", MINIMIZE, [Variable("x", CONTINUOUS, 2.0, 1.0)], [], {})


def test_apply_neighborhood_empty_spec_is_identity():
    model = tiny_cover_model()
    derived = apply_neighborhood(model, NeighborhoodSpec())
    assert isinstance(derived, LpRelaxation) and derived.relaxation is derived
    assert_same_arrays(derived, model.relaxation)


def test_apply_neighborhood_fixing_sets_equal_bounds():
    model = tiny_cover_model()
    derived = apply_neighborhood(model, NeighborhoodSpec(bounds=([1.0, 0.0], [1.0, 1.0])))
    assert derived.lower.tolist() == [1.0, 0.0]
    assert derived.upper.tolist() == [1.0, 1.0]
    assert model.relaxation.lower[0] == 0.0  # original untouched


def test_apply_neighborhood_adds_constraint():
    model = tiny_cover_model()
    derived = apply_neighborhood(model, NeighborhoodSpec(rows=([[1.0, 1.0]], [1.0])))
    m, n = model.relaxation.A.shape
    assert derived.A.shape == (m + 1, n)
    assert derived.A[m].tolist() == [1.0, 1.0]
    assert derived.b[m] == 1.0
    assert (derived.slack_lower[m], derived.slack_upper[m]) == (0.0, INF)
    assert np.array_equal(derived.A[:m], model.relaxation.A)


def test_apply_neighborhood_rejects_conflicting_fixing():
    model = tiny_cover_model()
    for value in (2.0, 0.5, -1e-8, INF):
        with pytest.raises(ConflictingFixing, match="'x'"):
            apply_neighborhood(model, fixing_spec(model, {0: value}))
    with pytest.raises(ConflictingFixing, match="'y'"):
        apply_neighborhood(model, NeighborhoodSpec(bounds=([0.0, 1.5], [1.0, 3.0])))


def test_a_range_crossed_within_tolerance_closes_to_its_upper_bound():
    model = make_model("m", MINIMIZE, [Variable("x", CONTINUOUS, 0.0, 1.0)], [], {0: 1.0})
    over = 1.0 + 5e-10
    narrowed = apply_neighborhood(model, NeighborhoodSpec(bounds=([over], [2.0])))
    assert (narrowed.lower.tolist(), narrowed.upper.tolist()) == ([1.0], [1.0])
    fixed = apply_neighborhood(model, fixing_spec(model, {0: over}))
    assert (fixed.lower.tolist(), fixed.upper.tolist()) == ([over], [over])
    for sub in (narrowed, fixed):
        assert solve_relaxation(sub).status == LP_OPTIMAL


def test_apply_neighborhood_rejects_malformed_rows_and_objective():
    model = tiny_cover_model()
    nan = float("nan")
    malformed = (
        (NeighborhoodSpec(bounds=([0.0], [1.0])), "shape"),
        (NeighborhoodSpec(bounds=([0.0, nan], [1.0, 1.0])), "'y'"),
        (NeighborhoodSpec(rows=([[1.0, 1.0, 1.0]], [1.0])), "shape"),
        (NeighborhoodSpec(rows=([1.0, 1.0], [1.0])), "shape"),
        (NeighborhoodSpec(rows=([[1.0, 1.0]], [1.0, 2.0])), "shape"),
        (NeighborhoodSpec(rows=([[1.0, 1.0], [0.0, -0.0]], [1.0, 1.0])), "row 1"),
        (NeighborhoodSpec(rows=([[1.0, INF]], [1.0])), "'y'"),
        (NeighborhoodSpec(rows=([[1.0, 1.0]], [nan])), "row 0"),
        (NeighborhoodSpec(objective=([1.0, 1.0, 1.0], 0.0)), "shape"),
        (NeighborhoodSpec(objective=([nan, 1.0], 0.0)), "'x'"),
        (NeighborhoodSpec(objective=([1.0, 1.0], INF)), "offset"),
        # a field that is no array of numbers: numpy's ValueError escaped before
        (NeighborhoodSpec(bounds=([0.0, [0.0, 1.0]], [1.0, 1.0])), "bounds: "),
        (NeighborhoodSpec(bounds=([0.0, 0.0], ["a", 1.0])), "bounds: could not convert"),
        (NeighborhoodSpec(rows=([[1.0, 1.0], [1.0]], [1.0, 1.0])), "rows: "),
        (NeighborhoodSpec(rows=([[1.0, 1.0]], [[1.0], [1.0, 2.0]])), "rows: "),
        (NeighborhoodSpec(objective="ab"), "objective: could not convert string to float: 'a'"),
        (NeighborhoodSpec(objective=(["a", 1.0], 0.0)), "objective: could not convert"),
    )
    for spec, match in malformed:
        with pytest.raises(ModelError, match=match):
            apply_neighborhood(model, spec)


def test_apply_neighborhood_is_pure_and_deterministic():
    model = tiny_cover_model()
    spec = NeighborhoodSpec(bounds=([0.0, 0.0], [1.0, 0.0]), rows=([[1.0, 0.0]], [1.0]))
    first = apply_neighborhood(model, spec)
    second = apply_neighborhood(model, spec)
    assert_same_arrays(first, second)
    assert_same_arrays(model.relaxation, tiny_cover_model().relaxation)


def test_feasibility_transfers_to_base_model():
    # restriction-only specs: feasible in the sub-model implies feasible in base
    model = tiny_cover_model()
    spec = NeighborhoodSpec(bounds=([1.0, 0.0], [1.0, 1.0]), rows=([[1.0, 1.0]], [1.0]))
    sub = apply_neighborhood(model, spec)
    point = (1.0, 0.0)
    assert evaluate(sub, point).feasible
    assert evaluate(model, point).feasible


def test_objective_override_switches_to_minimize():
    model = make_model(
        "m",
        MAXIMIZE,
        [Variable("a", BINARY)],
        [LinearConstraint("c", {0: 1.0}, LE, 1.0)],
        {0: 1.0},
    )
    derived = apply_neighborhood(model, NeighborhoodSpec(objective=([1.0], 0.5)))
    # the override is stated in minimization form and is not negated
    assert derived.c.tolist() == [1.0]
    assert derived.offset == 0.5
    assert model.relaxation.c.tolist() == [-1.0]


def test_constraints_are_records_of_the_arrays():
    model = make_model(
        "records",
        MAXIMIZE,
        [Variable("a", BINARY), Variable("b", CONTINUOUS, -INF, INF)],
        [LinearConstraint("c", {0: 1.0, 1: -0.0}, LE, 3.0),
         LinearConstraint("d", {1: 2.0}, EQ, -1.0),
         LinearConstraint("e", {0: 4.0, 1: 1.0}, GE, 0.0)],
        {0: 4.0},
    )
    assert model.constraints == (
        LinearConstraint("c", {0: 1.0}, LE, 3.0),
        LinearConstraint("d", {1: 2.0}, EQ, -1.0),
        LinearConstraint("e", {0: 4.0, 1: 1.0}, GE, 0.0),
    )
    assert (model.column_names, model.row_names) == (("a", "b"), ("c", "d", "e"))


_NAN = float("nan")


@pytest.mark.parametrize("variables, constraints, objective, offset, match", [
    ([Variable("x"), Variable("y", CONTINUOUS, _NAN, 1.0)], [], {}, 0.0, "'y'"),
    ([Variable("x"), Variable("y", INTEGER, 0.0, _NAN)], [], {}, 0.0, "'y'"),
    ([Variable("x"), Variable("y", CONTINUOUS, INF, INF)], [], {}, 0.0, "'y'"),
    ([Variable("x"), Variable("y", CONTINUOUS, -INF, -INF)], [], {}, 0.0, "'y'"),
    ([Variable("x"), Variable("y")], [LinearConstraint("c", {0: 1.0}, LE, 1.0),
                                      LinearConstraint("d", {1: INF}, LE, 1.0)], {}, 0.0, "'d'"),
    ([Variable("x"), Variable("y")], [LinearConstraint("c", {0: 1.0}, LE, 1.0),
                                      LinearConstraint("d", {1: _NAN}, LE, 1.0)], {}, 0.0, "'y'"),
    ([Variable("x"), Variable("y")], [LinearConstraint("c", {0: 1.0}, LE, 1.0),
                                      LinearConstraint("d", {1: 1.0}, GE, _NAN)], {}, 0.0, "'d'"),
    ([Variable("x"), Variable("y")], [LinearConstraint("c", {0: 1.0}, EQ, -INF)], {}, 0.0, "'c'"),
    ([Variable("x"), Variable("y")], [], {0: 1.0, 1: -INF}, 0.0, "'y'"),
    ([Variable("x"), Variable("y")], [], {0: _NAN}, 0.0, "'x'"),
    ([Variable("x"), Variable("y")], [], {0: 1.0}, _NAN, "offset"),
    ([Variable("x"), Variable("y")], [], {0: 1.0}, INF, "offset"),
])
def test_make_model_refuses_non_finite_data(variables, constraints, objective, offset, match):
    for sense in (MINIMIZE, MAXIMIZE):
        with pytest.raises(ModelError, match=match):
            make_model("bad", sense, variables, constraints, objective, offset)


def test_make_model_names_the_first_offending_column_or_row():
    variables = [Variable("x"), Variable("y", CONTINUOUS, 2.0, 1.0), Variable("z", "real")]
    with pytest.raises(ModelError, match="'z': unknown kind"):
        make_model("m", MINIMIZE, variables, [], {})
    with pytest.raises(ModelError, match="'y': lower 2.0 > upper 1.0"):
        make_model("m", MINIMIZE, variables[:2], [], {})
    rows = [LinearConstraint("c", {0: 1.0}, LE, 1.0), LinearConstraint("d", {0: 0.0, 1: -0.0}, GE, 1.0)]
    with pytest.raises(ModelError, match="'d' has no nonzero coefficient"):
        make_model("m", MINIMIZE, variables[:1] + [Variable("y")], rows, {})
    rows[1] = LinearConstraint("d", {0: 1.0}, "<", 1.0)
    with pytest.raises(ModelError, match="'d': unknown relation"):
        make_model("m", MINIMIZE, variables[:1] + [Variable("y")], rows, {})
    with pytest.raises(ModelError, match="'c' references variable index -1"):
        make_model("m", MINIMIZE, [Variable("x")], [LinearConstraint("c", {-1: 1.0}, LE, 1.0)], {})
    with pytest.raises(ModelError, match="objective references variable index 1"):
        make_model("m", MINIMIZE, [Variable("x")], [], {1: 1.0})
    with pytest.raises(ModelError, match="duplicate constraint name 'c'"):
        make_model("m", MINIMIZE, [Variable("x")], [rows[0], rows[0]], {})
    with pytest.raises(ModelError, match="unknown sense"):
        make_model("m", "max", [Variable("x")], [], {})


def _build(slack_lower, slack_upper):
    """Two columns and one row per slack-bound pair, through ``build_model``."""
    m = len(slack_lower)
    return build_model(
        "slack", MINIMIZE, ["x", "y"], [f"r{i}" for i in range(m)], kinds=[CONTINUOUS] * 2,
        lower=[0.0, 0.0], upper=[INF, INF], slack_lower=slack_lower, slack_upper=slack_upper,
        A=np.ones((m, 2)), b=np.full(m, 2.0), c=np.zeros(2), offset=0.0,
    )


def test_build_model_takes_the_five_row_forms():
    # =, <=, >=, a ranged <= and a ranged >=; a -0.0 slack bound becomes 0.0
    lower, upper = [0.0, 0.0, -INF, 0.0, -2.5, -0.0, -0.0], [0.0, INF, 0.0, 3.0, 0.0, -0.0, 1.0]
    relax = _build(lower, upper).relaxation
    assert relax.slack_lower.tolist() == lower and relax.slack_upper.tolist() == upper
    bounds = np.concatenate([relax.slack_lower, relax.slack_upper])
    assert not np.signbit(bounds[bounds == 0.0]).any()


@pytest.mark.parametrize("bounds", [
    (1.0, 2.0), (-1.0, 1.0), (-INF, INF), (0.0, -1.0), (1.0, INF), (-INF, -1.0), (1.0, 0.0),
    (INF, INF), (-INF, -INF), (_NAN, 0.0), (0.0, _NAN), (_NAN, _NAN), (-_NAN, INF),
])
def test_build_model_refuses_slack_bounds_of_no_row_form(bounds):
    _build([0.0], [INF])
    with pytest.raises(ModelError, match="'r1': slack bounds"):
        _build([0.0, bounds[0]], [INF, bounds[1]])
