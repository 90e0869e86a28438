import numpy as np
import pytest

from parlns.lp import LP_OPTIMAL, solve_relaxation
from parlns.model import (
    BINARY,
    CONTINUOUS,
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


def test_evaluate_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        evaluate(tiny_cover_model(), (1.0,))


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
    assert model.objective == {0: -5.0}
    assert model.objective_offset == -2.0
    sol = evaluate(model, (3.0,))
    assert sol.objective == -17.0
    assert model.to_external_objective(sol.objective) == 17.0


def test_binary_normalization():
    model = make_model(
        "m",
        MINIMIZE,
        [Variable("i", INTEGER, 0, 1), Variable("b", BINARY)],
        [],
        {0: 1.0},
    )
    assert model.variables[0].kind == BINARY
    assert model.variables[1].upper == 1.0  # clamped from +inf


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
    assert model.relaxation.lower[0] == model.variables[0].lower == 0.0  # original untouched


def test_apply_neighborhood_adds_constraint():
    model = tiny_cover_model()
    derived = apply_neighborhood(model, NeighborhoodSpec(rows=([[1.0, 1.0]], [1.0])))
    n, m = model.n_vars, len(model.constraints)
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


def test_json_dump_round_trips_names_and_sense():
    model = make_model(
        "dump",
        MAXIMIZE,
        [Variable("a", BINARY), Variable("b", CONTINUOUS, -INF, INF)],
        [LinearConstraint("c", {0: 1.0, 1: 2.0}, LE, 3.0)],
        {0: 4.0},
        offset=1.0,
    )
    dump = model.to_json_dict()
    assert dump["sense"] == MAXIMIZE
    assert dump["objective"]["coefficients"] == {"a": 4.0}
    assert dump["objective"]["offset"] == 1.0
    assert dump["variables"][1]["lower"] == "-inf"
    assert dump["variables"][1]["upper"] == "inf"
    assert dump["constraints"][0]["coefficients"] == {"a": 1.0, "b": 2.0}
