import pytest

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
    ModelError,
    NeighborhoodSpec,
    Variable,
    apply_neighborhood,
    evaluate,
    make_model,
)

from support import tiny_cover_model


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
    assert derived == model


def test_apply_neighborhood_fixing_sets_equal_bounds():
    model = tiny_cover_model()
    derived = apply_neighborhood(model, NeighborhoodSpec(fixings={0: 1.0}))
    assert derived.variables[0].lower == derived.variables[0].upper == 1.0
    assert model.variables[0].lower == 0.0  # original untouched


def test_apply_neighborhood_adds_constraint():
    model = tiny_cover_model()
    extra = LinearConstraint("cap", {0: 1.0, 1: 1.0}, LE, 1.0)
    derived = apply_neighborhood(model, NeighborhoodSpec(extra_constraints=(extra,)))
    assert len(derived.constraints) == len(model.constraints) + 1


def test_apply_neighborhood_rejects_conflicting_fixing():
    model = tiny_cover_model()
    with pytest.raises(ConflictingFixing):
        apply_neighborhood(model, NeighborhoodSpec(fixings={0: 2.0}))
    with pytest.raises(ConflictingFixing):
        apply_neighborhood(model, NeighborhoodSpec(fixings={0: 0.5}))


def test_apply_neighborhood_rejects_malformed_rows_and_objective():
    model = tiny_cover_model()
    n = model.n_vars
    malformed = (
        NeighborhoodSpec(extra_constraints=(LinearConstraint("far", {n: 1.0}, LE, 1.0),)),
        NeighborhoodSpec(extra_constraints=(LinearConstraint("zero", {0: 0.0}, LE, 1.0),)),
        NeighborhoodSpec(extra_constraints=(LinearConstraint("rel", {0: 1.0}, "<", 1.0),)),
        NeighborhoodSpec(objective_override=({n: 1.0}, 0.0)),
    )
    for spec in malformed:
        with pytest.raises(ModelError):
            apply_neighborhood(model, spec)


def test_apply_neighborhood_is_pure_and_deterministic():
    model = tiny_cover_model()
    spec = NeighborhoodSpec(
        fixings={1: 0.0},
        extra_constraints=(LinearConstraint("e", {0: 1.0}, LE, 1.0),),
    )
    first = apply_neighborhood(model, spec)
    second = apply_neighborhood(model, spec)
    assert first == second


def test_feasibility_transfers_to_base_model():
    # restriction-only specs: feasible in the sub-model implies feasible in base
    model = tiny_cover_model()
    spec = NeighborhoodSpec(
        fixings={0: 1.0},
        extra_constraints=(LinearConstraint("e", {0: 1.0, 1: 1.0}, LE, 1.0),),
    )
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
    derived = apply_neighborhood(
        model, NeighborhoodSpec(objective_override=({0: 1.0}, 0.5))
    )
    assert derived.sense == MINIMIZE
    assert derived.objective == {0: 1.0}
    assert derived.objective_offset == 0.5


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
