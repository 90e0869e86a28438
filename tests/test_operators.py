import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parlns.lp import solve_lp
from parlns.model import (
    BINARY,
    CONTINUOUS,
    GE,
    INTEGER,
    LE,
    MAXIMIZE,
    MINIMIZE,
    LinearConstraint,
    LpRelaxation,
    ModelError,
    Solution,
    Variable,
    apply_neighborhood,
    evaluate,
    make_model,
)
from parlns.instances import knapsack, set_cover
from parlns.operators import (
    CROSSOVER,
    FAMILIES,
    MUTATION,
    PERCENTAGE_POOL,
    RENS,
    EmptyNeighborhood,
    MissingRelaxation,
    OperatorContext,
    OperatorSpec,
    build_neighborhood,
)

from support import (
    apply_neighborhood_oracle,
    assert_same_arrays,
    build_neighborhood_oracle,
    relaxation_from_dicts,
    tiny_cover_model,
)


def _fixings(spec):
    """The columns a spec's bounds fix, with their values."""
    if spec.bounds is None:
        return {}
    lower, upper = spec.bounds
    return {j: float(lower[j]) for j in np.flatnonzero(lower == upper).tolist()}


def _ranges(spec):
    """The columns a spec's bounds leave unfixed, with their range."""
    lower, upper = spec.bounds
    return {j: (float(lower[j]), float(upper[j])) for j in np.flatnonzero(lower != upper).tolist()}


def _incumbent(model, values):
    sol = evaluate(model, values)
    assert sol.feasible and sol.integral
    return sol


def _context(model, values, archive=(), lp=False, seed=0):
    incumbent = _incumbent(model, values)
    lp_values = None
    if lp:
        res = solve_lp(model)
        assert res.status == "optimal"
        lp_values = res.values
    return OperatorContext(
        incumbent=incumbent,
        archive=tuple(archive),
        lp_values=lp_values,
        rng=random.Random(seed),
    )


def test_identifier_round_trip():
    for token in ("c", "m_10", "m_50", "lb_20", "p_05", "p_30", "r_40", "ri_10"):
        assert OperatorSpec.from_identifier(token).identifier == token
    with pytest.raises(ValueError):
        OperatorSpec.from_identifier("z_10")
    with pytest.raises(ValueError):
        OperatorSpec("mutation", 15)
    with pytest.raises(ValueError):
        OperatorSpec("proximity", 40)
    with pytest.raises(ValueError):
        OperatorSpec("crossover", 10)


def test_mutation_fixing_count_law():
    model = set_cover(8, 10, seed=3)  # d = 10 binaries
    values = tuple(1.0 for _ in range(model.n_vars))
    for percentage in (10, 20, 30, 40, 50):
        ctx = _context(model, values, seed=percentage)
        spec = build_neighborhood(OperatorSpec("mutation", percentage), ctx, model)
        expected_free = math.ceil(percentage * 10 / 100)
        assert len(_fixings(spec)) == 10 - expected_free
        assert all(v == 1.0 for v in _fixings(spec).values())


def test_mutation_50_on_ten_vars_frees_exactly_five():
    model = set_cover(8, 10, seed=3)
    values = tuple(1.0 for _ in range(model.n_vars))
    ctx = _context(model, values, seed=1)
    spec = build_neighborhood(OperatorSpec("mutation", 50), ctx, model)
    assert len(_fixings(spec)) == 5


def test_crossover_fixes_agreements():
    model = set_cover(8, 10, seed=3)
    inc_values = tuple(1.0 for _ in range(model.n_vars))
    other_values = list(inc_values)
    other_values[0] = 0.0
    other_values[3] = 0.0
    other = evaluate(model, other_values)
    ctx = _context(model, inc_values, archive=(other,), seed=2)
    spec = build_neighborhood(OperatorSpec(CROSSOVER), ctx, model)
    assert set(_fixings(spec)) == {j for j in range(10) if j not in (0, 3)}


def test_crossover_without_partner_falls_back_to_mutation_30():
    model = set_cover(8, 10, seed=3)
    values = tuple(1.0 for _ in range(model.n_vars))
    incumbent = _incumbent(model, values)
    crossover_counts = Counter()
    mutation_counts = Counter()
    for trial in range(1000):
        ctx = OperatorContext(
            incumbent=incumbent,
            archive=(incumbent,),  # only the incumbent itself
            lp_values=None,
            rng=random.Random(trial),
        )
        spec = build_neighborhood(OperatorSpec(CROSSOVER), ctx, model)
        crossover_counts[len(_fixings(spec))] += 1
        ctx2 = OperatorContext(incumbent=incumbent, archive=(), lp_values=None,
                               rng=random.Random(trial))
        spec2 = build_neighborhood(OperatorSpec("mutation", 30), ctx2, model)
        mutation_counts[len(_fixings(spec2))] += 1
    assert crossover_counts == mutation_counts
    assert set(crossover_counts) == {10 - math.ceil(0.3 * 10)}


def test_crossover_takes_no_partner_equal_up_to_the_sign_of_a_zero():
    # a partner that agrees on every column would leave nothing to search
    model = knapsack(10, seed=3)
    incumbent = _incumbent(model, [0.0] * model.n_vars)
    twin = _incumbent(model, [-0.0] * model.n_vars)
    assert np.signbit(twin.values).all()
    for seed in range(20):
        with_twin = OperatorContext(incumbent, (twin,), None, random.Random(seed))
        alone = OperatorContext(incumbent, (), None, random.Random(seed))
        _assert_same_spec(build_neighborhood(OperatorSpec(CROSSOVER), with_twin, model),
                          build_neighborhood(OperatorSpec(MUTATION, 30), alone, model))


def test_local_branching_radius_and_slack():
    model = set_cover(8, 10, seed=3)  # |B| = 10
    values = tuple(1.0 for _ in range(model.n_vars))
    ctx = _context(model, values, seed=4)
    spec = build_neighborhood(OperatorSpec("local_branching", 20), ctx, model)
    assert spec.bounds is None and spec.objective is None
    rows, rhs = spec.rows
    assert np.shape(rows) == (1, 10) and np.shape(rhs) == (1,)
    # distance(incumbent, incumbent) = 0, so the incumbent has slack = radius 2
    activity = float(np.asarray(rows)[0] @ values)
    radius = math.ceil(20 * 10 / 100)
    assert radius == 2
    assert rhs[0] - activity == pytest.approx(radius)


def test_local_branching_incumbent_containment():
    model = set_cover(8, 10, seed=3)
    values = tuple(1.0 for _ in range(model.n_vars))
    ctx = _context(model, values, seed=4)
    spec = build_neighborhood(OperatorSpec("local_branching", 20), ctx, model)
    sub = apply_neighborhood(model, spec)
    assert evaluate(sub, values).feasible


def test_proximity_excludes_incumbent_and_flips_objective():
    model = set_cover(8, 10, seed=3)
    values = tuple(1.0 for _ in range(model.n_vars))
    ctx = _context(model, values, seed=5)
    spec = build_neighborhood(OperatorSpec("proximity", 10), ctx, model)
    sub = apply_neighborhood(model, spec)
    incumbent_in_sub = evaluate(sub, values)
    assert not incumbent_in_sub.feasible  # cutoff excludes the incumbent
    assert spec.objective is not None
    # the overridden objective is the Hamming distance to the incumbent
    costs, offset = spec.objective
    assert set(np.abs(costs).tolist()) == {1.0}
    distance_at_incumbent = offset + float(np.asarray(costs) @ values)
    assert distance_at_incumbent == pytest.approx(0.0)


def test_proximity_delta_scales_with_objective():
    model = set_cover(8, 10, seed=3)
    values = tuple(1.0 for _ in range(model.n_vars))
    ctx = _context(model, values, seed=6)
    spec = build_neighborhood(OperatorSpec("proximity", 20), ctx, model)
    rows, rhs = spec.rows
    assert np.array_equal(rows, [model.relaxation.c])
    incumbent_obj = ctx.incumbent.objective
    delta = 0.2 * max(abs(incumbent_obj), 1.0)
    assert rhs[0] == pytest.approx(incumbent_obj - model.relaxation.offset - delta)


def test_rens_requires_relaxation():
    model = set_cover(8, 10, seed=3)
    values = tuple(1.0 for _ in range(model.n_vars))
    ctx = _context(model, values, lp=False, seed=7)
    with pytest.raises(MissingRelaxation):
        build_neighborhood(OperatorSpec("rens", 30), ctx, model)
    with pytest.raises(MissingRelaxation):
        build_neighborhood(OperatorSpec("rins", 30), ctx, model)


def test_rens_fixes_integral_lp_values_and_bounds_fractional():
    model = knapsack(12, seed=7)
    values = tuple(0.0 for _ in range(model.n_vars))
    ctx = _context(model, values, lp=True, seed=8)
    spec = build_neighborhood(OperatorSpec("rens", 50), ctx, model)
    cap = math.ceil(50 * 12 / 100)
    assert len(_fixings(spec)) >= 12 - cap
    for j, value in _fixings(spec).items():
        assert value in (0.0, 1.0)
    for j, (lo, hi) in _ranges(spec).items():
        assert hi - lo == pytest.approx(1.0)
        assert abs(ctx.lp_values[j] - round(ctx.lp_values[j])) > 1e-6


def test_rens_cap_rule_refixes_excess():
    # dense independent set: the LP relaxation sits at 1/2 on every node
    from parlns.instances import independent_set

    model = independent_set(12, 0.5, seed=0)
    values = tuple(0.0 for _ in range(model.n_vars))
    ctx = _context(model, values, lp=True, seed=9)
    assert sum(1 for v in ctx.lp_values if abs(v - round(v)) > 1e-6) > 2
    spec = build_neighborhood(OperatorSpec("rens", 10), ctx, model)
    fixings = _fixings(spec)
    unfixed = [j for j in range(12) if j not in fixings]
    assert len(unfixed) == math.ceil(10 * 12 / 100)
    # refixed variables take incumbent values, not their LP ranges
    refixed = [j for j in fixings if abs(ctx.lp_values[j] - round(ctx.lp_values[j])) > 1e-6]
    assert refixed
    assert all(fixings[j] == ctx.incumbent.values[j] for j in refixed)
    for j, bounds in _ranges(spec).items():
        assert bounds == (math.floor(ctx.lp_values[j]), math.ceil(ctx.lp_values[j]))


def test_rins_fixes_agreements_and_contains_incumbent():
    model = knapsack(12, seed=7)
    values = tuple(0.0 for _ in range(model.n_vars))
    ctx = _context(model, values, lp=True, seed=10)
    spec = build_neighborhood(OperatorSpec("rins", 30), ctx, model)
    # every fixing sits at the incumbent value (agreements plus cap refixes)
    for j, value in _fixings(spec).items():
        assert value == round(ctx.incumbent.values[j])
    agreements = {
        j
        for j in range(12)
        if abs(ctx.lp_values[j] - ctx.incumbent.values[j]) <= 1e-6
    }
    assert agreements <= set(_fixings(spec))
    assert 12 - len(_fixings(spec)) <= math.ceil(30 * 12 / 100)
    sub = apply_neighborhood(model, spec)
    assert evaluate(sub, values).feasible


def test_rins_total_agreement_is_empty_neighborhood():
    # LP relaxation of this model is integral and equals the incumbent
    model = tiny_cover_model()
    ctx = _context(model, (1.0, 0.0), lp=True, seed=11)
    if tuple(ctx.lp_values) == (1.0, 0.0):
        with pytest.raises(EmptyNeighborhood):
            build_neighborhood(OperatorSpec("rins", 10), ctx, model)


def test_incumbent_containment_across_families():
    model = set_cover(10, 12, seed=13)
    values = tuple(1.0 for _ in range(model.n_vars))
    for spec_in in (
        OperatorSpec("mutation", 30),
        OperatorSpec(CROSSOVER),
        OperatorSpec("local_branching", 20),
        OperatorSpec("rins", 30),
    ):
        ctx = _context(model, values, archive=(), lp=True, seed=14)
        spec = build_neighborhood(spec_in, ctx, model)
        sub = apply_neighborhood(model, spec)
        assert evaluate(sub, values).feasible, spec_in.identifier


def test_all_specs_satisfy_fixing_invariants():
    rng = random.Random(15)
    model = set_cover(10, 12, seed=13)
    values = tuple(1.0 for _ in range(model.n_vars))
    ops = [OperatorSpec("mutation", p) for p in (10, 30, 50)] + [
        OperatorSpec("rens", 20),
        OperatorSpec("rins", 50),
        OperatorSpec("local_branching", 10),
        OperatorSpec("proximity", 5),
    ]
    for trial in range(50):
        op = rng.choice(ops)
        ctx = _context(model, values, lp=True, seed=trial)
        try:
            spec = build_neighborhood(op, ctx, model)
        except EmptyNeighborhood:
            continue
        for j, value in _fixings(spec).items():
            relax = model.relaxation
            assert relax.lower[j] - 1e-9 <= value <= relax.upper[j] + 1e-9
            assert abs(value - round(value)) <= 1e-6
        # applying never raises for a produced spec
        apply_neighborhood(model, spec)


# --------------------------------------------------------------------------
# the array operators against the dict-form ones

# near -0.5, 0 and 0.5 (either side, within and past INTEGRALITY_TOL), -0.0,
# and integers; LP values draw from them too, so both integral and fractional.
# Some bounds are -0.0, as an MPS file's "-0" reads
_VALUES = (
    -2.0, -1.5, -1.0, -0.5000001, -0.5, -0.4999999, -2e-6, -1e-7, -1e-12, -0.0, 0.0, 1e-12,
    1e-7, 2e-6, 0.4999999, 0.5, 0.5000001, 1.0, 1.0000001, 1.5, 2.0, 2.5, 3.0,
)
_KIND_BOUNDS = {
    BINARY: ((0.0, 1.0),),
    INTEGER: (
        (-3.0, 2.0), (-2.0, -0.0), (-2.0, -1.0), (-0.0, 4.0), (-1.0, 1.0), (-0.0, 1.0), (2.0, 2.0)
    ),
    CONTINUOUS: ((0.0, 1.0), (-2.5, 3.0), (-math.inf, math.inf), (0.0, math.inf)),
}


def _frozen(values) -> np.ndarray:
    """A read-only point, the form ``evaluate`` and the LP give."""
    x = np.array(values, dtype=float)
    x.flags.writeable = False
    return x


@st.composite
def _operator_cases(draw):
    """A model with binary, general-integer and continuous columns, an
    operator, a context for it (an incumbent, an archive, LP values or None)
    and an rng seed."""
    n = draw(st.integers(1, 6))
    variables = []
    for j in range(n):
        kind = draw(st.sampled_from((BINARY, BINARY, INTEGER, CONTINUOUS)))
        variables.append(Variable(f"x{j}", kind, *draw(st.sampled_from(_KIND_BOUNDS[kind]))))
    coefficient = st.sampled_from((1.0, -1.0, 2.0, -3.0))
    row = st.dictionaries(st.integers(0, n - 1), coefficient, min_size=1)
    constraints = [
        LinearConstraint(f"r{i}", draw(row), draw(st.sampled_from((LE, GE))),
                         float(draw(st.integers(-3, 3))))
        for i in range(draw(st.integers(0, 2)))
    ]
    objective = draw(st.dictionaries(st.integers(0, n - 1), st.sampled_from((0.0, 1.0, -2.0, 0.5))))
    model = make_model("m", draw(st.sampled_from((MINIMIZE, MAXIMIZE))), variables, constraints,
                       objective, float(draw(st.integers(-2, 2))))
    point = st.tuples(*[st.sampled_from(_VALUES)] * n).map(_frozen)
    objective_value = draw(st.sampled_from((-10.0, -0.5, 0.0, 0.3, 7.0)))
    incumbent = Solution(draw(point), objective_value, True, True)
    archive = tuple(
        incumbent if draw(st.booleans()) else Solution(draw(point), 0.0, True, True)
        for _ in range(draw(st.integers(0, 2)))
    )
    lp_values = None if draw(st.integers(0, 5)) == 0 else draw(point)
    family = draw(st.sampled_from(FAMILIES))
    percentage = None if family == CROSSOVER else draw(st.sampled_from(PERCENTAGE_POOL[family]))
    op = OperatorSpec(family, percentage)
    return model, op, (incumbent, archive, lp_values), draw(st.integers(0, 2**32))


def _built(build, op, ctx, model):
    try:
        return build(op, ctx, model)
    except (EmptyNeighborhood, MissingRelaxation) as exc:
        return type(exc)


def _applied(apply, model, spec):
    try:
        return apply(model, spec)
    except ModelError as exc:
        return type(exc)


def _assert_same_spec(got, want):
    """Every field set alike, its parts equal in shape and byte for byte."""
    for field in ("bounds", "rows", "objective"):
        parts, expected = getattr(got, field), getattr(want, field)
        assert (parts is None) == (expected is None), field
        for a, b in zip(parts or (), expected or ()):
            a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), field


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_operator_cases())
@example((  # rens fixes at 0.0 where a bound is -0.0, as min(max(0, lower), upper) does
    make_model("ties", MINIMIZE, [Variable("a", INTEGER, -0.0, 4.0),
                                  Variable("b", INTEGER, -2.0, -0.0), Variable("c", BINARY)],
               [], {2: 1.0}),
    OperatorSpec(RENS, 50),
    (Solution(_frozen((0.0, 0.0, 0.0)), 0.0, True, True), (), _frozen((0.0, -0.0, 0.5))),
    0,
))
def test_array_operators_match_the_dict_form_oracle(case):
    model, op, (incumbent, archive, lp_values), seed = case
    rngs = random.Random(seed), random.Random(seed)
    got, want = (
        _built(build, op, OperatorContext(incumbent, archive, lp_values, rng), model)
        for build, rng in zip((build_neighborhood, build_neighborhood_oracle), rngs)
    )
    assert rngs[0].getstate() == rngs[1].getstate()
    if isinstance(want, type):
        assert got is want
        return
    _assert_same_spec(got, want)
    sub = _applied(apply_neighborhood, model, got)
    expected = _applied(
        lambda m, s: relaxation_from_dicts(apply_neighborhood_oracle(m, s)), model, want
    )
    if isinstance(expected, LpRelaxation):
        assert isinstance(sub, LpRelaxation)
        assert_same_arrays(sub, expected)
    else:
        assert sub is expected
