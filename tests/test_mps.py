import random

import pytest

from parlns.model import BINARY, CONTINUOUS, GE, INTEGER, LE, MAXIMIZE, MINIMIZE
from parlns.mps import (
    DanglingReference,
    DuplicateName,
    MalformedSection,
    parse_mps,
    write_mps,
)
from parlns import instances

TINY_COVER = """NAME tiny
ROWS
 N  COST
 G  c1
COLUMNS
    MARKER  'MARKER'  'INTORG'
    x  COST  1.0  c1  1.0
    y  COST  1.0  c1  1.0
    MARKER  'MARKER'  'INTEND'
RHS
    RHS  c1  1.0
BOUNDS
 BV BND  x
 BV BND  y
ENDATA
"""


def test_parse_tiny_cover_fixture():
    model = parse_mps(TINY_COVER)
    assert model.sense == MINIMIZE
    assert [v.kind for v in model.variables] == [BINARY, BINARY]
    assert len(model.constraints) == 1
    assert model.constraints[0].relation == GE
    assert model.constraints[0].rhs == 1.0
    # cross-check with evaluate: (1, 0) must cover
    from parlns.model import evaluate

    sol = evaluate(model, (1.0, 0.0))
    assert sol.feasible and sol.integral and sol.objective == 1.0


def test_missing_rhs_defaults_to_zero():
    text = TINY_COVER.replace("    RHS  c1  1.0\n", "")
    model = parse_mps(text)
    assert model.constraints[0].rhs == 0.0


def test_truncated_columns_line_is_malformed_with_line_number():
    text = """NAME bad
ROWS
 N  OBJ
 L  c1
COLUMNS
    x  OBJ  1.0
    x  c1
"""
    with pytest.raises(MalformedSection) as err:
        parse_mps(text)
    assert err.value.line_no == 7


def test_unknown_section_header():
    with pytest.raises(MalformedSection):
        parse_mps("NAME x\nROWZ\n")


def test_duplicate_row_name():
    text = "NAME d\nROWS\n N  OBJ\n L  c1\n L  c1\n"
    with pytest.raises(DuplicateName):
        parse_mps(text)


def test_dangling_column_reference():
    text = """NAME d
ROWS
 N  OBJ
COLUMNS
    x  nosuch  1.0
ENDATA
"""
    with pytest.raises(DanglingReference):
        parse_mps(text)


def test_objsense_maximize_negates_objective():
    text = """NAME mx
OBJSENSE
    MAX
ROWS
 N  OBJ
 L  c1
COLUMNS
    x  OBJ  2.0  c1  1.0
RHS
    RHS  c1  5.0
ENDATA
"""
    model = parse_mps(text)
    assert model.sense == MAXIMIZE
    assert model.objective == {0: -2.0}


def test_objective_rhs_is_negated_offset():
    text = """NAME off
ROWS
 N  OBJ
 L  c1
COLUMNS
    x  OBJ  1.0  c1  1.0
RHS
    RHS  c1  4.0  OBJ  -2.5
ENDATA
"""
    model = parse_mps(text)
    assert model.objective_offset == 2.5


def test_ranges_expand_to_constraint_pairs():
    text = """NAME rng
ROWS
 N  OBJ
 L  cl
 G  cg
 E  ce
COLUMNS
    x  OBJ  1.0  cl  1.0
    x  cg  1.0  ce  1.0
RHS
    RHS  cl  10.0  cg  2.0
    RHS  ce  5.0
RANGES
    RNG  cl  4.0  cg  3.0
    RNG  ce  -2.0
ENDATA
"""
    model = parse_mps(text)
    by_name = {c.name: c for c in model.constraints}
    assert by_name["cl"].relation == GE and by_name["cl"].rhs == 6.0
    assert by_name["cl__rng"].relation == LE and by_name["cl__rng"].rhs == 10.0
    assert by_name["cg"].relation == GE and by_name["cg"].rhs == 2.0
    assert by_name["cg__rng"].relation == LE and by_name["cg__rng"].rhs == 5.0
    # negative range on an E row keeps rhs as the upper side
    assert by_name["ce"].relation == GE and by_name["ce"].rhs == 3.0
    assert by_name["ce__rng"].relation == LE and by_name["ce__rng"].rhs == 5.0


def test_bounds_kinds():
    text = """NAME bnd
ROWS
 N  OBJ
 L  c1
COLUMNS
    a  c1  1.0
    b  c1  1.0
    f  c1  1.0
    MARKER  'MARKER'  'INTORG'
    i  c1  1.0
    MARKER  'MARKER'  'INTEND'
RHS
BOUNDS
 UP BND  a  4.0
 LO BND  a  -1.0
 FR BND  b
 MI BND  f
 UI BND  i  7.0
ENDATA
"""
    model = parse_mps(text)
    by_name = {v.name: v for v in model.variables}
    assert (by_name["a"].lower, by_name["a"].upper) == (-1.0, 4.0)
    assert (by_name["b"].lower, by_name["b"].upper) == (-float("inf"), float("inf"))
    assert by_name["f"].lower == -float("inf") and by_name["f"].upper == float("inf")
    assert by_name["i"].kind == INTEGER
    assert (by_name["i"].lower, by_name["i"].upper) == (0.0, 7.0)


def test_ui_and_li_bounds_make_a_column_integer():
    # outside INTORG/INTEND; other MPS readers take both kinds as integer
    text = """NAME intbnd
ROWS
 N  OBJ
 L  c1
COLUMNS
    x  c1  1.0
    y  c1  1.0
    z  c1  1.0
RHS
    RHS  c1  5.0
BOUNDS
 UI BND  x  3
 LI BND  y  -2
 UP BND  z  4
ENDATA
"""
    model = parse_mps(text)
    got = [(v.name, v.kind, v.lower, v.upper) for v in model.variables]
    assert got == [
        ("x", INTEGER, 0.0, 3.0),
        ("y", INTEGER, -2.0, float("inf")),
        ("z", CONTINUOUS, 0.0, 4.0),
    ]
    assert parse_mps(write_mps(model)) == model


@pytest.mark.parametrize("seed", range(6))
def test_round_trip_generated_instances(seed):
    for model in (
        instances.knapsack(8, seed=seed),
        instances.set_cover(8, 6, seed=seed),
        instances.independent_set(7, 0.4, seed=seed),
    ):
        assert parse_mps(write_mps(model)) == model


def test_round_trip_parser_produced_model():
    model = parse_mps(TINY_COVER)
    assert parse_mps(write_mps(model)) == model


def test_round_trip_random_bounds():
    rng = random.Random(4)
    from parlns.model import LinearConstraint, Variable, make_model

    for trial in range(20):
        n = rng.randint(1, 6)
        variables = []
        for j in range(n):
            kind = rng.choice(["continuous", "integer", "binary"])
            if kind == "binary":
                variables.append(Variable(f"v{j}", kind))
            elif rng.random() < 0.3:
                variables.append(Variable(f"v{j}", kind, -float("inf"), rng.randint(0, 5)))
            else:
                lo = rng.randint(-3, 2)
                variables.append(Variable(f"v{j}", kind, lo, lo + rng.randint(0, 6)))
        constraints = [
            LinearConstraint(
                f"c{i}",
                {rng.randrange(n): float(rng.randint(1, 5))},
                rng.choice(["<=", ">=", "="]),
                float(rng.randint(-4, 8)),
            )
            for i in range(rng.randint(1, 4))
        ]
        objective = {j: float(rng.randint(-5, 5)) for j in range(n)}
        sense = rng.choice(["minimize", "maximize"])
        model = make_model(f"rt{trial}", sense, variables, constraints, objective,
                           offset=float(rng.randint(-3, 3)))
        assert parse_mps(write_mps(model)) == model
