import random
from pathlib import Path

import numpy as np
import pytest

from parlns.model import EQ, GE, INF, LE, MAXIMIZE, MINIMIZE, ModelError
from parlns.mps import (
    DanglingReference,
    DuplicateName,
    MalformedSection,
    parse_mps,
    write_mps,
)
from parlns import instances

from support import assert_same_model

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
    assert model.column_names == ("x", "y")
    relax = model.relaxation
    assert relax.integer.tolist() == [True, True]
    assert (relax.lower.tolist(), relax.upper.tolist()) == ([0.0, 0.0], [1.0, 1.0])
    assert model.row_names == ("c1",)
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
    assert model.objective.tolist() == [-2.0]


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
    assert model.relaxation.offset == 2.5


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


def test_a_range_record_takes_the_first_name_no_row_or_record_uses():
    # row c is ranged next to a row c__rng, so the range's <= record is c__rng__rng
    text = """NAME clash
ROWS
 N  OBJ
 L  c
 L  c__rng
COLUMNS
    x  OBJ  1.0  c  1.0
    x  c__rng  1.0
RHS
    RHS  c  10.0  c__rng  8.0
RANGES
    RNG  c  4.0
ENDATA
"""
    records = [(c.name, c.relation, c.rhs) for c in parse_mps(text).constraints]
    assert records == [("c", GE, 6.0), ("c__rng__rng", LE, 10.0), ("c__rng", LE, 8.0)]
    # with a row c__rng__rng too, c's record skips it, and a ranged c__rng skips c's record
    text = text.replace(" L  c__rng\n", " L  c__rng\n G  c__rng__rng\n").replace(
        "    x  c__rng  1.0\n", "    x  c__rng  1.0  c__rng__rng  1.0\n").replace(
        "RNG  c  4.0", "RNG  c  4.0  c__rng  2.0")
    names = [c.name for c in parse_mps(text).constraints]
    assert names == ["c", "c__rng__rng__rng", "c__rng", "c__rng__rng__rng__rng", "c__rng__rng"]


RANGED = (Path(__file__).parent / "data" / "ranged.mps").read_text()


def _slack_bounds(model):
    relax = model.relaxation
    return list(zip(relax.slack_lower.tolist(), relax.slack_upper.tolist()))


def test_a_ranged_row_is_one_row_under_its_name_in_the_file():
    model = parse_mps(RANGED)
    assert model.row_names == ("cl", "cg", "cep", "cen")
    assert model.relaxation.b.tolist() == [10.0, -2.0, 5.0, 6.0]
    # L: (0, |R|); G: (-|R|, 0); E: (-R, 0) when R > 0 and (0, -R) when R < 0
    assert _slack_bounds(model) == [(0.0, 4.0), (-3.0, 0.0), (-3.0, 0.0), (0.0, 4.0)]
    assert [(c.name, c.relation, c.rhs) for c in model.constraints] == [
        ("cl", GE, 6.0), ("cl__rng", LE, 10.0), ("cg", GE, -2.0), ("cg__rng", LE, 1.0),
        ("cep", GE, 5.0), ("cep__rng", LE, 8.0), ("cen", GE, 2.0), ("cen__rng", LE, 6.0),
    ]
    assert_same_model(parse_mps(write_mps(model)), model)


def _with_ranges(*entries):
    """The ranged fixture with these RANGES entries in place of its own."""
    head, tail = RANGED.split("RANGES\n")
    return head + "RANGES\n" + "".join(f"    RNG  {e}\n" for e in entries) + tail[tail.index("BOUNDS"):]


@pytest.mark.parametrize("row", ["cl", "cg", "cep", "cen"])
@pytest.mark.parametrize("zero", ["0.0", "-0.0"])
def test_a_range_of_zero_makes_an_equality_row(row, zero):
    model = parse_mps(_with_ranges(f"{row}  {zero}"))
    i = model.row_names.index(row)
    bounds = [model.relaxation.slack_lower[i], model.relaxation.slack_upper[i]]
    assert bounds == [0.0, 0.0] and not np.signbit(bounds).any()
    records = [c for c in model.constraints if c.name in (row, row + "__rng")]
    assert [(c.relation, c.rhs) for c in records] == [(EQ, model.relaxation.b[i])]
    assert_same_model(parse_mps(write_mps(model)), model)


def test_a_later_range_entry_replaces_an_earlier_one():
    # on an E row a positive R gives (-R, 0) and a negative one (0, -R)
    assert _slack_bounds(parse_mps(_with_ranges("cep  3.0  cep  -2.0")))[2] == (0.0, 2.0)
    assert _slack_bounds(parse_mps(_with_ranges("cep  -2.0", "cep  3.0")))[2] == (-3.0, 0.0)
    # a non-finite entry that a later one replaces is not read
    assert _slack_bounds(parse_mps(_with_ranges("cl  inf", "cl  1.5")))[0] == (0.0, 1.5)


@pytest.mark.parametrize("row", ["cl", "cg", "cep", "cen"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_a_non_finite_range_is_refused(row, value):
    # an infinite range must not quietly leave a one-sided row
    parse_mps(_with_ranges(f"{row}  2.0"))
    with pytest.raises(ModelError, match=f"'{row}': range is"):
        parse_mps(_with_ranges(f"{row}  2.0", f"{row}  {value}"))


def test_a_model_without_ranges_writes_no_ranges_section():
    assert "RANGES" not in write_mps(parse_mps(_TWO_COLUMNS))
    assert "RANGES" in write_mps(parse_mps(RANGED))


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
    relax = model.relaxation
    assert model.column_names == ("a", "b", "f", "i")
    assert relax.lower.tolist() == [-1.0, -INF, -INF, 0.0]
    assert relax.upper.tolist() == [4.0, INF, INF, 7.0]
    assert relax.integer.tolist() == [False, False, False, True]


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
    relax = model.relaxation
    assert model.column_names == ("x", "y", "z")
    assert relax.integer.tolist() == [True, True, False]
    assert relax.lower.tolist() == [0.0, -2.0, 0.0]
    assert relax.upper.tolist() == [3.0, INF, 4.0]
    assert_same_model(parse_mps(write_mps(model)), model)


@pytest.mark.parametrize("seed", range(6))
def test_round_trip_generated_instances(seed):
    for model in (
        instances.knapsack(8, seed=seed),
        instances.set_cover(8, 6, seed=seed),
        instances.independent_set(7, 0.4, seed=seed),
    ):
        assert_same_model(parse_mps(write_mps(model)), model)


def test_round_trip_parser_produced_model():
    model = parse_mps(TINY_COVER)
    assert_same_model(parse_mps(write_mps(model)), model)


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
        assert_same_model(parse_mps(write_mps(model)), model)


def test_repeated_entries_add_up_in_file_order():
    text = """NAME rep
ROWS
 N  OBJ
 L  c1
COLUMNS
    x  OBJ  0.1  c1  1.0
    x  OBJ  0.2  c1  -1.0
    y  c1  2.0
    x  c1  0.5  OBJ  0.3
RHS
    RHS  c1  1.0  c1  3.0
ENDATA
"""
    model = parse_mps(text)
    assert model.objective.tolist() == [0.0 + 0.1 + 0.2 + 0.3, 0.0]
    assert model.relaxation.A.tolist() == [[0.5, 2.0]]
    assert model.relaxation.b.tolist() == [3.0]  # a repeated rhs takes the last value


_TWO_COLUMNS = """NAME two
ROWS
 N  OBJ
 L  c1
 G  c2
COLUMNS
    x  OBJ  1.0  c1  1.0
    y  OBJ  1.0  c2  1.0
RHS
    RHS1  c1  4.0  c2  1.0
BOUNDS
 UP BND  x  3.0
 UP BND  y  2.0
ENDATA
"""


@pytest.mark.parametrize("old, new, match", [
    ("RHS1  c1  4.0", "RHS1  c1  nan", "'c1'"),
    ("RHS1  c1  4.0  c2  1.0", "RHS1  c1  4.0  c2  -inf", "'c2'"),
    ("y  OBJ  1.0  c2  1.0", "y  OBJ  1.0  c2  inf", "'c2'"),
    ("x  OBJ  1.0  c1  1.0", "x  OBJ  1.0  c1  nan", "'c1'"),
    ("y  OBJ  1.0", "y  OBJ  -inf", "'y'"),
    ("x  OBJ  1.0", "x  OBJ  nan", "'x'"),
    ("RHS1  c1  4.0", "RHS1  c1  4.0  OBJ  inf", "offset"),
    ("UP BND  y  2.0", "UP BND  y  nan", "'y'"),
    ("UP BND  x  3.0", "LO BND  x  inf", "'x'"),
    ("UP BND  y  2.0", "MI BND  y\n UP BND  y  -inf", "'y'"),
])
def test_non_finite_data_is_refused(old, new, match):
    assert old in _TWO_COLUMNS
    parse_mps(_TWO_COLUMNS)
    with pytest.raises(ModelError, match=match):
        parse_mps(_TWO_COLUMNS.replace(old, new))
