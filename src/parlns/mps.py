"""Free-format MPS reading and writing.

Whitespace-delimited MPS with sections NAME, OBJSENSE, ROWS, COLUMNS (with
INTORG/INTEND markers), RHS, RANGES, BOUNDS, ENDATA. Fixed-format column
positions are not enforced. Defaults: continuous and integer variables get
[0, +inf), BV bounds give [0, 1], UI and LI bounds make their column integer,
missing RHS entries are 0, sense is minimize unless OBJSENSE says otherwise.
"""

from .model import (
    BINARY,
    CONTINUOUS,
    EQ,
    GE,
    INF,
    INTEGER,
    LE,
    MAXIMIZE,
    MINIMIZE,
    LinearConstraint,
    MipModel,
    Variable,
    make_model,
)

_SECTIONS = {"NAME", "OBJSENSE", "ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS", "ENDATA"}
_ROW_KINDS = {"N", "L", "G", "E"}
_RELATION = {"L": LE, "G": GE, "E": EQ}
_RANGE_SUFFIX = "__rng"


class MpsParseError(ValueError):
    """Malformed MPS input; ``line_no`` is 1-based."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class MalformedSection(MpsParseError):
    """Unknown section header or malformed data line within a section."""


class DuplicateName(MpsParseError):
    """Row or column name declared twice."""


class DanglingReference(MpsParseError):
    """Data entry references an undeclared row or column."""


def _to_float(token: str, line_no: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise MalformedSection(f"expected a number, got {token!r}", line_no) from None


def parse_mps(text: str) -> MipModel:
    """Parse free-format MPS text into a validated model."""
    name = ""
    sense = MINIMIZE
    obj_row: str | None = None
    row_kind: dict[str, str] = {}
    row_order: list[str] = []
    var_order: list[str] = []
    var_index: dict[str, int] = {}
    var_is_int: dict[str, bool] = {}
    row_coefs: dict[str, dict[int, float]] = {}
    obj_coefs: dict[int, float] = {}
    rhs: dict[str, float] = {}
    ranges: list[tuple[str, float, int]] = []
    bounds: dict[int, list[float | None]] = {}  # index -> [lower, upper]
    explicit_binary: set[int] = set()
    integer_bound: set[int] = set()  # columns given a UI or LI bound
    offset = 0.0

    section = None
    in_integer_block = False
    expect_objsense_value = False

    for line_no, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip() or raw.lstrip().startswith("*"):
            continue
        is_header = not raw[0].isspace()
        tokens = raw.split()

        if is_header:
            header = tokens[0].upper()
            if header not in _SECTIONS:
                raise MalformedSection(f"unknown section header {tokens[0]!r}", line_no)
            section = header
            expect_objsense_value = False
            if header == "NAME":
                name = tokens[1] if len(tokens) > 1 else ""
            elif header == "OBJSENSE":
                if len(tokens) > 1:
                    sense = _parse_sense(tokens[1], line_no)
                else:
                    expect_objsense_value = True
            elif header == "ENDATA":
                break
            continue

        if section is None:
            raise MalformedSection("data before any section header", line_no)

        if section == "OBJSENSE":
            if not expect_objsense_value:
                raise MalformedSection("unexpected extra OBJSENSE data", line_no)
            sense = _parse_sense(tokens[0], line_no)
            expect_objsense_value = False

        elif section == "ROWS":
            if len(tokens) != 2:
                raise MalformedSection("ROWS entries are 'kind name'", line_no)
            kind, row = tokens[0].upper(), tokens[1]
            if kind not in _ROW_KINDS:
                raise MalformedSection(f"unknown row kind {tokens[0]!r}", line_no)
            if row in row_kind or row == obj_row:
                raise DuplicateName(f"row {row!r} declared twice", line_no)
            if kind == "N":
                if obj_row is None:
                    obj_row = row
                # additional free rows are declared but their entries are dropped
                row_kind[row] = "N"
            else:
                row_kind[row] = kind
                row_order.append(row)
                row_coefs[row] = {}

        elif section == "COLUMNS":
            if len(tokens) >= 3 and tokens[1] == "'MARKER'":
                marker = tokens[-1]
                if marker == "'INTORG'":
                    in_integer_block = True
                elif marker == "'INTEND'":
                    in_integer_block = False
                else:
                    raise MalformedSection(f"unknown marker {marker!r}", line_no)
                continue
            if len(tokens) < 3 or len(tokens) % 2 == 0:
                raise MalformedSection("COLUMNS entries are 'col row value [row value]'", line_no)
            col = tokens[0]
            if col not in var_index:
                var_index[col] = len(var_order)
                var_order.append(col)
                var_is_int[col] = in_integer_block
            j = var_index[col]
            for k in range(1, len(tokens), 2):
                row, value = tokens[k], _to_float(tokens[k + 1], line_no)
                if row == obj_row:
                    obj_coefs[j] = obj_coefs.get(j, 0.0) + value
                elif row in row_coefs:
                    row_coefs[row][j] = row_coefs[row].get(j, 0.0) + value
                elif row_kind.get(row) == "N":
                    continue
                else:
                    raise DanglingReference(f"COLUMNS entry for unknown row {row!r}", line_no)

        elif section == "RHS":
            if len(tokens) < 3 or len(tokens) % 2 == 0:
                raise MalformedSection("RHS entries are 'set row value [row value]'", line_no)
            for k in range(1, len(tokens), 2):
                row, value = tokens[k], _to_float(tokens[k + 1], line_no)
                if row == obj_row:
                    # RHS on the objective row is the negated constant term
                    offset = -value
                elif row in row_coefs:
                    rhs[row] = value
                elif row_kind.get(row) == "N":
                    continue
                else:
                    raise DanglingReference(f"RHS entry for unknown row {row!r}", line_no)

        elif section == "RANGES":
            if len(tokens) < 3 or len(tokens) % 2 == 0:
                raise MalformedSection("RANGES entries are 'set row value [row value]'", line_no)
            for k in range(1, len(tokens), 2):
                row, value = tokens[k], _to_float(tokens[k + 1], line_no)
                if row not in row_coefs:
                    raise DanglingReference(f"RANGES entry for unknown row {row!r}", line_no)
                ranges.append((row, value, line_no))

        elif section == "BOUNDS":
            kind = tokens[0].upper()
            needs_value = kind in {"UP", "LO", "FX", "UI", "LI"}
            expected = 4 if needs_value else 3
            if len(tokens) < expected:
                raise MalformedSection(f"truncated BOUNDS entry of kind {kind!r}", line_no)
            col = tokens[2]
            if col not in var_index:
                raise DanglingReference(f"BOUNDS entry for unknown column {col!r}", line_no)
            j = var_index[col]
            lo_up = bounds.setdefault(j, [None, None])
            if kind in {"UI", "LI"}:
                integer_bound.add(j)
            if kind in {"UP", "UI"}:
                lo_up[1] = _to_float(tokens[3], line_no)
            elif kind in {"LO", "LI"}:
                lo_up[0] = _to_float(tokens[3], line_no)
            elif kind == "FX":
                value = _to_float(tokens[3], line_no)
                lo_up[0] = lo_up[1] = value
            elif kind == "FR":
                lo_up[0] = -INF
                lo_up[1] = INF
            elif kind == "MI":
                lo_up[0] = -INF
            elif kind == "PL":
                lo_up[1] = INF
            elif kind == "BV":
                explicit_binary.add(j)
                lo_up[0], lo_up[1] = 0.0, 1.0
            else:
                raise MalformedSection(f"unknown bound kind {tokens[0]!r}", line_no)

        else:
            raise MalformedSection(f"data in unsupported section {section!r}", line_no)

    if obj_row is None and (obj_coefs or offset):
        # cannot happen: objective coefficients require a declared N row
        raise MpsParseError("objective entries without an N row", 0)

    variables = []
    for col in var_order:
        j = var_index[col]
        lo, up = bounds.get(j, [None, None])
        if j in explicit_binary:
            kind = BINARY
        elif var_is_int[col] or j in integer_bound:
            kind = INTEGER
        else:
            kind = CONTINUOUS
        lower = 0.0 if lo is None else lo
        upper = INF if up is None else up
        variables.append(Variable(col, kind, lower, upper))

    constraints = []
    ranged = {row: (value, line_no) for row, value, line_no in ranges}
    for row in row_order:
        kind = row_kind[row]
        coefs = row_coefs[row]
        b = rhs.get(row, 0.0)
        if row not in ranged:
            constraints.append(LinearConstraint(row, coefs, _RELATION[kind], b))
            continue
        r, line_no = ranged[row]
        # RANGES turn a row into a two-sided constraint; we store the pair as
        # two single-relation rows sharing a name suffix.
        if kind == "L":
            lo, hi = b - abs(r), b
        elif kind == "G":
            lo, hi = b, b + abs(r)
        else:
            lo, hi = (b, b + r) if r >= 0 else (b + r, b)
        constraints.append(LinearConstraint(row, coefs, GE, lo))
        constraints.append(LinearConstraint(row + _RANGE_SUFFIX, dict(coefs), LE, hi))

    return make_model(
        name=name,
        sense=sense,
        variables=variables,
        constraints=constraints,
        objective=obj_coefs,
        offset=offset,
    )


def _parse_sense(token: str, line_no: int) -> str:
    token = token.upper()
    if token in {"MAX", "MAXIMIZE"}:
        return MAXIMIZE
    if token in {"MIN", "MINIMIZE"}:
        return MINIMIZE
    raise MalformedSection(f"unknown objective sense {token!r}", line_no)


def _fmt(value: float) -> str:
    return repr(float(value))


def write_mps(model: MipModel) -> str:
    """Serialize a model to free-format MPS; parse_mps round-trips it."""
    sign = -1.0 if model.sense == MAXIMIZE else 1.0
    lines = [f"NAME {model.name}".rstrip()]
    if model.sense == MAXIMIZE:
        lines.append("OBJSENSE")
        lines.append("    MAX")
    lines.append("ROWS")
    lines.append(" N  OBJ")
    relation_kind = {LE: "L", GE: "G", EQ: "E"}
    for con in model.constraints:
        lines.append(f" {relation_kind[con.relation]}  {con.name}")
    lines.append("COLUMNS")
    # each column's row entries in constraint order, from one pass over the rows
    column_rows = [[] for _ in model.variables]
    for con in model.constraints:
        for j, coef in con.coefficients.items():
            column_rows[j].append((con.name, coef))
    in_integer_block = False
    for j, var in enumerate(model.variables):
        wants_int = var.kind != CONTINUOUS
        if wants_int and not in_integer_block:
            lines.append("    MARKER  'MARKER'  'INTORG'")
            in_integer_block = True
        elif not wants_int and in_integer_block:
            lines.append("    MARKER  'MARKER'  'INTEND'")
            in_integer_block = False
        entries = []
        if j in model.objective:
            entries.append(("OBJ", sign * model.objective[j]))
        entries.extend(column_rows[j])
        if not entries:
            entries.append(("OBJ", 0.0))
        for row, value in entries:
            lines.append(f"    {var.name}  {row}  {_fmt(value)}")
    if in_integer_block:
        lines.append("    MARKER  'MARKER'  'INTEND'")
    lines.append("RHS")
    if model.objective_offset != 0.0:
        lines.append(f"    RHS1  OBJ  {_fmt(-sign * model.objective_offset)}")
    for con in model.constraints:
        if con.rhs != 0.0:
            lines.append(f"    RHS1  {con.name}  {_fmt(con.rhs)}")
    lines.append("BOUNDS")
    for var in model.variables:
        lines.extend(_bound_lines(var))
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"


def _bound_lines(var: Variable) -> list[str]:
    if var.kind == BINARY:
        if var.lower == 0.0 and var.upper == 1.0:
            return [f" BV BND  {var.name}"]
        if var.lower == var.upper:
            return [f" FX BND  {var.name}  {_fmt(var.lower)}"]
        out = []
        if var.lower != 0.0:
            out.append(f" LO BND  {var.name}  {_fmt(var.lower)}")
        # always write the upper bound: a bare integer column re-parses to [0, inf)
        out.append(f" UP BND  {var.name}  {_fmt(var.upper)}")
        return out
    if var.lower == 0.0 and var.upper == INF:
        return []
    if var.lower == var.upper:
        return [f" FX BND  {var.name}  {_fmt(var.lower)}"]
    out = []
    if var.lower == -INF:
        out.append(f" MI BND  {var.name}")
    elif var.lower != 0.0:
        out.append(f" LO BND  {var.name}  {_fmt(var.lower)}")
    if var.upper != INF:
        out.append(f" UP BND  {var.name}  {_fmt(var.upper)}")
    return out
