"""Free-format MPS reading and writing.

Whitespace-delimited MPS with sections NAME, OBJSENSE, ROWS, COLUMNS (with
INTORG/INTEND markers), RHS, RANGES, BOUNDS, ENDATA. Fixed-format column
positions are not enforced. Defaults: continuous and integer variables get
[0, +inf), BV bounds give [0, 1], UI and LI bounds make their column integer,
missing RHS entries are 0, sense is minimize unless OBJSENSE says otherwise.
Each ROWS entry is one row under its own name, stated by its slack bounds
(see ``model.build_model``): an L row's are (0, +inf), a G row's (-inf, 0)
and an E row's (0, 0). A RANGES entry R makes them (0, |R|) on an L row,
(-|R|, 0) on a G row, and (-R, 0) or (0, -R) on an E row as R is positive
or negative; a later entry for a row replaces an earlier one. The reader
collects a model's entries as coordinate triples and per-row and per-column
lists, and ``model.build_model`` makes, normalizes and checks the arrays;
the writer reads the arrays, each row's kind and range from its slack
bounds.
"""

import numpy as np

from .model import (
    BINARY,
    CONTINUOUS,
    INF,
    INTEGER,
    MAXIMIZE,
    MINIMIZE,
    MipModel,
    ModelError,
    build_model,
)

_SECTIONS = {"NAME", "OBJSENSE", "ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS", "ENDATA"}
_ROW_KINDS = {"N", "L", "G", "E"}
# the slack bounds of a row a.x + s = rhs of each kind, without a range
_SLACK = {"L": (0.0, INF), "G": (-INF, 0.0), "E": (0.0, 0.0)}


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
    """Parse free-format MPS text into a validated model; an entry repeated
    for one row and column adds to the earlier ones, in file order."""
    name = ""
    sense = MINIMIZE
    obj_row: str | None = None
    free_rows: set[str] = set()  # the N rows, the objective row among them
    row_index: dict[str, int] = {}
    row_kinds: list[str] = []
    rhs: list[float] = []
    ranges: dict[int, float] = {}
    col_index: dict[str, int] = {}
    kinds: list[str] = []
    lower: list[float] = []
    upper: list[float] = []
    entry_rows: list[int] = []
    entry_cols: list[int] = []
    entry_values: list[float] = []
    cost_cols: list[int] = []
    cost_values: list[float] = []
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
            if row in row_index or row in free_rows:
                raise DuplicateName(f"row {row!r} declared twice", line_no)
            if kind == "N":
                if obj_row is None:
                    obj_row = row
                # additional free rows are declared but their entries are dropped
                free_rows.add(row)
            else:
                row_index[row] = len(row_kinds)
                row_kinds.append(kind)
                rhs.append(0.0)

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
            j = col_index.get(col)
            if j is None:
                j = col_index[col] = len(kinds)
                kinds.append(INTEGER if in_integer_block else CONTINUOUS)
                lower.append(0.0)
                upper.append(INF)
            for k in range(1, len(tokens), 2):
                row, value = tokens[k], _to_float(tokens[k + 1], line_no)
                if row == obj_row:
                    cost_cols.append(j)
                    cost_values.append(value)
                elif row in row_index:
                    entry_rows.append(row_index[row])
                    entry_cols.append(j)
                    entry_values.append(value)
                elif row not in free_rows:
                    raise DanglingReference(f"COLUMNS entry for unknown row {row!r}", line_no)

        elif section == "RHS":
            if len(tokens) < 3 or len(tokens) % 2 == 0:
                raise MalformedSection("RHS entries are 'set row value [row value]'", line_no)
            for k in range(1, len(tokens), 2):
                row, value = tokens[k], _to_float(tokens[k + 1], line_no)
                if row == obj_row:
                    # RHS on the objective row is the negated constant term
                    offset = -value
                elif row in row_index:
                    rhs[row_index[row]] = value
                elif row not in free_rows:
                    raise DanglingReference(f"RHS entry for unknown row {row!r}", line_no)

        elif section == "RANGES":
            if len(tokens) < 3 or len(tokens) % 2 == 0:
                raise MalformedSection("RANGES entries are 'set row value [row value]'", line_no)
            for k in range(1, len(tokens), 2):
                row, value = tokens[k], _to_float(tokens[k + 1], line_no)
                if row not in row_index:
                    raise DanglingReference(f"RANGES entry for unknown row {row!r}", line_no)
                ranges[row_index[row]] = value

        elif section == "BOUNDS":
            kind = tokens[0].upper()
            needs_value = kind in {"UP", "LO", "FX", "UI", "LI"}
            expected = 4 if needs_value else 3
            if len(tokens) < expected:
                raise MalformedSection(f"truncated BOUNDS entry of kind {kind!r}", line_no)
            col = tokens[2]
            if col not in col_index:
                raise DanglingReference(f"BOUNDS entry for unknown column {col!r}", line_no)
            j = col_index[col]
            if kind in {"UI", "LI"} and kinds[j] != BINARY:
                kinds[j] = INTEGER
            if kind in {"UP", "UI"}:
                upper[j] = _to_float(tokens[3], line_no)
            elif kind in {"LO", "LI"}:
                lower[j] = _to_float(tokens[3], line_no)
            elif kind == "FX":
                lower[j] = upper[j] = _to_float(tokens[3], line_no)
            elif kind == "FR":
                lower[j], upper[j] = -INF, INF
            elif kind == "MI":
                lower[j] = -INF
            elif kind == "PL":
                upper[j] = INF
            elif kind == "BV":
                kinds[j] = BINARY
                lower[j], upper[j] = 0.0, 1.0
            else:
                raise MalformedSection(f"unknown bound kind {tokens[0]!r}", line_no)

        else:
            raise MalformedSection(f"data in unsupported section {section!r}", line_no)

    A = np.zeros((len(row_kinds), len(kinds)))
    np.add.at(A, (entry_rows, entry_cols), entry_values)
    c = np.zeros(len(kinds))
    np.add.at(c, cost_cols, cost_values)
    rows = list(row_index)
    slack = np.array([_SLACK[kind] for kind in row_kinds]).reshape(-1, 2)
    for i, r in ranges.items():
        if not np.isfinite(r):  # an infinite range would leave a one-sided row
            raise ModelError(f"constraint {rows[i]!r}: range is {r}")
        if row_kinds[i] == "L" or (row_kinds[i] == "E" and r < 0.0):
            slack[i, 1] = abs(r)
        else:
            slack[i, 0] = -abs(r)
    return build_model(
        name, sense, list(col_index), rows, kinds=kinds, lower=lower, upper=upper,
        slack_lower=slack[:, 0], slack_upper=slack[:, 1], A=A, b=rhs, c=c, offset=offset,
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
    """Serialize a model's arrays to free-format MPS; parse_mps round-trips it."""
    relax = model.relaxation
    sign = -1.0 if model.sense == MAXIMIZE else 1.0
    lines = [f"NAME {model.name}".rstrip()]
    if model.sense == MAXIMIZE:
        lines.append("OBJSENSE")
        lines.append("    MAX")
    lines.append("ROWS")
    lines.append(" N  OBJ")
    slack_bounds = list(zip(relax.slack_lower.tolist(), relax.slack_upper.tolist()))
    for row, (lo, hi) in zip(model.row_names, slack_bounds):
        lines.append(f" {'E' if lo == hi else 'L' if lo == 0.0 else 'G'}  {row}")
    lines.append("COLUMNS")
    # each column's nonzero entries in row order, from one pass over A's transpose
    cols, rows = np.nonzero(relax.A.T)
    values = relax.A.T[cols, rows].tolist()
    starts = np.searchsorted(cols, np.arange(model.n_vars + 1)).tolist()
    costs = relax.c.tolist()
    integer = relax.integer.tolist()
    in_integer_block = False
    for j, col in enumerate(model.column_names):
        if integer[j] and not in_integer_block:
            lines.append("    MARKER  'MARKER'  'INTORG'")
            in_integer_block = True
        elif not integer[j] and in_integer_block:
            lines.append("    MARKER  'MARKER'  'INTEND'")
            in_integer_block = False
        entries = []
        if costs[j] != 0.0:
            entries.append(("OBJ", sign * costs[j]))
        entries.extend(
            (model.row_names[rows[k]], values[k]) for k in range(starts[j], starts[j + 1])
        )
        if not entries:
            entries.append(("OBJ", 0.0))
        for row, value in entries:
            lines.append(f"    {col}  {row}  {_fmt(value)}")
    if in_integer_block:
        lines.append("    MARKER  'MARKER'  'INTEND'")
    lines.append("RHS")
    if relax.offset != 0.0:
        lines.append(f"    RHS1  OBJ  {_fmt(-sign * relax.offset)}")
    for row, b in zip(model.row_names, relax.b.tolist()):
        if b != 0.0:
            lines.append(f"    RHS1  {row}  {_fmt(b)}")
    # R is the width of a ranged row's slack range; its kind gives the bounds back
    ranges = [(row, hi - lo) for row, (lo, hi) in zip(model.row_names, slack_bounds)
              if 0.0 < hi - lo < INF]
    if ranges:
        lines.append("RANGES")
        lines.extend(f"    RNG1  {row}  {_fmt(r)}" for row, r in ranges)
    lines.append("BOUNDS")
    for col, binary, lower, upper in zip(
        model.column_names, relax.binary.tolist(), relax.lower.tolist(), relax.upper.tolist()
    ):
        lines.extend(_bound_lines(col, binary, lower, upper))
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"


def _bound_lines(col: str, binary: bool, lower: float, upper: float) -> list[str]:
    if binary:
        if lower == 0.0 and upper == 1.0:
            return [f" BV BND  {col}"]
        if lower == upper:
            return [f" FX BND  {col}  {_fmt(lower)}"]
        out = []
        if lower != 0.0:
            out.append(f" LO BND  {col}  {_fmt(lower)}")
        # always write the upper bound: a bare integer column re-parses to [0, inf)
        out.append(f" UP BND  {col}  {_fmt(upper)}")
        return out
    if lower == 0.0 and upper == INF:
        return []
    if lower == upper:
        return [f" FX BND  {col}  {_fmt(lower)}"]
    out = []
    if lower == -INF:
        out.append(f" MI BND  {col}")
    elif lower != 0.0:
        out.append(f" LO BND  {col}  {_fmt(lower)}")
    if upper != INF:
        out.append(f" UP BND  {col}  {_fmt(upper)}")
    return out
