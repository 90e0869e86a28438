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
takes the text one section at a time, each section's lines through that
section's own loop, and raises the first error in file order, with its line
number. It collects a model's entries as coordinate triples and per-row and
per-column lists, and ``model.build_model`` makes, normalizes and checks the
arrays; the writer reads the arrays, each row's kind and range from its
slack bounds.
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


# a data row's place in the model: a constraint row's index, or one of these
_OBJECTIVE, _FREE = -1, -2


def _to_float(token: str, line_no: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise MalformedSection(f"expected a number, got {token!r}", line_no) from None


def parse_mps(text: str) -> MipModel:
    """Parse free-format MPS text into a validated model; an entry repeated
    for one row and column adds to the earlier ones, in file order.

    The text is read one section at a time. A header starts in the first
    column of its line, so the header lines are found first; then the lines
    from one header to the next, ``ENDATA`` or the end of the text go to
    their section's own loop, and only after it is the next header checked,
    so the first error in the file is the one raised. Each loop splits its
    lines and skips a blank or comment line by its tokens: none, or a first
    one that starts with "*"."""
    lines = text.splitlines()
    heads = [i for i, raw in enumerate(lines) if raw and not raw[0].isspace() and raw[0] != "*"]
    heads.append(len(lines))
    reader = _Reader()
    read, start = _refuse("data before any section header"), 0
    for head in heads:
        read(enumerate(map(str.split, lines[start:head]), start + 1))
        if head == len(lines):
            break
        tokens = lines[head].split()
        header = tokens[0].upper()
        if header not in _SECTIONS:
            raise MalformedSection(f"unknown section header {tokens[0]!r}", head + 1)
        if header == "ENDATA":
            break
        read, start = reader.header(header, tokens, head + 1), head + 1
    return reader.model()


def _data(lines) -> list[tuple[int, list[str]]]:
    """A section's ``(line_no, tokens)`` pairs without its blank and comment lines."""
    return [(line_no, tokens) for line_no, tokens in lines if tokens and tokens[0][0] != "*"]


def _refuse(message: str):
    """The loop of a section that takes no data: it refuses the first data line."""

    def read(lines):
        data = _data(lines)
        if data:
            raise MalformedSection(message, data[0][0])

    return read


class _Reader:
    """A model's entries as ``parse_mps`` collects them: coordinate triples
    and per-row and per-column lists. Each ``read_*`` method is one
    section's loop over that section's ``(line_no, tokens)`` pairs."""

    def __init__(self):
        self.name = ""
        self.sense = MINIMIZE
        self.obj_row: str | None = None
        self.free_rows: set[str] = set()  # the N rows, the objective row among them
        self.row_index: dict[str, int] = {}
        self.row_kinds: list[str] = []
        self.rhs: list[float] = []
        self.ranges: dict[int, float] = {}
        self.col_index: dict[str, int] = {}
        self.kinds: list[str] = []
        self.lower: list[float] = []
        self.upper: list[float] = []
        self.entry_rows: list[int] = []
        self.entry_cols: list[int] = []
        self.entry_values: list[float] = []
        self.cost_cols: list[int] = []
        self.cost_values: list[float] = []
        self.offset = 0.0
        self.in_integer_block = False

    def header(self, header: str, tokens: list[str], line_no: int):
        """Read a section header's own tokens; returns its section's loop."""
        if header == "NAME":
            self.name = tokens[1] if len(tokens) > 1 else ""
            return _refuse("data in unsupported section 'NAME'")
        if header == "OBJSENSE" and len(tokens) > 1:
            self.sense = _parse_sense(tokens[1], line_no)
            return _refuse("unexpected extra OBJSENSE data")
        return getattr(self, "read_" + header.lower())

    def read_objsense(self, lines):
        """The sense of an OBJSENSE header that states none, on the next line."""
        data = _data(lines)
        if data:
            line_no, tokens = data[0]
            self.sense = _parse_sense(tokens[0], line_no)
            _refuse("unexpected extra OBJSENSE data")(data[1:])

    def read_rows(self, lines):
        row_index, row_kinds, free_rows = self.row_index, self.row_kinds, self.free_rows
        for line_no, tokens in lines:
            if not tokens or tokens[0][0] == "*":
                continue
            if len(tokens) != 2:
                raise MalformedSection("ROWS entries are 'kind name'", line_no)
            kind, row = tokens[0].upper(), tokens[1]
            if kind not in _ROW_KINDS:
                raise MalformedSection(f"unknown row kind {tokens[0]!r}", line_no)
            if row in row_index or row in free_rows:
                raise DuplicateName(f"row {row!r} declared twice", line_no)
            if kind == "N":
                if self.obj_row is None:
                    self.obj_row = row
                # additional free rows are declared but their entries are dropped
                free_rows.add(row)
            else:
                row_index[row] = len(row_kinds)
                row_kinds.append(kind)
                self.rhs.append(0.0)

    def _places(self) -> dict[str, int]:
        """Each declared row's place: its index, ``_OBJECTIVE`` or ``_FREE``."""
        places = dict.fromkeys(self.free_rows, _FREE)
        if self.obj_row is not None:
            places[self.obj_row] = _OBJECTIVE
        places.update(self.row_index)
        return places

    def read_columns(self, lines):
        places, col_index, kinds = self._places(), self.col_index, self.kinds
        entry_rows, entry_cols, entry_values = self.entry_rows, self.entry_cols, self.entry_values
        col, j = None, -1
        for line_no, tokens in lines:
            if not tokens or tokens[0][0] == "*":
                continue
            size = len(tokens)
            if size >= 3 and tokens[1] == "'MARKER'":
                marker = tokens[-1]
                if marker == "'INTORG'":
                    self.in_integer_block = True
                elif marker == "'INTEND'":
                    self.in_integer_block = False
                else:
                    raise MalformedSection(f"unknown marker {marker!r}", line_no)
                continue
            if size < 3 or size % 2 == 0:
                raise MalformedSection("COLUMNS entries are 'col row value [row value]'", line_no)
            if tokens[0] != col:  # a column's lines come in a run: look it up once
                col = tokens[0]
                j = col_index.get(col)
                if j is None:
                    j = col_index[col] = len(kinds)
                    kinds.append(INTEGER if self.in_integer_block else CONTINUOUS)
                    self.lower.append(0.0)
                    self.upper.append(INF)
            k = 1
            while k < size:  # cheaper than a range per line, as is float() in place
                try:
                    value = float(tokens[k + 1])
                except ValueError:
                    raise MalformedSection(
                        f"expected a number, got {tokens[k + 1]!r}", line_no) from None
                i = places.get(tokens[k])
                if i is None:
                    raise DanglingReference(
                        f"COLUMNS entry for unknown row {tokens[k]!r}", line_no)
                if i >= 0:
                    entry_rows.append(i)
                    entry_cols.append(j)
                    entry_values.append(value)
                elif i == _OBJECTIVE:
                    self.cost_cols.append(j)
                    self.cost_values.append(value)
                k += 2

    def read_rhs(self, lines):
        places, rhs = self._places(), self.rhs
        for line_no, tokens in lines:
            if not tokens or tokens[0][0] == "*":
                continue
            size = len(tokens)
            if size < 3 or size % 2 == 0:
                raise MalformedSection("RHS entries are 'set row value [row value]'", line_no)
            k = 1
            while k < size:
                try:
                    value = float(tokens[k + 1])
                except ValueError:
                    raise MalformedSection(
                        f"expected a number, got {tokens[k + 1]!r}", line_no) from None
                i = places.get(tokens[k])
                if i is None:
                    raise DanglingReference(f"RHS entry for unknown row {tokens[k]!r}", line_no)
                if i >= 0:
                    rhs[i] = value
                elif i == _OBJECTIVE:
                    # RHS on the objective row is the negated constant term
                    self.offset = -value
                k += 2

    def read_ranges(self, lines):
        row_index, ranges = self.row_index, self.ranges
        for line_no, tokens in lines:
            if not tokens or tokens[0][0] == "*":
                continue
            if len(tokens) < 3 or len(tokens) % 2 == 0:
                raise MalformedSection("RANGES entries are 'set row value [row value]'", line_no)
            for k in range(1, len(tokens), 2):
                row, value = tokens[k], _to_float(tokens[k + 1], line_no)
                if row not in row_index:
                    raise DanglingReference(f"RANGES entry for unknown row {row!r}", line_no)
                ranges[row_index[row]] = value

    def read_bounds(self, lines):
        col_index, kinds, lower, upper = self.col_index, self.kinds, self.lower, self.upper
        for line_no, tokens in lines:
            if not tokens or tokens[0][0] == "*":
                continue
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

    def model(self) -> MipModel:
        """The arrays of the entries read, through ``build_model``."""
        row_kinds, kinds = self.row_kinds, self.kinds
        A = np.zeros((len(row_kinds), len(kinds)))
        np.add.at(A, (self.entry_rows, self.entry_cols), self.entry_values)
        c = np.zeros(len(kinds))
        np.add.at(c, self.cost_cols, self.cost_values)
        rows = list(self.row_index)
        slack_lower = [_SLACK[kind][0] for kind in row_kinds]
        slack_upper = [_SLACK[kind][1] for kind in row_kinds]
        for i, r in self.ranges.items():
            if not np.isfinite(r):  # an infinite range would leave a one-sided row
                raise ModelError(f"constraint {rows[i]!r}: range is {r}")
            if row_kinds[i] == "L" or (row_kinds[i] == "E" and r < 0.0):
                slack_upper[i] = abs(r)
            else:
                slack_lower[i] = -abs(r)
        return build_model(
            self.name, self.sense, list(self.col_index), rows, kinds=kinds, lower=self.lower,
            upper=self.upper, slack_lower=slack_lower, slack_upper=slack_upper, A=A,
            b=self.rhs, c=c, offset=self.offset,
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
