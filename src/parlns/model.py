"""Immutable MIP data model: a model's arrays, solutions, sub-problem specs.

A model is its name, its sense, its column and row names and its one numeric
form, a read-only :class:`LpRelaxation` built once at construction.
``make_model`` turns :class:`Variable` and :class:`LinearConstraint` records
into arrays and ``parse_mps`` collects them from a file; both hand them to
``build_model``, which normalizes and validates them in whole-array
operations. A row is its slack bounds alone, so a range is one row; a
relation exists only in the records that ``make_model`` takes and
``MipModel.constraints`` gives back. Models are normalized to minimization;
objectives stated as maximization are negated once and un-negated only at
reporting boundaries (see :meth:`MipModel.to_external_objective`).
``evaluate`` and the LP read the arrays, and only the LP knows the rows'
slack columns and their zero costs. A sub-problem is only its arrays: a
:class:`NeighborhoodSpec` states new bounds, appended ``<=`` rows and a new
objective in the model's arrays, ``apply_neighborhood`` checks them in
whole-array operations and puts them in place of the model's, and an
``LpRelaxation``'s ``relaxation`` is itself, so both take either.
"""

from dataclasses import dataclass, fields, replace

import numpy as np

INF = float("inf")

MINIMIZE = "minimize"
MAXIMIZE = "maximize"

CONTINUOUS = "continuous"
INTEGER = "integer"
BINARY = "binary"

LE = "<="
GE = ">="
EQ = "="

# Standard solver defaults; activity tolerance is absolute.
FEASIBILITY_TOL = 1e-7
BOUND_TOL = 1e-9
INTEGRALITY_TOL = 1e-6

# Slack bounds of a row a.x + s = rhs: what a record's relation means.
_SLACK_BOUNDS = {LE: (0.0, INF), GE: (-INF, 0.0), EQ: (0.0, 0.0)}


class ModelError(ValueError):
    """Invalid model data."""


class DimensionMismatch(ModelError):
    """Value vector length does not match the model's variable count."""


class ConflictingFixing(ModelError):
    """A neighborhood fixes a variable outside its bounds or at a fractional
    value of an integer one, or leaves it an empty range."""


@dataclass(frozen=True)
class Variable:
    name: str
    kind: str = CONTINUOUS
    lower: float = 0.0
    upper: float = INF


@dataclass(frozen=True)
class LinearConstraint:
    name: str
    coefficients: dict[int, float]
    relation: str
    rhs: float


class ReadOnly:
    """Base of the frozen dataclasses whose arrays are shared without
    copying: every ndarray field is made read-only on construction, and a
    pickled copy is built through the constructor, so its arrays are
    read-only too, in another process as in this one."""

    def __post_init__(self):
        for value in vars(self).values():
            if isinstance(value, np.ndarray) and value.flags.writeable:
                value.flags.writeable = False

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True, eq=False)  # arrays have no truth value: solutions compare by identity
class Solution(ReadOnly):
    values: np.ndarray  # read-only, one float per column
    objective: float
    feasible: bool
    integral: bool


@dataclass(frozen=True, eq=False)  # arrays have no truth value: specs compare by identity
class NeighborhoodSpec:
    """A sub-problem stated in its base model's arrays; a field left None
    keeps the model's.

    ``bounds`` is a full-length ``(lower, upper)``: equal bounds fix a column,
    which must lie within the model's bounds and be integral on an integer
    column, and other bounds are intersected with the model's. ``rows`` is
    ``(rows, rhs)``, the rows ``rows @ x <= rhs`` appended below the model's.
    ``objective`` is ``(costs, offset)`` in minimization form, replacing the
    model's.
    """

    bounds: tuple[np.ndarray, np.ndarray] | None = None
    rows: tuple[np.ndarray, np.ndarray] | None = None
    objective: tuple[np.ndarray, float] | None = None


@dataclass(frozen=True, eq=False)  # arrays have no truth value: compared by identity
class LpRelaxation(ReadOnly):
    """A model's dense arrays, its LP relaxation plus an integer mask, all
    read-only so that sub-problems and solves share them without copying.
    Row i is ``A[i] @ x + s_i = b[i]``, its slack ``s_i`` implicit and bounded
    by ``slack_lower[i]`` and ``slack_upper[i]``, so B&B nodes swap only bounds."""

    c: np.ndarray
    offset: float
    A: np.ndarray
    b: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    slack_lower: np.ndarray
    slack_upper: np.ndarray
    integer: np.ndarray

    @property
    def relaxation(self) -> "LpRelaxation":
        """Itself: code that takes a model or its arrays reads ``.relaxation``."""
        return self

    @property
    def n_structural(self) -> int:
        return self.A.shape[1]

    @property
    def binary(self) -> np.ndarray:
        """Mask of the binaries, which ``build_model`` leaves as exactly the
        integer columns with bounds inside [0, 1]."""
        return self.integer & (self.lower >= 0.0) & (self.upper <= 1.0)


@dataclass(frozen=True, eq=False)  # arrays have no truth value: models compare by identity
class MipModel:
    """A linear model: its names and its arrays, in minimization form.

    ``relaxation`` is built once, by ``make_model`` or ``parse_mps``; its
    costs and offset are negated when ``sense``, the user-facing sense kept
    for reporting, is maximize.
    """

    name: str
    sense: str
    column_names: tuple[str, ...]
    row_names: tuple[str, ...]
    relaxation: LpRelaxation

    @property
    def n_vars(self) -> int:
        return len(self.column_names)

    @property
    def objective(self) -> np.ndarray:
        """The costs in minimization form, read-only: ``relaxation.c``."""
        return self.relaxation.c

    @property
    def constraints(self) -> tuple[LinearConstraint, ...]:
        """The rows as records, built from the arrays on each call, each with
        its nonzero coefficients. A range is two records: the row as ``>=``
        its least activity and, as ``<=`` its greatest, the first of
        ``<row>__rng``, ``<row>__rng__rng``, ... that names no row or earlier
        record. It stays until benchmark v2, whose reference test reads it."""
        relax = self.relaxation
        records, taken = [], set(self.row_names)
        for name, row, b, lo, hi in zip(
            self.row_names, relax.A, relax.b.tolist(),
            relax.slack_lower.tolist(), relax.slack_upper.tolist(),
        ):
            columns = np.flatnonzero(row)
            coefficients = dict(zip(columns.tolist(), row[columns].tolist()))
            if lo == hi:
                records.append(LinearConstraint(name, coefficients, EQ, b))
                continue
            if hi < INF:
                records.append(LinearConstraint(name, coefficients, GE, b - hi))
            if lo > -INF:
                le_name = name
                while hi < INF and le_name in taken:
                    le_name += "__rng"
                taken.add(le_name)
                records.append(LinearConstraint(le_name, dict(coefficients), LE, b - lo))
        return tuple(records)

    def to_external_objective(self, value: float) -> float:
        """Map an internal (minimization) objective value to the stated sense."""
        return -value if self.sense == MAXIMIZE else value

    def to_internal_objective(self, value: float) -> float:
        return -value if self.sense == MAXIMIZE else value


def make_model(
    name: str,
    sense: str,
    variables: list[Variable] | tuple[Variable, ...],
    constraints: list[LinearConstraint] | tuple[LinearConstraint, ...],
    objective: dict[int, float],
    offset: float = 0.0,
) -> MipModel:
    """A model stated in records and in its natural sense, as arrays that
    ``build_model`` normalizes and validates.

    The objective is given in the stated sense, and each constraint's
    relation becomes its row's slack bounds through ``_SLACK_BOUNDS``; a
    constraint's or the objective's column index outside the variables, or
    an unknown relation, raises :class:`ModelError`.
    """
    n = len(variables)
    rows = [i for i, con in enumerate(constraints) for _ in con.coefficients]
    cols = np.array([j for con in constraints for j in con.coefficients], dtype=np.intp)
    _refuse((cols < 0) | (cols >= n), ModelError, lambda f: (
        f"constraint {constraints[rows[f]].name!r} references variable index {cols[f]}"))
    priced = np.array(list(objective), dtype=np.intp)
    _refuse((priced < 0) | (priced >= n), ModelError,
            lambda f: f"objective references variable index {priced[f]}")
    _refuse(np.array([con.relation not in _SLACK_BOUNDS for con in constraints], dtype=bool),
            ModelError, lambda i: (
                f"constraint {constraints[i].name!r}: unknown relation {constraints[i].relation!r}"))
    slack = np.array([_SLACK_BOUNDS[con.relation] for con in constraints]).reshape(-1, 2).T
    A = np.zeros((len(constraints), n))
    A[rows, cols] = [a for con in constraints for a in con.coefficients.values()]
    c = np.zeros(n)
    c[priced] = list(objective.values())
    return build_model(
        name, sense, [v.name for v in variables], [con.name for con in constraints],
        kinds=[v.kind for v in variables], lower=[v.lower for v in variables],
        upper=[v.upper for v in variables], slack_lower=slack[0], slack_upper=slack[1],
        A=A, b=[con.rhs for con in constraints], c=c, offset=offset,
    )


def build_model(
    name: str, sense: str, columns: list[str], rows: list[str], *, kinds: list[str],
    lower, upper, slack_lower, slack_upper, A: np.ndarray, b, c: np.ndarray, offset: float,
) -> MipModel:
    """A model from its names and arrays, the costs and offset in the stated
    sense: the one normalization and validation of model data.

    Row i is ``A[i] @ x + s_i = b[i]`` with ``s_i`` in
    ``[slack_lower[i], slack_upper[i]]``, which must be one of five forms:
    ``=`` (0, 0), ``<=`` (0, +inf), ``>=`` (-inf, 0), a ranged ``<=`` (0, R)
    or a ranged ``>=`` (-R, 0), with R finite and nonnegative. A binary
    column's bounds are clamped into [0, 1], and so are an integer column's
    that lie within [0, 1] to ``BOUND_TOL``: the binaries are then exactly
    the integer columns with bounds inside [0, 1]. A maximize model's costs
    and offset are negated, and then a ``-0.0`` coefficient, cost, rhs,
    bound, slack bound or offset becomes ``0.0``, since an MPS file states no
    zero that it can leave out. Raises :class:`ModelError` for an unknown
    sense or kind, a duplicate name, a NaN bound, a lower bound of +inf or an
    upper one of -inf, bounds crossed by more than ``BOUND_TOL``, slack
    bounds of none of the five forms, a non-finite coefficient, rhs, cost or
    offset, or a row without a nonzero coefficient; each error names the
    first offending column or row.
    """
    if sense not in (MINIMIZE, MAXIMIZE):
        raise ModelError(f"unknown sense {sense!r}")
    _unique("variable", columns)
    _unique("constraint", rows)
    kind = np.array(kinds, dtype=str)
    _refuse(~np.isin(kind, (CONTINUOUS, INTEGER, BINARY)), ModelError,
            lambda j: f"variable {columns[j]!r}: unknown kind {kinds[j]!r}")
    lower, upper = np.array(lower, dtype=float) + 0.0, np.array(upper, dtype=float) + 0.0
    binary = (kind == BINARY) | (
        (kind == INTEGER) & (lower >= -BOUND_TOL) & (upper <= 1.0 + BOUND_TOL))
    # max(lower, 0.0) and min(upper, 1.0), each keeping its own bound on a tie
    lower = np.where(binary & (lower < 0.0), 0.0, lower)
    upper = np.where(binary & (upper > 1.0), 1.0, upper)
    _refuse(np.isnan(lower) | np.isnan(upper) | (lower == INF) | (upper == -INF), ModelError,
            lambda j: f"variable {columns[j]!r}: bounds [{lower[j]}, {upper[j]}]")
    _refuse(lower > upper + BOUND_TOL, ModelError,
            lambda j: f"variable {columns[j]!r}: lower {lower[j]} > upper {upper[j]}")
    slack_lower = np.array(slack_lower, dtype=float) + 0.0
    slack_upper = np.array(slack_upper, dtype=float) + 0.0
    # a NaN fails both comparisons
    _refuse(~(((slack_lower == 0.0) & (slack_upper >= 0.0))
              | ((slack_upper == 0.0) & (slack_lower <= 0.0))), ModelError,
            lambda i: f"constraint {rows[i]!r}: slack bounds "
                      f"[{slack_lower[i]}, {slack_upper[i]}] are no row form")
    b, n = np.array(b, dtype=float) + 0.0, len(columns)
    _refuse(~np.isfinite(b), ModelError, lambda i: f"constraint {rows[i]!r}: rhs is {b[i]}")
    _refuse(~np.isfinite(A).ravel(), ModelError, lambda f: (
        f"constraint {rows[f // n]!r}: coefficient of {columns[f % n]!r} is {A.flat[f]}"))
    _refuse(np.count_nonzero(A, axis=1) == 0, ModelError,
            lambda i: f"constraint {rows[i]!r} has no nonzero coefficient")
    _refuse(~np.isfinite(c), ModelError,
            lambda j: f"objective: cost of {columns[j]!r} is {c[j]}")
    if not np.isfinite(offset):
        raise ModelError(f"objective: offset is {offset}")
    sign = -1.0 if sense == MAXIMIZE else 1.0
    relax = LpRelaxation(
        c=sign * c + 0.0, offset=sign * offset + 0.0, A=A + 0.0, b=b, lower=lower, upper=upper,
        slack_lower=slack_lower, slack_upper=slack_upper, integer=kind != CONTINUOUS,
    )
    return MipModel(name, sense, tuple(columns), tuple(rows), relax)


def _unique(what: str, names: list[str]) -> None:
    if len(set(names)) < len(names):
        first = {}
        name = next(name for i, name in enumerate(names) if first.setdefault(name, i) != i)
        raise ModelError(f"duplicate {what} name {name!r}")


def evaluate(model: MipModel | LpRelaxation, values) -> Solution:
    """Score a full assignment on a model's or a sub-problem's arrays:
    objective, feasibility, integrality.

    A copy of ``values`` is the solution's read-only point. A value that is
    not finite makes the point infeasible. Never raises on an infeasible
    point; only the form, one number per column, is enforced: a point of
    another shape, a ragged one among them, raises
    :class:`DimensionMismatch`, and one with a value that is no number
    :class:`ModelError`.
    """
    relax = model.relaxation
    x = _float_array("point", values)
    if x.shape != (relax.n_structural,):
        raise DimensionMismatch(f"expected {relax.n_structural} values, got shape {x.shape}")
    activity = relax.A @ x  # in [b - slack_upper, b - slack_lower]
    feasible = not (
        np.count_nonzero(~np.isfinite(x) | (x < relax.lower - BOUND_TOL) | (x > relax.upper + BOUND_TOL))
        or np.count_nonzero((activity > relax.b - relax.slack_lower + FEASIBILITY_TOL)
                            | (activity < relax.b - relax.slack_upper - FEASIBILITY_TOL))
    )
    discrete = x[relax.integer]
    integral = bool((np.abs(discrete - np.rint(discrete)) <= INTEGRALITY_TOL).all())
    return Solution(x, relax.offset + float(relax.c @ x), feasible, integral)


def apply_neighborhood(model: MipModel, spec: NeighborhoodSpec) -> LpRelaxation:
    """A sub-problem's arrays: the model's, with the spec's bounds and
    objective in place of its own and the spec's rows below its rows (see
    :class:`NeighborhoodSpec`); every array the spec leaves alone is the
    model's own. A range crossed by at most ``BOUND_TOL`` closes to its upper
    bound, as ``presolve`` closes one.

    Pure: the model is never modified. Raises :class:`ConflictingFixing` when
    a fixed value is not a finite value within the model's bounds, or is
    fractional on an integer column, or intersected bounds leave an empty
    range; and :class:`ModelError` for a spec array that is no array of
    numbers or has the wrong shape, a NaN bound, a non-finite row, rhs or
    cost, or a row without a nonzero entry. Each error names the spec field
    or the first offending variable or row.
    """
    base, names, n = model.relaxation, model.column_names, model.n_vars
    arrays = {}
    if spec.bounds is not None:
        lower, upper = _arrays("bounds", spec.bounds, lambda _: ((n,), (n,)))
        _refuse(np.isnan(lower) | np.isnan(upper), ModelError,
                lambda i: f"bounds of {names[i]!r} are [{lower[i]}, {upper[i]}]")
        fixed = lower == upper
        inside = (lower >= base.lower - BOUND_TOL) & (lower <= base.upper + BOUND_TOL)
        _refuse(fixed & ~(inside & np.isfinite(lower)), ConflictingFixing, lambda i: (
            f"fixing {names[i]!r} at {lower[i]} outside bounds "
            f"[{base.lower[i]}, {base.upper[i]}]"))
        value = np.where(fixed & base.integer, lower, 0.0)
        _refuse(np.abs(value - np.rint(value)) > INTEGRALITY_TOL, ConflictingFixing,
                lambda i: f"fixing integer {names[i]!r} at fractional {lower[i]}")
        # the model's bound where it is tighter, else the spec's, the sign of a zero too
        upper = np.where(fixed, lower, np.where(base.upper < upper, base.upper, upper))
        lower = np.where(fixed, lower, np.where(base.lower > lower, base.lower, lower))
        _refuse(lower > upper + BOUND_TOL, ConflictingFixing, lambda i: (
            f"bounds of {names[i]!r} yield empty range [{lower[i]}, {upper[i]}]"))
        np.copyto(lower, upper, where=lower > upper)
        arrays.update(lower=lower, upper=upper)
    if spec.rows is not None:
        # as many rows as rhs entries
        rows, rhs = _arrays(
            "rows", spec.rows, lambda parts: ((parts[-1].size, n), (parts[-1].size,)))
        k = rhs.size
        _refuse(~np.isfinite(rows).ravel(), ModelError, lambda f: (
            f"row {f // n}: coefficient of {names[f % n]!r} is {rows.flat[f]}"))
        _refuse(~np.isfinite(rhs), ModelError, lambda i: f"row {i}: rhs is {rhs[i]}")
        _refuse(np.count_nonzero(rows, axis=1) == 0, ModelError,
                lambda i: f"row {i} has no nonzero coefficient")
        slack_lower, slack_upper = _SLACK_BOUNDS[LE]
        arrays.update(
            A=np.vstack([base.A, rows]), b=np.concatenate([base.b, rhs]),
            slack_lower=np.concatenate([base.slack_lower, np.full(k, slack_lower)]),
            slack_upper=np.concatenate([base.slack_upper, np.full(k, slack_upper)]),
        )
    if spec.objective is not None:
        costs, offset = _arrays("objective", spec.objective, lambda _: ((n,), ()))
        _refuse(~np.isfinite(costs), ModelError,
                lambda i: f"objective: cost of {names[i]!r} is {costs[i]}")
        if not np.isfinite(offset):
            raise ModelError(f"objective: offset is {offset}")
        arrays.update(c=costs, offset=float(offset))
    return replace(base, **arrays)


def _arrays(what: str, parts, shapes) -> list[np.ndarray]:
    """A spec field's parts as float arrays, copied; each must have its
    shape, which ``shapes`` gives from the arrays."""
    arrays = [_float_array(what, part) for part in parts]
    want = shapes(arrays)
    if tuple(a.shape for a in arrays) != want:
        raise ModelError(f"{what}: shapes {[a.shape for a in arrays]}, expected {list(want)}")
    return arrays


def _float_array(what: str, value) -> np.ndarray:
    """``value`` as a new float array; a ``ModelError`` naming ``what`` when
    it holds something that is not a number, a ``DimensionMismatch`` when
    it nests sequences of unequal lengths (a ragged array)."""
    try:
        return np.array(value, dtype=float)
    except (TypeError, ValueError) as err:
        entries = np.array(value, dtype=object).ravel().tolist()
        ragged = any(isinstance(e, (list, tuple, np.ndarray)) for e in entries)
        raise (DimensionMismatch if ragged else ModelError)(f"{what}: {err}") from None


def _refuse(mask: np.ndarray, error: type, message) -> None:
    """Raise ``error(message(i))`` for the first true entry ``i`` of ``mask``."""
    if np.count_nonzero(mask):
        raise error(message(int(mask.argmax())))


@dataclass(frozen=True, eq=False)  # arrays have no truth value: compared by identity
class Presolved(ReadOnly):
    """A sub-problem reduced to the columns its presolve left free:
    ``relaxation`` holds their arrays, ``free`` their indices in the full
    problem, and ``point`` the full problem's values of the columns it fixed,
    zero at the free ones."""

    relaxation: LpRelaxation
    free: np.ndarray
    point: np.ndarray

    def lift(self, x) -> np.ndarray:
        """The full-length point that is ``x`` at the free columns."""
        full = self.point.copy()
        full[self.free] = x
        return full


def presolve(relax: LpRelaxation) -> Presolved:
    """Reduce a sub-problem to its free columns (Achterberg et al. 2020).

    The fixed columns go, their activity moved into ``b`` and their cost
    into the offset; when every column is fixed, the last one stays, so the
    reduction is an LP. A row left with one column becomes that column's
    bounds, rounded inward by ``INTEGRALITY_TOL`` on an integer column, and
    a row whose activity over the columns' box cannot leave its slack range
    (to ``FEASIBILITY_TOL``) goes. A row over a column with an infinite
    bound always stays, so no ``0 * inf`` is formed. Bounds that cross, or a
    row without columns that its slack range cannot meet, make the
    sub-problem infeasible: every column then gets the empty box [1, 0],
    which the LP rejects before its first pivot.
    """
    fixed = (relax.lower == relax.upper) & np.isfinite(relax.lower)
    point = np.where(fixed, relax.lower, 0.0)
    free = np.flatnonzero(~fixed)
    if not free.size:
        free = np.array([relax.n_structural - 1])
        point[free] = 0.0
    A = relax.A[:, free]
    b = relax.b - relax.A @ point
    lower, upper, integer = relax.lower[free], relax.upper[free], relax.integer[free]

    # the activity A[i] @ x that row i allows
    least, most = b - relax.slack_upper, b - relax.slack_lower
    nonzero = A != 0.0
    count = np.count_nonzero(nonzero, axis=1)
    single = np.flatnonzero(count == 1)
    if single.size:
        j = nonzero[single].argmax(axis=1)
        a = A[single, j]
        lo = np.where(a > 0, least[single], most[single]) / a
        up = np.where(a > 0, most[single], least[single]) / a
        lo = np.where(integer[j], np.ceil(lo - INTEGRALITY_TOL), lo)
        up = np.where(integer[j], np.floor(up + INTEGRALITY_TOL), up)
        np.maximum.at(lower, j, lo)
        np.minimum.at(upper, j, up)
    crossed = np.count_nonzero(lower > upper + BOUND_TOL)
    np.minimum(lower, upper, out=lower)

    finite = np.isfinite(lower) & np.isfinite(upper)
    bounded = np.count_nonzero(nonzero[:, ~finite], axis=1) == 0
    box_lower, box_upper = np.where(finite, lower, 0.0), np.where(finite, upper, 0.0)
    positive, negative = np.maximum(A, 0.0), np.minimum(A, 0.0)
    redundant = (
        bounded
        & (positive @ box_lower + negative @ box_upper >= least - FEASIBILITY_TOL)
        & (positive @ box_upper + negative @ box_lower <= most + FEASIBILITY_TOL)
    )
    if crossed or np.count_nonzero(~redundant & (count == 0)):
        lower, upper = np.ones(free.size), np.zeros(free.size)
    redundant[single] = True
    rows = np.flatnonzero(~redundant)
    reduced = LpRelaxation(
        c=relax.c[free], offset=relax.offset + float(relax.c @ point),
        A=A[rows], b=b[rows], lower=lower, upper=upper,
        slack_lower=relax.slack_lower[rows], slack_upper=relax.slack_upper[rows],
        integer=integer,
    )
    return Presolved(reduced, free, point)
