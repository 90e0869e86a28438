"""Immutable MIP data model: variables, constraints, solutions, sub-problem specs.

Models are normalized to minimization on construction; objectives stated as
maximization are negated once and un-negated only at reporting boundaries
(see :meth:`MipModel.to_external_objective`). A model's one numeric form is
its read-only :class:`LpRelaxation`, built on first use; ``evaluate`` and the
LP read it, and only the LP knows the rows' slack columns. A sub-problem is
only its arrays: ``apply_neighborhood`` derives them from the model's, and an
``LpRelaxation``'s ``relaxation`` is itself, so both take either.
"""

from dataclasses import dataclass, field, replace
from functools import cached_property

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

# Slack bounds of a row a.x + s = rhs: the only code that reads what a relation means.
_SLACK_BOUNDS = {LE: (0.0, INF), GE: (-INF, 0.0), EQ: (0.0, 0.0)}


class ModelError(ValueError):
    """Invalid model data."""


class DimensionMismatch(ModelError):
    """Value vector length does not match the model's variable count."""


class ConflictingFixing(ModelError):
    """A neighborhood fixing falls outside the variable's original bounds."""


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


@dataclass(frozen=True)
class Solution:
    values: tuple[float, ...]
    objective: float
    feasible: bool
    integral: bool


@dataclass(frozen=True)
class NeighborhoodSpec:
    """A sub-problem description applied on top of a base model.

    Fixings and bound overrides are keyed by variable index; fixed values must
    respect the variable's original bounds and integrality.
    """

    fixings: dict[int, float] = field(default_factory=dict)
    bound_overrides: dict[int, tuple[float, float]] = field(default_factory=dict)
    extra_constraints: tuple[LinearConstraint, ...] = ()
    objective_override: tuple[dict[int, float], float] | None = None


@dataclass(frozen=True)
class LpRelaxation:
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

    def __post_init__(self):
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    @property
    def relaxation(self) -> "LpRelaxation":
        """Itself: code that takes a model or its arrays reads ``.relaxation``."""
        return self

    @property
    def n_structural(self) -> int:
        return self.A.shape[1]

    @cached_property
    def c_full(self) -> np.ndarray:
        """The costs of the structural columns, then the slacks' zero costs."""
        c_full = np.concatenate([self.c, np.zeros(self.b.shape[0])])
        c_full.flags.writeable = False
        return c_full


@dataclass(frozen=True)
class MipModel:
    """Linear model in minimization form.

    ``objective`` maps variable index to coefficient and is always minimized;
    ``sense`` records the user-facing sense for reporting.
    """

    name: str
    sense: str
    variables: tuple[Variable, ...]
    constraints: tuple[LinearConstraint, ...]
    objective: dict[int, float]
    objective_offset: float = 0.0

    @property
    def n_vars(self) -> int:
        return len(self.variables)

    @cached_property
    def relaxation(self) -> LpRelaxation:
        """The model's arrays, built from its dicts on first use."""
        return relaxation_from_dicts(self)

    def integer_indices(self) -> list[int]:
        """Indices of integer and binary variables."""
        return [i for i, v in enumerate(self.variables) if v.kind != CONTINUOUS]

    def binary_indices(self) -> list[int]:
        return [i for i, v in enumerate(self.variables) if v.kind == BINARY]

    def to_external_objective(self, value: float) -> float:
        """Map an internal (minimization) objective value to the stated sense."""
        return -value if self.sense == MAXIMIZE else value

    def to_internal_objective(self, value: float) -> float:
        return -value if self.sense == MAXIMIZE else value

    def to_json_dict(self) -> dict:
        """Debug dump with names instead of indices, objective in user sense."""
        sign = -1.0 if self.sense == MAXIMIZE else 1.0

        def num(x):
            if x == INF:
                return "inf"
            if x == -INF:
                return "-inf"
            return x

        names = [v.name for v in self.variables]
        return {
            "name": self.name,
            "sense": self.sense,
            "variables": [
                {"name": v.name, "kind": v.kind, "lower": num(v.lower), "upper": num(v.upper)}
                for v in self.variables
            ],
            "constraints": [
                {
                    "name": c.name,
                    "relation": c.relation,
                    "rhs": c.rhs,
                    "coefficients": {names[i]: coef for i, coef in sorted(c.coefficients.items())},
                }
                for c in self.constraints
            ],
            "objective": {
                "coefficients": {
                    names[i]: sign * coef for i, coef in sorted(self.objective.items())
                },
                "offset": sign * self.objective_offset,
            },
        }


def _strip_zeros(coefficients: dict[int, float]) -> dict[int, float]:
    return {i: c for i, c in coefficients.items() if c != 0.0}


def _normalize_variable(var: Variable) -> Variable:
    lower, upper, kind = var.lower, var.upper, var.kind
    if kind == BINARY:
        lower = max(lower, 0.0)
        upper = min(upper, 1.0)
    elif kind == INTEGER and lower >= -BOUND_TOL and upper <= 1.0 + BOUND_TOL:
        kind = BINARY
        lower = max(lower, 0.0)
        upper = min(upper, 1.0)
    if lower != var.lower or upper != var.upper or kind != var.kind:
        return Variable(var.name, kind, lower, upper)
    return var


def _validate(model: MipModel) -> MipModel:
    if model.sense not in (MINIMIZE, MAXIMIZE):
        raise ModelError(f"unknown sense {model.sense!r}")
    seen = set()
    for var in model.variables:
        if var.name in seen:
            raise ModelError(f"duplicate variable name {var.name!r}")
        seen.add(var.name)
        if var.kind not in (CONTINUOUS, INTEGER, BINARY):
            raise ModelError(f"variable {var.name!r}: unknown kind {var.kind!r}")
        if var.lower > var.upper + BOUND_TOL:
            raise ModelError(f"variable {var.name!r}: lower {var.lower} > upper {var.upper}")
    n = len(model.variables)
    seen = set()
    for con in model.constraints:
        if con.name in seen:
            raise ModelError(f"duplicate constraint name {con.name!r}")
        seen.add(con.name)
        _check_constraint(con.name, con.coefficients, con.relation, n)
    _check_objective(model.objective, n)
    return model


def _check_constraint(name: str, coefficients: dict[int, float], relation: str, n: int) -> None:
    if relation not in _SLACK_BOUNDS:
        raise ModelError(f"constraint {name!r}: unknown relation {relation!r}")
    if not coefficients:
        raise ModelError(f"constraint {name!r} has no nonzero coefficient")
    for i in coefficients:
        if not 0 <= i < n:
            raise ModelError(f"constraint {name!r} references variable index {i}")


def _check_objective(objective: dict[int, float], n: int) -> None:
    for i in objective:
        if not 0 <= i < n:
            raise ModelError(f"objective references variable index {i}")


def make_model(
    name: str,
    sense: str,
    variables: list[Variable] | tuple[Variable, ...],
    constraints: list[LinearConstraint] | tuple[LinearConstraint, ...],
    objective: dict[int, float],
    offset: float = 0.0,
) -> MipModel:
    """Validate and normalize a model stated in its natural sense.

    The objective is given in the stated sense and stored negated when the
    sense is maximize. Integer variables contained in [0, 1] are normalized
    to binaries; binary bounds are clamped into [0, 1].
    """
    sign = -1.0 if sense == MAXIMIZE else 1.0
    variables = tuple(_normalize_variable(v) for v in variables)
    constraints = tuple(
        LinearConstraint(c.name, _strip_zeros(dict(c.coefficients)), c.relation, c.rhs)
        for c in constraints
    )
    model = MipModel(
        name=name,
        sense=sense,
        variables=variables,
        constraints=constraints,
        objective=_strip_zeros({i: sign * c for i, c in objective.items()}),
        objective_offset=sign * offset,
    )
    return _validate(model)


def _dense(coefficients: dict[int, float], n: int) -> np.ndarray:
    vector = np.zeros(n)
    vector[list(coefficients)] = list(coefficients.values())
    return vector


def _rows(rows, n: int, above: LpRelaxation | None = None) -> dict:
    """``LpRelaxation`` row fields: ``above``'s rows as they are, then the
    ``(coefficients, relation, rhs)`` rows; one slack per row."""
    A = np.array([_dense(coefficients, n) for coefficients, _, _ in rows] or np.zeros((0, n)))
    b = np.array([rhs for _, _, rhs in rows], dtype=float)
    slack = np.array([_SLACK_BOUNDS[relation] for _, relation, _ in rows]).reshape(-1, 2).T
    if above is not None:
        A = np.vstack([above.A, A])
        b = np.concatenate([above.b, b])
        slack = np.hstack([(above.slack_lower, above.slack_upper), slack])
    return {"A": A, "b": b, "slack_lower": slack[0], "slack_upper": slack[1]}


def relaxation_from_dicts(model: MipModel) -> LpRelaxation:
    """Build a model's arrays from its dicts; ``MipModel.relaxation`` caches it."""
    n, variables = model.n_vars, model.variables
    return LpRelaxation(
        c=_dense(model.objective, n), offset=model.objective_offset,
        lower=np.array([v.lower for v in variables], dtype=float),
        upper=np.array([v.upper for v in variables], dtype=float),
        integer=np.array([v.kind != CONTINUOUS for v in variables], dtype=bool),
        **_rows([(con.coefficients, con.relation, con.rhs) for con in model.constraints], n),
    )


def evaluate(model: MipModel | LpRelaxation, values) -> Solution:
    """Score a full assignment on a model's or a sub-problem's arrays:
    objective, feasibility, integrality.

    Never raises on an infeasible point; only the vector length is enforced.
    """
    relax = model.relaxation
    if len(values) != relax.n_structural:
        raise DimensionMismatch(f"expected {relax.n_structural} values, got {len(values)}")
    x = np.array(values, dtype=float)
    activity = relax.A @ x  # in [b - slack_upper, b - slack_lower]
    feasible = not (
        np.count_nonzero((x < relax.lower - BOUND_TOL) | (x > relax.upper + BOUND_TOL))
        or np.count_nonzero((activity > relax.b - relax.slack_lower + FEASIBILITY_TOL)
                            | (activity < relax.b - relax.slack_upper - FEASIBILITY_TOL))
    )
    discrete = x[relax.integer]
    integral = bool((np.abs(discrete - np.rint(discrete)) <= INTEGRALITY_TOL).all())
    return Solution(tuple(x.tolist()), relax.offset + float(relax.c @ x), feasible, integral)


def apply_neighborhood(model: MipModel, spec: NeighborhoodSpec) -> LpRelaxation:
    """A sub-problem's arrays, derived from the model's: fixings become equal
    bounds, overrides narrow the bounds, the base rows are shared or stacked
    once with the extra rows, and an objective override (stated directly in
    minimization form) brings its own costs.

    Pure: the model is never modified. Raises :class:`ConflictingFixing` when
    a fixed value violates the variable's bounds or integrality, or an
    override leaves an empty range, and :class:`ModelError` for a malformed
    extra row or objective; variable names serve the messages only.
    """
    n, base = model.n_vars, model.relaxation
    lower, upper = base.lower.copy(), base.upper.copy()
    for i, value in spec.fixings.items():
        lo, up = float(base.lower[i]), float(base.upper[i])
        name = model.variables[i].name
        if value < lo - BOUND_TOL or value > up + BOUND_TOL:
            raise ConflictingFixing(f"fixing {name!r} at {value} outside bounds [{lo}, {up}]")
        if base.integer[i] and abs(value - round(value)) > INTEGRALITY_TOL:
            raise ConflictingFixing(f"fixing integer {name!r} at fractional {value}")
        lower[i] = upper[i] = value
    for i, (lo, up) in spec.bound_overrides.items():
        if i in spec.fixings:
            continue
        new_lower, new_upper = max(lo, float(base.lower[i])), min(up, float(base.upper[i]))
        if new_lower > new_upper + BOUND_TOL:
            raise ConflictingFixing(
                f"override for {model.variables[i].name!r} yields empty range "
                f"[{new_lower}, {new_upper}]"
            )
        lower[i], upper[i] = new_lower, new_upper

    arrays = {"lower": lower, "upper": upper}
    if spec.extra_constraints:
        rows = []
        for con in spec.extra_constraints:
            coefficients = _strip_zeros(con.coefficients)
            _check_constraint(con.name, coefficients, con.relation, n)
            rows.append((coefficients, con.relation, con.rhs))
        arrays.update(_rows(rows, n, above=base))
    if spec.objective_override is not None:
        coefficients, offset = spec.objective_override
        objective = _strip_zeros(coefficients)
        _check_objective(objective, n)
        arrays.update(c=_dense(objective, n), offset=offset)
    return replace(base, **arrays)


@dataclass(frozen=True)
class Presolved:
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
