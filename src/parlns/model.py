"""Immutable MIP data model: variables, constraints, solutions, sub-problem specs.

Models are normalized to minimization on construction; objectives stated as
maximization are negated once and un-negated only at reporting boundaries
(see :meth:`MipModel.to_external_objective`). A model's one numeric form is
its read-only :class:`LpRelaxation`, built on first use; ``evaluate`` and the
LP read it, and ``apply_neighborhood`` derives a sub-model's from its parent's.
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
    tag: str = ""


@dataclass(frozen=True)
class LpRelaxation:
    """A model's dense arrays, its LP relaxation plus an integer mask, all
    read-only so that sub-models and solves share them without copying.
    ``A_full`` carries one slack column per row, so B&B nodes swap only bounds."""

    c: np.ndarray
    offset: float
    A_full: np.ndarray
    b: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    slack_lower: np.ndarray
    slack_upper: np.ndarray
    n_structural: int
    integer: np.ndarray

    def __post_init__(self):
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False


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
        _check_constraint(con, n)
    _check_objective(model.objective, n)
    return model


def _check_constraint(con: LinearConstraint, n: int) -> None:
    if con.relation not in _SLACK_BOUNDS:
        raise ModelError(f"constraint {con.name!r}: unknown relation {con.relation!r}")
    if not con.coefficients:
        raise ModelError(f"constraint {con.name!r} has no nonzero coefficient")
    for i in con.coefficients:
        if not 0 <= i < n:
            raise ModelError(f"constraint {con.name!r} references variable index {i}")


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


def _rows(constraints, n: int, above: LpRelaxation | None = None) -> dict:
    """``LpRelaxation`` row fields: ``above``'s rows as they are, then the
    constraints' rows read from their dicts; one slack column per row."""
    A = np.array([_dense(con.coefficients, n) for con in constraints] or np.zeros((0, n)))
    b = np.array([con.rhs for con in constraints], dtype=float)
    slack = np.array([_SLACK_BOUNDS[con.relation] for con in constraints]).reshape(-1, 2).T
    if above is not None:
        A = np.vstack([above.A_full[:, :n], A])
        b = np.concatenate([above.b, b])
        slack = np.hstack([(above.slack_lower, above.slack_upper), slack])
    A_full = np.hstack([A, np.eye(len(A))])
    return {"A_full": A_full, "b": b, "slack_lower": slack[0], "slack_upper": slack[1]}


def relaxation_from_dicts(model: MipModel) -> LpRelaxation:
    """Build a model's arrays from its dicts; ``MipModel.relaxation`` caches it."""
    n, variables = model.n_vars, model.variables
    return LpRelaxation(
        c=_dense(model.objective, n), offset=model.objective_offset, n_structural=n,
        lower=np.array([v.lower for v in variables], dtype=float),
        upper=np.array([v.upper for v in variables], dtype=float),
        integer=np.array([v.kind != CONTINUOUS for v in variables], dtype=bool),
        **_rows(model.constraints, n),
    )


def evaluate(model: MipModel, values) -> Solution:
    """Score a full assignment: objective, feasibility, integrality.

    Never raises on an infeasible point; only the vector length is enforced.
    """
    if len(values) != model.n_vars:
        raise DimensionMismatch(f"expected {model.n_vars} values, got {len(values)}")
    relax = model.relaxation
    x = np.array(values, dtype=float)
    activity = relax.A_full[:, : relax.n_structural] @ x  # in [b - slack_upper, b - slack_lower]
    feasible = not (
        (x < relax.lower - BOUND_TOL).any() or (x > relax.upper + BOUND_TOL).any()
        or (activity > relax.b - relax.slack_lower + FEASIBILITY_TOL).any()
        or (activity < relax.b - relax.slack_upper - FEASIBILITY_TOL).any()
    )
    discrete = x[relax.integer]
    integral = bool((np.abs(discrete - np.rint(discrete)) <= INTEGRALITY_TOL).all())
    return Solution(tuple(x.tolist()), relax.offset + float(relax.c @ x), feasible, integral)


def apply_neighborhood(model: MipModel, spec: NeighborhoodSpec) -> MipModel:
    """Materialize a sub-problem: fixings become equal bounds, overrides and
    extra constraints are applied, the objective is replaced if requested.
    The sub-model's arrays are the model's with new bounds, the base rows
    shared or stacked once with the appended rows, and any override's costs.

    Pure: the input model is never modified. Raises :class:`ConflictingFixing`
    when a fixed value violates the variable's original bounds or integrality.
    """
    n, base = model.n_vars, model.relaxation
    lower, upper = base.lower.copy(), base.upper.copy()
    variables = list(model.variables)
    for i, value in spec.fixings.items():
        var = variables[i]
        if value < var.lower - BOUND_TOL or value > var.upper + BOUND_TOL:
            raise ConflictingFixing(
                f"fixing {var.name!r} at {value} outside bounds [{var.lower}, {var.upper}]"
            )
        if var.kind != CONTINUOUS and abs(value - round(value)) > INTEGRALITY_TOL:
            raise ConflictingFixing(f"fixing integer {var.name!r} at fractional {value}")
        variables[i] = Variable(var.name, var.kind, value, value)
        lower[i] = upper[i] = value
    for i, (lo, up) in spec.bound_overrides.items():
        if i in spec.fixings:
            continue
        var = variables[i]
        new_lower = max(lo, var.lower)
        new_upper = min(up, var.upper)
        if new_lower > new_upper + BOUND_TOL:
            raise ConflictingFixing(
                f"override for {var.name!r} yields empty range [{new_lower}, {new_upper}]"
            )
        variables[i] = Variable(var.name, var.kind, new_lower, new_upper)
        lower[i], upper[i] = new_lower, new_upper

    appended = []
    used = {c.name for c in model.constraints} if spec.extra_constraints else set()
    for con in spec.extra_constraints:
        name, k = con.name, 1
        while name in used:
            name, k = f"{con.name}_{k}", k + 1
        used.add(name)
        appended.append(
            LinearConstraint(name, _strip_zeros(dict(con.coefficients)), con.relation, con.rhs)
        )
        _check_constraint(appended[-1], n)

    fields = {"variables": tuple(variables), "constraints": model.constraints + tuple(appended)}
    if spec.objective_override is not None:
        coefficients, offset = spec.objective_override
        objective = _strip_zeros(dict(coefficients))
        _check_objective(objective, n)
        # override objectives are stated directly in minimization form
        fields.update(sense=MINIMIZE, objective=objective, objective_offset=offset)
    # the model is valid, so only the appended rows and the objective need checks
    derived = replace(model, **fields)

    arrays = {"lower": lower, "upper": upper}
    if spec.objective_override is not None:
        arrays.update(c=_dense(derived.objective, n), offset=derived.objective_offset)
    if appended:
        arrays.update(_rows(appended, n, above=base))
    derived.__dict__["relaxation"] = replace(base, **arrays)  # fills the cached_property
    return derived
