"""Shared test oracles and fixtures.

The oracles here are deliberately independent of the solver code paths they
check: full assignment enumeration for binary MIPs, active-set vertex
enumeration for LPs, the dense ``[A, I]`` whose slack block the LP keeps
implicit, the record form a model was once stored in (``Variable`` tuples
and coefficient dicts) and its densification one column and one row at a
time for ``make_model``'s and ``parse_mps``'s arrays, a dict-loop
``evaluate`` for the array one, a whole sub-model built from dicts for
``apply_neighborhood``'s derived arrays, the dict-form destroy operators for
the array ones, a
dense gap grid for the simulator's subset scores, a ``csv.reader`` over the
open file and a ``pathlib`` listing for the trace database loader, and
hand-rolled step-function traces. ``grid_builds`` counts the simulator's
grid builds.
"""

import csv
import dataclasses
import itertools
import math
import random
import struct
from pathlib import Path

import numpy as np

import parlns.simulator
from parlns.metrics import GapTrace
from parlns.model import (
    _SLACK_BOUNDS,
    BINARY,
    BOUND_TOL,
    CONTINUOUS,
    EQ,
    FEASIBILITY_TOL,
    GE,
    INTEGER,
    INTEGRALITY_TOL,
    LE,
    MAXIMIZE,
    MINIMIZE,
    ConflictingFixing,
    DimensionMismatch,
    LinearConstraint,
    LpRelaxation,
    MipModel,
    ModelError,
    NeighborhoodSpec,
    Solution,
    Variable,
    make_model,
)
from parlns.operators import (
    CROSSOVER,
    LOCAL_BRANCHING,
    MUTATION,
    PROXIMITY,
    RENS,
    EmptyNeighborhood,
    MissingRelaxation,
)
from parlns.simulator import build_trace_db


@dataclasses.dataclass(frozen=True)
class DictModel:
    """A model in the record form it was once stored in: ``objective`` maps
    a column index to its nonzero cost in minimization form, and every
    constraint keeps only its nonzero coefficients."""

    name: str
    sense: str
    variables: tuple[Variable, ...]
    constraints: tuple[LinearConstraint, ...]
    objective: dict[int, float]
    objective_offset: float = 0.0

    @property
    def n_vars(self) -> int:
        return len(self.variables)


def _strip_zeros(coefficients: dict[int, float]) -> dict[int, float]:
    return {i: c for i, c in coefficients.items() if c != 0.0}


def _normalize_variable(var: Variable) -> Variable:
    lower, upper, kind = var.lower + 0.0, var.upper + 0.0, var.kind
    if kind == BINARY:
        lower = max(lower, 0.0)
        upper = min(upper, 1.0)
    elif kind == INTEGER and lower >= -BOUND_TOL and upper <= 1.0 + BOUND_TOL:
        kind = BINARY
        lower = max(lower, 0.0)
        upper = min(upper, 1.0)
    return Variable(var.name, kind, lower, upper)


def dict_model(name, sense, variables, constraints, objective, offset=0.0) -> DictModel:
    """``make_model``'s normalization one variable and one row at a time:
    binaries clamped into [0, 1], integers inside [0, 1] made binaries, zero
    coefficients and costs dropped, a maximize objective negated and a
    ``-0.0`` rhs, bound or offset made ``0.0``. It validates nothing."""
    sign = -1.0 if sense == MAXIMIZE else 1.0
    return DictModel(
        name=name,
        sense=sense,
        variables=tuple(_normalize_variable(v) for v in variables),
        constraints=tuple(
            LinearConstraint(c.name, _strip_zeros(dict(c.coefficients)), c.relation, c.rhs + 0.0)
            for c in constraints
        ),
        objective=_strip_zeros({i: sign * c for i, c in objective.items()}),
        objective_offset=sign * offset + 0.0,
    )


def dict_form(model: MipModel | DictModel) -> DictModel:
    """A model's arrays as records, or the records themselves: a column is
    binary when it is integer with bounds inside [0, 1], as ``make_model``
    leaves exactly the binaries."""
    if isinstance(model, DictModel):
        return model
    relax = model.relaxation
    variables = tuple(
        Variable(name, (BINARY if lo >= 0.0 and up <= 1.0 else INTEGER) if integer else CONTINUOUS,
                 lo, up)
        for name, integer, lo, up in zip(
            model.column_names, relax.integer.tolist(), relax.lower.tolist(), relax.upper.tolist()
        )
    )
    objective = {j: c for j, c in enumerate(relax.c.tolist()) if c != 0.0}
    return DictModel(model.name, model.sense, variables, model.constraints, objective, relax.offset)


def _dense(coefficients: dict[int, float], n: int) -> np.ndarray:
    vector = np.zeros(n)
    vector[list(coefficients)] = list(coefficients.values())
    return vector


def relaxation_from_dicts(model: DictModel) -> LpRelaxation:
    """Build a model's arrays from its dicts, a column and a row at a time."""
    n, variables, constraints = model.n_vars, model.variables, model.constraints
    slack = np.array([_SLACK_BOUNDS[con.relation] for con in constraints]).reshape(-1, 2).T
    return LpRelaxation(
        c=_dense(model.objective, n), offset=model.objective_offset,
        A=np.array([_dense(con.coefficients, n) for con in constraints] or np.zeros((0, n))),
        b=np.array([con.rhs for con in constraints], dtype=float),
        lower=np.array([v.lower for v in variables], dtype=float),
        upper=np.array([v.upper for v in variables], dtype=float),
        slack_lower=slack[0], slack_upper=slack[1],
        integer=np.array([v.kind != CONTINUOUS for v in variables], dtype=bool),
    )


def assert_same_model(got: MipModel, want: MipModel):
    """Names, sense and arrays equal, the arrays byte for byte."""
    assert (got.name, got.sense) == (want.name, want.sense)
    assert (got.column_names, got.row_names) == (want.column_names, want.row_names)
    assert_same_arrays(got.relaxation, want.relaxation)


def evaluate_oracle(model: MipModel | DictModel, values) -> Solution:
    """``model.evaluate`` as one loop over the model's dicts per relation."""
    model = dict_form(model)
    if len(values) != model.n_vars:
        raise DimensionMismatch(f"expected {model.n_vars} values, got {len(values)}")
    values = tuple(float(v) for v in values)
    objective = model.objective_offset + sum(
        coef * values[i] for i, coef in model.objective.items()
    )
    feasible = True
    for i, var in enumerate(model.variables):
        if values[i] < var.lower - BOUND_TOL or values[i] > var.upper + BOUND_TOL:
            feasible = False
            break
    if feasible:
        for con in model.constraints:
            activity = sum(coef * values[i] for i, coef in con.coefficients.items())
            if con.relation == LE and activity > con.rhs + FEASIBILITY_TOL:
                feasible = False
            elif con.relation == GE and activity < con.rhs - FEASIBILITY_TOL:
                feasible = False
            elif con.relation == EQ and abs(activity - con.rhs) > FEASIBILITY_TOL:
                feasible = False
            if not feasible:
                break
    integral = all(
        abs(values[i] - round(values[i])) <= INTEGRALITY_TOL
        for i, var in enumerate(model.variables)
        if var.kind != CONTINUOUS
    )
    return Solution(values=values, objective=objective, feasible=feasible, integral=integral)


def apply_neighborhood_oracle(model: MipModel, spec: NeighborhoodSpec) -> DictModel:
    """``apply_neighborhood`` as a whole sub-model in record form, built one
    column and one row at a time: fixed and intersected ``Variable`` bounds,
    the appended rows as ``<=`` constraints under fresh names with every
    entry kept, and the new objective in minimization form, so its
    ``relaxation_from_dicts`` is the reference for the derived arrays. The
    checks run in the order ``apply_neighborhood`` makes them."""
    model = dict_form(model)
    n = model.n_vars
    fields = {}
    if spec.bounds is not None:
        lower, upper = spec.bounds
        if np.shape(lower) != (n,) or np.shape(upper) != (n,):
            raise ModelError("bounds of the wrong shape")
        lower, upper = [float(v) for v in lower], [float(v) for v in upper]
        if any(math.isnan(lo) or math.isnan(up) for lo, up in zip(lower, upper)):
            raise ModelError("a NaN bound")
        variables = model.variables
        for var, lo, up in zip(variables, lower, upper):
            if lo == up and not (
                math.isfinite(lo) and var.lower - BOUND_TOL <= lo <= var.upper + BOUND_TOL
            ):
                raise ConflictingFixing(f"fixing {var.name!r} at {lo} outside its bounds")
        for var, lo, up in zip(variables, lower, upper):
            if lo == up and var.kind != CONTINUOUS and abs(lo - round(lo)) > INTEGRALITY_TOL:
                raise ConflictingFixing(f"fixing integer {var.name!r} at fractional {lo}")
        bounded = []
        for var, lo, up in zip(variables, lower, upper):
            if lo == up:
                up = lo  # the value as the lower bound states it, sign of zero too
            else:
                lo, up = max(lo, var.lower), min(up, var.upper)
                if lo > up + BOUND_TOL:
                    raise ConflictingFixing(f"bounds of {var.name!r} yield empty range")
                lo = min(lo, up)
            bounded.append(Variable(var.name, var.kind, lo, up))
        fields["variables"] = tuple(bounded)
    if spec.rows is not None:
        rows, rhs = spec.rows
        if np.ndim(rhs) != 1 or np.shape(rows) != (len(rhs), n):
            raise ModelError("rows of the wrong shape")
        rows = [[float(a) for a in row] for row in rows]
        if not all(math.isfinite(a) for row in rows for a in row):
            raise ModelError("a non-finite coefficient")
        if not all(math.isfinite(float(r)) for r in rhs):
            raise ModelError("a non-finite rhs")
        if any(all(a == 0.0 for a in row) for row in rows):
            raise ModelError("a row without a nonzero coefficient")
        used = {c.name for c in model.constraints}
        appended = []
        for row, r in zip(rows, rhs):
            name, k = "extra", 1
            while name in used:
                name, k = f"extra_{k}", k + 1
            used.add(name)
            appended.append(LinearConstraint(name, dict(enumerate(row)), LE, float(r)))
        fields["constraints"] = model.constraints + tuple(appended)
    if spec.objective is not None:
        costs, offset = spec.objective
        if np.shape(costs) != (n,) or np.ndim(offset) != 0:
            raise ModelError("objective of the wrong shape")
        costs = [float(c) for c in costs]
        if not all(math.isfinite(c) for c in costs) or not math.isfinite(offset):
            raise ModelError("a non-finite cost")
        fields.update(
            sense=MINIMIZE, objective=dict(enumerate(costs)), objective_offset=float(offset)
        )
    return dataclasses.replace(model, **fields)


def fixing_spec(model: MipModel, fixings: dict[int, float]) -> NeighborhoodSpec:
    """The model's bounds with the columns ``fixings`` names fixed at its values."""
    lower, upper = model.relaxation.lower.tolist(), model.relaxation.upper.tolist()
    for j, value in fixings.items():
        lower[j] = upper[j] = value
    return NeighborhoodSpec(bounds=(lower, upper))


# --------------------------------------------------------------------------
# the six destroy operators in dict form, a fixing and a bound override per
# column and one coefficient dict per row, densified one column at a time


@dataclasses.dataclass
class _DictNeighborhood:
    fixings: dict | None = None  # None: the bounds stay the model's
    overrides: dict = dataclasses.field(default_factory=dict)
    rows: tuple = ()  # (coefficients, rhs) per row, each meaning <=
    objective: tuple | None = None  # (coefficients, offset)

    def spec(self, model: DictModel) -> NeighborhoodSpec:
        n = model.n_vars
        lower = [v.lower for v in model.variables]
        upper = [v.upper for v in model.variables]
        fields = {}
        if self.fixings is not None:
            for j, (lo, up) in self.overrides.items():
                lower[j], upper[j] = lo, up
            for j, value in self.fixings.items():
                lower[j] = upper[j] = value
            fields["bounds"] = (np.array(lower), np.array(upper))
        if self.rows:
            dense = [[coefficients.get(j, 0.0) for j in range(n)] for coefficients, _ in self.rows]
            fields["rows"] = (np.array(dense), np.array([rhs for _, rhs in self.rows]))
        if self.objective is not None:
            coefficients, offset = self.objective
            fields["objective"] = (np.array([coefficients.get(j, 0.0) for j in range(n)]), offset)
        return NeighborhoodSpec(**fields)


def build_neighborhood_oracle(spec, ctx, model: MipModel) -> NeighborhoodSpec:
    """``operators.build_neighborhood`` as the dict-form operators: the same
    draws from ``ctx.rng`` over the same lists, and the same exceptions."""
    model = dict_form(model)
    discrete = [j for j, v in enumerate(model.variables) if v.kind != CONTINUOUS]
    binaries = [j for j, v in enumerate(model.variables) if v.kind == BINARY]
    incumbent = ctx.incumbent.values
    rng, percentage = ctx.rng, spec.percentage

    def fix(j):
        return float(round(incumbent[j]))

    def mutation(percentage):
        free = set(rng.sample(discrete, math.ceil(percentage * len(discrete) / 100)))
        return _DictNeighborhood({j: fix(j) for j in discrete if j not in free})

    def hamming():
        coefficients = {j: -1.0 if round(incumbent[j]) >= 1 else 1.0 for j in binaries}
        return coefficients, sum(1 for c in coefficients.values() if c < 0)

    def cap_unfixed(fixings, overrides):
        cap = math.ceil(percentage * len(discrete) / 100)
        unfixed = [j for j in discrete if j not in fixings]
        if len(unfixed) > cap:
            for j in rng.sample(unfixed, len(unfixed) - cap):
                fixings[j] = fix(j)
                overrides.pop(j, None)
        if len(fixings) == len(discrete):
            raise EmptyNeighborhood("every integer variable would be fixed")
        return _DictNeighborhood(fixings, overrides)

    if not discrete:
        raise EmptyNeighborhood("model has no integer variables")
    if spec.family == MUTATION:
        neighborhood = mutation(percentage)
    elif spec.family == CROSSOVER:
        partners = [s for s in ctx.archive if s.values != incumbent]
        if not partners:
            neighborhood = mutation(30)
        else:
            other = rng.choice(partners)
            fixings = {
                j: fix(j)
                for j in discrete
                if abs(incumbent[j] - other.values[j]) <= INTEGRALITY_TOL
            }
            if len(fixings) == len(discrete):
                raise EmptyNeighborhood("archive partner agrees on every integer variable")
            neighborhood = _DictNeighborhood(fixings)
    elif spec.family == LOCAL_BRANCHING:
        if not binaries:
            raise EmptyNeighborhood("local branching needs binary variables")
        coefficients, ones = hamming()
        radius = math.ceil(percentage * len(binaries) / 100)
        neighborhood = _DictNeighborhood(rows=((coefficients, float(radius - ones)),))
    elif spec.family == PROXIMITY:
        if not binaries:
            raise EmptyNeighborhood("proximity search needs binary variables")
        if not model.objective:
            raise EmptyNeighborhood("proximity search needs a nonzero objective")
        objective = ctx.incumbent.objective
        delta = (percentage / 100.0) * max(abs(objective), 1.0)
        coefficients, ones = hamming()
        neighborhood = _DictNeighborhood(
            rows=((dict(model.objective), objective - model.objective_offset - delta),),
            objective=(coefficients, float(ones)),
        )
    else:
        if ctx.lp_values is None:
            raise MissingRelaxation(f"{spec.family} needs LP relaxation values")
        lp = ctx.lp_values
        if spec.family == RENS:
            fixings, overrides = {}, {}
            for j in discrete:
                nearest, var = round(lp[j]), model.variables[j]
                if abs(lp[j] - nearest) <= INTEGRALITY_TOL:
                    fixings[j] = float(min(max(nearest, var.lower), var.upper))
                else:
                    overrides[j] = (float(math.floor(lp[j])), float(math.ceil(lp[j])))
            neighborhood = cap_unfixed(fixings, overrides)
        else:
            fixings = {j: fix(j) for j in discrete if abs(lp[j] - incumbent[j]) <= INTEGRALITY_TOL}
            neighborhood = cap_unfixed(fixings, {})
    return neighborhood.spec(model)


def assert_same_arrays(got: LpRelaxation, want: LpRelaxation):
    """Every field equal, arrays in dtype and byte for byte (a zero's sign too)."""
    for f in dataclasses.fields(LpRelaxation):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), f.name
            assert a.tobytes() == b.tobytes(), f.name
        else:
            assert a == b, f.name


def with_slacks(A) -> np.ndarray:
    """``[A, I]``: the structural rows ``A`` with row i's slack as column
    n + i, stored, as the LP's basis inverse must see them."""
    return np.hstack([A, np.eye(A.shape[0])])


def most_fractional_oracle(values, int_indices):
    """Branching column as one loop: the fractional integer column nearest
    to .5, lowest index on ties; None when all are integral."""
    best_j = None
    best_score = None
    for j in int_indices:
        frac = values[j] - math.floor(values[j])
        dist = min(frac, 1.0 - frac)
        if dist <= INTEGRALITY_TOL:
            continue
        score = abs(frac - 0.5)
        if best_score is None or score < best_score:
            best_j, best_score = j, score
    return best_j


def _dense_gap_grid(db, window):
    """Every config's gap on every instance over a window, as one matrix.

    Instance i owns columns lo..hi, for ``(lo, hi, d) = spans[i]``: one per
    edge, the edges being t0, each event time of any config strictly inside
    (t0, t1), and t1, and ``d`` holds the durations between them. A point
    sets the column of the first edge at or after it and every column after
    it, on top of a gap of 1 in column lo; of several points in one column
    the latest sets it. The matrix is written by run length: the entries are
    put in cell order with one stable sort, and one ``np.repeat`` carries
    each entry forward to the next.
    """
    t0, t1 = window
    configs = len(db.config_ids)
    spans, owners, columns, values = [], [], [], []
    lo = 0
    for instance in db.instance_ids:
        traces = [db.traces[c][instance].points for c in db.config_ids]
        flat = np.array([p for pts in traces for p in pts], float).reshape(-1, 3)
        owner = np.repeat(np.arange(configs), [len(pts) for pts in traces])
        events = np.unique(flat[:, 0])
        edges = np.concatenate(([t0], events[(t0 < events) & (events < t1)], [t1]))
        column = np.searchsorted(edges, flat[:, 0], side="left")
        seen = column < len(edges)
        owners += [np.arange(configs), owner[seen]]
        columns += [np.full(configs, lo), lo + column[seen]]
        values += [np.ones(configs), flat[seen, 2]]
        spans.append((lo, lo + len(edges) - 1, np.diff(edges)))
        lo += len(edges)
    cell = np.concatenate(owners) * lo + np.concatenate(columns)
    order = np.argsort(cell, kind="stable")
    cell = cell[order]
    # each entry fills the cells up to the next entry's
    runs = np.diff(np.append(cell, configs * lo))
    gaps = np.repeat(np.concatenate(values)[order], runs).reshape(configs, lo)
    return gaps, spans


def subset_performance_oracle(db, window, rows) -> tuple[float, float]:
    """A subset's (final gap, primal integral), each averaged over instances,
    as a columnwise minimum of its rows of the dense gap grid and one dot
    product per instance."""
    gaps, spans = _dense_gap_grid(db, window)
    low = gaps[rows[0]].copy()
    for row in rows[1:]:
        np.minimum(low, gaps[row], out=low)
    finals = [float(low[hi]) for _, hi, _ in spans]
    pis = [float(low[lo:hi] @ durations) for lo, hi, durations in spans]
    return sum(finals) / len(finals), sum(pis) / len(pis)


def read_trace_points_oracle(path) -> tuple[tuple[float, float, float], ...]:
    """``metrics.read_trace_points`` as a ``csv.reader`` that pulls the rows
    line by line from the open file."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["t_seconds", "objective", "gap"]:
            raise ValueError(f"{path}: expected header t_seconds,objective,gap")
        try:
            return tuple((float(t), float(obj), float(gap)) for t, obj, gap in reader)
        except ValueError as exc:
            raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None


def trace_files_oracle(root) -> dict[str, dict[str, Path]]:
    """``load_trace_db``'s listing by ``pathlib``: the root's directories,
    and in each its ``*.csv`` paths by stem, both sorted as paths."""
    return {
        folder.name: {path.stem: path for path in sorted(folder.glob("*.csv"))}
        for folder in sorted(p for p in Path(root).iterdir() if p.is_dir())
    }


def load_trace_db_oracle(root, horizon: float | None = None):
    """``load_trace_db`` on a tree of valid traces, from the two oracles
    above: an instance's traces get ``horizon`` or, failing that, its latest
    event time over all configs."""
    points = {
        config: {instance: read_trace_points_oracle(path) for instance, path in per.items()}
        for config, per in trace_files_oracle(root).items()
    }
    latest: dict[str, float] = {}
    for per in points.values():
        for instance, pts in per.items():
            latest[instance] = max(latest.get(instance, 0.0), pts[-1][0] if pts else 0.0)
    return build_trace_db(
        {
            config: {
                instance: GapTrace(pts, latest[instance] if horizon is None else horizon)
                for instance, pts in per.items()
            }
            for config, per in points.items()
        }
    )


def point_bits(points) -> list[bytes]:
    """Each (t, objective, gap) point as its 24 bytes, so that points compare
    bit for bit (NaN equal to NaN, 0.0 unequal to -0.0)."""
    return [struct.pack("<3d", *point) for point in points]


def binary_optimum(model: MipModel | DictModel) -> float | None:
    """Exact internal-scale optimum of an all-binary model by enumerating
    every assignment; None when infeasible."""
    model = dict_form(model)
    n = model.n_vars
    assert all(v.kind == BINARY for v in model.variables)
    masks = np.array(list(itertools.product((0.0, 1.0), repeat=n)))
    # respect fixed bounds if any
    lower = np.array([v.lower for v in model.variables])
    upper = np.array([v.upper for v in model.variables])
    feasible = np.all((masks >= lower - 1e-9) & (masks <= upper + 1e-9), axis=1)
    for con in model.constraints:
        a = np.zeros(n)
        for j, coef in con.coefficients.items():
            a[j] = coef
        activity = masks @ a
        if con.relation == LE:
            feasible &= activity <= con.rhs + 1e-7
        elif con.relation == GE:
            feasible &= activity >= con.rhs - 1e-7
        else:
            feasible &= np.abs(activity - con.rhs) <= 1e-7
    if not feasible.any():
        return None
    c = np.zeros(n)
    for j, coef in model.objective.items():
        c[j] = coef
    objective = masks @ c + model.objective_offset
    return float(objective[feasible].min())


def lp_vertex_optimum(model: MipModel | DictModel) -> float | None:
    """LP optimum by enumerating vertices as intersections of n active
    hyperplanes drawn from constraint rows and bound planes. Requires a
    bounded box; returns None when no feasible vertex exists."""
    model = dict_form(model)
    n = model.n_vars
    planes = []
    for con in model.constraints:
        a = np.zeros(n)
        for j, coef in con.coefficients.items():
            a[j] = coef
        planes.append((a, con.rhs))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        planes.append((e, model.variables[j].lower))
        planes.append((e.copy(), model.variables[j].upper))
    c = np.zeros(n)
    for j, coef in model.objective.items():
        c[j] = coef
    best = None
    for combo in itertools.combinations(range(len(planes)), n):
        A = np.array([planes[k][0] for k in combo])
        rhs = np.array([planes[k][1] for k in combo])
        try:
            x = np.linalg.solve(A, rhs)
        except np.linalg.LinAlgError:
            continue
        if not _point_feasible(model, x):
            continue
        value = float(c @ x + model.objective_offset)
        if best is None or value < best:
            best = value
    return best


def _point_feasible(model: DictModel, x, tol: float = 1e-7) -> bool:
    for j, var in enumerate(model.variables):
        if x[j] < var.lower - tol or x[j] > var.upper + tol:
            return False
    for con in model.constraints:
        activity = sum(coef * x[j] for j, coef in con.coefficients.items())
        if con.relation == LE and activity > con.rhs + tol:
            return False
        if con.relation == GE and activity < con.rhs - tol:
            return False
        if con.relation == EQ and abs(activity - con.rhs) > tol:
            return False
    return True


def random_lp(rng: random.Random, max_vars: int = 6, max_cons: int = 8) -> MipModel:
    """Random bounded-box LP with moderate coefficients."""
    n = rng.randint(2, max_vars)
    m = rng.randint(1, max_cons)
    variables = [
        Variable(f"x{j}", CONTINUOUS, round(rng.uniform(-3.0, 0.0), 3), round(rng.uniform(0.5, 3.0), 3))
        for j in range(n)
    ]
    constraints = []
    for i in range(m):
        coefs = {
            j: round(rng.uniform(-5.0, 5.0), 3)
            for j in range(n)
            if rng.random() < 0.8
        }
        coefs = {j: v for j, v in coefs.items() if v != 0.0}
        if not coefs:
            coefs = {rng.randrange(n): 1.0}
        relation = rng.choice((LE, GE))
        constraints.append(
            LinearConstraint(f"c{i}", coefs, relation, round(rng.uniform(-4.0, 4.0), 3))
        )
    objective = {j: round(rng.uniform(-5.0, 5.0), 3) for j in range(n)}
    return make_model(f"lp_{rng.random()}", MINIMIZE, variables, constraints, objective)


def random_step_trace(rng: random.Random, horizon: float = 100.0, max_points: int = 5) -> GapTrace:
    """Random strictly-improving step trace (gaps strictly decreasing)."""
    points = []
    t = 0.0
    gap = 1.0
    objective = rng.uniform(50.0, 150.0)
    for _ in range(rng.randint(0, max_points)):
        t += rng.uniform(1.0, horizon / (max_points + 1))
        if t >= horizon:
            break
        gap *= rng.uniform(0.05, 0.9)
        objective *= rng.uniform(0.7, 0.99)
        points.append((t, objective, gap))
    return GapTrace(points=tuple(points), horizon=horizon)


def tiny_cover_model() -> MipModel:
    """min x + y subject to x + y >= 1, both binary."""
    return make_model(
        "tiny_cover",
        MINIMIZE,
        [Variable("x", BINARY), Variable("y", BINARY)],
        [LinearConstraint("c1", {0: 1.0, 1: 1.0}, GE, 1.0)],
        {0: 1.0, 1: 1.0},
    )


def grid_builds(monkeypatch) -> list[tuple]:
    """The windows whose grid ``simulator._grids`` builds from here on, in
    call order."""
    windows = []
    build = parlns.simulator._grids

    def counted(db, window):
        windows.append(tuple(window))
        return build(db, window)

    monkeypatch.setattr(parlns.simulator, "_grids", counted)
    return windows
