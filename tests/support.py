"""Shared test oracles and fixtures.

The oracles here are deliberately independent of the solver code paths they
check: full assignment enumeration for binary MIPs, active-set vertex
enumeration for LPs, the dense ``[A, I]`` whose slack block the LP keeps
implicit, a dict-loop ``evaluate`` for the array one, a whole
sub-model built from dicts for ``apply_neighborhood``'s derived arrays, a
dense gap grid for the simulator's subset scores, a ``csv.reader`` over the
open file and a ``pathlib`` listing for the trace database loader, and
hand-rolled step-function traces.
"""

import csv
import dataclasses
import itertools
import math
import random
import struct
from pathlib import Path

import numpy as np

from parlns.metrics import GapTrace
from parlns.model import (
    BINARY,
    BOUND_TOL,
    CONTINUOUS,
    EQ,
    FEASIBILITY_TOL,
    GE,
    INTEGRALITY_TOL,
    LE,
    MINIMIZE,
    ConflictingFixing,
    DimensionMismatch,
    LinearConstraint,
    LpRelaxation,
    MipModel,
    Solution,
    Variable,
    _validate,
    make_model,
)
from parlns.simulator import build_trace_db


def evaluate_oracle(model: MipModel, values) -> Solution:
    """``model.evaluate`` as one loop over the model's dicts per relation."""
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
        for i in model.integer_indices()
    )
    return Solution(values=values, objective=objective, feasible=feasible, integral=integral)


def apply_neighborhood_oracle(model: MipModel, spec) -> MipModel:
    """``apply_neighborhood`` as a whole sub-model built from dicts: fixed and
    narrowed ``Variable`` bounds, the extra rows appended under fresh names
    without their zero coefficients, and an override objective stated in
    minimization form; the result is validated like any model, so its
    ``relaxation_from_dicts`` is the reference for the derived arrays."""
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
    for i, (lo, up) in spec.bound_overrides.items():
        if i in spec.fixings:
            continue
        var = variables[i]
        lower, upper = max(lo, var.lower), min(up, var.upper)
        if lower > upper + BOUND_TOL:
            raise ConflictingFixing(f"override for {var.name!r} yields empty range")
        variables[i] = Variable(var.name, var.kind, lower, upper)
    used = {c.name for c in model.constraints}
    appended = []
    for con in spec.extra_constraints:
        name, k = con.name, 1
        while name in used:
            name, k = f"{con.name}_{k}", k + 1
        used.add(name)
        coefficients = {i: c for i, c in con.coefficients.items() if c != 0.0}
        appended.append(LinearConstraint(name, coefficients, con.relation, con.rhs))
    fields = {"variables": tuple(variables), "constraints": model.constraints + tuple(appended)}
    if spec.objective_override is not None:
        coefficients, offset = spec.objective_override
        objective = {i: c for i, c in coefficients.items() if c != 0.0}
        fields.update(sense=MINIMIZE, objective=objective, objective_offset=offset)
    return _validate(dataclasses.replace(model, **fields))


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


def binary_optimum(model: MipModel) -> float | None:
    """Exact internal-scale optimum of an all-binary model by enumerating
    every assignment; None when infeasible."""
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


def lp_vertex_optimum(model: MipModel) -> float | None:
    """LP optimum by enumerating vertices as intersections of n active
    hyperplanes drawn from constraint rows and bound planes. Requires a
    bounded box; returns None when no feasible vertex exists."""
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


def _point_feasible(model: MipModel, x, tol: float = 1e-7) -> bool:
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
