"""Bounded-variable simplex for LP relaxations.

Dense revised simplex over a model's ``LpRelaxation``: ``[A, I]``, one slack
column per row. A cold solve starts from a crash basis: every variable sits
at a finite bound (free ones at zero), a row's slack is basic wherever it can
absorb the row's residual there, and only the other rows get an artificial
variable. Phase 1 drives those artificials out, phase 2 optimizes the real
costs. Nonbasic variables sit exactly at a bound, the ratio test allows bound
flips, and the entering rule switches from Dantzig to Bland's rule after 1000
degenerate pivots so the method terminates.

A warm solve starts from an earlier optimal basis, as a branch-and-bound
child starts from its parent's. The earlier relaxation may have fewer rows:
a sub-MIP appends its local-branching or proximity row to the worker's base
rows, so the base rows keep their slack columns' indices and the appended
rows' slacks join the basis. With the appended slacks basic, the duals of
the base rows and so every reduced cost are those of the earlier optimum.
Each nonbasic variable goes to the bound its reduced cost prefers, a bounded
dual simplex restores primal feasibility under the new bounds and rows, and
a primal pass cleans up. A basis that is singular, not dual feasible (as
after a swapped cost vector), leaves a nonbasic variable at an infinite
bound, runs past the iteration limit, or claims infeasibility without a
certificate that holds on the original rows falls back to a cold solve.

Each pivot updates the basis inverse in place with one BLAS rank-1 update
(``dger``) instead of building an m-by-m outer product. A caller's ``stop``
callable is checked before every pivot; when it returns true the solve ends
with status ``stopped``.
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.linalg.blas import dger

from .model import INF, LpRelaxation, MipModel

LP_OPTIMAL = "optimal"
LP_INFEASIBLE = "infeasible"
LP_UNBOUNDED = "unbounded"
LP_ITERATION_LIMIT = "iteration_limit"
LP_STOPPED = "stopped"

_COST_TOL = 1e-9
_PIVOT_TOL = 1e-9
_DEGENERATE_TOL = 1e-9
_PRIMAL_TOL = 1e-9
_FEAS_TOL = 1e-7
_BLAND_AFTER = 1000
_REFACTOR_EVERY = 200

# variable position codes
_AT_LOWER, _AT_UPPER, _BASIC, _FREE = 0, 1, 2, 3


@dataclass(frozen=True)
class LpResult:
    status: str
    values: tuple[float, ...] | None = None
    objective: float | None = None
    iterations: int = 0
    # an optimum's basis (column per row) and column positions, to warm-start
    # a solve with other bounds over the same relaxation
    basis: np.ndarray | None = field(default=None, compare=False, repr=False)
    pos: np.ndarray | None = field(default=None, compare=False, repr=False)


def build_relaxation(model: MipModel) -> LpRelaxation:
    """The model's arrays: built once per model, derived for a sub-model."""
    return model.relaxation


def solve_lp(
    model: MipModel, iteration_limit: int = 10000, stop: Callable[[], bool] | None = None
) -> LpResult:
    """Solve the LP relaxation of a model; ``stop`` as in ``solve_relaxation``."""
    return solve_relaxation(build_relaxation(model), iteration_limit=iteration_limit, stop=stop)


def solve_relaxation(
    relax: LpRelaxation,
    lower: np.ndarray | None = None,
    upper: np.ndarray | None = None,
    iteration_limit: int = 10000,
    warm: tuple[np.ndarray, np.ndarray] | None = None,
    stop: Callable[[], bool] | None = None,
) -> LpResult:
    """Solve a relaxation, optionally overriding the structural bounds.

    Bound overrides let a branch-and-bound caller reuse the constraint matrix
    across nodes. ``warm`` is the ``(basis, pos)`` of an earlier optimum of
    this relaxation, or of one with the same variables and only a prefix of
    its rows; the solve then starts from that basis. Each start gets
    ``iteration_limit`` pivots, and ``iterations`` counts them all. ``stop``
    is called before every pivot; once it returns true the solve returns
    ``LP_STOPPED`` without a fallback.
    """
    n = relax.n_structural
    m = relax.A_full.shape[0]
    lo = relax.lower if lower is None else lower
    up = relax.upper if upper is None else upper
    if np.any(lo > up + 1e-12):
        return LpResult(LP_INFEASIBLE)

    if m == 0:
        return _solve_box_only(relax.c, relax.offset, lo, up)

    c_full = np.concatenate([relax.c, np.zeros(m)])
    lower_full = np.concatenate([lo, relax.slack_lower])
    upper_full = np.concatenate([up, relax.slack_upper])

    state = _new_state(0, stop)
    status, tab = None, None
    if warm is not None:
        tab = _warm_tableau(relax.A_full, relax.b, c_full, lower_full, upper_full, *warm)
    if tab is not None:
        status = _dual_optimize(tab, c_full, state, iteration_limit)
        if status == LP_OPTIMAL:
            status = _optimize(tab, c_full, tab.n_cols, state, iteration_limit)
        if status in (None, LP_ITERATION_LIMIT):
            tab = None
    if tab is None and status != LP_STOPPED:
        state = _new_state(state["iterations"], stop)
        status, tab = _two_phase(
            c_full, relax.A_full, relax.b, lower_full, upper_full, state,
            state["iterations"] + iteration_limit,
        )
    iterations = state["iterations"]
    if status != LP_OPTIMAL:
        return LpResult(status, iterations=iterations)

    # sanity: a reported optimum must actually satisfy the system
    x = tab.x
    residual = float(np.max(np.abs(relax.A_full @ x - relax.b)))
    off_bounds = max(
        float(np.max(np.maximum(lower_full - x, 0.0), initial=0.0)),
        float(np.max(np.maximum(x - upper_full, 0.0), initial=0.0)),
    )
    if residual > _FEAS_TOL or off_bounds > 1e-6:
        return LpResult(LP_ITERATION_LIMIT, iterations=iterations)

    values = tuple(float(v) for v in x[:n])
    objective = float(relax.c @ x[:n] + relax.offset)
    full_basis = tab.m == m
    return LpResult(
        LP_OPTIMAL,
        values=values,
        objective=objective,
        iterations=iterations,
        basis=tab.basis.copy() if full_basis else None,
        pos=tab.pos.copy() if full_basis else None,
    )


def _new_state(iterations, stop):
    return {"iterations": iterations, "degenerate": 0, "since_refactor": 0, "stop": stop}


def _halted(state, iteration_limit):
    """The status that ends a pivot loop before its next pivot, or None."""
    if state["iterations"] >= iteration_limit:
        return LP_ITERATION_LIMIT
    if state["stop"] is not None and state["stop"]():
        return LP_STOPPED
    return None


def _solve_box_only(c, offset, lo, up):
    values = np.zeros_like(c)
    for j in range(c.shape[0]):
        if c[j] > 0:
            if lo[j] == -INF:
                return LpResult(LP_UNBOUNDED)
            values[j] = lo[j]
        elif c[j] < 0:
            if up[j] == INF:
                return LpResult(LP_UNBOUNDED)
            values[j] = up[j]
        else:
            values[j] = lo[j] if lo[j] > -INF else (up[j] if up[j] < INF else 0.0)
    return LpResult(
        LP_OPTIMAL,
        values=tuple(float(v) for v in values),
        objective=float(c @ values + offset),
        iterations=0,
    )


class _Tableau:
    """Mutable simplex state over a fixed column set."""

    def __init__(self, A, b, lower, upper):
        self.A = A
        self.b = b
        self.lower = lower
        self.upper = upper
        self.m, self.n_cols = A.shape
        self.x = np.zeros(self.n_cols)
        self.pos = np.full(self.n_cols, _AT_LOWER, dtype=np.int8)
        finite_lower = lower > -INF
        finite_upper = upper < INF
        at_upper = ~finite_lower & finite_upper
        self.x[finite_lower] = lower[finite_lower]
        self.x[at_upper] = upper[at_upper]
        self.pos[at_upper] = _AT_UPPER
        self.pos[~finite_lower & ~finite_upper] = _FREE
        # fixed columns (equality slacks) may never enter the basis
        self.enterable = (upper - lower) > _PIVOT_TOL
        self.basis = np.empty(0, dtype=int)
        self.binv = np.empty((self.m, self.m))

    def set_basis(self, basis):
        self.basis = np.asarray(basis, dtype=int)
        self.pos[self.basis] = _BASIC
        self.refactor()

    def refactor(self):
        B = self.A[:, self.basis]
        self.binv = _invert(B)
        nonbasic_part = self.b - self.A @ self.x + B @ self.x[self.basis]
        self.x[self.basis] = self.binv @ nonbasic_part

    def solution_value(self, c):
        return float(c @ self.x)


def _invert(B):
    """Inverse of a basis matrix whose columns are mostly unit vectors.

    Slack and artificial columns have one nonzero each. Ordering their rows
    and columns last makes B block lower triangular, [[P, 0], [Q, D]] with D
    diagonal, so only the square block P of the other columns needs a dense
    inverse. Raises LinAlgError when B is singular.
    """
    m = B.shape[0]
    is_unit = np.count_nonzero(B, axis=0) == 1
    unit_cols = np.flatnonzero(is_unit)
    unit_rows = np.argmax(B[:, unit_cols] != 0, axis=0)
    row_taken = np.zeros(m, dtype=bool)
    row_taken[unit_rows] = True
    if np.count_nonzero(row_taken) < unit_rows.size:
        raise np.linalg.LinAlgError("two basic unit columns share a row")
    other_cols = np.flatnonzero(~is_unit)
    other_rows = np.flatnonzero(~row_taken)
    diag = B[unit_rows, unit_cols]
    binv = np.zeros((m, m))
    binv[unit_cols, unit_rows] = 1.0 / diag
    if other_cols.size:
        p_inv = np.linalg.inv(B[np.ix_(other_rows, other_cols)])
        binv[np.ix_(other_cols, other_rows)] = p_inv
        q = B[np.ix_(unit_rows, other_cols)]
        binv[np.ix_(unit_cols, other_rows)] = -(q @ p_inv) / diag[:, None]
    return binv


def _two_phase(c, A, b, lower, upper, state, iteration_limit):
    """Cold solve from the slack crash basis; returns (status, tableau)."""
    m, n_real = A.shape
    slacks = np.arange(n_real - m, n_real)
    tab = _Tableau(A, b, lower, upper)
    # the slack block of A is the identity: row i's residual with its slack
    # at zero is what slack i would have to take as a basic variable
    residual = b - A @ tab.x + tab.x[slacks]
    crash = (residual >= lower[slacks]) & (residual <= upper[slacks])
    basis = slacks.copy()
    art_rows = np.flatnonzero(~crash)
    if art_rows.size == 0:
        tab.set_basis(basis)
        return _optimize(tab, c, n_real, state, iteration_limit), tab

    k = art_rows.size
    art = np.zeros((m, k))
    art_residual = residual[art_rows] - tab.x[slacks[art_rows]]
    art[art_rows, np.arange(k)] = np.where(art_residual >= 0, 1.0, -1.0)
    A1 = np.hstack([A, art])
    lower1 = np.concatenate([lower, np.zeros(k)])
    upper1 = np.concatenate([upper, np.full(k, INF)])
    c1 = np.concatenate([np.zeros(n_real), np.ones(k)])
    basis[art_rows] = n_real + np.arange(k)

    tab1 = _Tableau(A1, b, lower1, upper1)
    tab1.set_basis(basis)
    status = _optimize(tab1, c1, n_real, state, iteration_limit)
    if status in (LP_ITERATION_LIMIT, LP_STOPPED):
        return status, None
    if tab1.solution_value(c1) > _FEAS_TOL:
        return LP_INFEASIBLE, None

    keep_rows = _evict_artificials(tab1, n_real)
    if len(keep_rows) < m:
        A = A[keep_rows]
        b = b[keep_rows]
        m = len(keep_rows)
        if m == 0:
            # every row was redundant; optimize over bounds alone
            box = _solve_box_only(c, 0.0, lower, upper)
            if box.status != LP_OPTIMAL:
                return box.status, None
            tab = _Tableau(A, b, lower, upper)
            tab.x[:] = box.values
            return LP_OPTIMAL, tab
        tab = _Tableau(A, b, lower, upper)

    tab.x[:] = tab1.x[:n_real]
    tab.pos[:] = tab1.pos[:n_real]
    tab.basis = np.asarray([j for j in tab1.basis if j < n_real], dtype=int)
    tab.refactor()
    return _optimize(tab, c, n_real, state, iteration_limit), tab


def _evict_artificials(tab, n_real):
    """Pivot zero-level artificials out of the basis; report surviving rows."""
    keep = []
    for r in range(tab.m):
        jb = tab.basis[r]
        if jb < n_real:
            keep.append(r)
            continue
        row = tab.binv[r] @ tab.A[:, :n_real]
        row_abs = np.abs(row)
        row_abs[tab.pos[:n_real] == _BASIC] = 0.0
        j = int(np.argmax(row_abs))
        if row_abs[j] <= _PIVOT_TOL:
            continue  # redundant row
        w = tab.binv @ tab.A[:, j]
        _pivot(tab, j, r, w, entering_value=tab.x[j])
        keep.append(r)
    return keep


def _warm_tableau(A, b, c, lower, upper, basis, pos):
    """Tableau on an earlier basis, each nonbasic column at the bound its
    reduced cost prefers; None if the basis is singular or not dual feasible.

    A basis of a relaxation with fewer rows is extended by the slacks of the
    appended rows, which are the last columns of ``A``.
    """
    tab = _Tableau(A, b, lower, upper)
    appended = tab.m - len(basis)
    if appended < 0:
        return None
    tab.basis = np.concatenate([basis, np.arange(tab.n_cols - appended, tab.n_cols)])
    pos = np.concatenate([pos, np.full(appended, _BASIC, dtype=np.int8)])
    try:
        tab.binv = _invert(A[:, tab.basis])
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(tab.binv)):
        return None
    d = c - (c[tab.basis] @ tab.binv) @ A
    # a zero reduced cost keeps the earlier bound while that bound is finite
    at_upper = np.where(
        np.abs(d) <= _COST_TOL,
        ((pos == _AT_UPPER) & (upper < INF)) | (lower == -INF),
        d < 0,
    )
    nonbasic = np.ones(tab.n_cols, dtype=bool)
    nonbasic[tab.basis] = False
    bound = np.where(at_upper, upper, lower)[nonbasic]
    if not np.all(np.isfinite(bound)):
        return None
    tab.x[nonbasic] = bound
    tab.pos[nonbasic] = np.where(at_upper[nonbasic], _AT_UPPER, _AT_LOWER)
    tab.pos[tab.basis] = _BASIC
    tab.x[tab.basis] = 0.0
    tab.x[tab.basis] = tab.binv @ (b - A @ tab.x)
    return tab


def _dual_optimize(tab, c, state, iteration_limit):
    """Bounded dual simplex from a dual feasible basis until primal feasible.

    Returns None when a row looks infeasible but its certificate does not
    hold on the original system.
    """
    A = tab.A
    d = c - (c[tab.basis] @ tab.binv) @ A
    while True:
        halted = _halted(state, iteration_limit)
        if halted is not None:
            return halted
        if state["since_refactor"] >= _REFACTOR_EVERY:
            tab.refactor()
            state["since_refactor"] = 0
            d = c - (c[tab.basis] @ tab.binv) @ A

        xb = tab.x[tab.basis]
        below = tab.lower[tab.basis] - xb
        above = xb - tab.upper[tab.basis]
        infeasibility = np.maximum(below, above)
        bland = state["degenerate"] >= _BLAND_AFTER
        if bland:
            rows = np.flatnonzero(infeasibility > _PRIMAL_TOL)
            if rows.size == 0:
                return LP_OPTIMAL
            r = int(rows[np.argmin(tab.basis[rows])])
        else:
            r = int(np.argmax(infeasibility))
            if infeasibility[r] <= _PRIMAL_TOL:
                return LP_OPTIMAL
        rise = below[r] > 0  # the leaving variable goes up to its lower bound

        # x_B[r] moves by -alpha_j per unit of x_j; candidates move it toward
        # its bound without leaving their own bound the wrong way
        alpha = tab.binv[r] @ A
        toward = -alpha if rise else alpha
        candidates = tab.enterable & (
            ((tab.pos == _AT_LOWER) & (toward > _PIVOT_TOL))
            | ((tab.pos == _AT_UPPER) & (toward < -_PIVOT_TOL))
        )
        idx = np.flatnonzero(candidates)
        if idx.size == 0:
            return LP_INFEASIBLE if _certifies_infeasible(tab, r) else None
        ratios = np.abs(d[idx]) / np.abs(alpha[idx])
        t = float(ratios.min())
        ties = idx[ratios <= t + _PIVOT_TOL]
        j = int(ties[0]) if bland else int(ties[int(np.argmax(np.abs(alpha[ties])))])

        leaving = tab.basis[r]
        target = tab.lower[leaving] if rise else tab.upper[leaving]
        w = tab.binv @ A[:, j]
        step = (xb[r] - target) / w[r]
        tab.x[tab.basis] -= step * w
        entering_value = tab.x[j] + step
        tab.x[leaving] = target
        tab.pos[leaving] = _AT_LOWER if rise else _AT_UPPER
        _pivot(tab, j, r, w, entering_value)
        d -= (d[j] / alpha[j]) * alpha
        d[j] = 0.0

        if t <= _DEGENERATE_TOL:
            state["degenerate"] += 1
        state["iterations"] += 1
        state["since_refactor"] += 1


def _certifies_infeasible(tab, r):
    """Row r of the basis inverse as multipliers y: the rows are infeasible
    if y @ A @ x cannot reach y @ b anywhere in the variable box."""
    y = tab.binv[r]
    alpha = y @ tab.A
    # other basic columns read rounding noise here, not coefficients
    nonzero = np.abs(alpha) > _PIVOT_TOL
    a = alpha[nonzero]
    lo = tab.lower[nonzero]
    up = tab.upper[nonzero]
    least = float(np.sum(np.where(a > 0, a * lo, a * up)))
    most = float(np.sum(np.where(a > 0, a * up, a * lo)))
    rhs = float(y @ tab.b)
    # a margin well above the cold phase 1 tolerance, so both agree
    tol = 10 * _FEAS_TOL * max(1.0, float(np.max(np.abs(y))))
    return rhs > most + tol or rhs < least - tol


def _pivot(tab, j_enter, r_leave, w, entering_value):
    tab.binv[r_leave] /= w[r_leave]
    row = tab.binv[r_leave].copy()  # BLAS must not read a row it writes
    others = w.copy()
    others[r_leave] = 0.0
    # binv -= outer(others, row), in place: binv is C-ordered, so its
    # transpose is the Fortran-ordered matrix BLAS updates without a copy
    updated = dger(-1.0, row, others, a=tab.binv.T, overwrite_a=1)
    if not np.shares_memory(updated, tab.binv):
        tab.binv = updated.T  # binv was not contiguous and BLAS worked on a copy
    tab.basis[r_leave] = j_enter
    tab.pos[j_enter] = _BASIC
    tab.x[j_enter] = entering_value


def _optimize(tab, c, n_eligible, state, iteration_limit):
    """Run pivots until optimal; columns >= n_eligible never enter."""
    neg_inf = -INF
    while True:
        halted = _halted(state, iteration_limit)
        if halted is not None:
            return halted
        if state["since_refactor"] >= _REFACTOR_EVERY:
            tab.refactor()
            state["since_refactor"] = 0

        y = c[tab.basis] @ tab.binv
        d = c - y @ tab.A
        bland = state["degenerate"] >= _BLAND_AFTER

        dn = d[:n_eligible]
        pos = tab.pos[:n_eligible]
        score = np.full(n_eligible, neg_inf)
        at_lower = (pos == _AT_LOWER) & tab.enterable[:n_eligible]
        at_upper = (pos == _AT_UPPER) & tab.enterable[:n_eligible]
        free = pos == _FREE
        score[at_lower] = -dn[at_lower]
        score[at_upper] = dn[at_upper]
        score[free] = np.abs(dn[free])
        if bland:
            eligible = np.where(score > _COST_TOL)[0]
            if eligible.size == 0:
                return LP_OPTIMAL
            j = int(eligible[0])
        else:
            j = int(np.argmax(score))
            if score[j] <= _COST_TOL:
                return LP_OPTIMAL
        direction = 1.0 if (tab.pos[j] == _AT_LOWER or d[j] < 0) else -1.0

        w = tab.binv @ tab.A[:, j]
        t, r_leave = _ratio_test(tab, j, direction, w, bland)
        if t == INF:
            return LP_UNBOUNDED

        if t <= _DEGENERATE_TOL:
            state["degenerate"] += 1
        state["iterations"] += 1
        state["since_refactor"] += 1

        tab.x[tab.basis] -= direction * t * w
        if r_leave < 0:
            # bound flip, no basis change
            tab.x[j] = tab.upper[j] if direction > 0 else tab.lower[j]
            tab.pos[j] = _AT_UPPER if direction > 0 else _AT_LOWER
        else:
            entering_value = tab.x[j] + direction * t
            leaving = tab.basis[r_leave]
            delta = -direction * w[r_leave]
            if delta < 0:
                tab.x[leaving] = tab.lower[leaving]
                tab.pos[leaving] = _AT_LOWER
            else:
                tab.x[leaving] = tab.upper[leaving]
                tab.pos[leaving] = _AT_UPPER
            _pivot(tab, j, r_leave, w, entering_value)


def _ratio_test(tab, j_enter, direction, w, bland):
    """Max step for the entering variable; returns (t, leaving row or -1)."""
    delta = -direction * w
    xb = tab.x[tab.basis]
    lb = tab.lower[tab.basis]
    ub = tab.upper[tab.basis]
    limits = np.full(tab.m, INF)
    # a basic variable only limits the step toward a finite bound
    dec = (delta < -_PIVOT_TOL) & (lb > -INF)
    inc = (delta > _PIVOT_TOL) & (ub < INF)
    limits[dec] = (xb[dec] - lb[dec]) / (-delta[dec])
    limits[inc] = (ub[inc] - xb[inc]) / delta[inc]
    np.maximum(limits, 0.0, out=limits)

    flip = tab.upper[j_enter] - tab.lower[j_enter]
    t_row = float(limits.min()) if tab.m else INF
    if flip <= t_row:
        # bound flip is at least as tight (inf == inf signals unboundedness)
        return flip, -1

    ties = np.where(limits <= t_row + _PIVOT_TOL)[0]
    if bland:
        basis_ids = tab.basis[ties]
        r = int(ties[int(np.argmin(basis_ids))])
    else:
        r = int(ties[int(np.argmax(np.abs(delta[ties])))])
    return t_row, r
