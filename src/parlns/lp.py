"""Bounded-variable simplex for LP relaxations.

Dense revised simplex over ``[A, I]``, of which a model's ``LpRelaxation``
holds the rows ``A`` only: row i's slack is column n + i, coefficient 1 and
cost 0. A model without rows has no basic columns at all. A solve makes at
most two starts: the caller's ``warm`` start, an earlier optimal
``LpResult`` as a branch-and-bound child starts from its parent's, and then
the all-slack basis, which is never singular; without a warm start only the
second. The earlier relaxation may have fewer rows: a sub-MIP appends its
local-branching or proximity row to the worker's base rows, so the base
rows keep their slack columns' indices and the appended rows' slacks join
the basis.

An optimum carries its basis, column positions and basis inverse, read-only,
and the pivots that inverse has taken since it was last factored; a warm
start is such a result, with or without its inverse. One that carries it
starts from a copy, so both children of a node share their parent's inverse
and neither writes through it. An optimum also carries the reduced costs of
its last pricing at that inverse, and a warm start from the inverse over the
same relaxation starts from a copy of them instead of pricing again. Rows
appended since extend it in closed form: with R the appended rows' entries
in the basic columns, the inverse of ``[[B, 0], [R, I]]`` is
``[[B^-1, 0], [-R B^-1, I]]``. The slack start is the warm start from a
basis of no rows: every row is appended, and the inverse is the identity. A
basis is inverted (``_invert``) only to refactor: every ``_REFACTOR_EVERY``
pivots, counted along the whole chain of warm starts so that rounding drift
stays bounded; once at the optimum of a slack start, whose inverse every
warm start below it shares; and for a warm start without its inverse.

A pivot row or reduced costs, ``y @ [A, I]``, cost one product with ``A``,
and an entering slack's column ``B^-1 e_i`` is a column of the inverse.

Each nonbasic column goes to the bound its reduced cost prefers. Where that
bound is infinite the column goes to its other bound (a free column sits at
zero) and its cost is shifted so that its reduced cost is zero (cost
shifting, a dual phase 1; Koberstein 2005). The start basis is then dual
feasible for the shifted costs, so a bounded dual simplex reaches a primal
feasible basis, and a primal simplex on the true costs removes the shifts.
A warm basis that is already dual feasible, as a child's is, needs no shift.
Nonbasic variables sit exactly at a bound (free ones at zero until they
enter), the primal ratio test allows bound flips, and both methods switch to
Bland's rule after 1000 degenerate pivots so they terminate.

One start is one ``_Tableau``: the basis, its inverse, the basic columns'
values and bounds in basis order, and the start's pivot counters. Each pivot
updates the inverse in place with one BLAS rank-1 update (``dger``) instead
of building an m-by-m outer product. A caller's ``stop`` callable is checked
before every pivot; when it returns true the solve ends with status
``stopped``. A warm start that ends any other way than optimal (with an
optimum that passes the residual check), certified infeasible or stopped is
followed by the slack start. A slack start's uncertified infeasibility, or
an optimum of it that fails the residual check, is reported as
``LP_ITERATION_LIMIT``.
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
_ITERATION_LIMIT = 10000  # pivots per start

# variable position codes
_AT_LOWER, _AT_UPPER, _BASIC, _FREE = 0, 1, 2, 3
# the way a nonbasic column may move off its position, by position code:
# up from its lower bound, down from its upper one
_MOVES = np.array([1.0, -1.0, 0.0, 0.0])


@dataclass(frozen=True)
class LpResult:
    status: str
    values: np.ndarray | None = field(default=None, compare=False)  # an optimum's x[:n], read-only
    objective: float | None = None
    iterations: int = 0
    # an optimum's basis (column per row), column positions and read-only
    # basis inverse, to warm-start a solve with other bounds over the same
    # relaxation, and the pivots that inverse has taken since it was factored
    basis: np.ndarray | None = field(default=None, compare=False, repr=False)
    pos: np.ndarray | None = field(default=None, compare=False, repr=False)
    binv: np.ndarray | None = field(default=None, compare=False, repr=False)
    since_refactor: int = field(default=0, compare=False, repr=False)
    # the read-only reduced costs of the relaxation ``priced`` at that basis
    # and inverse, from the optimum's last pricing; both None after a refactor
    reduced_costs: np.ndarray | None = field(default=None, compare=False, repr=False)
    priced: LpRelaxation | None = field(default=None, compare=False, repr=False)


# a basis of no rows: the rows appended since are every row, so its start is the slack basis
_SLACK_START = LpResult(LP_OPTIMAL, basis=np.arange(0), pos=np.arange(0), binv=np.eye(0))


def build_relaxation(model: MipModel | LpRelaxation) -> LpRelaxation:
    """A model's arrays, which the model holds from its construction on; a
    sub-problem's arrays (``apply_neighborhood``) are their own relaxation."""
    return model.relaxation


def solve_lp(model: MipModel, stop: Callable[[], bool] | None = None) -> LpResult:
    """Solve the LP relaxation of a model; ``stop`` as in ``solve_relaxation``."""
    return solve_relaxation(build_relaxation(model), stop=stop)


def solve_relaxation(
    relax: LpRelaxation,
    lower: np.ndarray | None = None,
    upper: np.ndarray | None = None,
    warm: LpResult | None = None,
    stop: Callable[[], bool] | None = None,
) -> LpResult:
    """Solve a relaxation, optionally overriding the structural bounds.

    Bound overrides let a branch-and-bound caller reuse the constraint matrix
    across nodes. ``warm`` is an earlier optimal ``LpResult``, with or without
    its ``binv``, over this relaxation or one with the same variables and only
    a prefix of its rows; the solve then starts from its basis, and from its
    inverse when it has one, and starts again from the slack basis when that
    start fails. Each start gets ``_ITERATION_LIMIT`` pivots, and
    ``iterations`` counts them all. ``stop`` is called before every pivot;
    once it returns true the solve returns ``LP_STOPPED`` without starting
    again.
    """
    n = relax.n_structural
    lo = relax.lower if lower is None else lower
    up = relax.upper if upper is None else upper
    if np.count_nonzero(lo > up + 1e-12):
        return LpResult(LP_INFEASIBLE)

    c_full = np.concatenate([relax.c, np.zeros(relax.b.shape[0])])
    lower_full = np.concatenate([lo, relax.slack_lower])
    upper_full = np.concatenate([up, relax.slack_upper])
    system = (relax, c_full, lower_full, upper_full)

    iterations = 0
    for start in ([] if warm is None else [warm]) + [None]:
        status, tab = _solve_from(system, stop, start)
        iterations += tab.iterations
        if status == LP_OPTIMAL:
            if start is None and tab.since_refactor:
                # a slack start's inverse carries every pivot of the solve, and
                # every warm start below this optimum shares it: factor it afresh
                tab.refactor()
                tab.d = None  # priced with the inverse before the refactor
            x = tab.x
            x[tab.basis] = tab.xb
            # sanity: a reported optimum must actually satisfy the system
            residual = np.abs(relax.A @ x[:n] + x[n:] - relax.b).max(initial=0.0)
            off_bounds = np.maximum(lower_full - x, x - upper_full).max(initial=0.0)
            if residual <= _FEAS_TOL and off_bounds <= 1e-6:
                break
            status = LP_ITERATION_LIMIT
        if status in (LP_INFEASIBLE, LP_STOPPED):
            break
    if status != LP_OPTIMAL:
        return LpResult(status or LP_ITERATION_LIMIT, iterations=iterations)

    for shared in (x, tab.basis, tab.pos, tab.binv, tab.d):
        if shared is not None:
            shared.flags.writeable = False  # callers and warm starts share them
    return LpResult(
        LP_OPTIMAL,
        values=x[:n],
        objective=float(relax.c @ x[:n] + relax.offset),
        iterations=iterations,
        basis=tab.basis,
        pos=tab.pos,
        binv=tab.binv,
        since_refactor=tab.since_refactor,
        reduced_costs=tab.d,
        priced=None if tab.d is None else relax,
    )


class _Tableau:
    """The mutable state of one simplex start over ``[A, I]``, holding ``A``.

    ``x`` holds the nonbasic columns' values; the basic columns' values and
    bounds live in basis order in ``xb``, ``lb`` and ``ub``, and ``x`` holds
    them only where a caller writes them back. ``moves``
    is the way each column may move off its position (``_MOVES``), zero for
    a basic, free or fixed column; ``start`` sets it from ``pos`` and every
    pivot and bound flip keeps it. The start pivots until ``limit`` or until
    ``stop`` returns true.
    """

    def __init__(self, A, b, lower, upper, stop=None):
        self.A = A
        self.b = b
        self.lower = lower
        self.upper = upper
        self.m, self.n = A.shape
        self.n_cols = self.n + self.m
        # fixed columns (equality slacks) may never enter the basis
        self.enterable = (upper - lower) > _PIVOT_TOL
        self.pos = np.zeros(self.n_cols, dtype=np.int8)  # _AT_LOWER
        self.stop = stop
        self.limit = _ITERATION_LIMIT
        self.iterations = 0
        self.degenerate = 0
        self.since_refactor = 0
        self.d = None  # the primal simplex's last reduced costs

    def start(self, x):
        """Nonbasic columns at ``x``, which is zero at the basic ones; the
        basic columns' values follow from the rows."""
        self.x = x
        self.xb = self.basic_values()
        self.lb = self.lower[self.basis]
        self.ub = self.upper[self.basis]
        self.moves = np.where(self.enterable, _MOVES[self.pos], 0.0)

    def basic_values(self):
        """The basic columns' values, from ``x`` zero at the basic ones."""
        return self.binv @ (self.b - self.A @ self.x[: self.n] - self.x[self.n :])

    def refactor(self):
        self.binv = _invert(self.A, self.basis)
        self.x[self.basis] = 0.0
        self.xb = self.basic_values()
        self.since_refactor = 0

    def price(self, y):
        """``y @ [A, I]``, one product with ``A``."""
        return np.concatenate([y @ self.A, y])

    def column(self, j):
        """``binv @ [A, I][:, j]``: a slack column is a unit vector."""
        if j >= self.n:
            return self.binv[:, j - self.n].copy()  # a pivot writes binv
        return self.binv @ self.A[:, j]

    def pivot(self, j, r, w, step, to_upper):
        """Column j, whose column is ``w``, enters in row r by ``step``; the
        leaving column goes to its upper bound or its lower one. Zeroes
        ``w[r]``."""
        leaving = self.basis[r]
        xb = self.xb
        xb -= step * w
        xb[r] = self.x[j] + step
        self.lb[r] = self.lower[j]
        self.ub[r] = self.upper[j]
        code = _AT_UPPER if to_upper else _AT_LOWER
        self.x[leaving] = (self.upper if to_upper else self.lower)[leaving]
        self.pos[leaving] = code
        self.moves[leaving] = _MOVES[code] if self.enterable[leaving] else 0.0
        self.pos[j] = _BASIC
        self.moves[j] = 0.0
        self.basis[r] = j
        binv = self.binv
        row = binv[r] / w[r]
        binv[r] = row  # BLAS must not read a row it writes: row is a copy
        w[r] = 0.0
        # binv -= outer(w, row), in place: binv is C-ordered, so its
        # transpose is the Fortran-ordered matrix BLAS updates without a copy
        a = binv.T
        updated = dger(-1.0, row, w, a=a, overwrite_a=1)
        if updated is not a:
            self.binv = updated.T  # binv was not contiguous and BLAS worked on a copy


def _invert(A, basis):
    """Inverse of the basis B of ``basis``'s columns of ``[A, I]``.

    A basic slack is a unit column. Ordering the slacks' rows and columns
    last makes B block lower triangular, [[P, 0], [Q, I]], so only the block
    P of the structural columns needs a dense inverse. Raises LinAlgError
    when P is singular or not square (a slack basic twice).
    """
    m, n = A.shape
    is_slack = basis >= n
    slack_cols = np.flatnonzero(is_slack)
    slack_rows = basis[slack_cols] - n
    row_taken = np.zeros(m, dtype=bool)
    row_taken[slack_rows] = True
    other_cols = np.flatnonzero(~is_slack)
    other_rows = np.flatnonzero(~row_taken)
    structural = basis[other_cols]
    p_inv = np.linalg.inv(A[np.ix_(other_rows, structural)])
    binv = np.zeros((m, m))
    binv[slack_cols, slack_rows] = 1.0
    binv[np.ix_(other_cols, other_rows)] = p_inv
    binv[np.ix_(slack_cols, other_rows)] = -(A[np.ix_(slack_rows, structural)] @ p_inv)
    return binv


def _extended_inverse(binv, basis, appended):
    """The inverse of ``[[B, 0], [R, I]]`` from ``binv``, the inverse of the
    basis B of ``basis``'s columns, and ``appended``, rows of ``A`` below B's
    whose slacks are the new basic columns; R is B's columns in those rows,
    zero at its slacks. It is ``[[binv, 0], [-R binv, I]]``."""
    m, (k, n) = binv.shape[0], appended.shape
    if not k:
        return binv.copy()
    structural = basis < n
    R = np.zeros((k, m))
    R[:, structural] = appended[:, basis[structural]]
    out = np.empty((m + k, m + k))
    out[:m, :m] = binv
    out[:m, m:] = 0.0
    np.matmul(-R, binv, out=out[m:, :m])
    out[m:, m:] = np.eye(k)
    return out


def _solve_from(system, stop, warm):
    """Solve ``system`` = (relax, c, lower, upper), ``c`` and the bounds over
    ``relax``'s ``[A, I]``, from a start basis; returns (status, tableau),
    status None as in ``_dual_optimize`` or when the start basis is singular.

    The start basis is the basis of ``warm``, an optimal ``LpResult`` or
    ``_SLACK_START`` when None, extended by the slacks of the rows appended
    since (the last slack columns). Its inverse is ``warm.binv``, which has
    taken ``warm.since_refactor`` pivots, extended by ``_extended_inverse``;
    only a ``warm`` without ``binv`` is inverted. Its reduced costs are
    ``warm``'s if it priced ``relax``. Each nonbasic column sits at the
    bound its reduced cost prefers. Where that bound is infinite the column
    sits at its other bound (a free column at zero) and its cost is shifted
    so that its reduced cost is zero, which makes the basis dual feasible. A
    dual simplex on the shifted costs reaches a primal feasible basis, and a
    primal simplex on the true costs takes it to an optimum.
    """
    warm = _SLACK_START if warm is None else warm
    relax, c, lower, upper = system
    tab = _Tableau(relax.A, relax.b, lower, upper, stop)
    n_cols = tab.n_cols
    kept = len(warm.basis)
    appended = tab.m - kept
    if appended < 0:
        return None, tab
    tab.basis = np.concatenate([warm.basis, np.arange(n_cols - appended, n_cols)])
    if warm.binv is None:
        try:
            tab.binv = _invert(relax.A, tab.basis)
        except np.linalg.LinAlgError:
            return None, tab
        if not np.isfinite(tab.binv).all():
            return None, tab
    else:
        tab.binv = _extended_inverse(warm.binv, warm.basis, relax.A[kept:])
        tab.since_refactor = warm.since_refactor
    if warm.binv is not None and warm.priced is relax:
        d = warm.reduced_costs.copy()  # priced at this basis and inverse
    else:
        d = c - tab.price(c[tab.basis] @ tab.binv)

    # a zero reduced cost keeps the earlier bound while that bound is finite
    was_upper = np.zeros(n_cols, dtype=bool)
    was_upper[: len(warm.pos)] = warm.pos == _AT_UPPER
    keep = (lower == -INF) | (was_upper & (upper < INF))
    at_upper = np.where(np.abs(d) <= _COST_TOL, keep, d < 0)
    bound = np.where(at_upper, upper, lower)
    shifted = np.isinf(bound)
    shifted[tab.basis] = False
    dual_c = c
    if np.count_nonzero(shifted):
        at_upper ^= shifted
        bound = np.where(at_upper, upper, lower)
        free = shifted & np.isinf(bound)
        bound[free] = 0.0
        tab.pos = at_upper.astype(np.int8)  # _AT_UPPER where true, else _AT_LOWER
        tab.pos[free] = _FREE
        shift = np.where(shifted, d, 0.0)
        dual_c, d = c - shift, d - shift
    else:
        tab.pos = at_upper.astype(np.int8)
    tab.pos[tab.basis] = _BASIC
    bound[tab.basis] = 0.0
    tab.start(bound)

    # d stays the reduced costs of c at the start basis unless the dual
    # simplex pivots, refactors or runs on shifted costs
    unchanged = dual_c is c and tab.since_refactor < _REFACTOR_EVERY
    status = _dual_optimize(tab, dual_c, d)
    if status == LP_OPTIMAL:
        status = _optimize(tab, c, d if unchanged and not tab.iterations else None)
    return status, tab


def _dual_optimize(tab, c, d):
    """Bounded dual simplex from a dual feasible basis, whose reduced costs
    for the costs ``c`` are ``d``, until primal feasible.

    Returns None when a row looks infeasible but its certificate does not
    hold on the original system. Updates ``d`` in place.
    """
    if not tab.m:
        return LP_OPTIMAL  # no basic column to make feasible
    free_cols = np.count_nonzero(tab.pos == _FREE) > 0  # a free nonbasic column only enters
    stop, limit, moves, lb, ub = tab.stop, tab.limit, tab.moves, tab.lb, tab.ub
    # the pivot row y @ A, y = binv[r], in one buffer: tab.price without a
    # new array per pivot
    alpha = np.empty(tab.n_cols)
    alpha_struct, alpha_slack = alpha[: tab.n], alpha[tab.n :]
    while True:
        if tab.iterations >= limit:
            return LP_ITERATION_LIMIT
        if stop is not None and stop():
            return LP_STOPPED
        if tab.since_refactor >= _REFACTOR_EVERY:
            tab.refactor()
            d = c - tab.price(c[tab.basis] @ tab.binv)

        xb = tab.xb
        below = lb - xb
        infeasibility = np.maximum(below, xb - ub)
        bland = tab.degenerate >= _BLAND_AFTER
        if bland:
            rows = np.flatnonzero(infeasibility > _PRIMAL_TOL)
            if rows.size == 0:
                return LP_OPTIMAL
            r = int(rows[tab.basis[rows].argmin()])
        else:
            r = int(infeasibility.argmax())
            if infeasibility[r] <= _PRIMAL_TOL:
                return LP_OPTIMAL
        rise = below[r] > 0  # the leaving variable goes up to its lower bound

        # x_B[r] moves by -alpha_j per unit of x_j; candidates move it toward
        # its bound as they move off their own bound the way ``moves`` allows,
        # and a free column, whose reduced cost is zero, moves either way
        y = tab.binv[r]
        np.matmul(y, tab.A, out=alpha_struct)
        alpha_slack[:] = y
        moved = moves * alpha
        candidates = (moved < -_PIVOT_TOL) if rise else (moved > _PIVOT_TOL)
        if free_cols:
            free = tab.pos == _FREE
            candidates |= free & (np.abs(alpha) > _PIVOT_TOL)
        idx = candidates.nonzero()[0]
        if idx.size == 0:
            return LP_INFEASIBLE if _certifies_infeasible(tab, r) else None
        # |d| / |alpha|, which is |d / alpha|
        ratios = np.abs(d[idx] / alpha[idx])
        if free_cols:
            ratios[free[idx]] = 0.0
        t = ratios[ratios.argmin()]
        ties = idx[ratios <= t + _PIVOT_TOL]
        # the first tie, or the tie with the largest pivot (the first of those)
        j = int(ties[0] if bland or ties.size == 1 else ties[np.abs(alpha[ties]).argmax()])

        target = lb[r] if rise else ub[r]
        w = tab.column(j)
        tab.pivot(j, r, w, (xb[r] - target) / w[r], not rise)
        d -= (d[j] / alpha[j]) * alpha
        d[j] = 0.0
        if t <= _DEGENERATE_TOL:
            tab.degenerate += 1
        tab.iterations += 1
        tab.since_refactor += 1


def _certifies_infeasible(tab, r):
    """Row r of the basis inverse as multipliers y: the rows are infeasible
    if y @ A @ x cannot reach y @ b anywhere in the variable box."""
    y = tab.binv[r]
    alpha = tab.price(y)
    # other basic columns read rounding noise here, not coefficients
    nonzero = np.abs(alpha) > _PIVOT_TOL
    a = alpha[nonzero]
    lo = tab.lower[nonzero]
    up = tab.upper[nonzero]
    least = float(np.sum(np.where(a > 0, a * lo, a * up)))
    most = float(np.sum(np.where(a > 0, a * up, a * lo)))
    rhs = float(y @ tab.b)
    # a margin well above the optimum's feasibility check, so rounding noise
    # in a feasible system is not taken for infeasibility
    tol = 10 * _FEAS_TOL * max(1.0, float(np.max(np.abs(y))))
    return rhs > most + tol or rhs < least - tol


def _optimize(tab, c, d=None):
    """Primal simplex from a primal feasible basis until optimal; ``d``, when
    given, is the reduced costs of ``c`` at that basis.

    A column's score is its reduced cost times ``moves``: negative where
    moving it off its bound improves the objective, zero where it may not
    move, and minus the reduced cost's size for a free column.
    """
    if not c.size:  # no columns: the empty point is optimal
        return LP_OPTIMAL
    stop, limit, moves = tab.stop, tab.limit, tab.moves
    free_cols = np.count_nonzero(tab.pos == _FREE) > 0  # an entering free column stays basic
    while True:
        if tab.iterations >= limit:
            return LP_ITERATION_LIMIT
        if stop is not None and stop():
            return LP_STOPPED
        if tab.since_refactor >= _REFACTOR_EVERY:
            tab.refactor()
            d = None

        if d is None:
            d = c - tab.price(c[tab.basis] @ tab.binv)
        score = d * moves
        if free_cols:
            free = tab.pos == _FREE
            score[free] = -np.abs(d[free])
        bland = tab.degenerate >= _BLAND_AFTER
        tab.d = d
        if bland:
            eligible = np.flatnonzero(score < -_COST_TOL)
            if eligible.size == 0:
                return LP_OPTIMAL
            j = int(eligible[0])
        else:
            j = int(score.argmin())
            if score[j] >= -_COST_TOL:
                return LP_OPTIMAL
        direction = 1.0 if (tab.pos[j] == _AT_LOWER or d[j] < 0) else -1.0

        w = tab.column(j)
        t, r = _ratio_test(tab, j, direction, w, bland)
        if t == INF:
            return LP_UNBOUNDED
        if t <= _DEGENERATE_TOL:
            tab.degenerate += 1
        tab.iterations += 1
        tab.since_refactor += 1
        if r < 0:
            # bound flip, no basis change
            tab.xb -= direction * t * w
            code = _AT_UPPER if direction > 0 else _AT_LOWER
            tab.x[j] = (tab.upper if direction > 0 else tab.lower)[j]
            tab.pos[j] = code
            moves[j] = _MOVES[code]
        else:
            tab.pivot(j, r, w, direction * t, direction * w[r] < 0)
        d = None


def _ratio_test(tab, j_enter, direction, w, bland):
    """Max step for the entering variable; returns (t, leaving row or -1)."""
    delta = -direction * w
    xb, lb, ub = tab.xb, tab.lb, tab.ub
    limits = np.full(tab.m, INF)
    # a basic variable only limits the step toward a finite bound
    dec = ((delta < -_PIVOT_TOL) & (lb > -INF)).nonzero()[0]
    inc = ((delta > _PIVOT_TOL) & (ub < INF)).nonzero()[0]
    limits[dec] = (xb[dec] - lb[dec]) / (-delta[dec])
    limits[inc] = (ub[inc] - xb[inc]) / delta[inc]
    np.maximum(limits, 0.0, out=limits)

    flip = tab.upper[j_enter] - tab.lower[j_enter]
    t_row = float(limits[limits.argmin()]) if tab.m else INF
    if flip <= t_row:
        # bound flip is at least as tight (inf == inf signals unboundedness)
        return flip, -1
    ties = (limits <= t_row + _PIVOT_TOL).nonzero()[0]
    if bland:
        r = ties[tab.basis[ties].argmin()]
    else:
        r = ties[np.abs(delta[ties]).argmax()]
    return t_row, int(r)
