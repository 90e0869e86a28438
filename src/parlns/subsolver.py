"""Sub-MIP backend interface and the reference branch-and-bound solver.

A backend is a ``Backend`` pair of calls, ``solve_mip`` and
``find_first_feasible``. A real solver plugs in as a ``Backend`` passed to
``run_worker`` or ``run_portfolio``; ``get_backend`` knows only the
reference one. A backend gets a ``MipModel`` (the first-feasible call) or a
sub-problem's ``LpRelaxation`` (every repair) and reads ``.relaxation`` from
either: costs, the rows ``A`` (their slacks implicit), right-hand sides,
variable and slack bounds and the integer mask. The reference backend is a
deterministic single-threaded best-bound search over those shared arrays
with depth-first plunging until the first incumbent, most-fractional
branching (ties to the lowest index), and cooperative cancellation checked
at node boundaries and before every simplex pivot. It closes once the gap
falls to ``_GAP_LIMIT``, and its status and dual bound are read from its
open list (``solve_mip``). A sub-problem that fixes a column is presolved to
its free columns (``model.presolve``) unless the ``root_basis`` point lies
in its box: the search then runs on the reduced arrays from the slack basis,
and every integral point it finds is lifted back to full length and scored
on the sub-problem. Inside the box the root basis stays primal feasible, and
the full sub-problem is searched from it. A warm start is an optimal
``LpResult``, with or without its basis inverse: the root LP starts from the
caller's ``root_basis`` when the sub-problem is not presolved (the worker's
base-model optimum with its inverse), and a child node's LP from its
parent's result (dual simplex warm start); both children share the
parent's read-only inverse. The open nodes hold at most
``_OPEN_INVERSE_BYTES`` of inverses: a child pushed past that carries its
parent's result without the inverse and inverts the basis when popped. Each
node is one ``solve_relaxation`` call, which itself starts again from the
slack basis when the warm start fails. A node whose LP still fails is
dropped and counted, and its estimate keeps bounding the search.
"""

import heapq
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .clock import WallClock
from .lp import LP_INFEASIBLE, LP_OPTIMAL, LP_STOPPED, build_relaxation, solve_relaxation
from .model import (
    BOUND_TOL,
    INF,
    INTEGRALITY_TOL,
    LpRelaxation,
    MipModel,
    Presolved,
    Solution,
    evaluate,
    presolve,
)

OPTIMAL = "optimal"
FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
UNKNOWN = "unknown"

_PRUNE_TOL = 1e-9
# relative gap at which the search stops and claims optimality
_GAP_LIMIT = 1e-6
# The open nodes carry at most this many bytes of basis inverses; a child
# pushed past it carries its parent's basis alone and is refactored when popped.
_OPEN_INVERSE_BYTES = 32 << 20


@dataclass(frozen=True)
class SolveBudget:
    """Limits for one sub-MIP solve; at least one of the wall/node caps is finite."""

    wall_seconds: float = INF
    node_limit: int | None = None

    def __post_init__(self):
        if not self.wall_seconds >= 0:  # NaN fails; INF is no wall cap
            raise ValueError(f"wall_seconds must be >= 0, got {self.wall_seconds!r}")
        if self.wall_seconds == INF and self.node_limit is None:
            raise ValueError("at least one of wall_seconds/node_limit must be finite")
        if self.node_limit is not None and self.node_limit < 0:
            raise ValueError("node_limit must be >= 0")


@dataclass(frozen=True)
class MipResult:
    status: str
    incumbent: Solution | None
    dual_bound: float
    nodes: int
    dropped_nodes: int = 0  # nodes whose LP failed even from the slack basis


def _most_fractional(x, integer):
    """The fractional integer column nearest to .5 (lowest index on ties), or None."""
    frac = x - np.floor(x)
    fractional = integer & (np.minimum(frac, 1.0 - frac) > INTEGRALITY_TOL)
    if not fractional.any():
        return None
    return int(np.argmin(np.where(fractional, np.abs(frac - 0.5), INF)))


def _presolve(relax: LpRelaxation, root_basis) -> Presolved | None:
    """The presolved sub-problem, or None to search ``relax`` as it is: when
    it fixes no column, or when the root point lies in its box, where the
    root basis stays primal feasible and starts its root LP closer than a
    cold start from the reduced rows would."""
    lower, upper = relax.lower, relax.upper
    if not np.count_nonzero(lower == upper):
        return None
    if root_basis is not None:
        x = root_basis.values
        if not np.count_nonzero((x < lower - BOUND_TOL) | (x > upper + BOUND_TOL)):
            return None
    return presolve(relax)


def solve_mip(
    model: MipModel | LpRelaxation,
    warm_start: Solution | None = None,
    budget: SolveBudget | None = None,
    *,
    clock=None,
    cancel=None,
    root_basis=None,
    stop_at_first: bool = False,
) -> MipResult:
    """Branch-and-bound solve within a budget.

    Never returns an incumbent worse than the warm start, which is re-scored
    on ``model`` and ignored unless feasible and integral. The search is
    deterministic, so it takes no seed. ``root_basis`` is an optimal
    ``LpResult`` over the same variables and a prefix of the model's rows,
    with or without its basis inverse; the root LP starts from it. A model
    that fixes a column is presolved (``model.presolve``) unless
    ``root_basis`` is given and its point lies in the model's box: the
    search then runs on the reduced model from its slack basis and lifts
    each integral point to full length before scoring it on ``model``, so
    an incumbent always has the model's length. ``stop_at_first`` ends the
    search at the first improving integral solution.

    The result reads the open list: the dual bound is the least estimate
    over the open nodes and the dropped ones, capped by the incumbent. With
    no incumbent the search is infeasible when nothing is open or dropped,
    else unknown; with one it is optimal when no node was dropped and the
    gap is at most ``_GAP_LIMIT``, else feasible.
    """
    if budget is None:
        raise ValueError("a SolveBudget is required")
    clock = clock or WallClock()
    deadline = clock.now() + budget.wall_seconds
    relax = build_relaxation(model)
    lift = np.asarray  # a point of the unpresolved model is already full length
    presolved = _presolve(relax, root_basis)
    if presolved is not None:
        relax, root_basis, lift = presolved.relaxation, None, presolved.lift

    incumbent = None
    if warm_start is not None:
        checked = evaluate(model, warm_start.values)
        if checked.feasible and checked.integral:
            incumbent = checked
    best_obj = incumbent.objective if incumbent is not None else INF

    seq = 0
    # (estimate, seq, lower, upper, warm start): a LIFO plunge while no
    # incumbent exists, a best-bound heap from the first incumbent on
    open_nodes = [(-INF, seq, relax.lower, relax.upper, root_basis)]
    carried = 0  # open children whose warm start carries a basis inverse
    node_limit = INF if budget.node_limit is None else budget.node_limit

    nodes = 0
    dropped = 0
    dropped_bound = INF  # a dropped node's subtree stays open for the dual bound

    def push(node):
        if incumbent is None:
            open_nodes.append(node)
        else:
            heapq.heappush(open_nodes, node)

    def dual_bound():
        return min([entry[0] for entry in open_nodes] + [dropped_bound, best_obj])

    def gap_met(dual):
        return best_obj - dual <= _GAP_LIMIT * max(abs(best_obj), 1e-10)

    def out_of_time():
        return (cancel is not None and cancel.is_set()) or clock.now() >= deadline

    while not out_of_time() and nodes < node_limit and open_nodes:
        node = open_nodes.pop() if incumbent is None else heapq.heappop(open_nodes)
        estimate, seq_id, lower, upper, warm = node
        if seq_id and warm.binv is not None:
            carried -= 1  # a child's inverse leaves the open list
        if estimate >= best_obj - _PRUNE_TOL:
            continue

        res = solve_relaxation(relax, lower, upper, warm=warm, stop=out_of_time)
        if res.status == LP_STOPPED:
            push(node)  # the node stays open, so its estimate still bounds the search
            break
        nodes += 1
        clock.charge_nodes()
        if res.status == LP_INFEASIBLE:
            continue
        if res.status != LP_OPTIMAL:
            # unbounded or numerically stuck relaxation: nothing provable here
            dropped += 1
            dropped_bound = min(dropped_bound, estimate)
            continue
        if res.objective >= best_obj - _PRUNE_TOL:
            continue

        point = res.values
        branch_j = _most_fractional(point, relax.integer)
        if branch_j is None:
            candidate = evaluate(model, lift(np.where(relax.integer, np.round(point), point)))
            if not (candidate.feasible and candidate.integral):
                candidate = evaluate(model, lift(point))
            if candidate.feasible and candidate.integral and candidate.objective < best_obj:
                if incumbent is None:
                    heapq.heapify(open_nodes)
                incumbent = candidate
                best_obj = candidate.objective
                if stop_at_first or gap_met(dual_bound()):
                    break
            continue

        x = point[branch_j]
        child_warm = res
        if (carried + 2) * res.binv.nbytes <= _OPEN_INVERSE_BYTES:
            carried += 2  # both children share the one read-only inverse
        else:
            child_warm = replace(res, binv=None)
        floor_child_upper = upper.copy()
        floor_child_upper[branch_j] = math.floor(x)
        ceil_child_lower = lower.copy()
        ceil_child_lower[branch_j] = math.ceil(x)
        seq += 1
        floor_child = (res.objective, seq, lower, floor_child_upper, child_warm)
        seq += 1
        ceil_child = (res.objective, seq, ceil_child_lower, upper, child_warm)
        prefer_ceil = (x - math.floor(x)) >= 0.5
        first, second = (floor_child, ceil_child) if prefer_ceil else (ceil_child, floor_child)
        push(first)
        push(second)  # a plunge pops it first: toward the rounding

    dual = dual_bound()
    if incumbent is None:
        status = UNKNOWN if open_nodes or dropped else INFEASIBLE
    else:
        status = OPTIMAL if not dropped and gap_met(dual) else FEASIBLE
    return MipResult(status, incumbent, dual, nodes, dropped_nodes=dropped)


def find_first_feasible(
    model: MipModel,
    budget: SolveBudget,
    *,
    clock=None,
    cancel=None,
    root_basis=None,
) -> MipResult:
    """Like solve_mip but stops at the first integral feasible solution."""
    return solve_mip(
        model, None, budget, clock=clock, cancel=cancel, root_basis=root_basis,
        stop_at_first=True,
    )


@dataclass(frozen=True)
class Backend:
    """A sub-MIP solver pair; implementations must be safe to run in
    separate workers and honor cooperative cancellation. The calls are
    ``solve_mip(model, warm_start, budget, *, clock, cancel, root_basis)``
    and ``find_first_feasible(model, budget, *, clock, cancel,
    root_basis)``. From a worker, ``find_first_feasible`` gets its
    ``MipModel`` and ``solve_mip`` a sub-problem's ``LpRelaxation``; a
    backend reads ``model.relaxation`` from either (an ``LpRelaxation`` is
    its own). Neither call gets a seed, so a randomized backend seeds
    itself. ``root_basis`` is None or an optimal ``LpResult`` of the
    model's base relaxation, with or without its basis inverse; a backend
    without LP warm starts ignores it. The budget caps wall time and nodes;
    the gap at which a solve may stop and claim optimality is the backend's
    own (``_GAP_LIMIT`` for the reference one). The warm start
    ``solve_mip`` gets is the worker's current solution, which may be
    infeasible for the sub-problem; a backend must check it."""

    name: str
    solve_mip: Callable
    find_first_feasible: Callable


_REFERENCE = Backend("reference", solve_mip, find_first_feasible)


def get_backend(name: str = "reference") -> Backend:
    """The built-in backend of that name; only ``reference`` exists."""
    if name != _REFERENCE.name:
        raise ValueError(f"unknown backend {name!r}; available: ['reference']")
    return _REFERENCE
