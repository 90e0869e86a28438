"""Sub-MIP backend interface and the reference branch-and-bound solver.

A backend is a ``Backend`` pair of calls, ``solve_mip`` and
``find_first_feasible``. A real solver plugs in as a ``Backend`` passed to
``run_worker`` or ``run_portfolio``; ``get_backend`` knows only the
reference one. The reference backend is a deterministic single-threaded
best-bound search over the model's shared arrays (``model.relaxation``)
with depth-first plunging until the first incumbent, most-fractional
branching (ties to the lowest index), and cooperative cancellation checked
at node boundaries and before every simplex pivot. The
root LP starts from the caller's ``root_basis`` when one is given (the
worker's base-model optimum), and a child node's LP from its parent's
optimal basis (dual simplex warm start). A node whose LP still fails after a
cold retry is dropped and counted, and the search goes on without claiming
a proof.
"""

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .clock import WallClock
from .lp import LP_INFEASIBLE, LP_OPTIMAL, LP_STOPPED, build_relaxation, solve_relaxation
from .model import INF, INTEGRALITY_TOL, MipModel, Solution, evaluate

OPTIMAL = "optimal"
FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
UNKNOWN = "unknown"

_PRUNE_TOL = 1e-9


@dataclass(frozen=True)
class SolveBudget:
    """Limits for one sub-MIP solve; at least one of the wall/node caps is finite."""

    wall_seconds: float = INF
    node_limit: int | None = None
    gap_limit: float = 1e-6

    def __post_init__(self):
        if self.wall_seconds < 0:
            raise ValueError("wall_seconds must be >= 0")
        if self.wall_seconds == INF and self.node_limit is None:
            raise ValueError("at least one of wall_seconds/node_limit must be finite")
        if self.node_limit is not None and self.node_limit < 0:
            raise ValueError("node_limit must be >= 0")
        if self.gap_limit < 0:
            raise ValueError("gap_limit must be >= 0")


@dataclass(frozen=True)
class MipResult:
    status: str
    incumbent: Solution | None
    dual_bound: float
    nodes: int
    elapsed: float
    dropped_nodes: int = 0  # nodes whose LP failed even when solved cold


def _most_fractional(x, integer):
    """The fractional integer column nearest to .5 (lowest index on ties), or None."""
    frac = x - np.floor(x)
    fractional = integer & (np.minimum(frac, 1.0 - frac) > INTEGRALITY_TOL)
    if not fractional.any():
        return None
    return int(np.argmin(np.where(fractional, np.abs(frac - 0.5), INF)))


def solve_mip(
    model: MipModel,
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
    deterministic, so it takes no seed. ``root_basis`` is the ``(basis,
    pos)`` of an LP optimum over the same variables and a prefix of the
    model's rows; the root LP starts from it. ``stop_at_first`` ends the
    search at the first improving integral solution.
    """
    if budget is None:
        raise ValueError("a SolveBudget is required")
    clock = clock or WallClock()
    start = clock.now()
    deadline = start + budget.wall_seconds
    relax = build_relaxation(model)

    incumbent = None
    if warm_start is not None:
        checked = evaluate(model, warm_start.values)
        if checked.feasible and checked.integral:
            incumbent = checked
    best_obj = incumbent.objective if incumbent is not None else INF

    seq = 0
    # (estimate, seq, lower, upper, warm basis): a LIFO plunge while no
    # incumbent exists, a best-bound heap from the first incumbent on
    open_nodes = [(-INF, seq, relax.lower, relax.upper, root_basis)]

    nodes = 0
    dropped = 0
    dropped_bound = INF  # a dropped node's subtree stays open for the dual bound
    interrupted = False
    proven = False
    proven_dual = INF

    def push(node):
        if incumbent is None:
            open_nodes.append(node)
        else:
            heapq.heappush(open_nodes, node)

    def open_dual():
        cands = [entry[0] for entry in open_nodes]
        if dropped:
            cands.append(dropped_bound)
        return min(cands) if cands else None

    def out_of_time():
        return (cancel is not None and cancel.is_set()) or clock.now() >= deadline

    def gap_met():
        dual = open_dual()
        if dual is None:
            return True
        return best_obj - dual <= budget.gap_limit * max(abs(best_obj), 1e-10)

    while True:
        if out_of_time():
            interrupted = True
            break
        if budget.node_limit is not None and nodes >= budget.node_limit:
            interrupted = True
            break
        if not open_nodes:
            break
        node = open_nodes.pop() if incumbent is None else heapq.heappop(open_nodes)
        estimate, _, lower, upper, warm = node
        if estimate >= best_obj - _PRUNE_TOL:
            continue

        res = solve_relaxation(relax, lower, upper, warm=warm, stop=out_of_time)
        if warm is not None and res.status not in (LP_OPTIMAL, LP_INFEASIBLE, LP_STOPPED):
            res = solve_relaxation(relax, lower, upper, stop=out_of_time)
        if res.status == LP_STOPPED:
            # the node stays open, so its estimate still bounds the search
            push(node)
            interrupted = True
            break
        nodes += 1
        clock.charge_nodes(1)
        if res.status == LP_INFEASIBLE:
            continue
        if res.status != LP_OPTIMAL:
            # unbounded or numerically stuck relaxation: nothing provable here
            dropped += 1
            dropped_bound = min(dropped_bound, estimate)
            continue
        if res.objective >= best_obj - _PRUNE_TOL:
            continue

        point = np.array(res.values)
        branch_j = _most_fractional(point, relax.integer)
        if branch_j is None:
            candidate = evaluate(model, np.where(relax.integer, np.round(point), point))
            if not (candidate.feasible and candidate.integral):
                candidate = evaluate(model, res.values)
            if candidate.feasible and candidate.integral and candidate.objective < best_obj:
                if incumbent is None:
                    heapq.heapify(open_nodes)
                incumbent = candidate
                best_obj = candidate.objective
                if stop_at_first:
                    break
                if gap_met():
                    proven = True
                    dual = open_dual()
                    proven_dual = best_obj if dual is None else min(dual, best_obj)
                    break
            continue

        x = res.values[branch_j]
        child_warm = None if res.basis is None else (res.basis, res.pos)
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

    elapsed = clock.now() - start
    exhausted = not open_nodes and not interrupted
    if dropped == 0 and (proven or exhausted):
        if incumbent is None:
            return MipResult(INFEASIBLE, None, INF, nodes, elapsed)
        bound = proven_dual if proven else best_obj
        return MipResult(OPTIMAL, incumbent, bound, nodes, elapsed)
    dual = proven_dual if proven else open_dual()
    status = UNKNOWN if incumbent is None else FEASIBLE
    dual = -INF if dual is None else dual
    return MipResult(status, incumbent, dual, nodes, elapsed, dropped_nodes=dropped)


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
    root_basis)``; neither gets a seed, so a randomized backend seeds
    itself. A backend without LP warm starts ignores ``root_basis``. The
    warm start ``solve_mip`` gets is the worker's current solution, which
    may be infeasible for the sub-model; a backend must check it."""

    name: str
    solve_mip: Callable
    find_first_feasible: Callable


_REFERENCE = Backend("reference", solve_mip, find_first_feasible)


def get_backend(name: str = "reference") -> Backend:
    """The built-in backend of that name; only ``reference`` exists."""
    if name != _REFERENCE.name:
        raise ValueError(f"unknown backend {name!r}; available: ['reference']")
    return _REFERENCE
