"""One bandit-guided LNS worker: select-destroy, repair, accept, learn.

The worker takes the model's root LP result from its caller, or else solves
the LP relaxation itself, finds an initial incumbent with the sub-solver, then
loops until its wall budget expires: the bandit
picks a destroy arm, the resulting sub-MIP is repaired under a small
per-iteration budget from the current solution, which the backend drops if
the sub-problem excludes it, the candidate is scored on the original model,
classified into exactly one of best/better/accept/reject, and the bandit is
updated. The configured acceptance criterion is read-only; simulated
annealing's temperature is the loop's own float, starting at 1 and cooled by
each acceptance decision. Every new global best appends a trace point, and
the gap trace is built from those points once the loop ends, against the
given reference or else the worker's own best; a worker that finds no
initial solution returns an empty trace. The root LP's optimal
``LpResult`` is the warm start of every sub-MIP's root LP, its basis
inverse extended by the sub-MIP's appended rows. A root LP the worker
solves itself, like every sub-MIP, stops once the worker is cancelled or
past its deadline.
"""

import math
import random
from collections import deque
from dataclasses import dataclass

from . import bandit, operators
from .bandit import REJECT
from .clock import WallClock
from .lp import LP_OPTIMAL, LpResult, solve_lp
from .metrics import GapTrace, primal_gap
from .model import MipModel, Solution, apply_neighborhood, evaluate
from .subsolver import Backend, SolveBudget, get_backend

ARCHIVE_CAPACITY = 20
INITIAL_TEMPERATURE = 1.0
MIN_TEMPERATURE = 1e-6

HILL_CLIMBING = "hill_climbing"
SIMULATED_ANNEALING = "simulated_annealing"

STATUS_OK = "ok"
STATUS_NO_FEASIBLE = "no_feasible_solution"


@dataclass(frozen=True)
class AcceptanceCriterion:
    kind: str
    step: float | None = None

    def __post_init__(self):
        if self.kind not in (HILL_CLIMBING, SIMULATED_ANNEALING):
            raise ValueError(f"unknown acceptance kind {self.kind!r}")
        if self.kind == SIMULATED_ANNEALING:
            if self.step is None or not 0.01 <= self.step <= 1.0:
                raise ValueError("simulated annealing step must be in [0.01, 1]")


def accept(
    criterion: AcceptanceCriterion,
    temperature: float,
    candidate_obj: float,
    current_obj: float,
    rng,
) -> tuple[bool, float]:
    """Acceptance decision plus the next temperature (SA cools on each call).

    Hill climbing accepts when the candidate is no worse and leaves the
    temperature alone. Simulated annealing always accepts improvements and
    accepts a worsening with probability exp(-delta_rel / temperature) on the
    relative-delta scale; only a worsening candidate draws from ``rng``.
    """
    if criterion.kind == HILL_CLIMBING:
        return candidate_obj <= current_obj, temperature
    if candidate_obj <= current_obj:
        accepted = True
    else:
        delta_rel = (candidate_obj - current_obj) / max(abs(current_obj), 1e-10)
        accepted = rng.random() < math.exp(-delta_rel / temperature)
    return accepted, max(MIN_TEMPERATURE, temperature * criterion.step)


@dataclass(frozen=True)
class WorkerResult:
    status: str
    best: Solution | None
    trace: GapTrace
    iterations: int
    skipped: int
    pulls: tuple[int, ...]
    outcome_counts: tuple[dict, ...]
    raw_points: tuple[tuple[float, float], ...]  # (t, internal objective)


def _make_policy(descriptor, n_arms: int):
    if descriptor.kind == bandit.EPSILON_GREEDY:
        return bandit.EpsilonGreedy(n_arms, descriptor.epsilon)
    if descriptor.kind == bandit.SOFTMAX:
        return bandit.Softmax(n_arms, descriptor.tau)
    return bandit.ThompsonSampling(n_arms)


def _per_iteration_seconds(wall_seconds: float) -> float:
    return min(max(wall_seconds / 60.0, 0.5), 30.0)


PER_ITERATION_NODE_CAP = 5000


def build_trace(
    model: MipModel,
    raw_points,
    reference_objective: float | None,
    horizon: float,
) -> GapTrace:
    """Map (t, internal objective) improvements to a capped gap trace.

    The recorded gap is the best (running minimum) gap so far, which keeps
    traces monotone even against a reference the run manages to beat.
    """
    if reference_objective is None:
        reference_objective = raw_points[-1][1] if raw_points else 0.0
    points = []
    best_gap = 1.0
    for t, obj in raw_points:
        gap = min(best_gap, primal_gap(obj, reference_objective))
        t = min(t, horizon)
        if points and t <= points[-1][0]:
            points[-1] = (points[-1][0], model.to_external_objective(obj), gap)
        else:
            points.append((t, model.to_external_objective(obj), gap))
        best_gap = gap
    return GapTrace(points=tuple(points), horizon=horizon)


def run_worker(
    model: MipModel,
    config,
    wall_seconds: float,
    seed: int,
    clock=None,
    *,
    reference_objective: float | None = None,
    backend: Backend | None = None,
    cancel=None,
    root: LpResult | None = None,
) -> WorkerResult:
    """Run one configured worker until its wall budget is spent.

    ``reference_objective`` is in internal (minimization) scale; when absent
    the worker's own final best is used for gap reporting. The trace is
    built from ``raw_points`` against that reference; a worker without an
    initial solution returns an empty trace over ``wall_seconds``. ``root``
    is ``solve_lp(model)``'s result when the caller has solved it, as
    ``run_portfolio`` does once for all its workers; without it the worker
    solves its own. Either way the root LP is charged as one node.
    ``wall_seconds`` must be positive and finite, and a reference finite.
    """
    if not (math.isfinite(wall_seconds) and wall_seconds > 0):
        raise ValueError(f"wall_seconds must be positive and finite, got {wall_seconds!r}")
    if reference_objective is not None and not math.isfinite(reference_objective):
        raise ValueError(f"reference_objective must be finite, got {reference_objective!r}")
    clock = clock or WallClock()
    backend = backend or get_backend()
    rng = random.Random(seed)
    start = clock.now()
    deadline = start + wall_seconds
    n_arms = len(config.destroy_ops)
    pulls = [0] * n_arms
    outcome_counts = [dict.fromkeys(bandit.OUTCOMES, 0) for _ in range(n_arms)]

    def out_of_time():
        return (cancel is not None and cancel.is_set()) or clock.now() >= deadline

    # one root relaxation per model: it feeds rens/rins, and its optimal
    # basis and inverse start the root LP of every sub-MIP, whose rows extend
    # the model's
    if root is None:
        root = solve_lp(model, stop=out_of_time)
    clock.charge_nodes()
    root_basis = root if root.status == LP_OPTIMAL else None

    initial_budget = SolveBudget(wall_seconds=min(0.2 * wall_seconds, 60.0))
    first = backend.find_first_feasible(
        model, initial_budget, clock=clock, cancel=cancel, root_basis=root_basis
    )
    current = best = first.incumbent
    raw_points = [] if best is None else [(clock.now() - start, best.objective)]

    policy = _make_policy(config.policy, n_arms)
    temperature = INITIAL_TEMPERATURE
    archive: deque[Solution] = deque((best,), maxlen=ARCHIVE_CAPACITY)
    per_iter = _per_iteration_seconds(wall_seconds)
    iterations = 0
    skipped = 0

    # without an initial solution there is nothing to search from
    while best is not None and not out_of_time():
        arm = policy.select_arm(rng)
        op = config.destroy_ops[arm]
        clock.charge_nodes()  # iteration overhead; guarantees progress on skips
        ctx = operators.OperatorContext(
            incumbent=current, archive=tuple(archive), lp_values=root.values, rng=rng
        )
        try:
            spec = operators.build_neighborhood(op, ctx, model)
        except (operators.EmptyNeighborhood, operators.MissingRelaxation):
            # a skip teaches the policy like a reject; otherwise cold start
            # keeps re-picking the same unpulled arm until the deadline
            skipped += 1
            policy.update(arm, REJECT, config.rewards)
            continue
        sub = apply_neighborhood(model, spec)
        remaining = deadline - clock.now()
        if remaining <= 0:
            break
        budget = SolveBudget(
            wall_seconds=min(per_iter, remaining),
            node_limit=PER_ITERATION_NODE_CAP,
        )
        repair = backend.solve_mip(
            sub, current, budget, clock=clock, cancel=cancel, root_basis=root_basis
        )
        iterations += 1
        pulls[arm] += 1

        if repair.incumbent is None:
            outcome = REJECT
        else:
            candidate = evaluate(model, repair.incumbent.values)
            if not (candidate.feasible and candidate.integral):
                outcome = REJECT
            else:
                accepted, temperature = accept(
                    config.acceptance, temperature, candidate.objective, current.objective, rng
                )
                if candidate.objective < best.objective:
                    outcome = bandit.BEST
                elif candidate.objective < current.objective:
                    outcome = bandit.BETTER
                elif accepted:
                    outcome = bandit.ACCEPT
                else:
                    outcome = REJECT
                if accepted:
                    current = candidate
                    archive.append(candidate)
                if outcome == bandit.BEST:
                    best = candidate
                    raw_points.append((clock.now() - start, best.objective))
        outcome_counts[arm][outcome] += 1
        policy.update(arm, outcome, config.rewards)

    return WorkerResult(
        status=STATUS_NO_FEASIBLE if best is None else STATUS_OK,
        best=best,
        trace=build_trace(model, raw_points, reference_objective, wall_seconds),
        iterations=iterations,
        skipped=skipped,
        pulls=tuple(pulls),
        outcome_counts=tuple(outcome_counts),
        raw_points=tuple(raw_points),
    )
