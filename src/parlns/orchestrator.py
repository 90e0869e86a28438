"""Run N configured workers under a core cap and aggregate their gap traces.

Total parallelism is the product of worker count and per-worker solver
threads and must stay within the core cap. A portfolio solves its model's
root LP once and hands the result to every worker, each of which still
charges it as one node. Under the wall clock, workers run on a thread pool
and share one cancellation event, set when the wall budget runs out or a
worker raises; the root LP runs after the wall timer has started and stops
on that event. Under the simulated clock the workers run one after another
in config order, which makes whole portfolio runs reproducible bit for bit.
The CLI's ``portfolio`` and ``repro`` commands both launch their workers
here.
"""

import hashlib
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

from . import alns
from .alns import STATUS_OK, WorkerResult, build_trace, run_worker
from .clock import SimulatedClock
from .configspace import Configuration
from .metrics import GapTrace, aggregate_min
from .model import MipModel
from .subsolver import Backend

WALL = "wall"
SIMULATED = "simulated"


class PlanInvalid(ValueError):
    """Portfolio plan violates the core cap or is otherwise malformed."""


class AllWorkersInfeasible(RuntimeError):
    """Every worker failed to find an initial feasible solution."""


@dataclass(frozen=True)
class PortfolioPlan:
    configs: tuple[Configuration, ...]
    threads_per_worker: int
    core_cap: int
    wall_seconds: float
    master_seed: int = 0

    @property
    def n_workers(self) -> int:
        return len(self.configs)


def validate_plan(plan: PortfolioPlan) -> None:
    n = plan.n_workers
    if n < 1:
        raise PlanInvalid("plan needs at least one configuration")
    if plan.threads_per_worker < 1:
        raise PlanInvalid("threads_per_worker must be >= 1")
    if n * plan.threads_per_worker > plan.core_cap:
        raise PlanInvalid(
            f"{n} workers x {plan.threads_per_worker} threads exceed core cap "
            f"{plan.core_cap}"
        )
    if not (math.isfinite(plan.wall_seconds) and plan.wall_seconds > 0):
        # the wall timer and the trace horizon need a finite budget
        raise PlanInvalid(f"wall_seconds must be positive and finite, got {plan.wall_seconds!r}")
    ids = [c.id for c in plan.configs]
    if len(set(ids)) != len(ids):
        raise PlanInvalid("duplicate configuration ids in plan")


def worker_seed(master_seed: int, config_id: str) -> int:
    """Stable per-worker seed derived from the master seed and config id."""
    digest = hashlib.sha256(f"{master_seed}:{config_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True)
class PortfolioResult:
    workers: dict[str, WorkerResult]
    aggregate: GapTrace
    best_config_id: str
    reference_objective: float | None  # internal scale actually used for gaps


def plan_for_threads(
    pool: list[Configuration],
    threads_per_worker: int,
    core_cap: int,
    ranking: list[str] | None = None,
) -> PortfolioPlan:
    """N = min(floor(core_cap / T), available configs), taken from the
    ranking when one is given, else from pool order; the plan's budget is
    one hour."""
    if not pool:
        raise PlanInvalid("empty configuration pool")
    if threads_per_worker < 1:
        raise PlanInvalid("threads_per_worker must be >= 1")
    if ranking is not None:
        by_id = {c.id: c for c in pool}
        try:
            ordered = [by_id[config_id] for config_id in ranking]
        except KeyError as exc:
            raise PlanInvalid(f"ranking references unknown config id {exc}") from None
    else:
        ordered = list(pool)
    n = min(core_cap // threads_per_worker, len(ordered))
    if n < 1:
        raise PlanInvalid(f"core cap {core_cap} admits no {threads_per_worker}-thread worker")
    plan = PortfolioPlan(
        configs=tuple(ordered[:n]),
        threads_per_worker=threads_per_worker,
        core_cap=core_cap,
        wall_seconds=3600.0,
    )
    validate_plan(plan)
    return plan


def run_portfolio(
    model: MipModel,
    plan: PortfolioPlan,
    reference_objective: float | None = None,
    *,
    clock_mode: str = WALL,
    node_seconds: float = 0.001,
    backend: Backend | None = None,
) -> PortfolioResult:
    """Run every planned worker and aggregate gaps by pointwise minimum.

    ``reference_objective`` is the best-known objective in the model's stated
    sense, finite; when absent, the portfolio's own best is used for gap
    reporting.
    """
    validate_plan(plan)
    if clock_mode not in (WALL, SIMULATED):
        raise ValueError(f"unknown clock mode {clock_mode!r}")
    if reference_objective is not None and not math.isfinite(reference_objective):
        raise ValueError(f"reference_objective must be finite, got {reference_objective!r}")
    reference_internal = (
        model.to_internal_objective(reference_objective)
        if reference_objective is not None
        else None
    )

    # every worker owns its clock, made before any work starts
    clocks = {
        config.id: SimulatedClock(node_seconds) if clock_mode == SIMULATED else None
        for config in plan.configs
    }

    def launch(config: Configuration, root, cancel) -> WorkerResult:
        return run_worker(
            model,
            config,
            plan.wall_seconds,
            worker_seed(plan.master_seed, config.id),
            clocks[config.id],
            backend=backend,
            cancel=cancel,
            root=root,
        )

    results: dict[str, WorkerResult] = {}
    if clock_mode == SIMULATED:
        # a simulated worker's root LP never runs out of time: nothing stops it
        root = alns.solve_lp(model)
        for config in plan.configs:
            results[config.id] = launch(config, root, None)
    else:
        cancel = threading.Event()
        timer = threading.Timer(plan.wall_seconds, cancel.set)
        timer.daemon = True
        timer.start()

        def stop_on_error(future):
            # the error surfaces once every worker is done: stop the others
            if future.exception() is not None:
                cancel.set()

        try:
            root = alns.solve_lp(model, stop=cancel.is_set)
            with ThreadPoolExecutor(max_workers=plan.n_workers) as pool:
                futures = {
                    config.id: pool.submit(launch, config, root, cancel)
                    for config in plan.configs
                }
                for future in futures.values():
                    future.add_done_callback(stop_on_error)
                for config_id, future in futures.items():
                    results[config_id] = future.result()
        finally:
            timer.cancel()

    ok_ids = [c.id for c in plan.configs if results[c.id].status == STATUS_OK]
    if not ok_ids:
        raise AllWorkersInfeasible(f"every worker failed on {model.name}")

    # a worker's own trace is against its own best: rebuild the traces
    # against the portfolio's reference
    if reference_internal is None:
        reference_internal = min(results[i].best.objective for i in ok_ids)
    for config_id in ok_ids:
        worker = results[config_id]
        results[config_id] = replace(
            worker,
            trace=build_trace(model, worker.raw_points, reference_internal, plan.wall_seconds),
        )

    aggregate = aggregate_min([results[i].trace for i in ok_ids])
    return PortfolioResult(
        workers=results,
        aggregate=aggregate,
        best_config_id=min(ok_ids, key=lambda i: results[i].trace.final_gap()),
        reference_objective=reference_internal,
    )
