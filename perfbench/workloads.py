"""The benchmark workloads: what each one runs, checks and reports.

Every workload follows the same shape: a set-up that is timed several times
(``setup_s`` is its median), then a *unit* of work that is repeated until the
run's seconds are spent. Under the simulated clock a unit is deterministic, so
its repetitions must agree on every count and on the search-path checksum,
and the wall time of equal work is what varies. In a traced run, untraced and
traced repetitions alternate: end-to-end numbers and the tracing overhead come
from the first kind, per-layer numbers from the second.
"""

import hashlib
import random
import shutil
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from parlns import instances
from parlns.alns import STATUS_OK
from parlns.configspace import DEFAULT_CONFIG, generate_pool
from parlns.metrics import GapTrace, aggregate_min, primal_integral, write_trace_csv
from parlns.model import evaluate
from parlns.mps import parse_mps, write_mps
from parlns.operators import FAMILIES
from parlns.orchestrator import SIMULATED, WALL, PortfolioPlan, run_portfolio
from parlns.simulator import load_trace_db, rank_configs, simulate

from layers import CountingBackend, Tracer
from spans import SpanRecorder, layer_self_seconds, layer_shares, named, ratio

# Instances and the configuration pool are pinned (seed 7, as in the ROADMAP
# baselines) so that each instance has a proven optimum and the spread across
# workload seeds measures the program, not how hard a random instance or
# configuration is. The workload seed drives the portfolios' master seeds,
# hence every worker's random stream, and the synthetic trace database of
# `simulate`.
INSTANCE_SEED = 7
POOL_SEED = 7
INSTANCES = {
    "knapsack_40_7": lambda: instances.knapsack(40, INSTANCE_SEED),
    "setcover_30x40_7": lambda: instances.set_cover(30, 40, INSTANCE_SEED),
    "indepset_60_7": lambda: instances.independent_set(60, 0.1, INSTANCE_SEED),
}
# Proven optima in each model's stated sense; tests/test_references.py
# re-proves every one with solve_mip and, for the knapsack, a DP.
OPTIMA = {
    "knapsack_40_7": 623.0,
    "setcover_30x40_7": 67.0,
    "indepset_60_7": 165.0,
}

# 2.5 simulated s at 0.05 s per node is 50 nodes per worker: a node LP on the
# 182-row instance takes ~70 ms, so one 2-worker portfolio takes ~5 s. The
# set-cover instance rides along because its LP is integral, which keeps the
# skipped-arm livelock visible in fail_share at almost no wall time.
SWEEP_INSTANCES = ("indepset_60_7", "setcover_30x40_7")
SWEEP_CONFIGS = 2
SWEEP_BUDGET = 2.5
SWEEP_NODE_SECONDS = 0.05
# A run sweeps this many master seeds, derived from the workload seed, and
# reports quality over all of them: with one plan per instance, a single seed
# decides alone whether an early improvement happens.
SWEEP_SEEDS = 3
# The thread probe of traced sweep-wide runs: wall-clock N=1 and N=2
# portfolios on the knapsack, each pair with its own master seed,
# WALL_SEED_STRIDE * seed + pair index, so its medians span many search paths
# (one master can make twice the nodes/s of another). It takes this share of
# the run's seconds.
WALL_BUDGET = 2.0
WALL_SEED_STRIDE = 1000
THREAD_PROBE_SHARE = 0.4
CORE_CAP = 2

SIM_CONFIGS = 180
SIM_INSTANCES = 3
SIM_MAX_POINTS = 30
SIM_HORIZON = 60.0
SIM_WINDOW = (6.0, 60.0)
SIM_SIZES = (2, 8, 32, 128)
SIM_RUNS = 100
SIM_CHECKED_RECORDS = 3
SIM_PROBE_RUNS = 2000

SOLVER_SETUP_REPS = 15
SIM_SETUP_REPS = 3
_TOL = 1e-6


@dataclass
class Unit:
    """One repetition of a workload's unit of work."""

    wall: float
    rate: float  # work items per wall second
    digest: str = ""  # search-path checksum; empty where timing steers the search
    payload: object = None


@dataclass
class Outcome:
    e2e: dict[str, float]
    attempted: int
    errors: list[str] = field(default_factory=list)
    lines: list[str] = field(default_factory=list)
    per_layer: dict[str, float] = field(default_factory=dict)
    digest: str = ""
    recorder: SpanRecorder | None = None


class SetupTimer:
    """Times a set-up ``reps`` times per call. Called at the start of a run
    and again after every unit, so its median spans the run's changes in
    machine speed."""

    def __init__(self, setup, reps: int):
        self.setup = setup
        self.reps = reps
        self.times: list[float] = []

    def __call__(self):
        for _ in range(self.reps):
            t0 = time.perf_counter()
            value = self.setup()
            self.times.append(time.perf_counter() - t0)
        return value

    @property
    def median(self) -> float:
        return statistics.median(self.times)


def median_time(fn, reps: int) -> float:
    timer = SetupTimer(fn, reps)
    timer()
    return timer.median


def repeat(unit, seconds: float, trace: bool, minimum: int = 1, between=None):
    """Repeat ``unit(recorder, index)`` until ``seconds`` are spent.

    Untraced and traced repetitions alternate when tracing; the i-th of each
    kind gets index i, so the two do the same work. At least ``minimum``
    untraced repetitions run (and one traced), then the loop stops before a
    repetition that would overrun. Returns untraced units, traced units and
    the recorder. ``between()`` runs after every unit, outside its timing.
    """
    recorder = SpanRecorder() if trace else None
    plain: list[Unit] = []
    traced: list[Unit] = []
    start = time.perf_counter()
    while True:
        use_trace = trace and len(traced) < len(plain)
        bucket = traced if use_trace else plain
        done = unit(recorder if use_trace else None, len(bucket))
        bucket.append(done)
        if between is not None:
            between()
        elapsed = time.perf_counter() - start
        if len(plain) >= minimum and (traced or not trace) and elapsed + done.wall > seconds:
            return plain, traced, recorder


def _solver_setup(names):
    """MPS texts of the pinned instances; the timed set-up parses them back
    and draws the configuration pool."""
    texts = {name: write_mps(INSTANCES[name]()) for name in names}

    def setup():
        models = {name: parse_mps(text) for name, text in texts.items()}
        pool = generate_pool(3, POOL_SEED)
        return models, pool

    return setup


def _check_workers(original, optimum_internal, result, errors):
    for config_id, worker in result.workers.items():
        if worker.status != STATUS_OK:
            continue
        scored = evaluate(original, worker.best.values)
        where = f"{original.name}/{config_id}"
        if not (scored.feasible and scored.integral):
            errors.append(f"{where}: best solution is not feasible and integral")
        if abs(scored.objective - worker.best.objective) > _TOL * max(1.0, abs(scored.objective)):
            errors.append(f"{where}: reported objective {worker.best.objective} != {scored.objective}")
        if scored.objective < optimum_internal - _TOL * max(1.0, abs(optimum_internal)):
            errors.append(f"{where}: objective {scored.objective} beats the proven optimum")


def search_digest(results) -> str:
    """Checksum of the search path: per worker its iterations, skips, pulls,
    final objective and improvement points."""
    h = hashlib.sha256()
    for name, _, result in results:
        for config_id in sorted(result.workers):
            w = result.workers[config_id]
            final = w.best.objective if w.best is not None else None
            h.update(
                repr((name, config_id, w.iterations, w.skipped, w.pulls, final, w.raw_points)).encode()
            )
    return h.hexdigest()[:16]


def _worker_stats(results):
    """Counts the program already returns, summed over every worker."""
    stats = {"iterations": 0, "skipped": 0, "infeasible": 0, "pulls": 0, "useful": 0, "gaps": []}
    per_instance = {}
    for name, _, result in results:
        inst = per_instance.setdefault(name, [0, 0])
        for w in result.workers.values():
            stats["iterations"] += w.iterations
            stats["skipped"] += w.skipped
            stats["pulls"] += sum(w.pulls)
            stats["useful"] += sum(c["best"] + c["better"] + c["accept"] for c in w.outcome_counts)
            inst[0] += w.skipped + (w.status != STATUS_OK)
            inst[1] += w.iterations + w.skipped + (w.status != STATUS_OK)
            if w.status != STATUS_OK:
                stats["infeasible"] += 1
            stats["gaps"].append(w.trace.final_gap())
    stats["per_instance"] = per_instance
    return stats


def fail_share(stats) -> float:
    """(skipped iterations + workers without a solution) / attempts."""
    failures = stats["skipped"] + stats["infeasible"]
    return ratio(failures, stats["iterations"] + failures)


# --------------------------------------------------------------------------
# simulated-clock sweeps


def sweep(seed, seconds, trace) -> Outcome:
    workload, names = "sweep-wide", SWEEP_INSTANCES
    setup = SetupTimer(_solver_setup(names), SOLVER_SETUP_REPS)
    models, pool = setup()
    originals = {name: INSTANCES[name]() for name in names}
    configs = ([DEFAULT_CONFIG] + pool)[:SWEEP_CONFIGS]
    masters = [seed * SWEEP_SEEDS + k for k in range(SWEEP_SEEDS)]
    errors: list[str] = []

    def unit(recorder, index):
        master = masters[index % SWEEP_SEEDS]
        counter = CountingBackend(recorder)
        results = []
        t0 = time.perf_counter()
        for name in names:
            for k in range(0, len(configs), CORE_CAP):
                plan = PortfolioPlan(tuple(configs[k : k + CORE_CAP]), 1, CORE_CAP, SWEEP_BUDGET, master)
                result = _portfolio(recorder, workload, plan, lambda: run_portfolio(
                    models[name], plan, OPTIMA[name], clock_mode=SIMULATED,
                    node_seconds=SWEEP_NODE_SECONDS, backend=counter.backend,
                ))
                results.append((name, plan, result))
        wall = time.perf_counter() - t0
        return Unit(wall, counter.nodes / wall, search_digest(results), (counter.nodes, results))

    plain, traced, recorder = repeat(unit, seconds, trace, minimum=SWEEP_SEEDS, between=setup)
    for reps in (plain, traced):
        for i, rep in enumerate(reps):
            first = plain[i % SWEEP_SEEDS]
            if (rep.digest, rep.payload[0]) != (first.digest, first.payload[0]):
                errors.append(f"master seed {masters[i % SWEEP_SEEDS]}: search path differs between repetitions")
    results = [r for u in plain[:SWEEP_SEEDS] for r in u.payload[1]]
    for name, _, result in results:
        model = originals[name]
        _check_workers(model, model.to_internal_objective(OPTIMA[name]), result, errors)

    stats = _worker_stats(results)
    nodes = sum(u.payload[0] for u in plain[:SWEEP_SEEDS])
    busy = sum(u.wall for u in plain[:SWEEP_SEEDS])
    digest = hashlib.sha256("".join(u.digest for u in plain[:SWEEP_SEEDS]).encode()).hexdigest()[:16]
    pis = [primal_integral(r.aggregate, 0.0, SWEEP_BUDGET) for _, _, r in results]
    out = Outcome(
        e2e={"work_per_s": statistics.median(u.rate for u in plain), "setup_s": setup.median},
        attempted=len(results) // SWEEP_SEEDS * (len(plain) + len(traced)),
        errors=errors,
        digest=digest,
    )
    out.lines.append(
        f"{workload}: {len(plain)} untraced reps over master seeds {masters}; the first "
        f"{SWEEP_SEEDS} ran {len(results)} portfolios in {busy:.3f} s: {nodes} B&B nodes, "
        f"{stats['iterations']} ALNS iterations, {stats['skipped']} skips, "
        f"fail_share {fail_share(stats):.4f}, pi_mean {statistics.fmean(pis):.6f}"
    )
    out.lines.append("  unit rates (nodes/s): " + ", ".join(f"{u.rate:.1f}" for u in plain))
    for name, (fails, attempts) in stats["per_instance"].items():
        out.lines.append(f"  {name}: {fails} of {attempts} attempts failed (skips + workers without a solution)")
    if trace:
        out.per_layer = solver_layers(recorder, traced, plain, stats)
        out.per_layer["alns.iters_per_s"] = stats["iterations"] / busy
        out.per_layer["metrics.pi_mean"] = statistics.fmean(pis)
        _trace_lines(out, recorder, len(traced))
    return out


def _portfolio(recorder, workload, plan, call):
    """Run ``call()`` (one run_portfolio) inside the tracer and its span."""
    if recorder is None:
        return call()
    with Tracer(recorder, workload), recorder.span("orchestrator.run_portfolio", adopt_threads=True) as span:
        span.attrs["workers"] = plan.n_workers
        return call()


# --------------------------------------------------------------------------
# wall-clock thread probe, run inside traced sweep-wide runs


def thread_probe(seed, seconds) -> Outcome:
    """Wall-clock N=1 and N=2 portfolios on the knapsack, on the default
    thread path: the only place where workers run in parallel and contend
    for the GIL. Untraced and traced pairs alternate. The probe gives
    per-layer numbers only: its nodes per second swing with the host and
    with each master seed's search path, too far for an end-to-end bound.
    """
    name = "knapsack_40_7"
    models, pool = _solver_setup([name])()
    model, original = models[name], INSTANCES[name]()
    errors: list[str] = []

    def run(plan, recorder):
        counter = CountingBackend(recorder)
        t0 = time.perf_counter()
        result = _portfolio(recorder, "thread-probe", plan, lambda: run_portfolio(
            model, plan, OPTIMA[name], clock_mode=WALL, backend=counter.backend
        ))
        wall = time.perf_counter() - t0
        _check_workers(original, original.to_internal_objective(OPTIMA[name]), result, errors)
        return wall, counter.nodes

    def unit(recorder, index):
        master = WALL_SEED_STRIDE * seed + index
        # alternate which size goes first, so drift in machine speed is shared
        order = (1, CORE_CAP) if index % 2 == 0 else (CORE_CAP, 1)
        runs = {
            n: run(PortfolioPlan(tuple(([DEFAULT_CONFIG] + pool)[:n]), 1, CORE_CAP, WALL_BUDGET, master), recorder)
            for n in order
        }
        (wall_1, nodes_1), (wall_n, nodes_n) = runs[1], runs[CORE_CAP]
        return Unit(wall_1 + wall_n, nodes_n / wall_n, payload=(nodes_1 / wall_1, wall_n))

    plain, traced, recorder = repeat(unit, seconds, True)
    scaling = [u.rate / (CORE_CAP * u.payload[0]) for u in plain]
    lp_spans = named(recorder.spans, "lp.solve_relaxation") + named(recorder.spans, "lp.solve_lp")
    out = Outcome(e2e={}, attempted=2 * (len(plain) + len(traced)), errors=errors)
    out.per_layer = {
        "orchestrator.scaling_eff": statistics.median(scaling),
        "orchestrator.overrun_s": statistics.median(u.payload[1] - WALL_BUDGET for u in plain),
        "orchestrator.parallel_share": _parallel_share(
            named(recorder.spans, "alns.run_worker"), named(recorder.spans, "orchestrator.run_portfolio")
        ),
        "lp.us_per_pivot.small": ratio(
            sum(s.duration for s in lp_spans), sum(s.attrs["pivots"] for s in lp_spans)
        ) * 1e6,
    }
    out.lines.append(
        f"thread probe ({name}, wall clock, {WALL_BUDGET} s): {len(plain)} untraced and {len(traced)} "
        f"traced N=1/N={CORE_CAP} pairs over master seeds from {WALL_SEED_STRIDE * seed}; nodes/s median "
        f"N={CORE_CAP} {statistics.median(u.rate for u in plain):.1f}, "
        f"N=1 {statistics.median(u.payload[0] for u in plain):.1f}; "
        + ", ".join(f"{k} {v:.4f}" for k, v in out.per_layer.items())
    )
    return out


# --------------------------------------------------------------------------
# per-layer numbers of the solver workloads


def solver_layers(recorder, traced, plain, stats) -> dict[str, float]:
    spans = recorder.spans
    reps = len(traced)
    per = 1.0 / reps
    lp_spans = named(spans, "lp.solve_relaxation") + named(spans, "lp.solve_lp")
    pivots = sum(s.attrs["pivots"] for s in lp_spans)
    build = named(spans, "lp.build_relaxation")
    mips = named(spans, "subsolver.solve_mip")
    firsts = named(spans, "subsolver.find_first_feasible")
    sub_all = mips + firsts
    ops = named(spans, "operators.build_neighborhood")
    applies = named(spans, "model.apply_neighborhood")
    evals = named(spans, "model.evaluate")
    selects = named(spans, "bandit.select_arm")
    updates = named(spans, "bandit.update")
    workers = named(spans, "alns.run_worker")
    portfolios = named(spans, "orchestrator.run_portfolio")
    shares = layer_shares(spans)

    def mean_us(group):
        return ratio(sum(s.duration for s in group), len(group)) * 1e6

    m = {
        "lp.solves": len(lp_spans) * per,
        "lp.pivots_per_solve": ratio(pivots, len(lp_spans)),
        "lp.us_per_pivot": ratio(sum(s.duration for s in lp_spans), pivots) * 1e6,
        "lp.self_share": shares.get("lp", 0.0),
        "lp.nonoptimal_share": ratio(
            sum(s.attrs["status"] not in ("optimal", "infeasible") for s in lp_spans), len(lp_spans)
        ),
        "lp.build_relaxation_us": mean_us(build),
        "lp.build_relaxation_calls": len(build) * per,
        "subsolver.solves": len(sub_all) * per,
        "subsolver.nodes_per_solve": ratio(sum(s.attrs["nodes"] for s in sub_all), len(sub_all)),
        "subsolver.nodes_per_s": ratio(
            sum(s.attrs["nodes"] for s in sub_all), sum(s.duration for s in sub_all)
        ),
        "subsolver.self_share": shares.get("subsolver", 0.0),
        "subsolver.incumbent_share": ratio(sum(s.attrs["incumbent"] for s in mips), len(mips)),
        "subsolver.limit_share": ratio(
            sum(s.attrs["status"] in ("feasible", "unknown") for s in mips), len(mips)
        ),
        "subsolver.first_feasible_s": ratio(sum(s.duration for s in firsts), len(firsts)),
        "operators.builds": len(ops) * per,
        "operators.build_us": mean_us(ops),
        "operators.self_share": shares.get("operators", 0.0),
        "model.apply_us": mean_us(applies),
        "model.evaluate_us": mean_us(evals),
        "model.evaluate_calls": len(evals) * per,
        "model.self_share": shares.get("model", 0.0),
        "bandit.select_us": mean_us(selects),
        "bandit.update_us": mean_us(updates),
        "bandit.self_share": shares.get("bandit", 0.0),
        "alns.useful_share": ratio(stats["useful"], stats["pulls"]),
        "alns.self_share": shares.get("alns", 0.0),
        "alns.fail_share": fail_share(stats),
        "alns.final_gap_mean": statistics.fmean(stats["gaps"]) if stats["gaps"] else 0.0,
        "orchestrator.self_share": shares.get("orchestrator", 0.0),
        "orchestrator.parallel_share": _parallel_share(workers, portfolios),
        "trace.overhead": ratio(
            statistics.median(u.wall for u in traced), statistics.median(u.wall for u in plain)
        ),
    }
    for family in FAMILIES:
        group = [s for s in ops if s.attrs["family"] == family]
        m[f"operators.skip_share.{family}"] = ratio(sum("skip" in s.attrs for s in group), len(group))
    return m


def _parallel_share(workers, portfolios) -> float:
    """Summed worker span over (workers x portfolio span); simulated-clock
    portfolios run their workers one after another, so there it reads
    1 / workers."""
    busy = sum(w.duration for w in workers)
    return ratio(busy, sum(p.attrs["workers"] * p.duration for p in portfolios))


# --------------------------------------------------------------------------
# trace-database simulation


def write_synthetic_db(root: Path, seed: int) -> None:
    """180 configs x 3 instances of 1-30 improvement points over 60 s."""
    rng = random.Random(seed)
    if root.exists():
        shutil.rmtree(root)
    for c in range(SIM_CONFIGS):
        config_dir = root / f"cfg_{c:03d}"
        config_dir.mkdir(parents=True)
        for i in range(SIM_INSTANCES):
            k = rng.randint(1, SIM_MAX_POINTS)
            times = sorted(ms / 1000.0 for ms in rng.sample(range(1, int(SIM_HORIZON * 1000)), k))
            gaps = sorted((rng.uniform(0.001, 1.0) for _ in range(k)), reverse=True)
            points = tuple((t, 100.0 * (1.0 + g), g) for t, g in zip(times, gaps))
            write_trace_csv(GapTrace(points=points, horizon=SIM_HORIZON), config_dir / f"inst_{i:02d}.csv")


def _check_records(db, report, errors):
    """Recompute sampled records from the traces with aggregate_min and
    primal_integral."""
    t0, t1 = SIM_WINDOW
    step = max(1, len(report.records) // SIM_CHECKED_RECORDS)
    for record in report.records[::step][:SIM_CHECKED_RECORDS]:
        finals, pis = [], []
        for instance in db.instance_ids:
            agg = aggregate_min([db.traces[c][instance] for c in record.config_ids])
            finals.append(agg.gap_at(t1))
            pis.append(primal_integral(agg, t0, t1))
        final, pi = statistics.fmean(finals), statistics.fmean(pis)
        if abs(final - record.final_gap) > 1e-9 or abs(pi - record.primal_integral) > 1e-9 * max(1.0, pi):
            errors.append(
                f"simulate n={report.n}: record {record.config_ids[:3]}... gives "
                f"({record.final_gap}, {record.primal_integral}), traces give ({final}, {pi})"
            )


def _grid_probe(db, seed) -> tuple[float, float]:
    """Seconds of one simulate call's grid build, and of each subset
    evaluation per instance.

    For every n, a call with one run and a call with 1 + SIM_PROBE_RUNS runs
    go back to back, so both see the same machine speed; the medians over n
    are returned. The unit's own calls make too few runs for this: their
    subsets cost about 1 % of the grid build, below the machine's drift.
    """
    setups, per_subset = [], []
    for n in SIM_SIZES:
        one = median_time(lambda: simulate(db, n, 1, seed, SIM_WINDOW), 1)
        many = median_time(lambda: simulate(db, n, 1 + SIM_PROBE_RUNS, seed, SIM_WINDOW), 1)
        setups.append(one)
        per_subset.append((many - one) / (SIM_PROBE_RUNS * len(db.instance_ids)))
    return statistics.median(setups), statistics.median(per_subset)


def simulation(seed, seconds, trace, work_dir: Path) -> Outcome:
    root = work_dir / f"simdb-{seed}"
    write_synthetic_db(root, seed)
    setup = SetupTimer(lambda: load_trace_db(root, horizon=SIM_HORIZON), 1)
    for _ in range(SIM_SETUP_REPS):
        db = setup()
    errors: list[str] = []
    evaluations = (len(db.config_ids) + SIM_RUNS * len(SIM_SIZES)) * len(db.instance_ids)

    def unit(recorder, index):
        span = recorder.span if recorder is not None else lambda name: nullcontext()
        t0 = time.perf_counter()
        with span("simulator.rank_configs"):
            ranking = rank_configs(db, SIM_WINDOW)
        reports = []
        for n in SIM_SIZES:
            with span("simulator.simulate"):
                reports.append(simulate(db, n, SIM_RUNS, seed, SIM_WINDOW))
        wall = time.perf_counter() - t0
        digest = hashlib.sha256(
            repr([ranking] + [(r.mean_final_gap, r.mean_primal_integral) for r in reports]).encode()
        ).hexdigest()[:16]
        return Unit(wall, evaluations / wall, digest, reports)

    plain, traced, recorder = repeat(unit, seconds, trace, between=setup)
    shutil.rmtree(root)
    first = plain[0]
    if any(u.digest != first.digest for u in plain + traced):
        errors.append("simulate reports differ between repetitions")
    for report in first.payload:
        _check_records(db, report, errors)
    wall = statistics.median(u.wall for u in plain)
    out = Outcome(
        e2e={"work_per_s": statistics.median(u.rate for u in plain), "setup_s": setup.median},
        attempted=(1 + len(SIM_SIZES)) * (len(plain) + len(traced)),
        errors=errors,
        digest=first.digest,
    )
    out.lines.append(
        f"simulate: {len(plain)} untraced reps, median {wall:.3f} s for {evaluations} "
        f"subset-instance evaluations; load_trace_db median {setup.median:.3f} s"
    )
    out.lines.append("  unit rates (evaluations/s): " + ", ".join(f"{u.rate:.1f}" for u in plain))
    if trace:
        call_setup_s, subset_s = _grid_probe(db, seed)
        shares = layer_shares(recorder.spans)
        out.per_layer = {
            "simulator.call_setup_s": call_setup_s,
            "simulator.us_per_subset": subset_s * 1e6,
            "simulator.self_share": shares.get("simulator", 0.0),
            "metrics.load_trace_db_s": setup.median,
            "metrics.pi_mean": statistics.fmean(r.mean_primal_integral for r in first.payload),
            "trace.overhead": ratio(statistics.median(u.wall for u in traced), wall),
        }
        _trace_lines(out, recorder, len(traced))
    return out


# --------------------------------------------------------------------------


def _trace_lines(out: Outcome, recorder: SpanRecorder, reps: int) -> None:
    out.recorder = recorder
    out.lines.append(f"self time per unit, over {reps} traced reps:")
    totals = layer_self_seconds(recorder.spans)
    for layer, seconds in sorted(totals.items(), key=lambda kv: -kv[1]):
        out.lines.append(f"  {layer:<13} {seconds / reps:9.4f} s")


def _solver_setup_parts(names) -> dict[str, float]:
    """mps.parse_s and configspace.pool_s, each the median of its own reps."""
    texts = [write_mps(INSTANCES[name]()) for name in names]
    parse_s = median_time(lambda: [parse_mps(t) for t in texts], SOLVER_SETUP_REPS)
    pool_s = median_time(lambda: generate_pool(3, POOL_SEED), SOLVER_SETUP_REPS)
    return {"mps.parse_s": parse_s, "configspace.pool_s": pool_s}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, work_dir: Path) -> Outcome:
    if workload == "simulate":
        return simulation(seed, seconds, trace, work_dir)
    if workload != "sweep-wide":
        raise ValueError(f"unknown workload {workload!r}")
    if not trace:
        return sweep(seed, seconds, False)
    probe_seconds = THREAD_PROBE_SHARE * seconds
    out = sweep(seed, seconds - probe_seconds, True)
    probe = thread_probe(seed, probe_seconds)
    # the sweep runs its workers one after another; parallel_share is the probe's
    out.per_layer.update(probe.per_layer)
    out.per_layer.update(_solver_setup_parts(SWEEP_INSTANCES))
    out.lines.extend(probe.lines)
    out.errors.extend(probe.errors)
    out.attempted += probe.attempted
    return out


WORKLOADS = ("sweep-wide", "simulate")
