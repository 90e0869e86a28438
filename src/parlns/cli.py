"""Command-line entry point.

Commands: ``gen-configs`` (sample a configuration pool), ``solve`` (one
worker on one instance), ``portfolio`` (N workers from a run manifest),
``simulate`` (portfolio simulation over recorded traces), and ``repro``
(desk-scale end-to-end preset: pool, per-config traces, ranking, and the
portfolio-size sweep, all under the simulated clock).

Exit codes: 0 success, 2 usage error, 3 data error, 4 infeasible or empty
result.
"""

import argparse
import json
import math
import os
import sys
from pathlib import Path

from . import configspace, instances, metrics, orchestrator, simulator
from .alns import STATUS_OK, run_worker
from .clock import SimulatedClock
from .configspace import DEFAULT_CONFIG, PoolExhausted
from .model import MipModel
from .mps import parse_mps
from .orchestrator import AllWorkersInfeasible, PortfolioPlan
from .subsolver import get_backend

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_EMPTY = 4

_STRING = ((str,), "a string")
_INTEGER = ((int,), "an integer")
_NUMBER = ((int, float), "a number")
# every manifest key with the JSON type of its value; true and false are
# neither integers nor numbers
_MANIFEST_TYPES = {
    "instance": _STRING,
    "pool": _STRING,
    "configs": ((list,), "a list"),
    "n": _INTEGER,
    "threads_per_worker": _INTEGER,
    "core_cap": _INTEGER,
    "wall_seconds": _NUMBER,
    "master_seed": _INTEGER,
    "reference_objective": _NUMBER,
    "clock": _STRING,
    "node_seconds": _NUMBER,
    "backend": _STRING,
}

CORE_CAP_ENV = "PARLNS_CORE_CAP"

# per command, the options that must be at least 1, and the budgets that must
# be positive and finite: a run has no other way to stop than its budget
_AT_LEAST_ONE = {"gen-configs": ("size",), "simulate": ("runs", "n"), "repro": ("scale", "pool_size", "runs")}
_POSITIVE_FINITE = {"solve": ("seconds", "node_seconds"), "repro": ("wall", "node_seconds")}


def default_core_cap() -> int:
    """The cores this process may run on (its affinity set where the
    platform has one), overridable through the environment."""
    override = os.environ.get(CORE_CAP_ENV)
    if override is not None:
        try:
            cap = int(override)
        except ValueError:
            raise DataError(f"{CORE_CAP_ENV} must be an integer, got {override!r}") from None
        if cap < 1:
            raise DataError(f"{CORE_CAP_ENV} must be >= 1")
        return cap
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class DataError(Exception):
    """Invalid input files or manifest contents."""


def _load_instance(path: str) -> MipModel:
    text = Path(path).read_text()
    return parse_mps(text)


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_gen_configs(args) -> int:
    pool = configspace.generate_pool(args.size, args.seed)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    configspace.write_pool(pool, out)
    print(f"wrote {len(pool)} configurations to {out}")
    return EXIT_OK


def _resolve_config(args):
    if args.pool is None:
        if args.config_id not in (None, "default"):
            raise DataError("--config-id needs --pool (only 'default' is built in)")
        return DEFAULT_CONFIG
    pool = configspace.read_pool(args.pool)
    if args.config_id is None:
        return pool[0]
    for config in pool:
        if config.id == args.config_id:
            return config
    raise DataError(f"config id {args.config_id!r} not in {args.pool}")


def cmd_solve(args) -> int:
    model = _load_instance(args.instance)
    config = _resolve_config(args)
    clock = SimulatedClock(args.node_seconds) if args.clock == "simulated" else None
    reference = (
        model.to_internal_objective(args.reference) if args.reference is not None else None
    )
    result = run_worker(
        model, config, args.seconds, args.seed, clock, reference_objective=reference
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics.write_trace_csv(result.trace, out_dir / "trace.csv")
    summary = {
        "instance": args.instance,
        "config_id": config.id,
        "seed": args.seed,
        "wall_seconds": args.seconds,
        "status": result.status,
        "objective": (
            model.to_external_objective(result.best.objective) if result.best else None
        ),
        "final_gap": result.trace.final_gap(),
        "iterations": result.iterations,
        "skipped": result.skipped,
        "pulls": list(result.pulls),
        "outcomes": list(result.outcome_counts),
    }
    _write_json(out_dir / "summary.json", summary)
    if result.status != STATUS_OK:
        print("no feasible solution found", file=sys.stderr)
        return EXIT_EMPTY
    print(f"objective {summary['objective']} gap {summary['final_gap']:.6f}")
    return EXIT_OK


def _positive_finite(value: float) -> bool:
    return math.isfinite(value) and value > 0


def _read_manifest(path: str) -> dict:
    try:
        manifest = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise DataError(f"manifest is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise DataError("manifest must be a JSON object")
    unknown = set(manifest) - set(_MANIFEST_TYPES)
    if unknown:
        raise DataError(f"unknown manifest keys: {sorted(unknown)}")
    for key, value in manifest.items():
        types, name = _MANIFEST_TYPES[key]
        if isinstance(value, bool) or not isinstance(value, types):
            raise DataError(f"manifest key {key!r} must be {name}, got {value!r}")
    for key in ("instance", "wall_seconds"):
        if key not in manifest:
            raise DataError(f"manifest misses required key {key!r}")
    for key in ("wall_seconds", "node_seconds"):
        # JSON's NaN and Infinity parse as floats; neither ends a run
        if key in manifest and not _positive_finite(manifest[key]):
            raise DataError(f"manifest key {key!r} must be positive and finite, got {manifest[key]!r}")
    reference = manifest.get("reference_objective", 0.0)
    if not math.isfinite(reference):
        raise DataError(f"manifest key 'reference_objective' must be finite, got {reference!r}")
    if ("pool" in manifest) == ("configs" in manifest):
        raise DataError("manifest needs exactly one of 'pool' or 'configs'")
    return manifest


def cmd_portfolio(args) -> int:
    manifest = _read_manifest(args.manifest)
    model = _load_instance(manifest["instance"])
    if "pool" in manifest:
        pool = configspace.read_pool(manifest["pool"])
    else:
        pool = [configspace.config_from_dict(entry) for entry in manifest["configs"]]
    n = manifest.get("n", len(pool))
    if not 1 <= n <= len(pool):
        raise DataError(f"n={n} outside [1, {len(pool)}]")
    plan = PortfolioPlan(
        configs=tuple(pool[:n]),
        threads_per_worker=manifest.get("threads_per_worker", 1),
        core_cap=manifest.get("core_cap", default_core_cap()),
        wall_seconds=manifest["wall_seconds"],
        master_seed=manifest.get("master_seed", 0),
    )
    clock_mode = manifest.get("clock", orchestrator.WALL)
    result = orchestrator.run_portfolio(
        model,
        plan,
        manifest.get("reference_objective"),
        clock_mode=clock_mode,
        node_seconds=manifest.get("node_seconds", 0.001),
        backend=get_backend(manifest.get("backend", "reference")),
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for config in plan.configs:
        worker = result.workers[config.id]
        metrics.write_trace_csv(worker.trace, out_dir / f"{config.id}.csv")
    metrics.write_trace_csv(result.aggregate, out_dir / "aggregate.csv")
    summary = {
        "best_config_id": result.best_config_id,
        "final_gap": result.aggregate.final_gap(),
        "reference_objective": (
            model.to_external_objective(result.reference_objective)
            if result.reference_objective is not None
            else None
        ),
        "workers": {
            config.id: {
                "status": result.workers[config.id].status,
                "final_gap": result.workers[config.id].trace.final_gap(),
                "iterations": result.workers[config.id].iterations,
            }
            for config in plan.configs
        },
    }
    _write_json(out_dir / "summary.json", summary)
    print(
        f"aggregate final gap {summary['final_gap']:.6f} "
        f"(best config {result.best_config_id})"
    )
    return EXIT_OK


def cmd_simulate(args, parser) -> int:
    db = simulator.load_trace_db(args.traces, horizon=args.horizon)
    if args.n > len(db.config_ids):
        parser.error(f"--n {args.n} exceeds pool size {len(db.config_ids)}")
    t1 = args.t1
    if t1 is None:
        t1 = min(db.horizons)
    window = (args.t0, t1)
    out = Path(args.out)
    if args.exhaustive:
        report = simulator.exhaustive(db, args.n, window)
        records, done = report.ranking, f"enumerated {len(report.ranking)} subsets; wrote {out}"
    else:
        # a stratified run visits each config once
        runs = args.runs or (len(db.config_ids) if args.stratified else 1000)
        report = simulator.simulate(db, args.n, runs, args.seed, window, stratified=args.stratified)
        records, done = report.records, (
            f"n={args.n} runs={runs}: final gap "
            f"{report.mean_final_gap:.6f} +/- {report.std_final_gap:.6f}")
    _write_json(out, {"mode": "exhaustive" if args.exhaustive else "simulate", **report.to_dict()})
    if args.per_run is not None:
        per_run = Path(args.per_run)
        per_run.parent.mkdir(parents=True, exist_ok=True)
        with open(per_run, "w") as fh:
            fh.write("config_ids,final_gap,primal_integral\n")
            for record in records:  # the exhaustive ranking best first
                ids = "|".join(record.config_ids)
                fh.write(f"{ids},{record.final_gap!r},{record.primal_integral!r}\n")
    print(done)
    return EXIT_OK


def _repro_instances(seed: int):
    return [
        instances.knapsack(40, seed=seed, name="knapsack"),
        instances.set_cover(30, 40, seed=seed, name="setcover"),
        instances.independent_set(32, 0.1, seed=seed, name="indepset"),
    ]


def cmd_repro(args) -> int:
    """Scaled-down end-to-end methodology run under the simulated clock."""
    scale = args.scale
    pool_size = max(6, round(180 / scale)) if args.pool_size is None else args.pool_size
    runs = max(20, round(1000 / scale)) if args.runs is None else args.runs
    wall = max(2.0, 3600.0 / scale / 60.0) if args.wall is None else args.wall
    out_dir = Path(args.out_dir)
    trace_dir = out_dir / "traces"
    pool = configspace.generate_pool(pool_size, args.seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    configspace.write_pool(pool, out_dir / "pool.json")
    # the whole pool on each instance; simulated workers run one after another
    plan = PortfolioPlan(
        configs=tuple(pool),
        threads_per_worker=1,
        core_cap=len(pool),
        wall_seconds=wall,
        master_seed=args.seed,
    )
    for model in _repro_instances(args.seed):
        result = orchestrator.run_portfolio(
            model, plan, clock_mode=orchestrator.SIMULATED, node_seconds=args.node_seconds
        )
        for config in pool:
            worker = result.workers[config.id]
            if worker.status != STATUS_OK:
                continue
            path = trace_dir / config.id / f"{model.name}.csv"
            path.parent.mkdir(parents=True, exist_ok=True)
            metrics.write_trace_csv(worker.trace, path)

    db = simulator.load_trace_db(trace_dir, horizon=wall)
    window = (wall / 10.0, wall)  # warmup mirrors the minute-6-of-60 convention
    ranking = simulator.rank_configs(db, window)
    _write_json(out_dir / "ranking.json", {"window": list(window), "ranking": ranking})

    grid = [n for n in (2, 4, 8, 16, 32, 64, 128) if n <= len(db.config_ids)]
    rows = []
    for n in grid:
        report = simulator.simulate(db, n, runs, args.seed, window)
        rows.append(
            {
                "n": n,
                "pg_mean": report.mean_final_gap,
                "pg_std": report.std_final_gap,
                "pg_best": report.best.final_gap,
                "pg_worst": report.worst.final_gap,
                "pi_mean": report.mean_primal_integral,
                "pi_std": report.std_primal_integral,
                "pi_pm_mean": metrics.pi_percent_minutes(report.mean_primal_integral),
            }
        )
    with open(out_dir / "portfolio_sweep.csv", "w") as fh:
        fh.write("n,pg_mean,pg_std,pg_best,pg_worst,pi_mean,pi_std,pi_percent_minutes\n")
        for row in rows:
            fh.write(
                f"{row['n']},{row['pg_mean']!r},{row['pg_std']!r},{row['pg_best']!r},"
                f"{row['pg_worst']!r},{row['pi_mean']!r},{row['pi_std']!r},"
                f"{row['pi_pm_mean']!r}\n"
            )
    plans = {}
    for threads in (4, 8, 16):
        plan = orchestrator.plan_for_threads(pool, threads, 180, ranking=ranking)
        plans[str(threads)] = [config.id for config in plan.configs]
    _write_json(out_dir / "reduced_pools.json", plans)
    print(f"repro artifacts in {out_dir} (pool {pool_size}, runs {runs}, wall {wall}s)")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="parlns")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-configs", help="sample a configuration pool")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("solve", help="run one worker on one instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pool")
    p.add_argument("--config-id")
    p.add_argument("--reference", type=float)
    p.add_argument("--clock", choices=["wall", "simulated"], default="wall")
    p.add_argument("--node-seconds", type=float, default=0.001)
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("portfolio", help="run a portfolio from a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("simulate", help="portfolio simulation over a trace db")
    p.add_argument("--traces", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--runs", type=int)  # default: the pool size with --stratified, else 1000
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--t1", type=float)
    p.add_argument("--horizon", type=float)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--stratified", action="store_true")
    p.add_argument("--out", required=True)
    p.add_argument("--per-run")

    p = sub.add_parser("repro", help="desk-scale methodology reproduction")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--scale", type=int, default=30)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--node-seconds", type=float, default=0.002)
    p.add_argument("--pool-size", type=int)
    p.add_argument("--runs", type=int)
    p.add_argument("--wall", type=float)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    # all before any work; an option left out (None) takes its default
    for dest in _AT_LEAST_ONE.get(args.command, ()):
        if getattr(args, dest) is not None and getattr(args, dest) < 1:
            parser.error(f"--{dest.replace('_', '-')} must be >= 1")
    for dest in _POSITIVE_FINITE.get(args.command, ()):
        if getattr(args, dest) is not None and not _positive_finite(getattr(args, dest)):
            parser.error(f"--{dest.replace('_', '-')} must be positive and finite")
    # a NaN reference turns every gap into min(1, nan) = 1
    if args.command == "solve" and args.reference is not None and not math.isfinite(args.reference):
        parser.error("--reference must be finite")
    if args.command == "gen-configs" and args.size > configspace.POOL_SIZE_CAP:
        parser.error(f"--size exceeds the sanity cap of {configspace.POOL_SIZE_CAP}")

    try:
        if args.command == "gen-configs":
            return cmd_gen_configs(args)
        if args.command == "solve":
            return cmd_solve(args)
        if args.command == "portfolio":
            return cmd_portfolio(args)
        if args.command == "simulate":
            return cmd_simulate(args, parser)
        if args.command == "repro":
            return cmd_repro(args)
        parser.error(f"unknown command {args.command!r}")
    except (
        DataError,
        ValueError,  # covers parse, config, plan, window, and simulator errors
        PoolExhausted,
        FileNotFoundError,
        NotADirectoryError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except AllWorkersInfeasible as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
