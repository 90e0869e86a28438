"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v`` (or ``-s`` to see the
per-criterion lines inline).
"""

import json
import math
import random
import time
from collections import Counter

import pytest

from parlns.alns import build_trace, run_worker
from parlns.clock import SimulatedClock
from parlns.configspace import (
    DEFAULT_CONFIG,
    generate_pool,
    sample_config,
    sample_destroy_set,
    validate_configuration,
    write_pool,
)
from parlns.bandit import BINARY_REWARD_POOL, THOMPSON
from parlns.cli import main
from parlns.instances import independent_set, knapsack, set_cover
from parlns.lp import LP_INFEASIBLE, LP_OPTIMAL, solve_lp
from parlns.metrics import GapTrace, aggregate_min, primal_gap, primal_integral
from parlns.mps import write_mps
from parlns.operators import FAMILIES
from parlns.orchestrator import PlanInvalid, PortfolioPlan, plan_for_threads, worker_seed
from parlns.simulator import build_trace_db, exhaustive, simulate
from parlns.subsolver import OPTIMAL, SolveBudget, solve_mip

from support import (
    binary_optimum,
    lp_vertex_optimum,
    random_lp,
    random_step_trace,
)


def _report(number: int, message: str) -> None:
    print(f"ACCEPTANCE {number:02d}: PASS - {message}")


# --- 1. configuration-space fidelity ---------------------------------------


def test_criterion_01_configuration_space_fidelity():
    started = time.perf_counter()
    rng = random.Random(314159)
    counts = Counter()
    for k in range(10_000):
        config = sample_config(rng, config_id=f"a{k}")
        validate_configuration(config)  # every pool and range rule
        if config.policy.kind == THOMPSON:
            assert config.rewards in BINARY_REWARD_POOL
        for op in config.destroy_ops:
            if op.family == "proximity":
                assert op.percentage in (5, 10, 15, 20, 30)
        n = len(config.destroy_ops)
        counts[n] += 1
        if n >= 6:
            assert {op.family for op in config.destroy_ops} == set(FAMILIES)
    assert set(counts) == set(range(4, 17))
    expected = 10_000 / 13
    chi2 = sum((counts[n] - expected) ** 2 / expected for n in range(4, 17))
    critical = 32.909  # chi-square, 12 dof, alpha = 0.001
    assert chi2 < critical
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _report(1, f"10,000 configs valid, chi2 {chi2:.2f} < {critical}, {elapsed:.2f}s")


# --- 2. destroy-set sampling branches --------------------------------------


def test_criterion_02_destroy_sampling_branches():
    for trial in range(1000):
        four = sample_destroy_set(random.Random(trial), n=4)
        assert len(four) == 4
        assert len({op.family for op in four}) == 4

        six = sample_destroy_set(random.Random(trial), n=6)
        assert Counter(op.family for op in six) == Counter({f: 1 for f in FAMILIES})

        sixteen = sample_destroy_set(random.Random(trial), n=16)
        ids = [op.identifier for op in sixteen]
        assert len(set(ids)) == 16
        assert {op.family for op in sixteen} == set(FAMILIES)
        assert ids.count("c") <= 1
    _report(2, "forced N=4/6/16 draws structurally correct in 1000 trials each")


# --- 3. pool and plan structural constants ----------------------------------


def test_criterion_03_pool_and_plan_constants():
    pool = generate_pool(180, seed=7)
    assert len(pool) == 180
    assert len({c.structural_key() for c in pool}) == 180
    assert generate_pool(180, seed=7) == pool

    plan4 = plan_for_threads(pool, 4, 180)
    assert plan4.n_workers == 45
    # the paper-style 8-thread setting draws from a 20-entry ranked pool
    plan8 = plan_for_threads(pool, 8, 180, ranking=[c.id for c in pool[:20]])
    assert plan8.n_workers == 20

    with pytest.raises(PlanInvalid):
        PortfolioPlan(
            configs=tuple(pool[:20]),
            threads_per_worker=10,
            core_cap=192,
            wall_seconds=1.0,
        )
    _report(3, "pool of 180 unique/deterministic; N=45 (T=4) and N=20 (T=8); cap enforced")


# --- 4. sub-solver exactness ------------------------------------------------


def test_criterion_04_subsolver_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(271828)
    models = []
    while len(models) < 50:
        kind = len(models) % 3
        if kind == 0:
            models.append(knapsack(rng.randint(8, 15), seed=rng.randrange(10**6)))
        elif kind == 1:
            models.append(
                set_cover(rng.randint(6, 12), rng.randint(6, 15), seed=rng.randrange(10**6))
            )
        else:
            models.append(
                independent_set(rng.randint(8, 15), 0.3, seed=rng.randrange(10**6))
            )
    for model in models:
        optimum = binary_optimum(model)
        assert optimum is not None
        result = solve_mip(model, budget=SolveBudget(wall_seconds=60.0, node_limit=200_000))
        assert result.status == OPTIMAL
        assert result.incumbent.objective == optimum
        assert result.dual_bound <= optimum + 1e-9
        assert optimum <= result.incumbent.objective
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(4, f"50 binary instances exact vs enumeration, bounds valid, {elapsed:.1f}s")


# --- 5. LP correctness -------------------------------------------------------


def test_criterion_05_lp_matches_vertex_enumeration():
    rng = random.Random(161803)
    solved = 0
    for _ in range(100):
        model = random_lp(rng)
        oracle = lp_vertex_optimum(model)
        result = solve_lp(model)
        if oracle is None:
            assert result.status == LP_INFEASIBLE
        else:
            assert result.status == LP_OPTIMAL
            assert abs(result.objective - oracle) <= 1e-6 * max(1.0, abs(oracle))
            solved += 1
    assert solved >= 50  # the generator must exercise plenty of feasible LPs
    _report(5, f"100 random LPs match the vertex oracle ({solved} feasible)")


# --- 6. metrics formulas -----------------------------------------------------


def test_criterion_06_metric_formulas():
    gap_cases = [
        (110.0, 100.0, 0.10),
        (100.0, 100.0, 0.0),
        (0.0, 0.0, 0.0),
        (90.0, 100.0, 0.10),
        (-90.0, -100.0, 0.10),
        (150.0, 100.0, 0.50),
        (200.0, 100.0, 1.0),
        (350.0, 100.0, 1.0),  # capped
        (1.0, 2.0, 0.5),
        (3.0, -3.0, 1.0),  # capped from 2.0
        (-3.0, 3.0, 1.0),
        (5.5, 5.0, 0.1),
        (0.5, 0.5, 0.0),
        (1e-3, 1e-3, 0.0),
        (2e-3, 1e-3, 1.0),
        (0.25, 0.2, 0.25),
        (12.0, 10.0, 0.2),
        (10.0, -10.0, 1.0),
        (99.0, 100.0, 0.01),
        (101.0, 100.0, 0.01),
    ]
    assert len(gap_cases) == 20
    for x, x_star, expected in gap_cases:
        assert primal_gap(x, x_star) == pytest.approx(expected, abs=1e-12)
    # x* = 0 edge: raw value follows the formula, reporting caps at 1
    assert primal_gap(1.0, 0.0, eps=1e-10, cap=False) == pytest.approx(1e10)
    assert primal_gap(1.0, 0.0, eps=1e-10) == 1.0
    assert primal_gap(None, 42.0) == 1.0

    pi_cases = [
        ((), 50.0, (0.0, 50.0), 50.0),
        (((0.0, 0.5),), 100.0, (0.0, 100.0), 50.0),
        (((10.0, 0.0),), 100.0, (0.0, 100.0), 10.0),
        (((0.0, 1.0), (60.0, 0.4), (120.0, 0.1)), 200.0, (30.0, 200.0), 62.0),
        (((5.0, 0.5), (15.0, 0.25)), 20.0, (0.0, 20.0), 11.25),
        (((2.0, 0.75),), 10.0, (4.0, 8.0), 3.0),
        (((0.0, 0.8), (50.0, 0.2)), 100.0, (25.0, 75.0), 25.0),
        (((10.0, 0.5), (20.0, 0.25), (30.0, 0.125)), 40.0, (0.0, 40.0), 18.75),
        (((1.0, 0.5),), 2.0, (0.0, 1.0), 1.0),
        (((4.0, 0.375), (8.0, 0.1875)), 16.0, (4.0, 12.0), 2.25),
    ]
    assert len(pi_cases) == 10
    for points, horizon, window, expected in pi_cases:
        trace = GapTrace(
            points=tuple((t, 1.0, g) for t, g in points), horizon=horizon
        )
        value = primal_integral(trace, window[0], window[1])
        assert abs(value - expected) <= 1e-12 * max(1.0, expected)

    rng = random.Random(5)
    for _ in range(200):
        trace = random_step_trace(rng)
        t0 = rng.uniform(0.0, 40.0)
        t2 = rng.uniform(t0, 100.0)
        t1 = rng.uniform(t0, t2)
        whole = primal_integral(trace, t0, t2)
        split = primal_integral(trace, t0, t1) + primal_integral(trace, t1, t2)
        assert abs(whole - split) <= 1e-12 * max(1.0, abs(whole))
    _report(6, "20 gap cases, 10 hand-summed integrals, additivity on 200 traces")


# --- 7. min-aggregation laws -------------------------------------------------


def test_criterion_07_min_aggregation_laws():
    rng = random.Random(42)
    for _ in range(1000):
        traces = [random_step_trace(rng, max_points=4) for _ in range(rng.randint(1, 5))]
        merged = aggregate_min(traces)
        probe = sorted({t for tr in traces for (t, _, _) in tr.points}) + [100.0]
        for t in probe:
            assert merged.gap_at(t) == min(tr.gap_at(t) for tr in traces)
        assert aggregate_min([merged]) == merged  # idempotent
        subset = traces[: max(1, len(traces) - 1)]
        agg_subset = aggregate_min(subset)
        for t in probe:
            assert merged.gap_at(t) <= agg_subset.gap_at(t)
    _report(7, "dominance, idempotence, nested monotonicity on 1000 trace sets")


# --- 8. simulator vs exhaustive oracle ---------------------------------------


def test_criterion_08_simulator_matches_oracle():
    rng = random.Random(77)
    traces = {
        f"cfg_{k}": {
            inst: random_step_trace(rng, horizon=100.0) for inst in ("a", "b", "c")
        }
        for k in range(6)
    }
    db = build_trace_db(traces)
    window = (0.0, 100.0)
    oracle = exhaustive(db, 2, window)
    assert len(oracle.ranking) == math.comb(6, 2) == 15
    runs = 100_000
    report = simulate(db, 2, runs=runs, seed=2718, window=window)
    sigma = math.sqrt(oracle.variance_final_gap / runs)
    deviation = abs(report.mean_final_gap - oracle.expected_final_gap)
    assert deviation <= 3 * sigma
    assert report.best.config_ids == oracle.best.config_ids
    _report(
        8,
        f"MC mean within {deviation / sigma if sigma else 0.0:.2f} sigma of exact; "
        "15 subsets; best subset agrees",
    )


# --- 9 and 10. end-to-end desk-scale portfolio -------------------------------

WALL = 2.5
TICK = 0.002
MASTER_SEED = 7


@pytest.fixture(scope="module")
def desk_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("desk")
    models = [
        knapsack(40, seed=101, name="knap40"),
        set_cover(30, 40, seed=102, name="cover40"),
        independent_set(32, 0.1, seed=103, name="mis32"),
    ]
    started = time.perf_counter()
    pool = generate_pool(4, seed=2026)
    pool_path = base / "pool.json"
    write_pool(pool, pool_path)

    artifacts = {}
    for model in models:
        proof = solve_mip(model, budget=SolveBudget(wall_seconds=300.0, node_limit=500_000))
        assert proof.status == OPTIMAL
        reference_external = model.to_external_objective(proof.incumbent.objective)

        instance_path = base / f"{model.name}.mps"
        instance_path.write_text(write_mps(model))
        manifest = {
            "instance": str(instance_path),
            "pool": str(pool_path),
            "n": 4,
            "threads_per_worker": 1,
            "core_cap": 4,
            "wall_seconds": WALL,
            "master_seed": MASTER_SEED,
            "reference_objective": reference_external,
            "clock": "simulated",
            "node_seconds": TICK,
        }
        manifest_path = base / f"{model.name}.manifest.json"
        manifest_path.write_text(json.dumps(manifest))

        out_dir = base / "run1" / model.name
        assert main(["portfolio", "--manifest", str(manifest_path), "--out-dir", str(out_dir)]) == 0

        single = run_worker(
            model,
            DEFAULT_CONFIG,
            4 * WALL,  # same total budget as the four workers combined
            worker_seed(MASTER_SEED, "default"),
            SimulatedClock(TICK),
        )
        assert single.status == "ok"
        single_trace = build_trace(model, single.raw_points, proof.incumbent.objective, 4 * WALL)
        artifacts[model.name] = {
            "manifest": manifest_path,
            "out_dir": out_dir,
            "single_gap": single_trace.final_gap(),
            "pool_ids": [c.id for c in pool],
        }
    artifacts["elapsed"] = time.perf_counter() - started
    artifacts["base"] = base
    return artifacts


def _final_gap_from_csv(path):
    lines = path.read_text().strip().splitlines()
    if len(lines) <= 1:
        return 1.0
    return float(lines[-1].split(",")[2])


def test_criterion_09_portfolio_beats_components(desk_runs):
    wins = 0
    for name in ("knap40", "cover40", "mis32"):
        info = desk_runs[name]
        aggregate_gap = _final_gap_from_csv(info["out_dir"] / "aggregate.csv")
        worker_gaps = [
            _final_gap_from_csv(info["out_dir"] / f"{config_id}.csv")
            for config_id in info["pool_ids"]
        ]
        # independent check of the min rule straight from the CSVs
        assert aggregate_gap <= min(worker_gaps)
        assert aggregate_gap == min(worker_gaps)
        if aggregate_gap <= info["single_gap"]:
            wins += 1
    assert wins >= 2
    assert desk_runs["elapsed"] < 300.0
    _report(
        9,
        f"aggregate = min(worker gaps) on 3/3; beats-or-ties the 4x-budget default "
        f"on {wins}/3; {desk_runs['elapsed']:.0f}s",
    )


def test_criterion_10_rerun_is_byte_identical(desk_runs):
    for name in ("knap40", "cover40", "mis32"):
        info = desk_runs[name]
        out_dir2 = desk_runs["base"] / "run2" / name
        assert main(["portfolio", "--manifest", str(info["manifest"]), "--out-dir", str(out_dir2)]) == 0
        first = sorted(p for p in info["out_dir"].glob("*.csv"))
        second = sorted(p for p in out_dir2.glob("*.csv"))
        assert [p.name for p in first] == [p.name for p in second]
        for a, b in zip(first, second):
            assert a.read_bytes() == b.read_bytes(), a.name
    _report(10, "rerun CSVs byte-identical on all 3 instances")
