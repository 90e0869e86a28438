import math
import random
import sys
import threading

import numpy as np
import pytest

import parlns.alns
import parlns.lp
import parlns.subsolver
from parlns.alns import (
    HILL_CLIMBING,
    SIMULATED_ANNEALING,
    STATUS_NO_FEASIBLE,
    STATUS_OK,
    AcceptanceCriterion,
    accept,
    run_worker,
)
from parlns.bandit import OUTCOMES, RewardVector
from parlns.clock import SimulatedClock
from parlns.configspace import DEFAULT_CONFIG, Configuration, PolicyDescriptor
from parlns.instances import independent_set, knapsack, set_cover
from parlns.metrics import GapTrace
from parlns.model import (
    BINARY,
    GE,
    LE,
    MAXIMIZE,
    MINIMIZE,
    LinearConstraint,
    Variable,
    evaluate,
    make_model,
)
from parlns.operators import OperatorSpec
from parlns.subsolver import Backend, SolveBudget, get_backend, solve_mip

from support import binary_optimum, tiny_cover_model


def _single_arm_config(
    op_token: str, acceptance=AcceptanceCriterion(HILL_CLIMBING)
) -> Configuration:
    # degenerate test-only configuration; bypasses pool validation on purpose
    return Configuration(
        id=f"single_{op_token}",
        destroy_ops=(OperatorSpec.from_identifier(op_token),),
        acceptance=acceptance,
        policy=PolicyDescriptor("epsilon_greedy", epsilon=0.0),
        rewards=RewardVector(3, 2, 1, 0),
    )


def test_hill_climbing_accepts_equal():
    criterion = AcceptanceCriterion(HILL_CLIMBING)
    ok, temperature = accept(criterion, 1.0, 5.0, 5.0, random.Random(0))
    assert ok
    ok, _ = accept(criterion, temperature, 5.1, 5.0, random.Random(0))
    assert not ok


def test_sa_acceptance_frequency_matches_formula():
    rng = random.Random(1)
    # step 1 keeps the temperature constant so the frequency is stationary
    criterion = AcceptanceCriterion(SIMULATED_ANNEALING, step=1.0)
    temperature = 1.0
    draws = 10_000
    accepted = 0
    for _ in range(draws):
        ok, temperature = accept(criterion, temperature, 1.1, 1.0, rng)
        accepted += ok
    p = math.exp(-0.1)
    sigma = math.sqrt(draws * p * (1 - p))
    assert abs(accepted - draws * p) <= 3 * sigma


def test_sa_step_one_keeps_temperature_constant():
    criterion = AcceptanceCriterion(SIMULATED_ANNEALING, step=1.0)
    temperature = 1.0
    for _ in range(100):
        _, temperature = accept(criterion, temperature, 0.5, 1.0, random.Random(0))
    assert temperature == 1.0


def test_sa_cools_geometrically_and_floors():
    criterion = AcceptanceCriterion(SIMULATED_ANNEALING, step=0.5)
    _, temperature = accept(criterion, 1.0, 0.5, 1.0, random.Random(0))
    assert temperature == 0.5
    for _ in range(100):
        _, temperature = accept(criterion, temperature, 0.5, 1.0, random.Random(0))
    assert temperature == pytest.approx(1e-6)


def test_worker_carries_the_temperature_accept_returns(monkeypatch):
    # a worker that dropped the returned temperature would pass 1.0 each time
    temperatures = []
    real_accept = parlns.alns.accept

    def recording(criterion, temperature, candidate_obj, current_obj, rng):
        temperatures.append(temperature)
        return real_accept(criterion, temperature, candidate_obj, current_obj, rng)

    monkeypatch.setattr(parlns.alns, "accept", recording)
    config = _single_arm_config("m_50", AcceptanceCriterion(SIMULATED_ANNEALING, step=0.5))
    result = run_worker(knapsack(12, seed=21), config, 1.0, seed=1, clock=SimulatedClock(0.001))
    assert result.status == STATUS_OK
    assert len(temperatures) >= 30
    assert temperatures[0] == 1.0
    for previous, passed in zip(temperatures, temperatures[1:]):
        assert passed == max(1e-6, previous * 0.5)


def test_budget_smaller_than_initial_phase_yields_single_point():
    model = tiny_cover_model()
    clock = SimulatedClock(0.001)
    result = run_worker(model, DEFAULT_CONFIG, 0.004, seed=3, clock=clock)
    assert result.status == STATUS_OK
    assert len(result.trace.points) == 1
    assert result.best.objective == 1.0


def test_single_arm_worker_reaches_optimum_on_most_seeds():
    model = knapsack(12, seed=21)
    optimum = binary_optimum(model)
    hits = 0
    for seed in range(10):
        result = run_worker(
            model,
            _single_arm_config("m_50"),
            3.0,
            seed=seed,
            clock=SimulatedClock(0.001),
        )
        assert result.status == STATUS_OK
        assert result.best.objective <= result.raw_points[0][1]
        hits += result.best.objective == optimum
    assert hits >= 8


def test_proximity_infeasible_subproblem_counts_as_reject():
    # incumbent already optimal: no delta-improving solution exists
    model = tiny_cover_model()
    result = run_worker(
        model, _single_arm_config("p_30"), 0.2, seed=5, clock=SimulatedClock(0.001)
    )
    assert result.status == STATUS_OK
    assert result.best.objective == 1.0
    counts = result.outcome_counts[0]
    assert counts["best"] == 0 and counts["better"] == 0 and counts["accept"] == 0
    assert counts["reject"] == result.iterations
    assert result.iterations > 0


def test_no_feasible_solution_reports_empty_trace():
    model = make_model(
        "inf",
        MINIMIZE,
        [Variable("x", BINARY)],
        [
            LinearConstraint("ge", {0: 1.0}, GE, 1.0),
            LinearConstraint("le", {0: 1.0}, LE, 0.0),
        ],
        {0: 1.0},
    )
    result = run_worker(model, DEFAULT_CONFIG, 1.0, seed=1, clock=SimulatedClock(0.001))
    assert result.status == STATUS_NO_FEASIBLE
    assert result.best is None
    assert result.trace == GapTrace((), 1.0)


def test_outcomes_partition_iterations():
    model = knapsack(14, seed=2)
    result = run_worker(model, DEFAULT_CONFIG, 2.0, seed=9, clock=SimulatedClock(0.001))
    total = sum(counts[o] for counts in result.outcome_counts for o in OUTCOMES)
    assert total == result.iterations
    assert sum(result.pulls) == result.iterations


def test_global_best_is_monotone():
    model = knapsack(16, seed=4)
    result = run_worker(model, DEFAULT_CONFIG, 2.0, seed=11, clock=SimulatedClock(0.001))
    objectives = [obj for _, obj in result.raw_points]
    assert objectives == sorted(objectives, reverse=True)
    gaps = [gap for _, _, gap in result.trace.points]
    assert gaps == sorted(gaps, reverse=True)
    assert result.best.objective == result.raw_points[-1][1]


def test_worker_determinism_under_simulated_clock():
    model = knapsack(14, seed=8)
    runs = [
        run_worker(model, DEFAULT_CONFIG, 1.5, seed=13, clock=SimulatedClock(0.001))
        for _ in range(2)
    ]
    assert runs[0].raw_points == runs[1].raw_points
    assert runs[0].iterations == runs[1].iterations
    assert runs[0].pulls == runs[1].pulls
    assert runs[0].trace == runs[1].trace


def test_reference_objective_scales_gaps():
    model = knapsack(12, seed=21)
    optimum = binary_optimum(model)
    result = run_worker(
        model,
        DEFAULT_CONFIG,
        2.0,
        seed=1,
        clock=SimulatedClock(0.001),
        reference_objective=optimum,
    )
    if result.best.objective == optimum:
        assert result.trace.final_gap() == 0.0
    else:
        assert result.trace.final_gap() > 0.0


def test_skipped_arms_do_not_livelock_the_worker():
    # the set cover's LP is integral, so rens fixes every variable and skips;
    # unless a skip updates the policy, cold start re-picks that arm forever
    model = set_cover(30, 40, seed=7)
    result = run_worker(model, DEFAULT_CONFIG, 20.0, seed=1, clock=SimulatedClock(0.002))
    assert result.status == STATUS_OK
    assert result.iterations > result.skipped
    assert sum(result.pulls) == result.iterations


def test_model_without_columns_skips_every_iteration():
    # the empty point is optimal, and with no integer column to destroy every
    # iteration is skipped until the deadline
    model = make_model("empty", MAXIMIZE, [], [], {}, offset=2.5)
    result = run_worker(model, DEFAULT_CONFIG, 1.0, seed=1, clock=SimulatedClock(0.01))
    assert result.status == STATUS_OK
    assert result.best.values.tolist() == [] and model.to_external_objective(result.best.objective) == 2.5
    assert result.iterations == 0 and result.skipped > 0


def test_every_producer_gives_a_read_only_point():
    # the LP optimum, a scored point, a sub-MIP incumbent and a worker's best
    model = knapsack(12, seed=3)
    points = (
        parlns.lp.solve_relaxation(model.relaxation).values,
        evaluate(model, [0.0] * model.n_vars).values,
        solve_mip(model, None, SolveBudget(node_limit=50)).incumbent.values,
        run_worker(model, DEFAULT_CONFIG, 1.0, seed=1, clock=SimulatedClock(0.01)).best.values,
    )
    for point in points:
        assert type(point) is np.ndarray and point.dtype == np.float64
        assert point.shape == (model.n_vars,) and not point.flags.writeable


def test_root_lp_is_solved_once_per_worker(monkeypatch):
    lp_solves = []
    real_solve_lp = parlns.alns.solve_lp

    def solve_lp(model, **kwargs):
        lp_solves.append(model)
        return real_solve_lp(model, **kwargs)

    node_lps = []
    real_relaxation = parlns.subsolver.solve_relaxation

    def solve_relaxation(*args, **kwargs):
        res = real_relaxation(*args, **kwargs)
        node_lps.append((kwargs.get("warm"), res.iterations))
        return res

    roots = []
    reference = get_backend()

    def recording(solve):
        def call(*args, **kwargs):
            roots.append(kwargs["root_basis"])
            return solve(*args, **kwargs)

        return call

    backend = Backend(
        "recording", recording(reference.solve_mip), recording(reference.find_first_feasible)
    )
    monkeypatch.setattr(parlns.alns, "solve_lp", solve_lp)
    monkeypatch.setattr(parlns.subsolver, "solve_relaxation", solve_relaxation)
    model = independent_set(30, 0.2, seed=5)
    result = run_worker(
        model, DEFAULT_CONFIG, 0.5, seed=1, clock=SimulatedClock(0.01), backend=backend
    )
    assert result.iterations > 0
    assert len(lp_solves) == 1
    # find_first_feasible's root re-solves the worker's root LP from its own
    # optimal basis, so it takes no pivot
    warm, pivots = node_lps[0]
    assert warm is not None and pivots == 0
    assert len(roots) == result.iterations + 1
    assert all(root is roots[0] for root in roots)
    assert roots[0].basis is warm.basis


def test_cancelled_worker_stops_its_root_lp(monkeypatch):
    import threading

    root_lps = []
    real_solve_lp = parlns.alns.solve_lp

    def solve_lp(model, **kwargs):
        res = real_solve_lp(model, **kwargs)
        root_lps.append(res)
        return res

    monkeypatch.setattr(parlns.alns, "solve_lp", solve_lp)
    cancel = threading.Event()
    cancel.set()
    model = independent_set(30, 0.2, seed=5)
    result = run_worker(model, DEFAULT_CONFIG, 60.0, seed=1, cancel=cancel)
    assert result.status == STATUS_NO_FEASIBLE
    assert len(root_lps) == 1
    assert root_lps[0].iterations == 0
    assert root_lps[0].values is None and root_lps[0].basis is None


def test_worker_inverts_a_basis_only_to_refactor(monkeypatch):
    # node LPs start from their parent's carried inverse and sub-MIP roots
    # from the root's, extended by the appended rows: only the periodic
    # refactorization inverts a basis
    callers = []
    real_invert = parlns.lp._invert

    def invert(A, basis):
        callers.append(sys._getframe(1).f_code.co_name)
        return real_invert(A, basis)

    node_lps = []
    real_relaxation = parlns.subsolver.solve_relaxation

    def solve_relaxation(*args, **kwargs):
        res = real_relaxation(*args, **kwargs)
        node_lps.append(res.iterations)
        return res

    monkeypatch.setattr(parlns.lp, "_invert", invert)
    monkeypatch.setattr(parlns.subsolver, "solve_relaxation", solve_relaxation)
    model = independent_set(60, 0.1, seed=7)
    result = run_worker(model, DEFAULT_CONFIG, 1.0, seed=1, clock=SimulatedClock(0.001))
    assert result.iterations > 0
    assert len(node_lps) > 500 and sum(node_lps) > parlns.lp._REFACTOR_EVERY
    assert callers and set(callers) == {"refactor"}


@pytest.mark.parametrize("wall", [float("nan"), 0.0, -1.0, float("inf")])
def test_worker_rejects_a_budget_that_is_not_positive(wall):
    # NaN passed a `<= 0` check, and its deadline never came; an infinite
    # budget has no trace horizon, so it failed only after the run; the set event
    # ends a worker that gets past the check before its search starts
    cancel = threading.Event()
    cancel.set()
    with pytest.raises(ValueError, match="wall_seconds"):
        run_worker(
            knapsack(12, seed=2), DEFAULT_CONFIG, wall, seed=1, clock=SimulatedClock(0.001),
            cancel=cancel,
        )


@pytest.mark.parametrize("reference", [float("nan"), float("inf"), -float("inf")])
def test_worker_rejects_a_reference_that_is_not_finite(monkeypatch, reference):
    # a NaN reference made every gap min(1, nan) = 1
    def search_started(*args, **kwargs):
        raise AssertionError("the search started")

    monkeypatch.setattr(parlns.alns, "solve_lp", search_started)
    with pytest.raises(ValueError, match="reference_objective"):
        run_worker(
            knapsack(12, seed=2), DEFAULT_CONFIG, 1.0, seed=1, clock=SimulatedClock(0.001),
            reference_objective=reference,
        )


def test_worker_with_a_given_root_solves_no_root_lp(monkeypatch):
    model = independent_set(30, 0.2, seed=5)
    root = parlns.alns.solve_lp(model)
    monkeypatch.setattr(parlns.alns, "solve_lp", None)  # any call fails
    result = run_worker(
        model, DEFAULT_CONFIG, 0.5, seed=1, clock=SimulatedClock(0.01), root=root
    )
    assert result.iterations > 0
