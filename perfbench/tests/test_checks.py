"""The output checks flag wrong results instead of letting numbers through."""

from dataclasses import replace

from parlns import instances
from parlns.configspace import DEFAULT_CONFIG
from parlns.metrics import GapTrace
from parlns.orchestrator import SIMULATED, PortfolioPlan, run_portfolio
from parlns.simulator import build_trace_db, simulate

from workloads import SIM_WINDOW, _check_records, _check_workers


def _trace(*points):
    return GapTrace(points=tuple((t, 100.0 * (1 + g), g) for t, g in points), horizon=60.0)


def test_simulate_records_are_recomputed_from_the_traces():
    db = build_trace_db({
        "a": {"i": _trace((1.0, 0.9), (20.0, 0.3)), "j": _trace((5.0, 0.5))},
        "b": {"i": _trace((10.0, 0.4)), "j": _trace((2.0, 0.8), (30.0, 0.1))},
        "c": {"i": _trace((3.0, 0.7)), "j": _trace((7.0, 0.6))},
    })
    report = simulate(db, 2, 6, 1, SIM_WINDOW)
    errors = []
    _check_records(db, report, errors)
    assert errors == []

    bad = report.records[0]
    tampered = replace(report, records=(replace(bad, primal_integral=bad.primal_integral + 1e-3),) + report.records[1:])
    _check_records(db, tampered, errors)
    assert len(errors) == 1 and "traces give" in errors[0]


def test_worker_best_is_rescored_on_the_original_model():
    model = instances.knapsack(12, seed=3)
    plan = PortfolioPlan((DEFAULT_CONFIG,), 1, 1, 0.3, 5)
    result = run_portfolio(model, plan, clock_mode=SIMULATED)
    best = result.workers["default"].best
    errors = []
    _check_workers(model, best.objective, result, errors)
    assert errors == []

    _check_workers(model, best.objective + 1.0, result, errors)
    assert len(errors) == 1 and "beats the proven optimum" in errors[0]

    worker = result.workers["default"]
    wrong = replace(worker, best=replace(best, objective=best.objective - 1.0))
    _check_workers(model, best.objective - 5.0, replace(result, workers={"default": wrong}), errors)
    assert "reported objective" in errors[-1]
