"""Re-prove the pinned reference optima the benchmark measures gaps against."""

import pytest

from parlns.model import MAXIMIZE
from parlns.subsolver import OPTIMAL, SolveBudget, solve_mip

from workloads import INSTANCES, OPTIMA


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_pinned_optimum_is_proven(name):
    model = INSTANCES[name]()
    assert model.name == name
    result = solve_mip(model, budget=SolveBudget(node_limit=100_000))
    assert result.status == OPTIMAL
    assert model.to_external_objective(result.incumbent.objective) == pytest.approx(OPTIMA[name])


def test_knapsack_optimum_matches_dynamic_programming():
    model = INSTANCES["knapsack_40_7"]()
    assert model.sense == MAXIMIZE and len(model.constraints) == 1
    row = model.constraints[0]
    capacity = int(row.rhs)
    best = [0] * (capacity + 1)
    for j in range(model.n_vars):
        weight = int(row.coefficients[j])
        profit = model.to_external_objective(model.objective[j]) - model.to_external_objective(0.0)
        for c in range(capacity, weight - 1, -1):
            best[c] = max(best[c], best[c - weight] + profit)
    assert best[capacity] == OPTIMA["knapsack_40_7"]
