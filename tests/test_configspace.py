import json
import random
from collections import Counter

import pytest

from parlns.alns import SIMULATED_ANNEALING
from parlns.bandit import BINARY_REWARD_POOL, THOMPSON
from parlns.configspace import (
    ALL_OPERATOR_IDS,
    DEFAULT_CONFIG,
    DESTROY_CATEGORIES,
    ConfigError,
    PoolExhausted,
    config_from_dict,
    config_to_dict,
    generate_pool,
    read_pool,
    sample_config,
    sample_destroy_set,
    validate_configuration,
    write_pool,
)
from parlns.operators import FAMILIES


def test_operator_dictionary_is_the_fixed_26():
    # derived from the operators module: its families in its order, keys and ids
    assert list(DESTROY_CATEGORIES.items()) == [
        ("crossover", ("c",)),
        ("mutation", ("m_10", "m_20", "m_30", "m_40", "m_50")),
        ("local_branching", ("lb_10", "lb_20", "lb_30", "lb_40", "lb_50")),
        ("proximity", ("p_05", "p_10", "p_15", "p_20", "p_30")),
        ("rens", ("r_10", "r_20", "r_30", "r_40", "r_50")),
        ("rins", ("ri_10", "ri_20", "ri_30", "ri_40", "ri_50")),
    ]
    assert tuple(DESTROY_CATEGORIES) == FAMILIES
    assert len(ALL_OPERATOR_IDS) == 26


def test_forced_n6_gives_one_per_family():
    for trial in range(1000):
        ops = sample_destroy_set(random.Random(trial), n=6)
        assert len(ops) == 6
        assert Counter(op.family for op in ops) == Counter({f: 1 for f in FAMILIES})


def test_forced_n4_gives_four_distinct_families():
    for trial in range(1000):
        ops = sample_destroy_set(random.Random(trial), n=4)
        assert len(ops) == 4
        families = [op.family for op in ops]
        assert len(set(families)) == 4


def test_forced_n16_distinct_identifiers_all_families():
    for trial in range(1000):
        ops = sample_destroy_set(random.Random(trial), n=16)
        ids = [op.identifier for op in ops]
        assert len(ids) == 16
        assert len(set(ids)) == 16
        assert {op.family for op in ops} == set(FAMILIES)
        assert ids.count("c") <= 1


def test_sampled_configs_satisfy_all_invariants():
    rng = random.Random(99)
    for k in range(10_000):
        config = sample_config(rng, config_id=f"s{k}")
        validate_configuration(config)


def test_thompson_implies_binary_rewards():
    rng = random.Random(7)
    seen = 0
    for k in range(10_000):
        config = sample_config(rng, config_id=f"t{k}")
        if config.policy.kind == THOMPSON:
            seen += 1
            assert config.rewards in BINARY_REWARD_POOL
    assert seen > 2000


def test_proximity_percentages_come_from_their_own_pool():
    rng = random.Random(8)
    seen = 0
    for k in range(5000):
        config = sample_config(rng, config_id=f"p{k}")
        for op in config.destroy_ops:
            if op.family == "proximity":
                seen += 1
                assert op.percentage in (5, 10, 15, 20, 30)
            elif op.family != "crossover":
                assert op.percentage in (10, 20, 30, 40, 50)
    assert seen > 1000


def test_operator_count_uniform_chi_square():
    rng = random.Random(123)
    counts = Counter(len(sample_config(rng, "x").destroy_ops) for _ in range(50_000))
    assert set(counts) == set(range(4, 17))
    expected = 50_000 / 13
    chi2 = sum((counts[n] - expected) ** 2 / expected for n in range(4, 17))
    # chi-square critical value, 12 dof, alpha = 0.001
    assert chi2 < 32.909


def test_family_coverage_conditional_on_size():
    rng = random.Random(5)
    for k in range(5000):
        config = sample_config(rng, "x")
        if len(config.destroy_ops) >= 6:
            assert {op.family for op in config.destroy_ops} == set(FAMILIES)


def test_generate_pool_unique_and_deterministic():
    pool = generate_pool(180, seed=7)
    assert len(pool) == 180
    keys = {c.structural_key() for c in pool}
    assert len(keys) == 180
    assert [c.id for c in pool][:2] == ["cfg_000", "cfg_001"]
    again = generate_pool(180, seed=7)
    assert pool == again


def test_generate_pool_singleton_and_cap():
    assert len(generate_pool(1, seed=0)) == 1
    with pytest.raises(ValueError):
        generate_pool(10**9, seed=0)
    with pytest.raises(ValueError):
        generate_pool(0, seed=0)


def test_validate_rejects_bad_configs():
    base = generate_pool(1, seed=3)[0]
    from dataclasses import replace

    with pytest.raises(ConfigError):
        validate_configuration(replace(base, destroy_ops=base.destroy_ops[:2]))
    from parlns.bandit import RewardVector
    from parlns.configspace import PolicyDescriptor

    with pytest.raises(ConfigError):
        validate_configuration(
            replace(
                base,
                policy=PolicyDescriptor(THOMPSON),
                rewards=RewardVector(8, 4, 2, 1),
            )
        )
    with pytest.raises(ConfigError):
        validate_configuration(
            replace(base, policy=PolicyDescriptor("epsilon_greedy", epsilon=0.9))
        )


def test_pool_json_round_trip(tmp_path):
    pool = generate_pool(12, seed=11)
    path = tmp_path / "pool.json"
    write_pool(pool, path)
    again = read_pool(path)
    assert again == pool
    data = json.loads(path.read_text())
    assert isinstance(data, list) and len(data) == 12
    assert {"id", "destroy_ops", "acceptance", "policy", "rewards"} <= set(data[0])


def test_config_dict_round_trip_covers_all_kinds():
    rng = random.Random(17)
    seen_kinds = set()
    seen_acceptance = set()
    for k in range(200):
        config = sample_config(rng, f"c{k}")
        seen_kinds.add(config.policy.kind)
        seen_acceptance.add(config.acceptance.kind)
        assert config_from_dict(config_to_dict(config)) == config
    assert len(seen_kinds) == 3
    assert SIMULATED_ANNEALING in seen_acceptance


def test_default_config_is_valid():
    validate_configuration(DEFAULT_CONFIG)
    assert {op.family for op in DEFAULT_CONFIG.destroy_ops} == set(FAMILIES)


@pytest.mark.parametrize("step", [None, 0.0, 0.005, 1.5, float("nan"), float("inf")])
def test_a_record_with_an_sa_step_outside_its_range_is_refused(step):
    # the acceptance criterion refuses it, before the configuration exists
    record = config_to_dict(DEFAULT_CONFIG)
    record["acceptance"] = {"kind": SIMULATED_ANNEALING, "step": 0.5}
    config_from_dict(record)
    record["acceptance"]["step"] = step
    with pytest.raises(ConfigError, match="simulated annealing step"):
        config_from_dict(record)
