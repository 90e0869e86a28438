"""Worker configuration space: destroy sets, acceptance, policy, rewards.

A configuration draws each parameter independently from its pool while
respecting the dependency rules: Thompson sampling restricts rewards to the
binary vectors, and proximity percentages come from their own pool. Destroy
sets contain 4 to 16 distinct operators and, from size 6 up, at least one
operator from each of the six families.
"""

import json
import random
from dataclasses import dataclass

from .alns import HILL_CLIMBING, SIMULATED_ANNEALING, AcceptanceCriterion
from .bandit import (
    BINARY_REWARD_POOL,
    EPSILON_GREEDY,
    REWARD_POOL,
    SOFTMAX,
    THOMPSON,
    RewardVector,
)
from .operators import FAMILIES, PERCENTAGE_POOL, OperatorSpec

# destroy-arm dictionary: each family's operator ids, crossover's one without a percentage
DESTROY_CATEGORIES: dict[str, tuple[str, ...]] = {
    family: tuple(OperatorSpec(family, p).identifier for p in PERCENTAGE_POOL.get(family, (None,)))
    for family in FAMILIES
}
ALL_OPERATOR_IDS = tuple(op for ops in DESTROY_CATEGORIES.values() for op in ops)

MIN_OPERATORS = 4
MAX_OPERATORS = 16
POOL_SIZE_CAP = 10**6
_RETRIES_PER_SLOT = 1000


class ConfigError(ValueError):
    """Configuration violates the space's pools or dependency rules."""


class PoolExhausted(RuntimeError):
    """Could not draw enough distinct configurations."""


@dataclass(frozen=True)
class PolicyDescriptor:
    kind: str
    epsilon: float | None = None
    tau: float | None = None


@dataclass(frozen=True)
class Configuration:
    id: str
    destroy_ops: tuple[OperatorSpec, ...]
    acceptance: AcceptanceCriterion
    policy: PolicyDescriptor
    rewards: RewardVector

    def operator_ids(self) -> tuple[str, ...]:
        return tuple(op.identifier for op in self.destroy_ops)

    def structural_key(self) -> tuple:
        """Uniqueness key: sorted operator ids plus hyperparameters rounded
        to 6 decimals (exact float collisions are measure-zero)."""
        hyper = []
        if self.acceptance.step is not None:
            hyper.append(round(self.acceptance.step, 6))
        if self.policy.epsilon is not None:
            hyper.append(round(self.policy.epsilon, 6))
        if self.policy.tau is not None:
            hyper.append(round(self.policy.tau, 6))
        return (
            tuple(sorted(self.operator_ids())),
            self.acceptance.kind,
            self.policy.kind,
            tuple(hyper),
            self.rewards.as_tuple(),
        )


def validate_configuration(config: Configuration) -> None:
    ops = config.operator_ids()
    if not MIN_OPERATORS <= len(ops) <= MAX_OPERATORS:
        raise ConfigError(f"{config.id}: {len(ops)} operators outside [4, 16]")
    if len(set(ops)) != len(ops):
        raise ConfigError(f"{config.id}: duplicate operator identifiers")
    families = {op.family for op in config.destroy_ops}
    if len(ops) >= len(DESTROY_CATEGORIES) and len(families) != len(DESTROY_CATEGORIES):
        raise ConfigError(f"{config.id}: sets of size >= 6 must cover all families")
    policy = config.policy
    if policy.kind == EPSILON_GREEDY:
        if policy.epsilon is None or not 0.0 <= policy.epsilon <= 0.5:
            raise ConfigError(f"{config.id}: epsilon outside [0, 0.5]")
    elif policy.kind == SOFTMAX:
        if policy.tau is None or not 1.0 <= policy.tau <= 3.0:
            raise ConfigError(f"{config.id}: tau outside [1, 3]")
    elif policy.kind == THOMPSON:
        if config.rewards not in BINARY_REWARD_POOL:
            raise ConfigError(f"{config.id}: Thompson sampling requires binary rewards")
    else:
        raise ConfigError(f"{config.id}: unknown policy kind {policy.kind!r}")
    if config.rewards not in REWARD_POOL:
        raise ConfigError(f"{config.id}: rewards outside the fixed pool")


def sample_destroy_set(rng: random.Random, n: int | None = None) -> list[OperatorSpec]:
    """Draw a destroy set: n operators (uniform in [4, 16] when not forced).

    For n >= 6, one operator per family plus n - 6 extras from the remaining
    pool without replacement; for n < 6, n distinct families contribute one
    operator each.
    """
    if n is None:
        n = rng.randint(MIN_OPERATORS, MAX_OPERATORS)
    if not MIN_OPERATORS <= n <= MAX_OPERATORS:
        raise ValueError(f"operator count {n} outside [4, 16]")
    categories = list(DESTROY_CATEGORIES.values())
    if n >= len(categories):
        chosen = [rng.choice(ops) for ops in categories]
        remaining = [op for op in ALL_OPERATOR_IDS if op not in chosen]
        chosen.extend(rng.sample(remaining, n - len(categories)))
    else:
        chosen = [rng.choice(ops) for ops in rng.sample(categories, n)]
    return [OperatorSpec.from_identifier(token) for token in chosen]


def sample_config(rng: random.Random, config_id: str = "cfg") -> Configuration:
    destroy_ops = tuple(sample_destroy_set(rng))
    if rng.random() < 0.5:
        acceptance = AcceptanceCriterion(HILL_CLIMBING)
    else:
        acceptance = AcceptanceCriterion(SIMULATED_ANNEALING, step=rng.uniform(0.01, 1.0))
    kind = rng.choice((EPSILON_GREEDY, SOFTMAX, THOMPSON))
    if kind == EPSILON_GREEDY:
        policy = PolicyDescriptor(kind, epsilon=rng.uniform(0.0, 0.5))
    elif kind == SOFTMAX:
        policy = PolicyDescriptor(kind, tau=rng.uniform(1.0, 3.0))
    else:
        policy = PolicyDescriptor(kind)
    rewards = rng.choice(REWARD_POOL)
    if kind == THOMPSON:
        rewards = rng.choice(BINARY_REWARD_POOL)
    config = Configuration(
        id=config_id,
        destroy_ops=destroy_ops,
        acceptance=acceptance,
        policy=policy,
        rewards=rewards,
    )
    validate_configuration(config)
    return config


def generate_pool(size: int, seed: int) -> list[Configuration]:
    """Deterministically draw ``size`` pairwise-distinct configurations."""
    if size < 1:
        raise ValueError("size must be >= 1")
    if size > POOL_SIZE_CAP:
        raise ValueError(f"size {size} exceeds the sanity cap of {POOL_SIZE_CAP}")
    rng = random.Random(seed)
    pool: list[Configuration] = []
    seen: set[tuple] = set()
    width = max(3, len(str(size - 1)))
    for slot in range(size):
        for _ in range(_RETRIES_PER_SLOT):
            config = sample_config(rng, config_id=f"cfg_{slot:0{width}d}")
            key = config.structural_key()
            if key not in seen:
                seen.add(key)
                pool.append(config)
                break
        else:
            raise PoolExhausted(f"no distinct configuration found for slot {slot}")
    return pool


DEFAULT_CONFIG = Configuration(
    id="default",
    destroy_ops=tuple(
        OperatorSpec.from_identifier(token)
        for token in ("c", "m_30", "lb_30", "p_15", "r_30", "ri_30")
    ),
    acceptance=AcceptanceCriterion(HILL_CLIMBING),
    policy=PolicyDescriptor(EPSILON_GREEDY, epsilon=0.1),
    rewards=RewardVector(5, 2, 1, 0),
)


def config_to_dict(config: Configuration) -> dict:
    out = {
        "id": config.id,
        "destroy_ops": list(config.operator_ids()),
        "acceptance": {"kind": config.acceptance.kind},
        "policy": {"kind": config.policy.kind},
        "rewards": list(config.rewards.as_tuple()),
    }
    if config.acceptance.step is not None:
        out["acceptance"]["step"] = config.acceptance.step
    if config.policy.epsilon is not None:
        out["policy"]["epsilon"] = config.policy.epsilon
    if config.policy.tau is not None:
        out["policy"]["tau"] = config.policy.tau
    return out


def config_from_dict(data: dict) -> Configuration:
    try:
        acceptance = AcceptanceCriterion(
            data["acceptance"]["kind"], step=data["acceptance"].get("step")
        )
        policy = PolicyDescriptor(
            data["policy"]["kind"],
            epsilon=data["policy"].get("epsilon"),
            tau=data["policy"].get("tau"),
        )
        config = Configuration(
            id=data["id"],
            destroy_ops=tuple(
                OperatorSpec.from_identifier(token) for token in data["destroy_ops"]
            ),
            acceptance=acceptance,
            policy=policy,
            rewards=RewardVector.from_sequence(data["rewards"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad configuration record: {exc}") from exc
    validate_configuration(config)
    return config


def write_pool(pool: list[Configuration], path) -> None:
    with open(path, "w") as fh:
        json.dump([config_to_dict(c) for c in pool], fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_pool(path) -> list[Configuration]:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, list):
        raise ConfigError("pool file must hold a JSON array of configurations")
    return [config_from_dict(entry) for entry in data]
