"""Worker configuration space: destroy sets, acceptance, policy, rewards.

A configuration draws each parameter independently from its pool while
respecting the dependency rules: Thompson sampling restricts rewards to the
binary vectors, and proximity percentages come from their own pool. Destroy
sets contain 4 to 16 distinct operators and, from size 6 up, at least one
operator from each of the six families. An acceptance criterion or policy
descriptor refuses an unknown kind and a parameter its kind does not take or
takes out of range; each range is stated once, for that check and
``sample_config`` both.
"""

import json
import random
from dataclasses import dataclass

from . import bandit
from .alns import HILL_CLIMBING, SIMULATED_ANNEALING, STEP_RANGE, AcceptanceCriterion
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


# the parameters each policy kind takes, with their ranges
POLICY_PARAMETERS: dict[str, dict[str, tuple[float, float]]] = {
    EPSILON_GREEDY: {"epsilon": (0.0, 0.5)},
    SOFTMAX: {"tau": (1.0, 3.0)},
    THOMPSON: {},
}


@dataclass(frozen=True)
class PolicyDescriptor:
    """A bandit policy kind and the parameters ``POLICY_PARAMETERS`` gives it."""

    kind: str
    epsilon: float | None = None
    tau: float | None = None

    def __post_init__(self):
        taken = POLICY_PARAMETERS.get(self.kind)
        if taken is None:
            raise ConfigError(f"unknown policy kind {self.kind!r}")
        for name, value in (("epsilon", self.epsilon), ("tau", self.tau)):
            bounds = taken.get(name)
            if bounds is None:
                if value is not None:
                    raise ConfigError(f"{self.kind} takes no {name}")
            elif value is None or not bounds[0] <= value <= bounds[1]:
                raise ConfigError(f"{name} outside {list(bounds)}")

    def new_policy(self, n_arms: int):
        """A fresh policy of this kind; its class is looked up on ``bandit``
        at each call, where perfbench's tracer swaps it."""
        if self.kind == EPSILON_GREEDY:
            return bandit.EpsilonGreedy(n_arms, self.epsilon)
        if self.kind == SOFTMAX:
            return bandit.Softmax(n_arms, self.tau)
        return bandit.ThompsonSampling(n_arms)


def _set_fields(part) -> dict:
    """An acceptance criterion's or policy descriptor's set fields: its kind
    and the parameters that kind takes."""
    return {name: value for name, value in vars(part).items() if value is not None}


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
        return (
            tuple(sorted(self.operator_ids())),
            self.acceptance.kind,
            self.policy.kind,
            tuple([
                round(value, 6)
                for part in (self.acceptance, self.policy)
                for name, value in vars(part).items()
                if value is not None and name != "kind"
            ]),
            self.rewards.as_tuple(),
        )


def validate_configuration(config: Configuration) -> None:
    """The paper's space, whose rules a single-arm worker input breaks: 4 to
    16 distinct operators, all families from 6 up, and pool rewards."""
    ops = config.operator_ids()
    if not MIN_OPERATORS <= len(ops) <= MAX_OPERATORS:
        raise ConfigError(f"{config.id}: {len(ops)} operators outside [4, 16]")
    if len(set(ops)) != len(ops):
        raise ConfigError(f"{config.id}: duplicate operator identifiers")
    families = {op.family for op in config.destroy_ops}
    if len(ops) >= len(DESTROY_CATEGORIES) and len(families) != len(DESTROY_CATEGORIES):
        raise ConfigError(f"{config.id}: sets of size >= 6 must cover all families")
    if config.policy.kind == THOMPSON and config.rewards not in BINARY_REWARD_POOL:
        raise ConfigError(f"{config.id}: Thompson sampling requires binary rewards")
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
        acceptance = AcceptanceCriterion(SIMULATED_ANNEALING, step=rng.uniform(*STEP_RANGE))
    kind = rng.choice(tuple(POLICY_PARAMETERS))
    taken = POLICY_PARAMETERS[kind]
    policy = PolicyDescriptor(kind, **{name: rng.uniform(lo, hi) for name, (lo, hi) in taken.items()})
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
    return {
        "id": config.id,
        "destroy_ops": list(config.operator_ids()),
        "acceptance": _set_fields(config.acceptance),
        "policy": _set_fields(config.policy),
        "rewards": list(config.rewards.as_tuple()),
    }


def config_from_dict(data: dict) -> Configuration:
    record_id = data.get("id") if isinstance(data, dict) else None
    try:
        config = Configuration(
            id=data["id"],
            destroy_ops=tuple(
                OperatorSpec.from_identifier(token) for token in data["destroy_ops"]
            ),
            acceptance=AcceptanceCriterion(**data["acceptance"]),
            policy=PolicyDescriptor(**data["policy"]),
            # the pool member the record's rewards equal, so a pool file reads
            # back as written; validate_configuration refuses None
            rewards=next((r for r in REWARD_POOL if r.as_tuple() == tuple(data["rewards"])), None),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{record_id}: bad configuration record: {exc}") from exc
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
