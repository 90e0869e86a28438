"""Arm-selection policies and the outcome-to-reward mapping.

Rewards come from a fixed pool of [best, better, accept, reject] vectors.
Non-binary vectors are rescaled to [0, 1] by their maximum before updating
empirical means so the softmax temperature range stays meaningful across
pools; Thompson sampling requires a binary vector outright.
"""

import math
from dataclasses import dataclass

BEST = "best"
BETTER = "better"
ACCEPT = "accept"
REJECT = "reject"
OUTCOMES = (BEST, BETTER, ACCEPT, REJECT)

EPSILON_GREEDY = "epsilon_greedy"
SOFTMAX = "softmax"
THOMPSON = "thompson"


class NonBinaryRewardForThompson(ValueError):
    """Thompson sampling updated with a reward vector outside {0, 1}."""


@dataclass(frozen=True)
class RewardVector:
    best: float
    better: float
    accept: float
    reject: float

    def component(self, outcome: str) -> float:
        if outcome not in OUTCOMES:
            raise ValueError(f"unknown outcome {outcome!r}")
        return getattr(self, outcome)

    @property
    def maximum(self) -> float:
        return max(self.best, self.better, self.accept, self.reject)

    def is_binary(self) -> bool:
        return all(v in (0.0, 1.0) for v in self.as_tuple())

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.best, self.better, self.accept, self.reject)

    @classmethod
    def from_sequence(cls, seq) -> "RewardVector":
        b, bt, a, r = (float(v) for v in seq)
        return cls(b, bt, a, r)


REWARD_POOL = tuple(
    RewardVector(*v)
    for v in (
        (8, 4, 2, 1),
        (3, 2, 1, 0),
        (5, 2, 1, 0),
        (16, 4, 2, 1),
        (8, 3, 1, 0),
        (5, 4, 2, 0),
        (1, 1, 1, 0),
        (1, 1, 0, 0),
    )
)
BINARY_REWARD_POOL = tuple(v for v in REWARD_POOL if v.is_binary())


class _Policy:
    """Shared per-arm statistics; update() is the only mutator."""

    def __init__(self, n_arms: int):
        if n_arms < 1:
            raise ValueError("n_arms must be >= 1")
        self.n_arms = n_arms
        self.pulls = [0] * n_arms
        self.reward_sums = [0.0] * n_arms

    def select_arm(self, rng) -> int:
        # cold start: pull every arm once in index order
        for arm in range(self.n_arms):
            if self.pulls[arm] == 0:
                return arm
        return self._select(rng)

    def update(self, arm: int, outcome: str, rewards: RewardVector) -> None:
        reward = rewards.component(outcome) / max(rewards.maximum, 1e-12)
        self.pulls[arm] += 1
        self.reward_sums[arm] += reward
        self._learn(arm, reward, rewards)

    def mean(self, arm: int) -> float:
        return self.reward_sums[arm] / self.pulls[arm] if self.pulls[arm] else 0.0

    def _select(self, rng) -> int:
        raise NotImplementedError

    def _learn(self, arm, reward, rewards) -> None:
        pass


def _argmax_lowest_index(scores) -> int:
    best_arm, best_score = 0, scores[0]
    for arm in range(1, len(scores)):
        if scores[arm] > best_score:
            best_arm, best_score = arm, scores[arm]
    return best_arm


class EpsilonGreedy(_Policy):
    def __init__(self, n_arms: int, epsilon: float):
        super().__init__(n_arms)
        self.epsilon = epsilon

    def _select(self, rng) -> int:
        if rng.random() < self.epsilon:
            return rng.randrange(self.n_arms)
        return _argmax_lowest_index([self.mean(a) for a in range(self.n_arms)])


class Softmax(_Policy):
    def __init__(self, n_arms: int, tau: float):
        super().__init__(n_arms)
        self.tau = tau

    def probabilities(self) -> list[float]:
        scaled = [self.mean(a) / self.tau for a in range(self.n_arms)]
        peak = max(scaled)
        weights = [math.exp(s - peak) for s in scaled]
        total = sum(weights)
        return [w / total for w in weights]

    def _select(self, rng) -> int:
        u = rng.random()
        acc = 0.0
        probs = self.probabilities()
        for arm, p in enumerate(probs):
            acc += p
            if u < acc:
                return arm
        return self.n_arms - 1


class ThompsonSampling(_Policy):
    def __init__(self, n_arms: int):
        super().__init__(n_arms)
        self.successes = [0] * n_arms
        self.failures = [0] * n_arms

    def _select(self, rng) -> int:
        samples = [
            rng.betavariate(1 + self.successes[a], 1 + self.failures[a])
            for a in range(self.n_arms)
        ]
        return _argmax_lowest_index(samples)

    def _learn(self, arm, reward, rewards) -> None:
        if reward >= 1.0:
            self.successes[arm] += 1
        else:
            self.failures[arm] += 1

    def update(self, arm: int, outcome: str, rewards: RewardVector) -> None:
        # reject the whole vector up front so a failed update leaves no trace
        if not rewards.is_binary():
            raise NonBinaryRewardForThompson(
                f"Thompson sampling needs binary rewards, got {rewards.as_tuple()}"
            )
        super().update(arm, outcome, rewards)
