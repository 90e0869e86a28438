"""Portfolio simulation over recorded gap traces.

Given a database of per-configuration, per-instance traces, estimate how a
portfolio of n configurations performs by sampling subsets uniformly without
replacement, aggregating each subset's traces by pointwise minimum, and
averaging final gap and primal integral across instances. An exhaustive
enumerator provides the exact expectation for small pools, and a ranking
operation orders configurations for reduced-pool planning.
"""

import itertools
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .metrics import GapTrace, read_trace_csv


class NotRectangular(ValueError):
    """Some configuration is missing a trace for some instance."""


class TooManySubsets(ValueError):
    """Exhaustive enumeration would exceed the subset cap."""


EXHAUSTIVE_CAP = 10**6


@dataclass(frozen=True)
class TraceDb:
    """config id -> instance id -> GapTrace, rectangular unless ``missing``."""

    traces: dict[str, dict[str, GapTrace]]
    config_ids: tuple[str, ...]
    instance_ids: tuple[str, ...]
    missing: tuple[tuple[str, str], ...] = ()

    def require_rectangular(self) -> None:
        if self.missing:
            raise NotRectangular(f"missing traces for {list(self.missing)}")

    def horizon(self, instance_id: str) -> float:
        return max(self.traces[c][instance_id].horizon for c in self.config_ids)


def build_trace_db(traces: dict[str, dict[str, GapTrace]]) -> TraceDb:
    config_ids = tuple(sorted(traces))
    instance_ids = tuple(sorted({i for per in traces.values() for i in per}))
    missing = tuple(
        (c, i) for c in config_ids for i in instance_ids if i not in traces[c]
    )
    return TraceDb(traces=traces, config_ids=config_ids, instance_ids=instance_ids, missing=missing)


def load_trace_db(root, horizon: float | None = None) -> TraceDb:
    """Read a ``<root>/<config_id>/<instance_id>.csv`` directory layout.

    CSV files carry no horizon of their own: per instance, traces get the
    given ``horizon`` or, failing that, the latest event time seen across
    configurations.
    """
    root = Path(root)
    traces: dict[str, dict[str, GapTrace]] = {}
    for config_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        per_instance = {}
        for csv_path in sorted(config_dir.glob("*.csv")):
            per_instance[csv_path.stem] = read_trace_csv(csv_path)
        traces[config_dir.name] = per_instance
    if not traces:
        raise ValueError(f"no trace directories under {root}")
    db = build_trace_db(traces)
    leveled: dict[str, dict[str, GapTrace]] = {c: {} for c in db.config_ids}
    for instance in db.instance_ids:
        level = horizon
        if level is None:
            level = max(
                db.traces[c][instance].horizon
                for c in db.config_ids
                if instance in db.traces[c]
            )
        for c in db.config_ids:
            if instance in db.traces[c]:
                trace = db.traces[c][instance]
                leveled[c][instance] = GapTrace(points=trace.points, horizon=level)
    return build_trace_db(leveled)


class _InstanceGrid:
    """Step-function view of all configs on one instance over a window.

    Column i holds each config's gap on [grid[i], grid[i+1]); a subset's
    aggregate is the columnwise minimum over its rows, so its primal integral
    is that minimum dotted with the segment durations. Equivalence with
    metrics.aggregate_min/primal_integral is pinned by tests.
    """

    def __init__(self, db: TraceDb, instance_id: str, window: tuple[float, float]):
        t0, t1 = window
        events = sorted(
            {
                t
                for c in db.config_ids
                for (t, _, _) in db.traces[c][instance_id].points
                if t0 < t < t1
            }
        )
        grid = [t0] + events
        edges = grid + [t1]
        self.durations = np.array([edges[i + 1] - edges[i] for i in range(len(grid))])
        self.gaps = np.array(
            [
                [db.traces[c][instance_id].gap_at(t) for t in grid]
                for c in db.config_ids
            ]
        )
        self.finals = np.array(
            [db.traces[c][instance_id].gap_at(t1) for c in db.config_ids]
        )

    def evaluate(self, rows: np.ndarray) -> tuple[float, float]:
        """(final gap, primal integral) of the subset given by row indices."""
        sub = self.gaps[rows]
        pi = float(sub.min(axis=0) @ self.durations)
        final = float(self.finals[rows].min())
        return final, pi


def _grids(db: TraceDb, window) -> list[_InstanceGrid]:
    db.require_rectangular()
    t0, t1 = window
    if not 0 <= t0 <= t1:
        raise ValueError(f"bad window [{t0}, {t1}]")
    for instance in db.instance_ids:
        if t1 > db.horizon(instance) + 1e-9:
            raise ValueError(
                f"window end {t1} beyond horizon of instance {instance!r}"
            )
    return [_InstanceGrid(db, instance, window) for instance in db.instance_ids]


def _subset_performance(grids, rows: np.ndarray) -> tuple[float, float]:
    finals = []
    pis = []
    for grid in grids:
        final, pi = grid.evaluate(rows)
        finals.append(final)
        pis.append(pi)
    return sum(finals) / len(finals), sum(pis) / len(pis)


@dataclass(frozen=True)
class RunRecord:
    config_ids: tuple[str, ...]
    final_gap: float  # averaged over instances
    primal_integral: float

    def to_dict(self) -> dict:
        return {
            "config_ids": list(self.config_ids),
            "final_gap": self.final_gap,
            "primal_integral": self.primal_integral,
        }


@dataclass(frozen=True)
class SimulationReport:
    n: int
    runs: int
    seed: int
    window: tuple[float, float]
    mean_final_gap: float
    std_final_gap: float
    mean_primal_integral: float
    std_primal_integral: float
    best: RunRecord
    worst: RunRecord
    records: tuple[RunRecord, ...]

    def to_dict(self, include_records: bool = False) -> dict:
        out = {
            "n": self.n,
            "runs": self.runs,
            "seed": self.seed,
            "window": list(self.window),
            "final_gap": {"mean": self.mean_final_gap, "std": self.std_final_gap},
            "primal_integral": {
                "mean": self.mean_primal_integral,
                "std": self.std_primal_integral,
            },
            "best": self.best.to_dict(),
            "worst": self.worst.to_dict(),
        }
        if include_records:
            out["records"] = [r.to_dict() for r in self.records]
        return out


def _record_order(record: RunRecord):
    return (record.final_gap, record.primal_integral, record.config_ids)


def simulate(
    db: TraceDb,
    n: int,
    runs: int,
    seed: int,
    window: tuple[float, float],
    stratified: bool = False,
) -> SimulationReport:
    """Monte-Carlo portfolio simulation: ``runs`` uniform n-subsets.

    With ``stratified`` (n must be 1, runs must equal the pool size) each
    configuration is visited exactly once in sorted id order.
    """
    if not 1 <= n <= len(db.config_ids):
        raise ValueError(f"n must be in [1, {len(db.config_ids)}]")
    if runs < 1:
        raise ValueError("runs must be >= 1")
    if stratified and (n != 1 or runs != len(db.config_ids)):
        raise ValueError("stratified mode needs n == 1 and runs == pool size")
    grids = _grids(db, window)
    rng = random.Random(seed)
    indices = list(range(len(db.config_ids)))
    records = []
    for run in range(runs):
        rows = [run] if stratified else sorted(rng.sample(indices, n))
        final, pi = _subset_performance(grids, np.array(rows))
        ids = tuple(db.config_ids[r] for r in rows)
        records.append(RunRecord(ids, final, pi))
    finals = np.array([r.final_gap for r in records])
    pis = np.array([r.primal_integral for r in records])
    best = min(records, key=_record_order)
    worst = max(records, key=lambda r: (r.final_gap, r.primal_integral, r.config_ids))
    return SimulationReport(
        n=n,
        runs=runs,
        seed=seed,
        window=window,
        mean_final_gap=float(finals.mean()),
        std_final_gap=float(finals.std()),
        mean_primal_integral=float(pis.mean()),
        std_primal_integral=float(pis.std()),
        best=best,
        worst=worst,
        records=tuple(records),
    )


@dataclass(frozen=True)
class ExhaustiveReport:
    n: int
    window: tuple[float, float]
    expected_final_gap: float
    expected_primal_integral: float
    variance_final_gap: float
    ranking: tuple[RunRecord, ...]  # every n-subset, best first

    @property
    def best(self) -> RunRecord:
        return self.ranking[0]

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "window": list(self.window),
            "subsets": len(self.ranking),
            "final_gap": {
                "mean": self.expected_final_gap,
                "variance": self.variance_final_gap,
            },
            "primal_integral": {"mean": self.expected_primal_integral},
            "best": self.best.to_dict(),
            "ranking": [r.to_dict() for r in self.ranking],
        }


def exhaustive(db: TraceDb, n: int, window: tuple[float, float]) -> ExhaustiveReport:
    """Exact expectation and full ranking over every n-subset."""
    if not 1 <= n <= len(db.config_ids):
        raise ValueError(f"n must be in [1, {len(db.config_ids)}]")
    count = math.comb(len(db.config_ids), n)
    if count > EXHAUSTIVE_CAP:
        raise TooManySubsets(f"{count} subsets exceed the cap of {EXHAUSTIVE_CAP}")
    grids = _grids(db, window)
    records = []
    for combo in itertools.combinations(range(len(db.config_ids)), n):
        final, pi = _subset_performance(grids, np.array(combo))
        ids = tuple(db.config_ids[r] for r in combo)
        records.append(RunRecord(ids, final, pi))
    finals = np.array([r.final_gap for r in records])
    pis = np.array([r.primal_integral for r in records])
    ranking = tuple(sorted(records, key=_record_order))
    return ExhaustiveReport(
        n=n,
        window=window,
        expected_final_gap=float(finals.mean()),
        expected_primal_integral=float(pis.mean()),
        variance_final_gap=float(finals.var()),
        ranking=ranking,
    )


def rank_configs(db: TraceDb, window: tuple[float, float]) -> list[str]:
    """Config ids sorted by average final gap, ties by primal integral then id."""
    grids = _grids(db, window)
    scored = []
    for k, config_id in enumerate(db.config_ids):
        final, pi = _subset_performance(grids, np.array([k]))
        scored.append((final, pi, config_id))
    scored.sort()
    return [config_id for _, _, config_id in scored]
