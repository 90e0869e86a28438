"""Portfolio simulation over recorded gap traces.

Given a database of per-configuration, per-instance traces, estimate how a
portfolio of n configurations performs by sampling subsets uniformly without
replacement, aggregating each subset's traces by pointwise minimum, and
averaging final gap and primal integral across instances. An exhaustive
enumerator provides the exact expectation for small pools, and a ranking
operation orders configurations for reduced-pool planning.

All three build one array grid per call: every configuration's gap on every
instance, one column per event time inside the window. Each point is placed
by ``np.searchsorted``, and the grid is written by run length: the entries
(a gap of 1 where a configuration opens an instance, then its points) are
put in cell order with one stable sort, and one ``np.repeat`` carries each
entry forward to the next. A subset is then a columnwise minimum over its
rows and one dot product per instance.
"""

import itertools
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .metrics import GapTrace, read_trace_points


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
    if not instance_ids:
        raise ValueError(f"trace db has {len(config_ids)} configurations and no instance traces")
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
    points = {
        folder.name: {path.stem: read_trace_points(path) for path in sorted(folder.glob("*.csv"))}
        for folder in sorted(p for p in root.iterdir() if p.is_dir())
    }
    if not points:
        raise ValueError(f"no trace directories under {root}")
    latest: dict[str, float] = {}
    for per in points.values():
        for instance, pts in per.items():
            latest[instance] = max(latest.get(instance, 0.0), pts[-1][0] if pts else 0.0)
    traces: dict[str, dict[str, GapTrace]] = {c: {} for c in points}
    for c, per in points.items():
        for instance, pts in per.items():
            level = latest[instance] if horizon is None else horizon
            try:
                traces[c][instance] = GapTrace(pts, level)
            except ValueError as exc:
                # a file that is bad on its own says why, as when read alone
                try:
                    GapTrace(pts, pts[-1][0] if pts else 0.0)
                except ValueError as own:
                    exc = own
                raise ValueError(f"{root / c / instance}.csv: {exc}") from None
    return build_trace_db(traces)


@dataclass(frozen=True)
class _Grid:
    """Every config's gap on every instance over a window, as one matrix.

    Instance i owns columns lo..hi of ``gaps``, for ``(lo, hi, d) = spans[i]``.
    Column lo + j holds the gap on [start_j, start_j+1), where the starts are
    t0 and each event time of any config strictly inside (t0, t1), and ``d``
    holds their durations; column hi holds the gap at t1. Points at or before
    t0 set column lo, points after t1 no column, and of several points in one
    cell the latest sets it. A row is built by run length: each entry fills
    its cell and the cells after it up to the next entry. Equivalence with
    metrics.aggregate_min, primal_integral and GapTrace.gap_at is pinned by
    tests.
    """

    gaps: np.ndarray  # (configs, columns of every instance)
    spans: tuple[tuple[int, int, np.ndarray], ...]


def _grids(db: TraceDb, window) -> _Grid:
    db.require_rectangular()
    t0, t1 = window
    if not 0 <= t0 <= t1:
        raise ValueError(f"bad window [{t0}, {t1}]")
    for instance in db.instance_ids:
        if t1 > db.horizon(instance) + 1e-9:
            raise ValueError(f"window end {t1} beyond horizon of instance {instance!r}")
    configs = len(db.config_ids)
    spans, owners, columns, values = [], [], [], []
    lo = 0
    for instance in db.instance_ids:
        traces = [db.traces[c][instance].points for c in db.config_ids]
        flat = np.fromiter(
            itertools.chain.from_iterable(itertools.chain.from_iterable(traces)), float
        ).reshape(-1, 3)
        owner = np.repeat(np.arange(configs), [len(pts) for pts in traces])
        events = np.unique(flat[:, 0])
        edges = np.concatenate(([t0], events[(t0 < events) & (events < t1)], [t1]))
        # a point sets the column of the first edge at or after it, and on
        column = np.searchsorted(edges, flat[:, 0], side="left")
        seen = column < len(edges)
        # every config enters the instance at a gap of 1, ahead of its points
        owners += [np.arange(configs), owner[seen]]
        columns += [np.full(configs, lo), lo + column[seen]]
        values += [np.ones(configs), flat[seen, 2]]
        spans.append((lo, lo + len(edges) - 1, np.diff(edges)))
        lo += len(edges)
    # entries in cell order, later entries of one cell after earlier ones
    cell = np.concatenate(owners) * lo + np.concatenate(columns)
    order = np.argsort(cell, kind="stable")
    cell = cell[order]
    # each entry fills the cells up to the next entry's: all but the last
    # entry of a cell fill none, and as every config opens every instance
    # with an entry of its own, the runs tile the grid
    runs = np.diff(np.append(cell, configs * lo))
    gaps = np.repeat(np.concatenate(values)[order], runs).reshape(configs, lo)
    return _Grid(gaps, tuple(spans))


def _subset_performance(grid: _Grid, rows) -> tuple[float, float]:
    """(final gap, primal integral) of the subset given by row indices,
    each averaged over instances."""
    low = grid.gaps[rows[0]].copy()
    for row in rows[1:]:
        np.minimum(low, grid.gaps[row], out=low)
    finals = [float(low[hi]) for _, hi, _ in grid.spans]
    pis = [float(low[lo:hi] @ durations) for lo, hi, durations in grid.spans]
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
    grid = _grids(db, window)
    rng = random.Random(seed)
    indices = list(range(len(db.config_ids)))
    records = []
    for run in range(runs):
        rows = [run] if stratified else sorted(rng.sample(indices, n))
        final, pi = _subset_performance(grid, rows)
        ids = tuple(db.config_ids[r] for r in rows)
        records.append(RunRecord(ids, final, pi))
    finals = np.array([r.final_gap for r in records])
    pis = np.array([r.primal_integral for r in records])
    best = min(records, key=_record_order)
    worst = max(records, key=_record_order)
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
    grid = _grids(db, window)
    records = []
    for combo in itertools.combinations(range(len(db.config_ids)), n):
        final, pi = _subset_performance(grid, combo)
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
    grid = _grids(db, window)
    scored = []
    for k, config_id in enumerate(db.config_ids):
        final, pi = _subset_performance(grid, [k])
        scored.append((final, pi, config_id))
    scored.sort()
    return [config_id for _, _, config_id in scored]
