"""Portfolio simulation over recorded gap traces.

Given a database of per-configuration, per-instance traces, estimate how a
portfolio of n configurations performs by sampling subsets uniformly without
replacement, aggregating each subset's traces by pointwise minimum, and
averaging final gap and primal integral across instances. As in
``metrics.aggregate_min``, an aggregate is capped at 1 and never rises: it
is the running minimum of the members' gaps from 1. An exhaustive
enumerator provides the exact expectation for small pools, and a ranking
operation orders configurations for reduced-pool planning.

All three read the db's grid of their window, which the db builds on first
use and keeps: every configuration's trace entries on every instance (a gap
of 1 where it opens the instance, then its points), each placed by
``np.searchsorted`` in a column, one column per event time inside the window.
A subset gathers its members' entries, takes their running minimum per
instance, and spreads it over the columns with one run-length ``np.repeat``;
one dot product per instance then gives its primal integral. A subset of at
most a quarter of the configurations merges its members' entry lists with
one sort, so its cost follows its own entries; a larger one reads the
entries whose owner is a member off a mask, in one pass over the grid.
"""

import itertools
import math
import os
import random
from dataclasses import dataclass, field
from functools import cached_property
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
    """config id -> instance id -> GapTrace, rectangular: every config has a
    trace for every instance (``build_trace_db`` checks it).

    The traces' points are also kept as arrays (``point_arrays``), and each
    instance's horizon (``horizons``), both built once on first use, so that
    each grid only checks its window and places the points for it. Each
    window's grid is built on first use too, and kept (``grid``): it is
    derived from the traces alone, like the arrays, and no part of equality.
    """

    traces: dict[str, dict[str, GapTrace]]
    config_ids: tuple[str, ...]
    instance_ids: tuple[str, ...]
    _window_grids: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def horizons(self) -> tuple[float, ...]:
        """Per instance, the latest horizon of its traces, computed on first use."""
        return tuple(
            max(self.traces[c][instance].horizon for c in self.config_ids)
            for instance in self.instance_ids
        )

    @cached_property
    def point_arrays(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], ...]:
        """Per instance, every config's points as arrays, built on first use:
        times, gaps and owning config index in time order (ties in config
        order), and the distinct event times."""
        arrays = []
        for instance in self.instance_ids:
            traces = [self.traces[c][instance].points for c in self.config_ids]
            flat = np.fromiter(
                itertools.chain.from_iterable(itertools.chain.from_iterable(traces)), float
            ).reshape(-1, 3)
            owner = np.repeat(np.arange(len(traces)), [len(pts) for pts in traces])
            order = np.argsort(flat[:, 0], kind="stable")
            times = flat[order, 0]
            arrays.append((times, flat[order, 2], owner[order], np.unique(times)))
        return tuple(arrays)

    def grid(self, window) -> "_Grid":
        """The window's grid, built on its first use and kept; a bad window
        raises on every call, since nothing is kept for it. Two threads may
        both build a grid that neither found: they are equal, and one is kept."""
        key = tuple(window)
        grid = self._window_grids.get(key)
        if grid is None:
            grid = self._window_grids[key] = _grids(self, key)
        return grid


def build_trace_db(traces: dict[str, dict[str, GapTrace]]) -> TraceDb:
    config_ids = tuple(sorted(traces))
    instance_ids = tuple(sorted({i for per in traces.values() for i in per}))
    if not instance_ids:
        raise ValueError(f"trace db has {len(config_ids)} configurations and no instance traces")
    missing = [(c, i) for c in config_ids for i in instance_ids if i not in traces[c]]
    if missing:
        raise NotRectangular(f"missing traces for (config, instance) pairs {missing}")
    return TraceDb(traces=traces, config_ids=config_ids, instance_ids=instance_ids)


def _listing(path, keep) -> list[tuple[str, str]]:
    """(name, path) of the entries of one directory scan that ``keep``
    accepts, in name order."""
    with os.scandir(path) as entries:
        return sorted((entry.name, entry.path) for entry in entries if keep(entry))


def _is_trace(entry: os.DirEntry) -> bool:
    return entry.name.endswith(".csv") and entry.is_file()


def load_trace_db(root, horizon: float | None = None) -> TraceDb:
    """Read a ``<root>/<config_id>/<instance_id>.csv`` directory layout.

    The root and each config directory are listed with one scan each, in
    name order: the root's subdirectories are the configs, and a config's
    regular files named ``*.csv`` are its traces. Each trace is read with
    one call, and every trace is parsed and validated before this returns;
    an error names the file. CSV files carry no horizon of their own: per
    instance, traces get the given ``horizon`` or, failing that, the latest
    event time seen across configurations.
    """
    root = Path(root)
    # the instance id is the file's stem: ".csv" alone has no suffix
    paths = {
        config: {name[:-4] or name: path for name, path in _listing(folder, _is_trace)}
        for config, folder in _listing(root, os.DirEntry.is_dir)
    }
    if not paths:
        raise ValueError(f"no trace directories under {root}")
    points = {c: {i: read_trace_points(p) for i, p in per.items()} for c, per in paths.items()}
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
                raise ValueError(f"{paths[c][instance]}: {exc}") from None
    return build_trace_db(traces)


@dataclass(frozen=True)
class _Grid:
    """Every config's trace entries over a window, in column order.

    Instance i owns columns lo..hi, for ``(lo, hi, d) = spans[i]``. Column
    lo + j stands for [start_j, start_j+1), where the starts are t0 and each
    event time of any config strictly inside (t0, t1), and ``d`` holds their
    durations; column hi stands for t1. An entry is a gap placed in a column:
    each config opens each instance with a gap of 1 in column lo, and each
    point sets the column of the first edge at or after it, so points at or
    before t0 land in column lo and points after t1 in none. ``columns`` and
    ``gaps`` hold the entries of every instance in column order, instance i's
    up to index ``ends[i]``; ``owners`` holds each entry's config index, and
    ``members[k]`` holds config k's entry positions in ascending order.
    """

    columns: np.ndarray  # column of each entry, non-decreasing
    gaps: np.ndarray  # gap of each entry
    ends: np.ndarray  # index past each instance's last entry
    owners: np.ndarray  # config index of each entry
    members: tuple[np.ndarray, ...]  # per config, its entry positions
    spans: tuple[tuple[int, int, np.ndarray], ...]
    size: int  # columns of every instance


def _grids(db: TraceDb, window) -> _Grid:
    """The window's grid, from the db's point arrays: per instance, the
    opening entries and then the points at or before t1, in time order."""
    t0, t1 = window
    if not 0 <= t0 <= t1:
        raise ValueError(f"bad window [{t0}, {t1}]")
    for instance, horizon in zip(db.instance_ids, db.horizons):
        if t1 > horizon + 1e-9:
            raise ValueError(f"window end {t1} beyond horizon of instance {instance!r}")
    configs = len(db.config_ids)
    spans, owners, columns, gaps, ends = [], [], [], [], []
    lo = entries = 0
    for times, values, owner, events in db.point_arrays:
        inside = events[np.searchsorted(events, t0, "right") : np.searchsorted(events, t1, "left")]
        edges = np.concatenate(([t0], inside, [t1]))
        # points are in time order, so the ones at or before t1 come first
        # and their columns do not decrease
        seen = np.searchsorted(times, t1, "right")
        owners += [np.arange(configs), owner[:seen]]
        columns += [np.full(configs, lo), lo + np.searchsorted(edges, times[:seen], "left")]
        gaps += [np.ones(configs), values[:seen]]
        spans.append((lo, lo + len(edges) - 1, np.diff(edges)))
        lo += len(edges)
        entries += configs + seen
        ends.append(entries)
    owners = np.concatenate(owners)
    order = np.argsort(owners, kind="stable")
    members = tuple(np.split(order, np.cumsum(np.bincount(owners))[:-1]))
    return _Grid(
        np.concatenate(columns), np.concatenate(gaps), np.array(ends), owners, members,
        tuple(spans), lo,
    )


def _masked(grid: _Grid, rows) -> bool:
    """Whether the subset's entries are read off a member mask: a pass over
    every entry of the grid, which costs the same at any size, against a
    sort of the members' entries, which costs less for a few members (on
    180 configs the two are even near 32 members)."""
    return 4 * len(rows) > len(grid.members)


def _positions(grid: _Grid, rows) -> np.ndarray:
    """The subset's entry positions in ascending order."""
    if _masked(grid, rows):
        mask = np.zeros(len(grid.members), bool)
        mask.put(rows, True)
        return np.flatnonzero(mask[grid.owners])
    return np.sort(np.concatenate([grid.members[r] for r in rows]))


def _subset_gaps(grid: _Grid, rows) -> np.ndarray:
    """The subset's aggregate gap in every column: per instance, the running
    minimum of its members' entries from 1, each carried forward to the next
    entry's column. Equivalence with metrics.aggregate_min, primal_integral
    and GapTrace.gap_at is pinned by tests."""
    positions = _positions(grid, rows)
    low = grid.gaps[positions]
    start = 0
    for end in np.searchsorted(positions, grid.ends).tolist():
        np.minimum.accumulate(low[start:end], out=low[start:end])
        start = end
    # every member opens every instance, so the entries' runs tile the columns
    columns = grid.columns[positions]
    runs = np.empty_like(columns)
    np.subtract(columns[1:], columns[:-1], out=runs[:-1])
    runs[-1] = grid.size - columns[-1]
    return np.repeat(low, runs)


def _subset_performance(grid: _Grid, rows) -> tuple[float, float]:
    """(final gap, primal integral) of the subset given by row indices,
    each averaged over instances: the gap in each instance's last column,
    and the dot product of its other columns with their durations."""
    low = _subset_gaps(grid, rows)
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

    def to_dict(self) -> dict:
        return {
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


def _records(db: TraceDb, window, subsets) -> list[RunRecord]:
    """One record per subset of row indices, scored on the window's grid."""
    grid = db.grid(window)
    return [
        RunRecord(tuple(db.config_ids[r] for r in rows), *_subset_performance(grid, rows))
        for rows in subsets
    ]


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
    rng = random.Random(seed)
    indices = list(range(len(db.config_ids)))
    subsets = ([run] if stratified else sorted(rng.sample(indices, n)) for run in range(runs))
    records = _records(db, window, subsets)
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
    records = _records(db, window, itertools.combinations(range(len(db.config_ids)), n))
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
    """Config ids sorted by average final gap, ties by primal integral then id:
    the order of ``exhaustive``'s ranking of singletons."""
    return [record.config_ids[0] for record in exhaustive(db, 1, window).ranking]
