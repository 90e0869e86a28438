import itertools
import math
import random
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parlns.metrics import GapTrace, aggregate_min, primal_integral, write_trace_csv
from parlns.simulator import (
    NotRectangular,
    TooManySubsets,
    _grids,
    _masked,
    _positions,
    _subset_gaps,
    _subset_performance,
    build_trace_db,
    exhaustive,
    load_trace_db,
    rank_configs,
    simulate,
)

from support import (
    grid_builds,
    load_trace_db_oracle,
    point_bits,
    random_step_trace,
    subset_performance_oracle,
)


def _synthetic_db(n_configs=6, instances=("a", "b", "c"), seed=1):
    rng = random.Random(seed)
    traces = {}
    for k in range(n_configs):
        traces[f"cfg_{k}"] = {
            inst: random_step_trace(rng, horizon=100.0) for inst in instances
        }
    return build_trace_db(traces)


def test_build_db_flags_missing_pairs():
    db = _synthetic_db()
    broken = {c: dict(per) for c, per in db.traces.items()}
    del broken["cfg_0"]["b"]
    del broken["cfg_4"]["c"]
    with pytest.raises(NotRectangular, match=r"\('cfg_0', 'b'\), \('cfg_4', 'c'\)"):
        build_trace_db(broken)


def test_grid_matches_metrics_path():
    # the vectorized grid evaluation must agree with aggregate_min/primal_integral
    db = _synthetic_db(seed=5)
    rng = random.Random(2)
    window = (10.0, 90.0)
    from parlns.simulator import _grids, _subset_performance

    grids = _grids(db, window)
    for _ in range(50):
        n = rng.randint(1, len(db.config_ids))
        rows = sorted(rng.sample(range(len(db.config_ids)), n))
        final, pi = _subset_performance(grids, np.array(rows))
        finals, pis = [], []
        for inst in db.instance_ids:
            agg = aggregate_min([db.traces[db.config_ids[r]][inst] for r in rows])
            finals.append(agg.gap_at(window[1]))
            pis.append(primal_integral(agg, window[0], window[1]))
        assert final == pytest.approx(sum(finals) / len(finals), abs=1e-12)
        assert pi == pytest.approx(sum(pis) / len(pis), abs=1e-9)


def test_exhaustive_counts_subsets():
    db = _synthetic_db()
    report = exhaustive(db, 2, (0.0, 100.0))
    assert len(report.ranking) == math.comb(6, 2) == 15


def test_exhaustive_cap():
    db = _synthetic_db(n_configs=40, instances=("a",), seed=3)
    with pytest.raises(TooManySubsets):
        exhaustive(db, 20, (0.0, 100.0))


def test_simulate_full_pool_has_zero_variance():
    db = _synthetic_db()
    report = simulate(db, 6, runs=50, seed=1, window=(0.0, 100.0))
    # only one subset exists, so every run is identical
    assert len({r.final_gap for r in report.records}) == 1
    assert report.std_final_gap <= 1e-15
    only = exhaustive(db, 6, (0.0, 100.0))
    assert report.mean_final_gap == pytest.approx(only.expected_final_gap)


def test_simulate_monte_carlo_matches_exhaustive():
    db = _synthetic_db(seed=11)
    oracle = exhaustive(db, 2, (0.0, 100.0))
    runs = 100_000
    report = simulate(db, 2, runs=runs, seed=17, window=(0.0, 100.0))
    sigma = math.sqrt(oracle.variance_final_gap / runs)
    assert abs(report.mean_final_gap - oracle.expected_final_gap) <= 3 * sigma
    assert report.best.config_ids == oracle.best.config_ids


def test_stratified_singletons_reproduce_each_config():
    db = _synthetic_db(seed=7)
    report = simulate(
        db, 1, runs=len(db.config_ids), seed=0, window=(0.0, 100.0), stratified=True
    )
    assert [r.config_ids for r in report.records] == [(c,) for c in db.config_ids]
    singles = exhaustive(db, 1, (0.0, 100.0))
    assert report.mean_final_gap == pytest.approx(singles.expected_final_gap)
    with pytest.raises(ValueError):
        simulate(db, 2, runs=6, seed=0, window=(0.0, 100.0), stratified=True)


def test_simulate_is_bit_reproducible():
    db = _synthetic_db(seed=13)
    first = simulate(db, 3, runs=500, seed=21, window=(5.0, 95.0))
    second = simulate(db, 3, runs=500, seed=21, window=(5.0, 95.0))
    assert first == second


def test_variance_shrinks_with_larger_subsets():
    db = _synthetic_db(seed=19)
    variances = [
        exhaustive(db, n, (0.0, 100.0)).variance_final_gap for n in (1, 2, 4)
    ]
    assert variances[0] >= variances[1] >= variances[2]


def test_dominant_config_tops_every_ranked_subset():
    rng = random.Random(23)
    dominant = GapTrace(points=((1.0, 1.0, 0.0),), horizon=100.0)
    traces = {"star": {"i": dominant}}
    for k in range(4):
        traces[f"cfg_{k}"] = {"i": random_step_trace(rng)}
    db = build_trace_db(traces)
    report = exhaustive(db, 2, (0.0, 100.0))
    # every subset containing the dominant config ranks ahead of those without
    with_star = [r for r in report.ranking if "star" in r.config_ids]
    assert report.ranking[: len(with_star)] == tuple(with_star)


def test_rank_configs_orders_and_tie_breaks():
    a = GapTrace(points=((1.0, 1.0, 0.1),), horizon=100.0)
    b = GapTrace(points=((1.0, 1.0, 0.2),), horizon=100.0)
    db = build_trace_db({"one": {"i": a}, "two": {"i": b}})
    assert rank_configs(db, (0.0, 100.0)) == ["one", "two"]

    # equal final gaps: lower primal integral first
    early = GapTrace(points=((1.0, 1.0, 0.1),), horizon=100.0)
    late = GapTrace(points=((50.0, 1.0, 0.1),), horizon=100.0)
    db = build_trace_db({"late": {"i": late}, "early": {"i": early}})
    assert rank_configs(db, (0.0, 100.0)) == ["early", "late"]

    # fully identical: lexicographic ids
    db = build_trace_db({"bbb": {"i": a}, "aaa": {"i": a}})
    assert rank_configs(db, (0.0, 100.0)) == ["aaa", "bbb"]


def test_db_without_instances_is_a_clear_error(tmp_path):
    # configs with no trace used to reach numpy's "need at least one array
    # to concatenate" inside the grid build
    with pytest.raises(ValueError, match="2 configurations and no instance traces"):
        build_trace_db({"a": {}, "b": {}})
    with pytest.raises(ValueError, match="0 configurations and no instance traces"):
        build_trace_db({})
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    with pytest.raises(ValueError, match="no instance traces"):
        load_trace_db(tmp_path)


def test_load_trace_db_round_trip(tmp_path):
    from parlns.metrics import write_trace_csv

    db = _synthetic_db(seed=29)
    for config_id, per in db.traces.items():
        for inst, trace in per.items():
            path = tmp_path / config_id / f"{inst}.csv"
            path.parent.mkdir(parents=True, exist_ok=True)
            write_trace_csv(trace, path)
    loaded = load_trace_db(tmp_path)
    assert loaded.config_ids == db.config_ids
    assert loaded.instance_ids == db.instance_ids
    for config_id in db.config_ids:
        for inst in db.instance_ids:
            assert loaded.traces[config_id][inst].points == db.traces[config_id][inst].points


# names a config directory may hold: traces, a hidden trace, the bare ".csv"
# (whose stem is itself), names with more dots, and files that are not traces
_TREE_FILES = ["a.csv", "b.csv", ".h.csv", ".csv", "x..csv", "notes.txt", "a.csv.bak", "A.CSV"]


def _db_outcome(load, root, horizon):
    try:
        db = load(root, horizon=horizon)
    except ValueError as exc:
        return type(exc), str(exc)
    traces = {
        (c, i): (point_bits(trace.points), trace.horizon)
        for c, per in db.traces.items()
        for i, trace in per.items()
    }
    return db.config_ids, db.instance_ids, traces


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.sampled_from(["c1", "c2", ".c3", "c 4"]), min_size=1, max_size=4, unique=True),
    st.sets(st.sampled_from(_TREE_FILES), min_size=1),
    st.integers(0, 2),
    st.sampled_from([None, 100.0]),
    st.integers(0, 2**16),
)
def test_load_trace_db_matches_pathlib_listing(configs, files, empty, horizon, seed):
    # the last `empty` configs hold no files, which leaves the db not
    # rectangular (or without instances): then both refuse it alike
    rng = random.Random(seed)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "top.csv").write_text("t_seconds,objective,gap\n")
        for k, config in enumerate(configs):
            (root / config).mkdir()
            if k >= len(configs) - empty:
                continue
            for name in files:
                write_trace_csv(random_step_trace(rng), root / config / name)
        assert _db_outcome(load_trace_db, root, horizon) == _db_outcome(
            load_trace_db_oracle, root, horizon
        )


def test_horizons_bound_the_window_per_instance():
    short = GapTrace(points=((1.0, 1.0, 0.5),), horizon=40.0)
    db = build_trace_db(
        {
            "x": {"a": short, "b": GapTrace(points=(), horizon=60.0)},
            "y": {"a": GapTrace(points=(), horizon=50.0), "b": short},
        }
    )
    assert db.horizons == (50.0, 60.0)
    simulate(db, 1, 2, 0, (0.0, 50.0))
    with pytest.raises(ValueError, match="window end 50.5 beyond horizon of instance 'a'"):
        simulate(db, 1, 2, 0, (0.0, 50.5))


# --- the grid against the metrics path, on the window's edge cases ----------

# half-second times on a 10 s horizon: configs often share event times, and
# points fall before t0, on t0 or t1, and after t1 < horizon
_TIMES = st.sampled_from([k / 2 for k in range(21)])


@st.composite
def _step_points(draw):
    times = sorted(draw(st.sets(_TIMES, max_size=5)))
    gaps = draw(st.lists(st.floats(0.0, 1.0), min_size=len(times), max_size=len(times)))
    return list(zip(times, sorted(gaps, reverse=True)))


@st.composite
def _db_specs(draw):
    instances = draw(st.integers(1, 3))
    configs = draw(st.integers(1, 4))
    steps = [[draw(_step_points()) for _ in range(instances)] for _ in range(configs)]
    t0, t1 = sorted(draw(st.lists(_TIMES, min_size=2, max_size=2)))
    return steps, (t0, t1)


def _spec_db(steps, horizon=10.0):
    return build_trace_db({
        f"c{k}": {
            f"i{j}": GapTrace(tuple((t, 1.0 + g, g) for t, g in pts), horizon)
            for j, pts in enumerate(per)
        }
        for k, per in enumerate(steps)
    })


def _check_positions(grid, rows, sides):
    """The subset's entry positions equal the sort of its members' entries
    on either side of the merge-or-mask rule; the side is added to ``sides``."""
    merged = np.sort(np.concatenate([grid.members[r] for r in rows]))
    assert np.array_equal(_positions(grid, rows), merged)
    sides.add(_masked(grid, rows))


def test_grid_matches_aggregate_min_on_every_subset():
    # a subset of more than a quarter of the configs is read off the member
    # mask and a smaller one merged by a sort: with up to 4 configs, the
    # singletons of 4 are merged and every other subset is masked
    sides = set()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_db_specs())
    # points before t0 only: they set the gap the window opens with
    @example(([[[(1.0, 0.5)]], [[(0.5, 0.75), (2.0, 0.25)]]], (3.0, 8.0)))
    # points on t0 and t1, shared across configs, and after t1 < horizon
    @example(([[[(3.0, 0.5), (8.0, 0.25)]], [[(3.0, 0.75), (8.0, 0.125), (9.5, 0.0)]]], (3.0, 8.0)))
    # empty traces, alone and next to others
    @example(([[[], [(4.0, 0.5)]], [[], []]], (2.0, 6.0)))
    # an empty window, on a point and between points
    @example(([[[(5.0, 0.5)]], [[(2.0, 0.25), (7.0, 0.0)]]], (5.0, 5.0)))
    @example(([[[(5.0, 0.5)]], [[(2.0, 0.25), (7.0, 0.0)]]], (6.0, 6.0)))
    # several points at or before t0 in one cell: the latest one sets it
    @example(([[[(0.5, 0.75), (1.0, 0.5), (2.0, 0.25)]], [[(3.0, 0.5)]]], (2.0, 6.0)))
    # every point after t1: the row stays at 1
    @example(([[[(7.0, 0.5), (9.0, 0.25)]], [[(3.0, 0.5)]]], (2.0, 6.0)))
    # a point at time 0 on a window that opens at 0
    @example(([[[(0.0, 0.5), (4.0, 0.25)]], [[(2.0, 0.75)]]], (0.0, 5.0)))
    # a gap above 1 and a rise within GapTrace's 1e-12 tolerance: the aggregate
    # is capped at 1 and never rises, so these score (1, 3) and (0.5, 2)
    @example(([[[(1.0, 1.5)]]], (0.0, 3.0)))
    @example(([[[(1.0, 0.5), (2.0, 0.5 + 5e-13)]]], (0.0, 3.0)))
    def check(spec):
        steps, window = spec
        db = _spec_db(steps)
        t0, t1 = window
        grid = _grids(db, window)
        edges = {}
        for inst, (lo, hi, _) in zip(db.instance_ids, grid.spans):
            traces = [db.traces[c][inst] for c in db.config_ids]
            events = sorted({t for trace in traces for t, _, _ in trace.points if t0 < t < t1})
            edges[inst] = [t0, *events, t1]
            assert hi - lo + 1 == len(edges[inst])
        for n in range(1, len(db.config_ids) + 1):
            for rows in itertools.combinations(range(len(db.config_ids)), n):
                _check_positions(grid, rows, sides)
                low = _subset_gaps(grid, np.array(rows))
                final, pi = _subset_performance(grid, np.array(rows))
                finals, pis = [], []
                for inst, (lo, hi, _) in zip(db.instance_ids, grid.spans):
                    agg = aggregate_min([db.traces[db.config_ids[r]][inst] for r in rows])
                    # column by column: the aggregate's gap at the start edge
                    assert list(low[lo : hi + 1]) == [agg.gap_at(t) for t in edges[inst]]
                    assert low[hi] == agg.gap_at(t1)
                    finals.append(agg.gap_at(t1))
                    pis.append(primal_integral(agg, t0, t1))
                assert final == sum(finals) / len(finals)
                assert pi == pytest.approx(sum(pis) / len(pis), abs=1e-12)

    check()
    assert sides == {False, True}


def test_subset_performance_matches_the_dense_grid_bit_for_bit():
    sides = set()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_db_specs())
    def check(spec):
        steps, window = spec
        db = _spec_db(steps)
        grid = _grids(db, window)
        for n in range(1, len(db.config_ids) + 1):
            for rows in itertools.combinations(range(len(db.config_ids)), n):
                _check_positions(grid, rows, sides)
                assert _subset_performance(grid, rows) == subset_performance_oracle(db, window, rows)

    check()
    assert sides == {False, True}


def test_merge_or_mask_reads_the_subset_size_against_the_pool():
    grid = _grids(_synthetic_db(n_configs=180, instances=("a",)), (10.0, 90.0))
    assert [n for n in (1, 2, 8, 32, 45, 46, 128, 180) if _masked(grid, range(n))] == [46, 128, 180]


# --- one grid per window, kept by the db ---------------------------------------


def test_db_builds_each_window_grid_once(monkeypatch):
    calls = grid_builds(monkeypatch)
    db = _pinned_db()
    grid = db.grid((2.0, 12.0))
    assert db.grid((2.0, 12.0)) is grid
    assert db.grid([2.0, 12.0]) is grid
    rank_configs(db, (2.0, 12.0))
    simulate(db, 2, 10, 0, (2.0, 12.0))
    exhaustive(db, 3, (2.0, 12.0))
    other = db.grid((0.0, 16.0))
    assert other is not grid and db.grid((0.0, 16.0)) is other
    assert calls == [(2.0, 12.0), (0.0, 16.0)]
    # the kept grids are no part of the db's equality
    assert db == _pinned_db()


def test_a_bad_window_raises_on_every_call(monkeypatch):
    calls = grid_builds(monkeypatch)
    db = _pinned_db()
    for window, match in (((5.0, 2.0), "bad window"), ((2.0, 16.5), "beyond horizon")):
        for _ in range(2):
            with pytest.raises(ValueError, match=match):
                db.grid(window)
            with pytest.raises(ValueError, match=match):
                simulate(db, 2, 3, 0, window)
    assert len(calls) == 8


@pytest.mark.parametrize("window", [(2.0, 12.0), (0.0, 16.0), (4.0, 4.0)])
def test_records_from_a_kept_grid_equal_a_fresh_db(window):
    db = _pinned_db()
    for n in (1, 2, 4):
        assert simulate(db, n, 40, n, window) == simulate(_pinned_db(), n, 40, n, window)
        assert exhaustive(db, n, window) == exhaustive(_pinned_db(), n, window)
    assert rank_configs(db, window) == rank_configs(_pinned_db(), window)


# --- exact results on a fixed db, recorded before the array grid -------------


def _pinned_db():
    # dyadic times and gaps: every product and partial sum is exact, so the
    # results do not depend on how a BLAS kernel orders a dot product. On the
    # window (2, 12) there are points before t0, on t0 and on t1 (shared by
    # several configs), after t1 within the 16 s horizon, and empty traces
    steps = {
        "alpha": {"i": [(1.0, 0.75), (4.0, 0.5), (12.0, 0.25)], "j": [(2.0, 0.5), (14.0, 0.125)]},
        "beta": {"i": [(2.0, 0.875), (4.0, 0.375)], "j": []},
        "gamma": {"i": [(4.0, 0.625), (8.0, 0.5), (15.5, 0.0)], "j": [(8.0, 0.25)]},
        "delta": {"i": [], "j": [(0.5, 0.9375), (2.0, 0.625), (12.0, 0.5)]},
        "eps": {"i": [(12.0, 0.5)], "j": [(3.0, 0.75), (6.5, 0.0625), (13.0, 0.03125)]},
    }
    return build_trace_db({
        c: {i: GapTrace(tuple((t, 10.0 + g, g) for t, g in pts), 16.0) for i, pts in per.items()}
        for c, per in steps.items()
    })


def test_pinned_simulate():
    report = simulate(_pinned_db(), 3, runs=25, seed=8, window=(2.0, 12.0))
    assert report.mean_final_gap == 0.23
    assert report.std_final_gap == 0.06782329983125268
    assert report.mean_primal_integral == 4.38625
    assert report.std_primal_integral == 0.3473538361670992
    assert report.best.config_ids == ("alpha", "beta", "eps")
    assert report.worst.config_ids == ("alpha", "beta", "delta")
    assert [(r.config_ids, r.final_gap, r.primal_integral) for r in report.records[:4]] == [
        (("beta", "delta", "gamma"), 0.3125, 4.75),
        (("beta", "delta", "gamma"), 0.3125, 4.75),
        (("alpha", "eps", "gamma"), 0.15625, 4.046875),
        (("beta", "eps", "gamma"), 0.21875, 4.359375),
    ]


def test_pinned_exhaustive():
    report = exhaustive(_pinned_db(), 2, (2.0, 12.0))
    assert report.expected_final_gap == 0.30625
    assert report.expected_primal_integral == 5.196875
    assert report.variance_final_gap == 0.0066015625
    assert report.best.final_gap == 0.15625
    assert report.best.primal_integral == 4.046875
    assert [r.config_ids for r in report.ranking] == [
        ("alpha", "eps"), ("beta", "eps"), ("alpha", "gamma"), ("eps", "gamma"),
        ("delta", "eps"), ("beta", "gamma"), ("alpha", "beta"), ("alpha", "delta"),
        ("delta", "gamma"), ("beta", "delta"),
    ]


def test_pinned_rank_configs():
    assert rank_configs(_pinned_db(), (2.0, 12.0)) == ["eps", "alpha", "gamma", "beta", "delta"]


# --- closed-form expectations as an oracle for exhaustive ---------------------


def _expected_min(column, n):
    """E[min over a uniform n-subset] of a column of N values: the k-th
    smallest is the minimum of C(N - k, n - 1) of the C(N, n) subsets."""
    ordered = sorted(column)
    total = math.comb(len(ordered), n)
    return sum(g * math.comb(len(ordered) - k, n - 1) for k, g in enumerate(ordered, 1)) / total


def _closed_form(db, n, window):
    """Expected (final gap, primal integral), averaged over instances, from
    each config's gap at every segment start, read with gap_at."""
    t0, t1 = window
    finals, pis = [], []
    for inst in db.instance_ids:
        traces = [db.traces[c][inst] for c in db.config_ids]
        events = sorted({t for tr in traces for t, _, _ in tr.points if t0 < t < t1})
        starts = [t0] + events
        durations = [b - a for a, b in zip(starts, events + [t1])]
        pis.append(sum(
            d * _expected_min([tr.gap_at(s) for tr in traces], n) for s, d in zip(starts, durations)
        ))
        finals.append(_expected_min([tr.gap_at(t1) for tr in traces], n))
    return sum(finals) / len(finals), sum(pis) / len(pis)


@pytest.mark.parametrize("seed", [3, 31, 47])
@pytest.mark.parametrize("window", [(0.0, 10.0), (2.5, 7.5), (4.0, 4.0)])
def test_exhaustive_expectations_match_closed_form(seed, window):
    rng = random.Random(seed)
    db = build_trace_db({
        f"cfg_{k}": {inst: random_step_trace(rng, horizon=10.0) for inst in ("a", "b")}
        for k in range(6)
    })
    for n in range(1, len(db.config_ids) + 1):
        report = exhaustive(db, n, window)
        final, pi = _closed_form(db, n, window)
        assert report.expected_final_gap == pytest.approx(final, abs=1e-12)
        assert report.expected_primal_integral == pytest.approx(pi, abs=1e-12)


def test_exhaustive_expectations_match_closed_form_on_pinned_db():
    db = _pinned_db()
    for n in range(1, len(db.config_ids) + 1):
        report = exhaustive(db, n, (2.0, 12.0))
        final, pi = _closed_form(db, n, (2.0, 12.0))
        assert report.expected_final_gap == pytest.approx(final, abs=1e-12)
        assert report.expected_primal_integral == pytest.approx(pi, abs=1e-12)
