import json

import pytest

import parlns.cli
import parlns.orchestrator
from parlns.cli import EXIT_DATA, EXIT_EMPTY, EXIT_OK, main
from parlns.instances import knapsack
from parlns.mps import write_mps

from support import grid_builds, tiny_cover_model


def _search_started(*args, **kwargs):
    raise AssertionError("the search started")


def _write_instance(tmp_path, model, name="inst.mps"):
    path = tmp_path / name
    path.write_text(write_mps(model))
    return path


def test_gen_configs_writes_pool_and_is_byte_identical(tmp_path):
    out1 = tmp_path / "a" / "pool.json"
    out2 = tmp_path / "b" / "pool.json"
    for out in (out1, out2):
        code = main(["gen-configs", "--size", "180", "--seed", "7", "--out", str(out)])
        assert code == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    assert len(json.loads(out1.read_text())) == 180


def test_gen_configs_usage_errors(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["gen-configs", "--size", "0", "--seed", "1", "--out", str(tmp_path / "p.json")])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["gen-configs", "--size", str(10**9), "--seed", "1", "--out", str(tmp_path / "p.json")])
    assert err.value.code == 2


def test_solve_writes_trace_and_summary(tmp_path):
    model = knapsack(12, seed=1)
    instance = _write_instance(tmp_path, model)
    out_dir = tmp_path / "run"
    code = main(
        [
            "solve",
            "--instance",
            str(instance),
            "--seconds",
            "1.0",
            "--seed",
            "1",
            "--clock",
            "simulated",
            "--out-dir",
            str(out_dir),
        ]
    )
    assert code == EXIT_OK
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["status"] == "ok"
    assert summary["config_id"] == "default"
    assert (out_dir / "trace.csv").read_text().startswith("t_seconds,objective,gap")

    from support import binary_optimum

    optimum = model.to_external_objective(binary_optimum(model))
    assert summary["objective"] == optimum  # small instance solves to optimality


def test_solve_instance_without_columns_exits_0(tmp_path):
    instance = tmp_path / "empty.mps"
    instance.write_text("NAME empty\nROWS\n N obj\nCOLUMNS\nRHS\nENDATA\n")
    out_dir = tmp_path / "run"
    code = main(["solve", "--instance", str(instance), "--seconds", "1.0", "--seed", "1",
                 "--clock", "simulated", "--out-dir", str(out_dir)])
    assert code == EXIT_OK
    summary = json.loads((out_dir / "summary.json").read_text())
    assert (summary["status"], summary["objective"], summary["iterations"]) == ("ok", 0.0, 0)


def test_solve_missing_instance_is_data_error(tmp_path):
    code = main(
        [
            "solve",
            "--instance",
            str(tmp_path / "nope.mps"),
            "--seconds",
            "1",
            "--out-dir",
            str(tmp_path / "o"),
        ]
    )
    assert code == EXIT_DATA


def test_solve_zero_seconds_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(
            [
                "solve",
                "--instance",
                "x.mps",
                "--seconds",
                "0",
                "--out-dir",
                str(tmp_path),
            ]
        )
    assert err.value.code == 2


@pytest.mark.parametrize(
    "flag, value",
    [("--seconds", "nan"), ("--seconds", "inf"), ("--node-seconds", "nan"), ("--node-seconds", "0")],
)
def test_solve_budget_that_cannot_end_is_usage_error(tmp_path, capsys, monkeypatch, flag, value):
    # NaN passed `<= 0` and the worker never reached its deadline
    monkeypatch.setattr(parlns.cli, "run_worker", _search_started)
    instance = _write_instance(tmp_path, knapsack(10, seed=2))
    args = ["solve", "--instance", str(instance), "--seconds", "1", "--clock", "simulated"]
    args += [flag, value, "--out-dir", str(tmp_path / "o")]
    with pytest.raises(SystemExit) as err:
        main(args)
    assert err.value.code == 2
    assert f"{flag} must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_solve_reference_that_is_not_finite_is_usage_error(tmp_path, capsys, monkeypatch, value):
    # a NaN reference made every gap min(1, nan) = 1, printed as a result
    monkeypatch.setattr(parlns.cli, "run_worker", _search_started)
    instance = _write_instance(tmp_path, knapsack(12, seed=2))
    args = ["solve", "--instance", str(instance), "--seconds", "1", "--clock", "simulated"]
    args += [f"--reference={value}", "--out-dir", str(tmp_path / "o")]
    with pytest.raises(SystemExit) as err:
        main(args)
    assert err.value.code == 2
    assert "--reference must be finite" in capsys.readouterr().err


def test_solve_infeasible_instance_exits_4(tmp_path):
    from parlns.model import BINARY, GE, LE, MINIMIZE, LinearConstraint, Variable, make_model

    model = make_model(
        "inf",
        MINIMIZE,
        [Variable("x", BINARY)],
        [
            LinearConstraint("ge", {0: 1.0}, GE, 1.0),
            LinearConstraint("le", {0: 1.0}, LE, 0.0),
        ],
        {0: 1.0},
    )
    instance = _write_instance(tmp_path, model)
    code = main(
        [
            "solve",
            "--instance",
            str(instance),
            "--seconds",
            "0.5",
            "--clock",
            "simulated",
            "--out-dir",
            str(tmp_path / "o"),
        ]
    )
    assert code == EXIT_EMPTY


_TWO_COLUMNS = """NAME two
ROWS
 N  OBJ
 L  c1
COLUMNS
    x  OBJ  1.0  c1  1.0
    y  OBJ  1.0  c1  1.0
RHS
    RHS1  c1  4.0
ENDATA
"""


@pytest.mark.parametrize("old, new, named", [
    ("RHS1  c1  4.0", "RHS1  c1  nan", "'c1'"),
    ("y  OBJ  1.0  c1  1.0", "y  OBJ  1.0  c1  inf", "'c1'"),
])
def test_solve_on_non_finite_model_data_is_data_error(tmp_path, capsys, monkeypatch, old, new, named):
    # a NaN rhs ended in "no feasible solution found" (exit 4), an infinite
    # coefficient in the LP's argmax of an empty sequence
    monkeypatch.setattr(parlns.cli, "run_worker", _search_started)
    instance = tmp_path / "bad.mps"
    instance.write_text(_TWO_COLUMNS.replace(old, new))
    code = main(["solve", "--instance", str(instance), "--seconds", "1", "--clock", "simulated",
                 "--out-dir", str(tmp_path / "o")])
    assert code == EXIT_DATA
    assert named in capsys.readouterr().err


def _portfolio_manifest(tmp_path, instance, pool_path, n=4, threads=1, cap=4, **extra):
    manifest = {
        "instance": str(instance),
        "pool": str(pool_path),
        "n": n,
        "threads_per_worker": threads,
        "core_cap": cap,
        "wall_seconds": 1.0,
        "master_seed": 11,
        "clock": "simulated",
        "node_seconds": 0.001,
    }
    manifest.update(extra)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    return path


def test_portfolio_writes_worker_and_aggregate_csvs(tmp_path):
    instance = _write_instance(tmp_path, knapsack(12, seed=2))
    pool_path = tmp_path / "pool.json"
    main(["gen-configs", "--size", "4", "--seed", "3", "--out", str(pool_path)])
    manifest = _portfolio_manifest(tmp_path, instance, pool_path)
    out_dir = tmp_path / "out"
    assert main(["portfolio", "--manifest", str(manifest), "--out-dir", str(out_dir)]) == EXIT_OK
    csvs = sorted(p.name for p in out_dir.glob("*.csv"))
    assert csvs == ["aggregate.csv", "cfg_000.csv", "cfg_001.csv", "cfg_002.csv", "cfg_003.csv"]
    summary = json.loads((out_dir / "summary.json").read_text())
    assert set(summary["workers"]) == {"cfg_000", "cfg_001", "cfg_002", "cfg_003"}


def test_portfolio_cap_violation_is_plan_invalid(tmp_path):
    instance = _write_instance(tmp_path, knapsack(10, seed=2))
    pool_path = tmp_path / "pool.json"
    main(["gen-configs", "--size", "4", "--seed", "3", "--out", str(pool_path)])
    manifest = _portfolio_manifest(tmp_path, instance, pool_path, threads=2, cap=4)
    code = main(["portfolio", "--manifest", str(manifest), "--out-dir", str(tmp_path / "o")])
    assert code == EXIT_DATA


def test_portfolio_backend_selection_and_core_cap_default(tmp_path, monkeypatch):
    instance = _write_instance(tmp_path, knapsack(10, seed=2))
    pool_path = tmp_path / "pool.json"
    main(["gen-configs", "--size", "2", "--seed", "3", "--out", str(pool_path)])

    manifest = {
        "instance": str(instance),
        "pool": str(pool_path),
        "n": 2,
        "wall_seconds": 0.5,
        "clock": "simulated",
        "backend": "reference",
    }
    path = tmp_path / "m.json"
    path.write_text(json.dumps(manifest))
    # no core_cap in the manifest: the environment override supplies it
    monkeypatch.setenv("PARLNS_CORE_CAP", "2")
    assert main(["portfolio", "--manifest", str(path), "--out-dir", str(tmp_path / "o1")]) == EXIT_OK
    monkeypatch.setenv("PARLNS_CORE_CAP", "1")
    assert main(["portfolio", "--manifest", str(path), "--out-dir", str(tmp_path / "o2")]) == EXIT_DATA

    monkeypatch.delenv("PARLNS_CORE_CAP")
    manifest["backend"] = "gurobi"
    path.write_text(json.dumps(manifest))
    assert main(["portfolio", "--manifest", str(path), "--out-dir", str(tmp_path / "o3")]) == EXIT_DATA


def test_core_cap_default_is_the_affinity_set(tmp_path, monkeypatch):
    # one allowed CPU admits no two single-thread workers; the plan is
    # rejected before any worker starts
    instance = _write_instance(tmp_path, knapsack(10, seed=2))
    pool_path = tmp_path / "pool.json"
    main(["gen-configs", "--size", "2", "--seed", "3", "--out", str(pool_path)])
    path = tmp_path / "m.json"
    path.write_text(
        json.dumps({"instance": str(instance), "pool": str(pool_path), "n": 2, "wall_seconds": 0.5})
    )
    monkeypatch.delenv("PARLNS_CORE_CAP", raising=False)
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0}, raising=False)
    assert main(["portfolio", "--manifest", str(path), "--out-dir", str(tmp_path / "o")]) == EXIT_DATA


def test_portfolio_rejects_unknown_manifest_keys(tmp_path):
    instance = _write_instance(tmp_path, knapsack(10, seed=2))
    pool_path = tmp_path / "pool.json"
    main(["gen-configs", "--size", "2", "--seed", "3", "--out", str(pool_path)])
    manifest = _portfolio_manifest(tmp_path, instance, pool_path, n=2, cap=2, typo_key=1)
    code = main(["portfolio", "--manifest", str(manifest), "--out-dir", str(tmp_path / "o")])
    assert code == EXIT_DATA


@pytest.mark.parametrize(
    "key, value",
    [
        ("n", 1.5),
        ("wall_seconds", "1"),
        ("threads_per_worker", "1"),
        ("core_cap", None),
        ("node_seconds", "0.01"),
        ("reference_objective", "5"),
        ("master_seed", True),
    ],
)
def test_portfolio_rejects_a_manifest_value_of_the_wrong_type(tmp_path, capsys, key, value):
    # each used to end the run with a TypeError traceback (exit 1)
    instance = _write_instance(tmp_path, knapsack(10, seed=2))
    pool_path = tmp_path / "pool.json"
    main(["gen-configs", "--size", "2", "--seed", "3", "--out", str(pool_path)])
    manifest = _portfolio_manifest(tmp_path, instance, pool_path, n=2, cap=2)
    manifest.write_text(json.dumps({**json.loads(manifest.read_text()), key: value}))
    code = main(["portfolio", "--manifest", str(manifest), "--out-dir", str(tmp_path / "o")])
    assert code == EXIT_DATA
    assert f"manifest key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["wall_seconds", "node_seconds"])
@pytest.mark.parametrize("value", ["NaN", "Infinity", "0"])
def test_portfolio_rejects_a_budget_that_cannot_end(tmp_path, capsys, monkeypatch, key, value):
    # Python's json reads NaN and Infinity as floats
    monkeypatch.setattr(parlns.orchestrator, "run_portfolio", _search_started)
    instance = _write_instance(tmp_path, knapsack(10, seed=2))
    pool_path = tmp_path / "pool.json"
    main(["gen-configs", "--size", "2", "--seed", "3", "--out", str(pool_path)])
    manifest = _portfolio_manifest(tmp_path, instance, pool_path, n=2, cap=2)
    text = manifest.read_text()
    manifest.write_text(text.replace(f'"{key}": {json.loads(text)[key]}', f'"{key}": {value}'))
    assert json.loads(manifest.read_text())[key] != json.loads(text)[key]
    code = main(["portfolio", "--manifest", str(manifest), "--out-dir", str(tmp_path / "o")])
    assert code == EXIT_DATA
    assert f"manifest key {key!r} must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
def test_portfolio_rejects_a_reference_that_is_not_finite(tmp_path, capsys, monkeypatch, value):
    monkeypatch.setattr(parlns.orchestrator, "run_portfolio", _search_started)
    instance = _write_instance(tmp_path, knapsack(10, seed=2))
    pool_path = tmp_path / "pool.json"
    main(["gen-configs", "--size", "2", "--seed", "3", "--out", str(pool_path)])
    manifest = _portfolio_manifest(tmp_path, instance, pool_path, n=2, cap=2)
    text = manifest.read_text()
    manifest.write_text(text[: text.rindex("}")] + f', "reference_objective": {value}}}')
    code = main(["portfolio", "--manifest", str(manifest), "--out-dir", str(tmp_path / "o")])
    assert code == EXIT_DATA
    assert "manifest key 'reference_objective' must be finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_portfolio_rerun_is_byte_identical(tmp_path):
    instance = _write_instance(tmp_path, knapsack(12, seed=2))
    pool_path = tmp_path / "pool.json"
    main(["gen-configs", "--size", "4", "--seed", "3", "--out", str(pool_path)])
    manifest = _portfolio_manifest(tmp_path, instance, pool_path)
    dirs = [tmp_path / "r1", tmp_path / "r2"]
    for out_dir in dirs:
        assert main(["portfolio", "--manifest", str(manifest), "--out-dir", str(out_dir)]) == EXIT_OK
    for name in ("aggregate.csv", "cfg_000.csv", "summary.json"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def _trace_dir(tmp_path):
    import random

    from parlns.metrics import write_trace_csv
    from support import random_step_trace

    rng = random.Random(5)
    root = tmp_path / "traces"
    for k in range(6):
        for inst in ("a", "b", "c"):
            path = root / f"cfg_{k}" / f"{inst}.csv"
            path.parent.mkdir(parents=True, exist_ok=True)
            write_trace_csv(random_step_trace(rng), path)
    return root


def test_simulate_exhaustive_flag_matches_library(tmp_path):
    root = _trace_dir(tmp_path)
    out = tmp_path / "report.json"
    code = main(
        [
            "simulate",
            "--traces",
            str(root),
            "--n",
            "2",
            "--runs",
            "15",
            "--exhaustive",
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert report["subsets"] == 15

    from parlns.simulator import exhaustive, load_trace_db

    db = load_trace_db(root)
    t1 = min(db.horizons)
    oracle = exhaustive(db, 2, (0.0, t1))
    assert report["final_gap"]["mean"] == oracle.expected_final_gap
    assert report["best"]["config_ids"] == list(oracle.best.config_ids)


def test_simulate_default_runs_is_1000(tmp_path):
    root = _trace_dir(tmp_path)
    out = tmp_path / "r.json"
    code = main(["simulate", "--traces", str(root), "--n", "2", "--out", str(out)])
    assert code == EXIT_OK
    assert json.loads(out.read_text())["runs"] == 1000


def _per_run_lines(records):
    return ["config_ids,final_gap,primal_integral"] + [
        f"{'|'.join(r.config_ids)},{r.final_gap!r},{r.primal_integral!r}" for r in records
    ]


def test_simulate_exhaustive_writes_its_ranking_per_run(tmp_path):
    from parlns.simulator import exhaustive, load_trace_db

    root = _trace_dir(tmp_path)
    per_run = tmp_path / "runs" / "ranking.csv"
    code = main(["simulate", "--traces", str(root), "--n", "2", "--exhaustive",
                 "--out", str(tmp_path / "r.json"), "--per-run", str(per_run)])
    assert code == EXIT_OK
    db = load_trace_db(root)
    ranking = exhaustive(db, 2, (0.0, min(db.horizons))).ranking
    assert per_run.read_text().splitlines() == _per_run_lines(ranking)  # best first


def test_simulate_stratified_runs_default_to_the_pool_size(tmp_path, capsys):
    from parlns.simulator import load_trace_db, simulate

    root = _trace_dir(tmp_path)
    out, per_run = tmp_path / "r.json", tmp_path / "runs.csv"
    args = ["simulate", "--traces", str(root), "--n", "1", "--stratified", "--out", str(out)]
    assert main(args + ["--per-run", str(per_run)]) == EXIT_OK
    assert json.loads(out.read_text())["runs"] == 6
    db = load_trace_db(root)
    report = simulate(db, 1, 6, 0, (0.0, min(db.horizons)), stratified=True)
    assert per_run.read_text().splitlines() == _per_run_lines(report.records)
    assert main(args + ["--runs", "6"]) == EXIT_OK
    capsys.readouterr()
    # a run count that is given and differs is still refused
    assert main(args + ["--runs", "5"]) == EXIT_DATA
    assert "stratified mode needs" in capsys.readouterr().err


def test_simulate_on_configs_without_traces_is_data_error(tmp_path, capsys):
    root = tmp_path / "traces"
    for config_id in ("a", "b"):
        (root / config_id).mkdir(parents=True)
    # without --t1 the window end used to fail on an empty min()
    code = main(["simulate", "--traces", str(root), "--n", "1", "--out", str(tmp_path / "r.json")])
    assert code == EXIT_DATA
    assert "no instance traces" in capsys.readouterr().err


@pytest.mark.parametrize("t1", [None, "50"])
def test_simulate_on_a_missing_trace_is_data_error(tmp_path, capsys, t1):
    # without --t1 the window end reads every (config, instance) horizon
    root = _trace_dir(tmp_path)
    (root / "cfg_3" / "b.csv").unlink()
    out = tmp_path / "r.json"
    args = ["simulate", "--traces", str(root), "--n", "2", "--runs", "5", "--out", str(out)]
    code = main(args + ([] if t1 is None else ["--t1", t1]))
    assert code == EXIT_DATA
    assert not out.exists()
    assert "('cfg_3', 'b')" in capsys.readouterr().err


def test_simulate_on_non_finite_gap_is_data_error(tmp_path, capsys):
    root = _trace_dir(tmp_path)
    bad = root / "cfg_2" / "b.csv"
    bad.write_text("t_seconds,objective,gap\n1.0,5.0,nan\n")
    out = tmp_path / "r.json"
    code = main(["simulate", "--traces", str(root), "--n", "2", "--runs", "5", "--out", str(out)])
    assert code == EXIT_DATA
    assert not out.exists()
    err = capsys.readouterr().err
    assert str(bad) in err and "gap nan" in err


def test_simulate_skips_a_directory_named_like_a_trace(tmp_path):
    # it used to reach open() and end the run with an IsADirectoryError
    root = _trace_dir(tmp_path)
    (root / "cfg_1" / "junk.csv").mkdir()
    out = tmp_path / "r.json"
    code = main(["simulate", "--traces", str(root), "--n", "2", "--runs", "5", "--out", str(out)])
    assert code == EXIT_OK
    assert json.loads(out.read_text())["runs"] == 5


def test_simulate_on_a_non_utf8_trace_names_the_file(tmp_path, capsys):
    root = _trace_dir(tmp_path)
    bad = root / "cfg_2" / "bin.csv"
    bad.write_bytes(b"t_seconds,objective,gap\n1.0,5.0,0.5\xff\n")
    out = tmp_path / "r.json"
    code = main(["simulate", "--traces", str(root), "--n", "2", "--runs", "5", "--out", str(out)])
    assert code == EXIT_DATA
    assert not out.exists()
    err = capsys.readouterr().err
    assert str(bad) in err and "can't decode byte 0xff" in err


@pytest.mark.parametrize("line", [1, 2])
def test_simulate_on_an_oversized_field_names_the_file(tmp_path, capsys, line):
    # csv's field size limit used to end the run with a bare _csv.Error
    root = _trace_dir(tmp_path)
    bad = root / "cfg_2" / "b.csv"
    rows = ["t_seconds,objective,gap", "1.0,5.0,0.5"]
    rows[line - 1] += "," + "7" * 200_000
    bad.write_text("\n".join(rows) + "\n")
    out = tmp_path / "r.json"
    code = main(["simulate", "--traces", str(root), "--n", "2", "--runs", "5", "--out", str(out)])
    assert code == EXIT_DATA
    assert not out.exists()
    err = capsys.readouterr().err
    assert f"{bad}, line {line}: field larger than field limit" in err


def test_simulate_n_larger_than_pool_is_usage_error(tmp_path):
    root = _trace_dir(tmp_path)
    with pytest.raises(SystemExit) as err:
        main(["simulate", "--traces", str(root), "--n", "9", "--out", str(tmp_path / "r.json")])
    assert err.value.code == 2


def test_repro_smoke(tmp_path, monkeypatch):
    # the ranking and the sweep share one window, and so one grid
    windows = grid_builds(monkeypatch)
    out_dir = tmp_path / "repro"
    code = main(
        [
            "repro",
            "--out-dir",
            str(out_dir),
            "--seed",
            "5",
            "--pool-size",
            "6",
            "--runs",
            "10",
            "--wall",
            "0.5",
            "--node-seconds",
            "0.002",
        ]
    )
    assert code == EXIT_OK
    assert (out_dir / "pool.json").exists()
    assert (out_dir / "ranking.json").exists()
    sweep = (out_dir / "portfolio_sweep.csv").read_text().splitlines()
    assert sweep[0].startswith("n,pg_mean")
    assert len(sweep) >= 3  # n = 2 and 4 at least
    pools = json.loads((out_dir / "reduced_pools.json").read_text())
    assert set(pools) == {"4", "8", "16"}
    assert windows == [tuple(json.loads((out_dir / "ranking.json").read_text())["window"])]


REPRO_ARGS = ["--seed", "5", "--pool-size", "6", "--runs", "10", "--wall", "0.5",
              "--node-seconds", "0.002"]


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--scale", "0", ">= 1"),  # was a ZeroDivisionError traceback
        ("--scale", "-5", ">= 1"),  # was accepted
        ("--pool-size", "0", ">= 1"),  # 0 fell back to the default
        ("--runs", "0", ">= 1"),
        ("--runs", "-3", ">= 1"),  # was rejected only after every portfolio ran
        ("--wall", "0", "positive and finite"),
        ("--wall", "nan", "positive and finite"),
        ("--wall", "inf", "positive and finite"),
        ("--node-seconds", "0", "positive and finite"),
        ("--node-seconds", "nan", "positive and finite"),
    ],
)
def test_repro_rejects_a_bad_argument_before_any_work(tmp_path, capsys, monkeypatch, flag, value, message):
    monkeypatch.setattr(parlns.orchestrator, "run_portfolio", _search_started)
    out_dir = tmp_path / "repro"
    with pytest.raises(SystemExit) as err:
        main(["repro", "--out-dir", str(out_dir), *REPRO_ARGS, flag, value])
    assert err.value.code == 2
    assert f"{flag} must be {message}" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.fixture(scope="module")
def repro_run(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("repro")
    assert main(["repro", "--out-dir", str(out_dir), *REPRO_ARGS]) == EXIT_OK
    return out_dir


def _files(root):
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def test_repro_rerun_is_byte_identical(repro_run, tmp_path):
    again = tmp_path / "again"
    assert main(["repro", "--out-dir", str(again), *REPRO_ARGS]) == EXIT_OK
    first, second = _files(repro_run), _files(again)
    for name in ("pool.json", "ranking.json", "portfolio_sweep.csv", "reduced_pools.json"):
        assert name in first
    assert any(name.startswith("traces/") for name in first)
    assert first == second


def test_repro_traces_are_the_portfolio_worker_traces(repro_run, tmp_path):
    from parlns.alns import STATUS_OK
    from parlns.configspace import read_pool
    from parlns.instances import independent_set, set_cover
    from parlns.metrics import write_trace_csv
    from parlns.orchestrator import SIMULATED, PortfolioPlan, run_portfolio

    pool = read_pool(repro_run / "pool.json")
    plan = PortfolioPlan(
        configs=tuple(pool),
        threads_per_worker=1,
        core_cap=len(pool),
        wall_seconds=0.5,
        master_seed=5,
    )
    models = [
        knapsack(40, seed=5, name="knapsack"),
        set_cover(30, 40, seed=5, name="setcover"),
        independent_set(32, 0.1, seed=5, name="indepset"),
    ]
    written = 0
    for model in models:
        result = run_portfolio(model, plan, clock_mode=SIMULATED, node_seconds=0.002)
        for config in pool:
            worker = result.workers[config.id]
            path = repro_run / "traces" / config.id / f"{model.name}.csv"
            if worker.status != STATUS_OK:
                assert not path.exists()
                continue
            expected = tmp_path / f"{config.id}_{model.name}.csv"
            write_trace_csv(worker.trace, expected)
            assert path.read_bytes() == expected.read_bytes()
            written += 1
    assert written == len(list((repro_run / "traces").rglob("*.csv")))
