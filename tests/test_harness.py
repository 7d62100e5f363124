"""Experiment harness: replica pairing, row ordering, csv bytes."""
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import fedcell.harness
from fedcell.config import SystemConfig, load_config
from fedcell.dp import InfeasibleNoiseError
from fedcell.harness import (ALGORITHMS, CSV_NAMES, ExperimentSpec,
                             MetricsTable, ReplicaRecord, _fmt, allocate,
                             emit_csv, empirical_cdf, run_experiment,
                             run_replica)
from fedcell.topology import generate_topology

ROOT = Path(__file__).resolve().parent.parent


def small_config(**overrides):
    base = dict(total_users=12, total_samples=7200, num_rbs=3,
                features=8, classes=3,
                dataset_test_size=60, rounds=3)
    base.update(overrides)
    return SystemConfig().replace(**base)


def test_run_replica_produces_one_record_per_algorithm():
    cfg = small_config()
    records, errors = run_replica(cfg, ALGORITHMS, 4, 11, False)
    assert errors == []
    assert [r.algorithm for r in records] == list(ALGORITHMS)
    for r in records:
        assert r.replica == 4 and r.seed == 11
        assert r.scheduled_users > 0
        assert len(r.leakage_rho) == r.scheduled_users
        assert r.normalized_objective * 7200 == pytest.approx(r.objective)
        assert r.accuracy is None and r.loss is None


def test_run_replica_dp_shares_the_opt_schedule(monkeypatch):
    cfg = small_config()
    calls = []
    real = fedcell.harness.opt_sched

    def counted(*args):
        calls.append(args[2])
        return real(*args)

    monkeypatch.setattr(fedcell.harness, "opt_sched", counted)
    records, _ = run_replica(cfg, ("opt", "opt+dp"), 0, 3, False)
    opt, dp = records
    assert opt.scheduled_users == dp.scheduled_users
    assert opt.scheduled_samples == dp.scheduled_samples
    assert dp.leakage_total <= opt.leakage_total
    assert dp.objective <= opt.objective + 1e-9
    # opt+dp reuses the replica's opt schedule, and builds one without it
    assert calls == [3]
    records, _ = run_replica(cfg, ("opt+dp",), 0, 3, False)
    assert calls == [3, 3]
    assert records[0].objective == dp.objective


def _raising(exc):
    def fail(*args):
        raise exc
    return fail


def test_run_replica_captures_per_algorithm_failures(monkeypatch):
    cfg = small_config()
    monkeypatch.setattr(fedcell.harness, "optimize_noise",
                        _raising(InfeasibleNoiseError("over budget")))
    records, errors = run_replica(cfg, ALGORITHMS, 2, 5, False)
    assert [r.algorithm for r in records] == ["rnd", "opt"]
    assert errors == [("opt+dp", 2, "InfeasibleNoiseError: over budget")]


def test_run_replica_propagates_programming_errors(monkeypatch):
    cfg = small_config()
    monkeypatch.setattr(fedcell.harness, "optimize_noise",
                        _raising(TypeError("bad argument")))
    with pytest.raises(TypeError, match="bad argument"):
        run_replica(cfg, ALGORITHMS, 2, 5, False)


def test_run_experiment_rejects_unknown_algorithms_up_front(monkeypatch):
    monkeypatch.setattr(fedcell.harness, "run_replica", _raising(AssertionError))
    spec = ExperimentSpec(config=small_config(), algorithms=("opt", "best"),
                          replicas=2)
    msg = r"^unknown algorithm 'best' \(choose from rnd, opt, opt\+dp\)$"
    with pytest.raises(ValueError, match=msg):
        run_experiment(spec)


def test_run_experiment_rejects_a_repeated_algorithm(monkeypatch):
    monkeypatch.setattr(fedcell.harness, "run_replica", _raising(AssertionError))
    spec = ExperimentSpec(config=small_config(), algorithms=("opt", "rnd", "opt"),
                          replicas=2)
    with pytest.raises(ValueError, match=r"^algorithm 'opt' is requested twice$"):
        run_experiment(spec)


def test_run_experiment_rejects_an_empty_algorithm_list(monkeypatch):
    monkeypatch.setattr(fedcell.harness, "run_replica", _raising(AssertionError))
    spec = ExperimentSpec(config=small_config(), algorithms=(), replicas=2)
    with pytest.raises(ValueError, match=r"^no algorithm requested$"):
        run_experiment(spec)


@pytest.mark.parametrize("field,value", [("replicas", 0), ("replicas", -3),
                                         ("jobs", 0)])
def test_run_experiment_rejects_a_non_positive_count(field, value, monkeypatch):
    monkeypatch.setattr(fedcell.harness, "run_replica", _raising(AssertionError))
    spec = ExperimentSpec(config=small_config(), **{"replicas": 2, field: value})
    with pytest.raises(ValueError, match=rf"^{field} must be >= 1, got {value}$"):
        run_experiment(spec)


def test_allocate_rejects_unknown_algorithms():
    cfg = small_config()
    topo = generate_topology(cfg, 0)
    msg = r"^unknown algorithm 'best' \(choose from rnd, opt, opt\+dp\)$"
    with pytest.raises(ValueError, match=msg):
        allocate("best", topo, cfg, 0)


def test_run_experiment_records_empty_schedules_as_failures():
    # so little power that the rate floor drops every user
    spec = ExperimentSpec(config=small_config(p_max=1e-13), replicas=2)
    table = run_experiment(spec)
    assert table.rows == []
    empty = "ScheduleInfeasibleError: no user scheduled"
    no_noise = "InfeasibleNoiseError: nothing to optimise: no user is scheduled"
    assert table.errors == [("opt", 0, empty), ("opt+dp", 0, no_noise),
                            ("rnd", 0, empty), ("opt", 1, empty),
                            ("opt+dp", 1, no_noise), ("rnd", 1, empty)]


def test_run_experiment_orders_rows_by_replica_then_algorithm():
    spec = ExperimentSpec(config=small_config(), algorithms=("opt", "rnd"),
                          replicas=3)
    table = run_experiment(spec)
    got = [(r.replica, r.algorithm) for r in table.rows]
    assert got == [(0, "opt"), (0, "rnd"), (1, "opt"), (1, "rnd"),
                   (2, "opt"), (2, "rnd")]
    assert [r.seed for r in table.rows] == [0, 0, 1, 1, 2, 2]


def test_run_experiment_seed_base_offsets_replica_seeds():
    spec = ExperimentSpec(config=small_config(), algorithms=("rnd",),
                          replicas=2, seed_base=40)
    table = run_experiment(spec)
    assert [r.seed for r in table.rows] == [40, 41]


def test_paired_skips_replicas_missing_on_either_side():
    def rec(alg, rep, obj):
        return ReplicaRecord(algorithm=alg, replica=rep, seed=rep,
                             objective=obj, normalized_objective=obj,
                             scheduled_users=1, scheduled_samples=1.0,
                             leakage_total=0.0, leakage_rho=[],
                             c1=0.0, c2=0.0, c3=0.0, converges=True,
                             c3_check=True)
    table = MetricsTable(rows=[rec("rnd", 0, 5.0), rec("rnd", 1, 6.0),
                               rec("rnd", 2, 7.0), rec("opt", 0, 4.0),
                               rec("opt", 2, 3.0)])
    a, b = table.paired("objective", "rnd", "opt")
    assert a.tolist() == [5.0, 7.0]
    assert b.tolist() == [4.0, 3.0]


def test_empirical_cdf_levels():
    vals, lev = empirical_cdf([3.0, 1.0, 2.0])
    assert vals.tolist() == [1.0, 2.0, 3.0]
    assert lev.tolist() == pytest.approx([1 / 3, 2 / 3, 1.0])
    vals, lev = empirical_cdf([])
    assert vals.size == 0 and lev.size == 0


def test_value_formatting_for_csv():
    assert _fmt(True) == "true"
    assert _fmt(np.bool_(False)) == "false"
    assert _fmt(7) == "7"
    assert _fmt(np.int64(9)) == "9"
    assert _fmt(0.1) == "0.1"
    assert _fmt(1e-21) == "1e-21"
    assert _fmt(float(np.float64(2.5))) == "2.5"
    assert _fmt("opt") == "opt"


def test_emit_csv_headers_and_row_counts(tmp_path):
    spec = ExperimentSpec(config=small_config(), algorithms=("rnd", "opt"),
                          replicas=3)
    table = run_experiment(spec)
    paths = emit_csv(table, spec, tmp_path)
    assert [p.name for p in paths] == list(CSV_NAMES)
    obj = paths[0].read_text().splitlines()
    assert obj[0] == "algorithm,normalized_objective,cdf"
    assert len(obj) == 1 + 2 * 3
    # no training requested, so the metric files are header-only
    assert paths[1].read_text().splitlines() == [
        "algorithm,replica,round,test_accuracy"]
    assert paths[2].read_text().splitlines() == [
        "algorithm,replica,round,test_loss"]
    bounds = paths[4].read_text().splitlines()
    assert bounds[0].startswith("algorithm,replica,seed,objective")
    assert len(bounds) == 1 + 2 * 3


def test_emit_csv_cdf_rows_are_sorted(tmp_path):
    spec = ExperimentSpec(config=small_config(), algorithms=("rnd",),
                          replicas=5)
    table = run_experiment(spec)
    paths = emit_csv(table, spec, tmp_path)
    rows = [line.split(",") for line in
            paths[3].read_text().splitlines()[1:]]
    rho = [float(r[1]) for r in rows]
    lev = [float(r[2]) for r in rows]
    assert rho == sorted(rho)
    assert lev == sorted(lev)
    assert lev[-1] == 1.0


def test_training_rows_land_in_accuracy_and_loss_files(tmp_path):
    spec = ExperimentSpec(config=small_config(), algorithms=("rnd", "opt"),
                          replicas=2, train=True)
    table = run_experiment(spec)
    for r in table.rows:
        assert len(r.accuracy) == 3
        assert len(r.loss) == 3
        assert all(0.0 <= a <= 1.0 for a in r.accuracy)
    paths = emit_csv(table, spec, tmp_path)
    acc = paths[1].read_text().splitlines()
    assert len(acc) == 1 + 2 * 2 * 3
    assert acc[1].split(",")[:3] == ["rnd", "0", "0"]


def test_output_bytes_do_not_depend_on_job_count(tmp_path):
    cfg = small_config()
    specs = [ExperimentSpec(config=cfg, algorithms=ALGORITHMS, replicas=3,
                            train=True, jobs=j) for j in (1, 2)]
    dirs = [tmp_path / "serial", tmp_path / "pool"]
    for spec, d in zip(specs, dirs):
        emit_csv(run_experiment(spec), spec, d)
    for name in CSV_NAMES:
        left = (dirs[0] / name).read_bytes()
        right = (dirs[1] / name).read_bytes()
        assert left == right, name


def test_sweep_keeps_opt_and_dp_orderings():
    # the orderings every schedule-only sweep must keep, per replica:
    # opt no worse than rnd, opt+dp no worse than opt, and C3 satisfied
    configs = Path(__file__).resolve().parent.parent / "configs"
    for name in ("full_scale_r5.yaml", "full_scale_r8.yaml"):
        for seed_base in (0, 5_000_000):
            spec = ExperimentSpec(config=load_config(configs / name), replicas=50,
                                  seed_base=seed_base)
            table = run_experiment(spec)
            assert table.errors == []
            assert all(r.c3_check for r in table.rows)
            rnd, opt = table.paired("objective", "rnd", "opt")
            _, dp = table.paired("objective", "opt", "opt+dp")
            assert rnd.size == dp.size == 50
            assert np.all(opt <= rnd * (1.0 + 1e-12))
            assert np.all(dp <= opt * (1.0 + 1e-12))


def test_readme_library_example_prints_a_finite_total(monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library use\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(ROOT)
    exec(compile(code, "README.md", "exec"), {})
    total = float(capsys.readouterr().out)
    assert math.isfinite(total) and total > 0.0


def test_a_schedule_only_replica_imports_no_scipy():
    # scipy is a test dependency only; replica seed 0 of r5 solves one power
    # program, so the check covers the LP path too
    code = textwrap.dedent("""
        import sys
        import fedcell
        import fedcell.radio
        from fedcell.config import load_config
        from fedcell.harness import ExperimentSpec, run_experiment
        lps = []
        real = fedcell.radio.linprog
        fedcell.radio.linprog = lambda *args, **kw: lps.append(args) or real(*args, **kw)
        spec = ExperimentSpec(config=load_config(sys.argv[1]), replicas=1, seed_base=0)
        table = run_experiment(spec)
        print(len(table.rows), len(table.errors), len(lps))
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code, str(ROOT / "configs" / "full_scale_r5.yaml")],
                         env=env, capture_output=True, text=True, check=True)
    counts, modules = out.stdout.splitlines()
    rows, errors, lps = map(int, counts.split())
    assert rows == len(ALGORITHMS) and errors == 0 and lps >= 1
    assert modules == "[]"
