"""Command line entry points, exercised through main()."""
import csv
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from oracles import write_idx_dataset

from fedcell.bounds import c3_constraint_check, evaluate_bound
from fedcell.cli import build_parser, main
from fedcell.config import load_config
from fedcell.dp import leakage
from fedcell.harness import allocate
from fedcell.mlp import Mlp
from fedcell.topology import generate_topology

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

CONFIG_YAML = """\
num_cells: 7
num_rbs: 3
total_users: 12
total_samples: 7200
center_freq: 2450
noise_psd: -174
p_max: 10
r_min: 100
rounds: 3
features: 8
classes: 3
dataset_test_size: 60
"""


@pytest.fixture
def config_path(tmp_path):
    p = tmp_path / "cfg.yaml"
    p.write_text(CONFIG_YAML)
    return str(p)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_run_writes_all_csv_files(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["run", "--config", config_path, "--replicas", "2",
               "--algorithms", "rnd,opt", "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr()
    assert "replicas: 2" in captured.out
    assert "failures: 0" in captured.out
    names = ["objective_cdf.csv", "accuracy.csv", "loss.csv",
             "leakage_cdf.csv", "bounds.csv"]
    for name in names:
        assert (out / name).exists()
        assert str(out / name) in captured.out
    rows = read_rows(out / "bounds.csv")
    assert rows[0][:3] == ["algorithm", "replica", "seed"]
    assert len(rows) == 1 + 2 * 2


def test_run_rejects_unknown_algorithm(config_path, tmp_path, capsys):
    rc = main(["run", "--config", config_path, "--algorithms", "rnd,best",
               "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "best" in err


def test_run_rejects_an_empty_algorithm_list(config_path, tmp_path, capsys):
    out = tmp_path / "o"
    rc = main(["run", "--config", config_path, "--algorithms", ",",
               "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: no algorithm requested")
    assert not out.exists()


@pytest.mark.parametrize("flag,value", [("--replicas", "0"), ("--replicas", "-3"),
                                        ("--jobs", "0")])
def test_run_rejects_a_non_positive_count(flag, value, config_path, tmp_path, capsys):
    out = tmp_path / "o"
    rc = main(["run", "--config", config_path, flag, value, "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag[2:]} must be >= 1, got {value}")
    assert not out.exists()


def test_schedule_emits_allocation_and_cell_objectives(config_path, tmp_path,
                                                       capsys):
    out = tmp_path / "sched"
    rc = main(["schedule", "--config", config_path, "--algorithm", "opt",
               "--seed", "3", "--out", str(out)])
    assert rc == 0
    assert "objective=" in capsys.readouterr().out
    rows = read_rows(out / "allocation.csv")
    assert rows[0] == ["user", "cell", "samples", "block", "power_w",
                       "sigma", "rate_bit_s", "rho"]
    assert len(rows) == 1 + 12
    for row in rows[1:]:
        block = int(row[3])
        assert -1 <= block < 3
        if block >= 0:
            # scheduled users must make the rate target
            assert float(row[6]) >= 100e3 * (1 - 1e-6)
        else:
            assert float(row[4]) == 0.0
            assert row[7] == "0.0"
    cells = read_rows(out / "cell_objectives.csv")
    assert cells[0] == ["cell", "objective"]
    assert len(cells) == 1 + 7


def test_schedule_can_dump_the_power_system(config_path, tmp_path):
    out = tmp_path / "dump"
    rc = main(["schedule", "--config", config_path, "--out", str(out),
               "--dump-system"])
    assert rc == 0
    a = read_rows(out / "power_system_A.csv")
    b = read_rows(out / "power_system_b.csv")
    n = len(a) - 1
    assert n >= 1
    assert len(a[0]) == 1 + n
    assert len(b) == 1 + n


def test_schedule_rho_matches_leakage_and_run_total(config_path, tmp_path):
    rc = main(["schedule", "--config", config_path, "--algorithm", "opt+dp",
               "--seed", "2", "--out", str(tmp_path / "sched")])
    assert rc == 0
    rows = read_rows(tmp_path / "sched" / "allocation.csv")[1:]
    rho = np.array([float(r[7]) for r in rows])
    served = np.array([int(r[3]) >= 0 for r in rows])
    samples = np.array([int(r[2]) for r in rows])
    sigmas = np.array([float(r[5]) for r in rows])
    assert served.any()
    cfg = load_config(config_path)
    assert np.array_equal(rho[served], leakage(cfg.rounds, cfg.clip,
                                               samples[served], sigmas[served]))

    rc = main(["run", "--config", config_path, "--replicas", "1", "--seed", "2",
               "--algorithms", "opt+dp", "--out", str(tmp_path / "run")])
    assert rc == 0
    (row,) = read_rows(tmp_path / "run" / "bounds.csv")[1:]
    assert row[7] == repr(float(rho.sum()))


def test_run_bounds_row_matches_evaluate_bound(config_path, tmp_path):
    rc = main(["run", "--config", config_path, "--replicas", "1", "--seed", "3",
               "--algorithms", "opt", "--out", str(tmp_path / "run")])
    assert rc == 0
    (row,) = read_rows(tmp_path / "run" / "bounds.csv")[1:]
    cfg = load_config(config_path)
    topo = generate_topology(cfg, 3)
    alloc = allocate("opt", topo, cfg, 3)
    const = evaluate_bound(topo, alloc, cfg, Mlp(cfg.features, cfg.classes).dim)
    ok = c3_constraint_check(topo, alloc, cfg)
    assert row[8:] == [repr(const.c1), repr(const.c2), repr(const.c3),
                       "true" if const.converges else "false",
                       "true" if ok else "false"]


def test_run_charges_one_model_dimension_with_or_without_training(tmp_path):
    idx = tmp_path / "idx"
    idx.mkdir()
    # labels stop at 4, so a shape read from the data would have 5 classes
    write_idx_dataset(idx, train_n=7200, test_n=60, side=6, classes=5)
    path = tmp_path / "idx.yaml"
    path.write_text(CONFIG_YAML.replace(
        "features: 8\nclasses: 3\n", f"features: 36\nclasses: 10\ndataset_path: {idx}\n"))
    c3 = []
    for flags in ([], ["--train"]):
        out = tmp_path / f"run{len(flags)}"
        assert main(["run", "--config", str(path), "--replicas", "1", "--seed", "3",
                     "--algorithms", "opt+dp", "--out", str(out), *flags]) == 0
        head, *rows = read_rows(out / "bounds.csv")
        c3.append([row[head.index("c3")] for row in rows])
    assert len(read_rows(tmp_path / "run1" / "accuracy.csv")) == 1 + 3
    cfg = load_config(path)
    topo = generate_topology(cfg, 3)
    alloc = allocate("opt+dp", topo, cfg, 3)
    d = Mlp(36, 10).dim     # 36 pixels in, 10 classes out
    assert c3[0] == c3[1] == [repr(evaluate_bound(topo, alloc, cfg, d).c3)]


def test_missing_config_reports_an_error(tmp_path, capsys):
    rc = main(["run", "--config", str(tmp_path / "absent.yaml"),
               "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_bad_config_key_reports_an_error(tmp_path, capsys):
    p = tmp_path / "bad.yaml"
    p.write_text("num_rbs: 3\nbandwith: 2.0\n")
    rc = main(["schedule", "--config", str(p), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "bandwith" in capsys.readouterr().err


def script_calls(path):
    """The fedcell-sim argument lists of a shell script, continuation lines
    joined and shell variables replaced by a placeholder that parses as an
    integer or a path."""
    text = path.read_text().replace("\\\n", " ")
    calls = []
    for line in text.splitlines():
        words = shlex.split(line, comments=True)
        if words and words[0] == "fedcell-sim":
            calls.append([re.sub(r"\$\{?\w+\}?", "0", w) for w in words[1:]])
    return calls


@pytest.mark.parametrize("script", sorted(p.name for p in SCRIPTS.glob("*.sh")))
def test_scripts_use_existing_commands_and_flags(script):
    calls = script_calls(SCRIPTS / script)
    assert calls
    parser = build_parser()
    for argv in calls:
        parser.parse_args(argv)
