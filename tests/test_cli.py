"""Command line entry points, exercised through main()."""
import csv

import pytest

from fedcell.cli import main

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
synthetic_features: 8
synthetic_classes: 3
dataset_train_size: 7200
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


def test_schedule_emits_allocation_and_cell_objectives(config_path, tmp_path,
                                                       capsys):
    out = tmp_path / "sched"
    rc = main(["schedule", "--config", config_path, "--algorithm", "opt",
               "--seed", "3", "--out", str(out)])
    assert rc == 0
    assert "objective=" in capsys.readouterr().out
    rows = read_rows(out / "allocation.csv")
    assert rows[0] == ["user", "cell", "samples", "block", "power_w",
                       "sigma", "rate_bit_s"]
    assert len(rows) == 1 + 12
    for row in rows[1:]:
        block = int(row[3])
        assert -1 <= block < 3
        if block >= 0:
            # scheduled users must make the rate target
            assert float(row[6]) >= 100e3 * (1 - 1e-6)
        else:
            assert float(row[4]) == 0.0
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


def test_privacy_prints_per_user_rows_and_total(config_path, capsys):
    rc = main(["privacy", "--config", config_path, "--algorithm", "opt+dp",
               "--seed", "2"])
    assert rc == 0
    rows = [r for r in csv.reader(capsys.readouterr().out.splitlines())]
    assert rows[0] == ["user", "cell", "samples", "sigma", "rho"]
    assert rows[-1][0] == "total"
    body = rows[1:-1]
    assert len(body) >= 1
    total = float(rows[-1][4])
    assert total == pytest.approx(sum(float(r[4]) for r in body), rel=1e-12)


def test_privacy_can_write_to_a_file(config_path, tmp_path):
    target = tmp_path / "privacy.csv"
    rc = main(["privacy", "--config", config_path, "--out", str(target)])
    assert rc == 0
    rows = read_rows(target)
    assert rows[0] == ["user", "cell", "samples", "sigma", "rho"]
    assert rows[-1][0] == "total"


def test_bound_reports_constants(config_path, capsys):
    rc = main(["bound", "--config", config_path, "--dim", "100"])
    assert rc == 0
    first = capsys.readouterr().out.splitlines()
    assert first[0].split(",") == ["c1", "c2", "c3", "converges", "c3_check"]
    c1, c2, c3, conv, ok = first[1].split(",")
    # plain decimal reprs, no wrapper types
    assert float(c1) > 0.0 and float(c2) >= 0.0 and float(c3) >= 0.0
    assert conv in ("true", "false") and ok in ("true", "false")

    rc = main(["bound", "--config", config_path, "--dim", "200"])
    assert rc == 0
    second = capsys.readouterr().out.splitlines()
    # the noise term scales linearly with the model dimension
    assert float(second[1].split(",")[2]) == pytest.approx(2 * float(c3))


def test_missing_config_reports_an_error(tmp_path, capsys):
    rc = main(["run", "--config", str(tmp_path / "absent.yaml"),
               "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_bad_config_key_reports_an_error(tmp_path, capsys):
    p = tmp_path / "bad.yaml"
    p.write_text("num_rbs: 3\nbandwith: 2.0\n")
    rc = main(["bound", "--config", str(p)])
    assert rc == 1
    assert "bandwith" in capsys.readouterr().err
