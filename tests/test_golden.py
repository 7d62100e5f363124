"""Behaviour snapshot: fixed experiments compared against checked-in csv files.

Each `run` case in CASES is rerun and its five csv files are compared with
the copies under tests/golden/<case>/ at stated tolerances; each `schedule`
case in SCHEDULE_CASES (r5 and r8, seeds 0-2, every algorithm) is rerun
through the command line and its two csv files are compared the same way:

- bounds.csv: exact on algorithm, replica, seed, scheduled_users,
  scheduled_samples, converges and c3_check; relative 1e-9 on objective,
  normalized_objective, leakage_total, c1, c2 and c3;
- objective_cdf.csv, leakage_cdf.csv: exact on algorithm, relative 1e-9 on
  both numeric columns;
- accuracy.csv, loss.csv: exact on algorithm, replica and round; accuracy
  within one test example (1 / dataset_test_size) and loss within relative
  1e-6.  The desk case trains for 50 rounds, long enough to leave chance
  accuracy (about 0.1 at round 4, 0.25-0.32 at round 49), so the band can
  see learning.  Training sums its gradients over fixed 256-sample slices,
  so its bits do not depend on the OpenBLAS thread count.  Fifty rounds
  amplify last-digit differences only a little (summing the whole batch at
  once instead of in slices moves the loss by at most 2.3e-14), so this
  band absorbs another BLAS build while any change to the schedule, the
  noise or the update moves the numbers well outside it;
- allocation.csv: exact on user, cell, samples and block; relative 1e-9 on
  power_w, sigma, rate_bit_s and rho;
- cell_objectives.csv: exact on cell, relative 1e-9 on objective.

Each case prints, on a pass as well, the largest relative difference it
met at each tolerance, so a run shows how far it is from the snapshot.

A change that is meant to move these numbers regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and records in CHANGES.md why the snapshot moved.
"""
from __future__ import annotations

import csv
import math
import shutil
import sys
from pathlib import Path

import pytest

import conftest
from fedcell.cli import main
from fedcell.config import load_config
from fedcell.harness import (ALGORITHMS, CSV_NAMES, ExperimentSpec, emit_csv,
                             run_experiment)

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

# case -> (config file, config overrides, replicas, train)
CASES = {
    "full_scale_r5": ("full_scale_r5.yaml", {}, 10, False),
    "full_scale_r8": ("full_scale_r8.yaml", {}, 10, False),
    "desk_train_r5": ("desk_train_r5.yaml", {"rounds": 50}, 1, True),
}

# schedule case -> (config file, seed, algorithm)
SCHEDULE_CASES = {
    f"schedule_{tag}_seed{seed}_{alg}": (f"full_scale_{tag}.yaml", seed, alg)
    for tag in ("r5", "r8") for seed in range(3) for alg in ALGORITHMS
}
SCHEDULE_NAMES = ("allocation.csv", "cell_objectives.csv")

REL = 1e-9
LOSS_REL = 1e-6

# per file: columns compared exactly, columns compared at REL
BOUNDS_EXACT = ("algorithm", "replica", "seed", "scheduled_users",
                "scheduled_samples", "converges", "c3_check")
BOUNDS_CLOSE = ("objective", "normalized_objective", "leakage_total",
                "c1", "c2", "c3")
ALLOCATION_EXACT = ("user", "cell", "samples", "block")
ALLOCATION_CLOSE = ("power_w", "sigma", "rate_bit_s", "rho")


def case_spec(case: str) -> ExperimentSpec:
    name, overrides, replicas, train = CASES[case]
    config = load_config(ROOT / "configs" / name).replace(**overrides)
    return ExperimentSpec(config=config, replicas=replicas, train=train)


def produce(case: str, out_dir) -> ExperimentSpec:
    spec = case_spec(case)
    emit_csv(run_experiment(spec), spec, out_dir)
    return spec


def produce_schedule(case: str, out_dir) -> None:
    name, seed, alg = SCHEDULE_CASES[case]
    assert main(["schedule", "--config", str(ROOT / "configs" / name),
                 "--algorithm", alg, "--seed", str(seed), "--out", str(out_dir)]) == 0


def read_table(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def rel_diff(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


def compare_file(name: str, golden: Path, got: Path, test_size: int,
                 worst: dict) -> list:
    """Mismatches between two copies of one csv file, as readable lines.
    `worst` maps each relative tolerance to the largest relative difference
    met in a column held to it, and is raised in place.

    Accuracies are compared as counts of correct test examples, so that a
    one-example difference is not lost to rounding in the decimal fraction.
    """
    g_head, g_rows = read_table(golden)
    h_head, h_rows = read_table(got)
    if g_head != h_head:
        return [f"{name}: header {h_head} != {g_head}"]
    if len(g_rows) != len(h_rows):
        return [f"{name}: {len(h_rows)} rows != {len(g_rows)}"]
    if name == "bounds.csv":
        exact, close = BOUNDS_EXACT, {c: REL for c in BOUNDS_CLOSE}
    elif name in ("objective_cdf.csv", "leakage_cdf.csv"):
        exact, close = ("algorithm",), {c: REL for c in g_head[1:]}
    elif name == "allocation.csv":
        exact, close = ALLOCATION_EXACT, {c: REL for c in ALLOCATION_CLOSE}
    elif name == "cell_objectives.csv":
        exact, close = ("cell",), {"objective": REL}
    else:
        exact = ("algorithm", "replica", "round")
        close = {"test_loss": LOSS_REL}
    problems = []
    for line, (g, h) in enumerate(zip(g_rows, h_rows), start=2):
        for col, (gv, hv) in enumerate(zip(g, h)):
            key = g_head[col]
            if key in exact:
                ok = gv == hv
            elif key in close:
                tol = close[key]
                ok = math.isclose(float(gv), float(hv), rel_tol=tol)
                worst[tol] = max(worst[tol], rel_diff(float(gv), float(hv)))
            elif key == "test_accuracy":
                ok = abs(round(float(gv) * test_size) - round(float(hv) * test_size)) <= 1
            else:
                raise AssertionError(f"{name}: no tolerance for column {key}")
            if not ok:
                problems.append(f"{name}:{line} {key}: {hv} != golden {gv}")
    return problems


def compare_case(golden_dir: Path, got_dir: Path, names=CSV_NAMES, test_size=None):
    """(mismatches, largest relative difference per tolerance) over the
    csv files `names` of one case; `test_size` counts the test examples of
    a training case."""
    problems = []
    worst = {REL: 0.0, LOSS_REL: 0.0}
    for name in names:
        problems += compare_file(name, golden_dir / name, got_dir / name, test_size,
                                 worst)
    return problems, worst


def record_distance(case: str, worst: dict) -> None:
    conftest.record("golden snapshot distance", f"{case}: " + ", ".join(
        f"max rel diff {diff:.2e} (tol {tol:g})" for tol, diff in worst.items()))


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden_snapshot(case, tmp_path):
    spec = produce(case, tmp_path)
    problems, worst = compare_case(GOLDEN / case, tmp_path,
                                   test_size=spec.config.dataset_test_size)
    record_distance(case, worst)
    assert not problems, "\n".join(problems[:20])


@pytest.mark.parametrize("case", sorted(SCHEDULE_CASES))
def test_schedule_matches_golden_snapshot(case, tmp_path):
    produce_schedule(case, tmp_path)
    problems, worst = compare_case(GOLDEN / case, tmp_path, SCHEDULE_NAMES)
    record_distance(case, worst)
    assert not problems, "\n".join(problems[:20])


def test_comparer_rejects_a_nudged_objective(tmp_path):
    case = "full_scale_r5"
    for name in CSV_NAMES:
        shutil.copy(GOLDEN / case / name, tmp_path / name)
    head, rows = read_table(tmp_path / "bounds.csv")
    col = head.index("objective")
    rows[3][col] = repr(float(rows[3][col]) * (1.0 + 1e-6))
    with open(tmp_path / "bounds.csv", "w", newline="") as fh:
        csv.writer(fh).writerows([head] + rows)
    same = compare_case(GOLDEN / case, GOLDEN / case)
    assert same == ([], {REL: 0.0, LOSS_REL: 0.0})
    problems, worst = compare_case(GOLDEN / case, tmp_path)
    assert worst[REL] == pytest.approx(1e-6 / (1.0 + 1e-6))
    assert len(problems) == 1
    assert problems[0].startswith("bounds.csv:5 objective:")


def test_comparer_rejects_a_moved_block(tmp_path):
    case = "schedule_r5_seed0_opt"
    for name in SCHEDULE_NAMES:
        shutil.copy(GOLDEN / case / name, tmp_path / name)
    head, rows = read_table(tmp_path / "allocation.csv")
    col = head.index("block")
    row = next(i for i, r in enumerate(rows) if r[col] != "-1")
    block = int(rows[row][col])
    rows[row][col] = str((block + 1) % 5)    # r5: blocks 0-4
    with open(tmp_path / "allocation.csv", "w", newline="") as fh:
        csv.writer(fh).writerows([head] + rows)
    assert compare_case(GOLDEN / case, GOLDEN / case, SCHEDULE_NAMES)[0] == []
    problems, worst = compare_case(GOLDEN / case, tmp_path, SCHEDULE_NAMES)
    assert worst[REL] == 0.0
    assert problems == [f"allocation.csv:{row + 2} block: {(block + 1) % 5} "
                        f"!= golden {block}"]


@pytest.mark.parametrize("examples,accepted", [(1, True), (-1, True), (2, False)])
def test_comparer_allows_one_test_example_of_accuracy(examples, accepted, tmp_path):
    case = "desk_train_r5"
    for name in CSV_NAMES:
        shutil.copy(GOLDEN / case / name, tmp_path / name)
    spec = case_spec(case)
    n = spec.config.dataset_test_size
    head, rows = read_table(tmp_path / "accuracy.csv")
    col = head.index("test_accuracy")
    rows[2][col] = repr((round(float(rows[2][col]) * n) + examples) / n)
    with open(tmp_path / "accuracy.csv", "w", newline="") as fh:
        csv.writer(fh).writerows([head] + rows)
    problems, _ = compare_case(GOLDEN / case, tmp_path, test_size=n)
    if accepted:
        assert problems == []
    else:
        assert len(problems) == 1
        assert problems[0].startswith("accuracy.csv:4 test_accuracy:")


if __name__ == "__main__":
    for case in (sys.argv[1:] or [*sorted(CASES), *sorted(SCHEDULE_CASES)]):
        if case in SCHEDULE_CASES:
            produce_schedule(case, GOLDEN / case)
        else:
            produce(case, GOLDEN / case)
        print(GOLDEN / case)
