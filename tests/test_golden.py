"""Behaviour snapshot: fixed experiments compared against checked-in csv files.

Each case in CASES is rerun and its five csv files are compared with the
copies under tests/golden/<case>/ at stated tolerances:

- bounds.csv: exact on algorithm, replica, seed, scheduled_users,
  scheduled_samples, converges and c3_check; relative 1e-9 on objective,
  normalized_objective, leakage_total, c1, c2 and c3;
- objective_cdf.csv, leakage_cdf.csv: exact on algorithm, relative 1e-9 on
  both numeric columns;
- accuracy.csv, loss.csv: exact on algorithm, replica and round; accuracy
  within one test example (1 / dataset_test_size) and loss within relative
  1e-6.  The desk case trains for 50 rounds, long enough to leave chance
  accuracy (about 0.1 at round 4, 0.25-0.32 at round 49), so the band can
  see learning.  Fifty rounds amplify last-digit BLAS differences only a
  little (one against two OpenBLAS threads moves the loss by at most 5e-14),
  so this band absorbs another BLAS build while any change to the schedule,
  the noise or the update moves the numbers well outside it.

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
from fedcell.config import load_config
from fedcell.harness import CSV_NAMES, ExperimentSpec, emit_csv, run_experiment

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

# case -> (config file, config overrides, replicas, train)
CASES = {
    "full_scale_r5": ("full_scale_r5.yaml", {}, 10, False),
    "full_scale_r8": ("full_scale_r8.yaml", {}, 10, False),
    "desk_train_r5": ("desk_train_r5.yaml", {"rounds": 50}, 1, True),
}

REL = 1e-9
LOSS_REL = 1e-6

# per file: columns compared exactly, columns compared at REL
BOUNDS_EXACT = ("algorithm", "replica", "seed", "scheduled_users",
                "scheduled_samples", "converges", "c3_check")
BOUNDS_CLOSE = ("objective", "normalized_objective", "leakage_total",
                "c1", "c2", "c3")


def case_spec(case: str) -> ExperimentSpec:
    name, overrides, replicas, train = CASES[case]
    config = load_config(ROOT / "configs" / name).replace(**overrides)
    return ExperimentSpec(config=config, replicas=replicas, train=train)


def produce(case: str, out_dir) -> ExperimentSpec:
    spec = case_spec(case)
    emit_csv(run_experiment(spec), spec, out_dir)
    return spec


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


def compare_case(golden_dir: Path, got_dir: Path, spec: ExperimentSpec):
    """(mismatches, largest relative difference per tolerance) over the
    five csv files of one case."""
    test_size = spec.config.dataset_test_size
    problems = []
    worst = {REL: 0.0, LOSS_REL: 0.0}
    for name in CSV_NAMES:
        problems += compare_file(name, golden_dir / name, got_dir / name, test_size,
                                 worst)
    return problems, worst


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden_snapshot(case, tmp_path):
    spec = produce(case, tmp_path)
    problems, worst = compare_case(GOLDEN / case, tmp_path, spec)
    conftest.record("golden snapshot distance", f"{case}: " + ", ".join(
        f"max rel diff {diff:.2e} (tol {tol:g})" for tol, diff in worst.items()))
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
    spec = case_spec(case)
    same = compare_case(GOLDEN / case, GOLDEN / case, spec)
    assert same == ([], {REL: 0.0, LOSS_REL: 0.0})
    problems, worst = compare_case(GOLDEN / case, tmp_path, spec)
    assert worst[REL] == pytest.approx(1e-6 / (1.0 + 1e-6))
    assert len(problems) == 1
    assert problems[0].startswith("bounds.csv:5 objective:")


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
    problems, _ = compare_case(GOLDEN / case, tmp_path, spec)
    if accepted:
        assert problems == []
    else:
        assert len(problems) == 1
        assert problems[0].startswith("accuracy.csv:4 test_accuracy:")


if __name__ == "__main__":
    for case in (sys.argv[1:] or sorted(CASES)):
        produce(case, GOLDEN / case)
        print(GOLDEN / case)
