"""The benchmark's workloads: which configs, how many replicas per call,
which calls are checked, and which layers each must exercise.

This module imports nothing from the package, so run.py can read it before
it knows the package is there.
"""
from __future__ import annotations

from dataclasses import dataclass

TRAIN_ROUNDS = 10           # rounds per trained replica
SEED_STRIDE = 1_000_000     # replica seeds of workload seed n start at n * SEED_STRIDE
POOL_JOBS = 2               # the machine the baseline was taken on has 2 cores


@dataclass(frozen=True)
class Workload:
    configs: tuple      # config files; loop units cycle through them
    train: bool
    jobs: int
    per_unit: int       # replicas per loop unit (one run_experiment call)
    sweep: int          # replicas per config in one leading call each (0: none)
    fixed_units: int    # leading loop units whose outputs are checked
    min_units: int      # loop units run however short --seconds is
    layers: tuple       # span prefixes the workload must exercise


SCHED_LAYERS = ("topology.", "scheduler.", "radio.", "dp.", "bounds.", "harness.")
TRAIN_LAYERS = SCHED_LAYERS + ("fl.", "mlp.", "data.")

WORKLOADS = {
    # The traffic of scripts/run_schedule_comparison.sh (100 replicas of r5
    # and of r8, csv emitted), then single replicas alternating r5 and r8.
    "sched_sweep": Workload(("full_scale_r5.yaml", "full_scale_r8.yaml"), False, 1,
                            1, 100, 0, 20, SCHED_LAYERS),
    # Desk-scale training one replica per call.  16 checked replicas keep the
    # seed-to-seed spread of the quality means near 2%.
    "train_serial": Workload(("desk_train_r5.yaml",), True, 1, 1, 0, 16, 16,
                             TRAIN_LAYERS),
    # Two replicas per call through the harness process pool; the first call
    # is checked byte for byte against the same spec at --jobs 1.
    "train_pool": Workload(("desk_train_r5.yaml",), True, POOL_JOBS, POOL_JOBS, 0, 1, 1,
                           TRAIN_LAYERS),
}
