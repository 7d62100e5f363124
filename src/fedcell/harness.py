"""Replica experiments: run algorithms across seeds, emit deterministic csv.

A replica = one topology seed.  All requested algorithms run against the same
topology and the same initial draws, so per-seed comparisons are paired.
Replica work can fan out over processes; rows are ordered by (replica,
algorithm) before writing, so output bytes do not depend on the job count.
"""
from __future__ import annotations

import csv
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .bounds import c3_constraint_check, evaluate_bound
from .config import SystemConfig
from .data import load_dataset
from .dp import InfeasibleNoiseError, leakage_report, optimize_noise
from .fl import TrainDivergedError, train
from .mlp import Mlp
from .radio import Allocation, PowerSolveError
from .scheduler import ScheduleInfeasibleError, objective_value, opt_sched, rnd_sched
from .topology import Topology, generate_topology


def _opt_with_optimal_noise(topo, config, seed, done):
    """The replica's `opt` allocation with its noise scales replaced by the
    budget-tight optimum; the schedule itself is untouched."""
    base = done.get("opt")
    if base is None:
        base = opt_sched(topo, config, seed)
    alloc = base.copy()
    alloc.sigmas = optimize_noise(topo, base, config)
    return alloc


# Every algorithm, by name: builder(topo, config, seed, done), where `done`
# maps the names already built on this topology to their allocations.  The
# builders look the scheduling functions up when called, not at import.
_BUILDERS = {
    "rnd": lambda topo, config, seed, done: rnd_sched(topo, config, seed),
    "opt": lambda topo, config, seed, done: opt_sched(topo, config, seed),
    "opt+dp": _opt_with_optimal_noise,
}

ALGORITHMS = tuple(_BUILDERS)

# Failures a replica can meet on valid input; anything else propagates.
DOMAIN_ERRORS = (ScheduleInfeasibleError, InfeasibleNoiseError,
                 PowerSolveError, TrainDivergedError)

CSV_NAMES = ("objective_cdf.csv", "accuracy.csv", "loss.csv",
             "leakage_cdf.csv", "bounds.csv")

# bounds.csv columns, each a ReplicaRecord field of the same name
BOUNDS_COLUMNS = ("algorithm", "replica", "seed", "objective",
                  "normalized_objective", "scheduled_users", "scheduled_samples",
                  "leakage_total", "c1", "c2", "c3", "converges", "c3_check")


@dataclass
class ExperimentSpec:
    config: SystemConfig
    algorithms: tuple = ALGORITHMS
    replicas: int = 100
    seed_base: int | None = None   # defaults to config.seed
    train: bool = False
    jobs: int = 1

    def base_seed(self) -> int:
        return self.config.seed if self.seed_base is None else self.seed_base


@dataclass
class ReplicaRecord:
    algorithm: str
    replica: int
    seed: int
    objective: float
    normalized_objective: float
    scheduled_users: int
    scheduled_samples: float
    leakage_total: float
    leakage_rho: list            # rho of each scheduled user, ascending user id
    c1: float
    c2: float
    c3: float
    converges: bool
    c3_check: bool
    accuracy: list | None = None
    loss: list | None = None


@dataclass
class MetricsTable:
    rows: list = field(default_factory=list)
    errors: list = field(default_factory=list)   # (algorithm, replica, message)

    def rows_for(self, algorithm: str) -> list:
        return [r for r in self.rows if r.algorithm == algorithm]

    def paired(self, metric: str, first: str, second: str):
        """Aligned per-replica metric arrays for two algorithms, skipping
        replicas where either side failed."""
        a = {r.replica: getattr(r, metric) for r in self.rows_for(first)}
        b = {r.replica: getattr(r, metric) for r in self.rows_for(second)}
        keys = sorted(set(a) & set(b))
        return (np.array([a[k] for k in keys]), np.array([b[k] for k in keys]))


_DATASET_CACHE = {}


def _dataset_for(config: SystemConfig):
    key = (config.dataset_path, config.total_samples, config.dataset_test_size,
           config.features, config.classes, config.seed)
    if key not in _DATASET_CACHE:
        _DATASET_CACHE[key] = load_dataset(config)
    return _DATASET_CACHE[key]


def _builder(name: str):
    if name not in _BUILDERS:
        raise ValueError(f"unknown algorithm {name!r} "
                         f"(choose from {', '.join(ALGORITHMS)})")
    return _BUILDERS[name]


def allocate(name: str, topo: Topology, config: SystemConfig, seed: int,
             done: dict | None = None) -> Allocation:
    """Allocation of algorithm `name` (one of ALGORITHMS) on `topo`.

    `done` maps algorithms already built on the same topology and seed to
    their allocations; `opt+dp` reuses the `opt` entry instead of solving the
    schedule again.
    """
    return _builder(name)(topo, config, seed, {} if done is None else done)


def run_replica(config: SystemConfig, algorithms, replica: int, seed: int,
                do_train: bool):
    """All requested algorithms on one topology seed.  Returns
    (records, errors); errors holds the DOMAIN_ERRORS met on the way."""
    records = []
    errors = []
    topo = generate_topology(config, seed)
    dataset = _dataset_for(config) if do_train else None
    dim = Mlp(config.features, config.classes).dim
    done = {}
    for alg in algorithms:
        try:
            alloc = done[alg] = allocate(alg, topo, config, seed, done)
            mask = alloc.scheduled(topo)
            # every user dropped by the rate floor; `done` keeps the empty
            # allocation, so opt+dp fails on it without solving again
            if not mask.any():
                raise ScheduleInfeasibleError("no user scheduled")
            report = leakage_report(topo, alloc, config)
            const = evaluate_bound(topo, alloc, config, dim)
            objective = objective_value(topo, alloc, config)
            rec = ReplicaRecord(
                algorithm=alg,
                replica=replica,
                seed=seed,
                objective=objective,
                normalized_objective=objective / float(topo.samples.sum()),
                scheduled_users=int(mask.sum()),
                scheduled_samples=float(topo.samples[mask].sum()),
                leakage_total=report.total,
                leakage_rho=report.rho[mask].tolist(),
                c1=const.c1,
                c2=const.c2,
                c3=const.c3,
                converges=const.converges,
                c3_check=c3_constraint_check(topo, alloc, config),
            )
            if do_train:
                state = train(topo, alloc, dataset, config, seed)
                rec.accuracy = list(state.test_accuracy)
                rec.loss = list(state.test_loss)
            records.append(rec)
        except DOMAIN_ERRORS as exc:  # keep the sweep alive; pairing drops this replica
            errors.append((alg, replica, f"{type(exc).__name__}: {exc}"))
    return records, errors


def _replica_task(args):
    return run_replica(*args)


def run_experiment(spec: ExperimentSpec) -> MetricsTable:
    if not spec.algorithms:
        raise ValueError("no algorithm requested")
    for name in ("replicas", "jobs"):
        if getattr(spec, name) < 1:
            raise ValueError(f"{name} must be >= 1, got {getattr(spec, name)}")
    for i, alg in enumerate(spec.algorithms):
        _builder(alg)
        if alg in spec.algorithms[:i]:
            raise ValueError(f"algorithm {alg!r} is requested twice")
    base = spec.base_seed()
    tasks = [(spec.config, tuple(spec.algorithms), r, base + r, spec.train)
             for r in range(spec.replicas)]
    table = MetricsTable()
    if spec.jobs > 1:
        with ProcessPoolExecutor(max_workers=spec.jobs) as pool:
            outcomes = list(pool.map(_replica_task, tasks))
    else:
        outcomes = [_replica_task(t) for t in tasks]
    order = {alg: i for i, alg in enumerate(spec.algorithms)}
    for records, errors in outcomes:
        table.rows.extend(records)
        table.errors.extend(errors)
    table.rows.sort(key=lambda r: (r.replica, order[r.algorithm]))
    table.errors.sort(key=lambda e: (e[1], e[0]))
    return table


def empirical_cdf(values):
    """(sorted values, k/n levels) of the empirical distribution."""
    v = np.sort(np.asarray(values, dtype=float))
    if v.size == 0:
        return v, v
    return v, np.arange(1, v.size + 1) / v.size


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, str):
        return x
    return repr(float(x))


def write_csv(path, header, rows) -> None:
    """Write the header and rows to `path`, every cell formatted by `_fmt`,
    so the bytes of every csv depend on `_fmt` alone."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([_fmt(x) for x in row] for row in chain([header], rows))


def emit_csv(table: MetricsTable, spec: ExperimentSpec, out_dir) -> list:
    """Write the five experiment csv files; returns their paths.

    Sections without data (e.g. accuracy without --train) still get their
    header, so downstream readers never branch on file existence.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / name for name in CSV_NAMES]
    cdf_rows = []
    leak_rows = []
    acc_rows = []
    loss_rows = []
    for alg in spec.algorithms:
        rows = table.rows_for(alg)
        vals, lev = empirical_cdf([r.normalized_objective for r in rows])
        cdf_rows += [(alg, v, l) for v, l in zip(vals, lev)]
        vals, lev = empirical_cdf([rho for r in rows for rho in r.leakage_rho])
        leak_rows += [(alg, v, l) for v, l in zip(vals, lev)]
    for r in table.rows:
        if r.accuracy is not None:
            acc_rows += [(r.algorithm, r.replica, t, a)
                         for t, a in enumerate(r.accuracy)]
        if r.loss is not None:
            loss_rows += [(r.algorithm, r.replica, t, x)
                          for t, x in enumerate(r.loss)]

    write_csv(paths[0], ["algorithm", "normalized_objective", "cdf"], cdf_rows)
    write_csv(paths[1], ["algorithm", "replica", "round", "test_accuracy"], acc_rows)
    write_csv(paths[2], ["algorithm", "replica", "round", "test_loss"], loss_rows)
    write_csv(paths[3], ["algorithm", "rho", "cdf"], leak_rows)
    write_csv(paths[4], BOUNDS_COLUMNS,
              ([getattr(r, c) for c in BOUNDS_COLUMNS] for r in table.rows))
    return paths
