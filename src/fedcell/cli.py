"""Command line front end.

    fedcell-sim run      --config cfg.yaml --algorithms rnd,opt,opt+dp --out dir
    fedcell-sim schedule --config cfg.yaml --algorithm opt --out dir

`run` writes the objective, accuracy, loss and leakage csvs and the
convergence constants of every replica; `schedule` writes one allocation with
each user's privacy loss.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import load_config
from .dp import leakage_report
from .harness import (ALGORITHMS, ExperimentSpec, allocate, emit_csv, run_experiment,
                      write_csv)
from .radio import power_system, uplink_rate
from .scheduler import objective_sum, objective_value
from .topology import generate_topology


def dump_power_system(topo, alloc, config, out_dir: Path) -> list:
    """Write the A matrix and b vector of the power system as csv files."""
    A, b, sched = power_system(topo, alloc, config)
    paths = [out_dir / "power_system_A.csv", out_dir / "power_system_b.csv"]
    write_csv(paths[0], ["user", *sched], ([u, *row] for u, row in zip(sched, A)))
    write_csv(paths[1], ["user", "b"], zip(sched, b))
    return paths


def cmd_run(args) -> int:
    config = load_config(args.config)
    algorithms = tuple(a.strip() for a in args.algorithms.split(",") if a.strip())
    spec = ExperimentSpec(
        config=config,
        algorithms=algorithms,
        replicas=args.replicas,
        seed_base=args.seed,
        train=args.train,
        jobs=args.jobs,
    )
    table = run_experiment(spec)
    paths = emit_csv(table, spec, args.out)
    print(f"replicas: {args.replicas}  algorithms: {','.join(algorithms)}  "
          f"rows: {len(table.rows)}  failures: {len(table.errors)}")
    for alg, rep, msg in table.errors:
        print(f"failed: {alg} replica {rep}: {msg}", file=sys.stderr)
    for p in paths:
        print(p)
    return 0


def cmd_schedule(args) -> int:
    config = load_config(args.config)
    seed = config.seed if args.seed is None else args.seed
    topo = generate_topology(config, seed)
    alloc = allocate(args.algorithm, topo, config, seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    write_csv(out_dir / "allocation.csv",
              ["user", "cell", "samples", "block", "power_w", "sigma", "rate_bit_s",
               "rho"],
              zip(range(topo.num_users), topo.assignment, topo.samples, alloc.block,
                  alloc.powers, alloc.sigmas, uplink_rate(alloc, topo, config),
                  leakage_report(topo, alloc, config).rho))

    mask = alloc.scheduled(topo)
    K = topo.samples.astype(float)
    write_csv(out_dir / "cell_objectives.csv", ["cell", "objective"],
              ((s, objective_sum(K[users], mask[users], alloc.sigmas[users], config.gamma))
               for s, users in enumerate(topo.cell_users)))

    if args.dump_system:
        dump_power_system(topo, alloc, config, out_dir)
    objective = objective_value(topo, alloc, config)
    print(f"objective={objective!r} "
          f"normalized={objective / float(topo.samples.sum())!r} "
          f"scheduled={int(mask.sum())}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fedcell-sim",
                                     description="multi-cell federated learning simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="replica experiment with csv output")
    run.add_argument("--config", required=True)
    run.add_argument("--algorithms", default=",".join(ALGORITHMS))
    run.add_argument("--replicas", type=int, default=100)
    run.add_argument("--train", action="store_true")
    run.add_argument("--out", required=True)
    run.add_argument("--jobs", type=int, default=1)
    run.add_argument("--seed", type=int, default=None)
    run.set_defaults(func=cmd_run)

    sched = sub.add_parser("schedule", help="one allocation as csv")
    sched.add_argument("--config", required=True)
    sched.add_argument("--algorithm", choices=ALGORITHMS, default="opt")
    sched.add_argument("--seed", type=int, default=None)
    sched.add_argument("--out", required=True)
    sched.add_argument("--dump-system", action="store_true",
                       help="also write the power equality system A, b")
    sched.set_defaults(func=cmd_schedule)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
