"""Run one benchmark workload and print what it measured as one JSON line.

run.py starts this in a fresh interpreter whose environment has the BLAS
thread variables removed:

    python3 perfbench/measure.py --workload sched_sweep --seed 1 \
        --seconds 10 --trace 0 --tmp .perfbench_tmp/x

The package is driven only through `fedcell.harness.run_experiment`,
`emit_csv` and, when tracing, the public callables that spans.py wraps.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import fedcell.harness  # noqa: E402
from fedcell.config import load_config  # noqa: E402
from fedcell.harness import CSV_NAMES, ExperimentSpec  # noqa: E402

from metrics import PER_LAYER  # noqa: E402
from workloads import POOL_JOBS, SEED_STRIDE, TRAIN_ROUNDS, WORKLOADS, Workload  # noqa: E402

# Failures the simulator raises on purpose; anything else is a programming error.
DOMAIN_ERRORS = ("ScheduleInfeasibleError", "InfeasibleNoiseError",
                 "PowerSolveError", "TrainDivergedError", "RuntimeError")


def load_configs(w: Workload) -> list:
    cfgs = [load_config(ROOT / "configs" / name) for name in w.configs]
    if w.train:
        cfgs = [c.replace(rounds=TRAIN_ROUNDS) for c in cfgs]
    return cfgs


class Loop:
    """Times run_experiment calls and keeps what the checks need."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.busy = 0.0             # seconds inside run_experiment
        self.replicas = 0
        self.rounds = 0
        self.attempted = 0
        self.errors = []
        self.latency = []           # per replica: seconds of the call that returned it
        self.checked_busy = None    # `busy` when the checked calls were done
        self.checked_counts = None  # tracer calls and counters at that point

    def mark_checked(self):
        self.checked_busy = self.busy
        if self.tracer is not None:
            self.checked_counts = {"calls": dict(self.tracer.calls),
                                   "counters": dict(self.tracer.counters)}

    def call(self, spec: ExperimentSpec):
        t0 = time.perf_counter()
        table = fedcell.harness.run_experiment(spec)
        dt = time.perf_counter() - t0
        if self.tracer is not None:
            self.tracer.collect()
        self.busy += dt
        self.replicas += spec.replicas
        self.attempted += spec.replicas * len(spec.algorithms)
        self.errors += table.errors
        if spec.train:
            self.rounds += sum(len(r.accuracy) for r in table.rows)
        if spec.replicas <= spec.jobs:     # every replica of the call ran concurrently
            self.latency += [dt] * spec.replicas
        return table


def rusage_now():
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (time.perf_counter(),
            me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime,
            me.ru_nivcsw + kids.ru_nivcsw)


def run_loop(w: Workload, cfgs, base: int, seconds: float, loop: Loop, tmp: Path,
             tag: str):
    """The sweep calls, then loop units until `seconds` have passed.

    The sweep calls and the first `fixed_units` units are the checked calls:
    their csv is emitted under tmp/<tag>-<k> as soon as they are done, and
    the loop marks that point.  Returns [(spec, table, csv dir)] for them.
    """
    fixed = []
    out = []

    def emit():
        for k, (spec, table) in enumerate(fixed):
            d = tmp / f"{tag}-{k}"
            fedcell.harness.emit_csv(table, spec, d)
            out.append((spec, table, d))
        loop.mark_checked()

    start = time.perf_counter()
    for cfg in cfgs if w.sweep else ():
        spec = ExperimentSpec(config=cfg, replicas=w.sweep, seed_base=base, jobs=w.jobs)
        fixed.append((spec, loop.call(spec)))
    i = 0
    while i < w.min_units or time.perf_counter() - start < seconds:
        if i == w.fixed_units:
            emit()
        spec = ExperimentSpec(config=cfgs[i % len(cfgs)], replicas=w.per_unit,
                              seed_base=base + w.sweep + (i // len(cfgs)) * w.per_unit,
                              train=w.train, jobs=w.jobs)
        table = loop.call(spec)
        if i < w.fixed_units:
            fixed.append((spec, table))
        i += 1
    if i == w.fixed_units:
        emit()
    return out


def check_outputs(fixed, loop: Loop) -> list:
    """Failure messages; empty when every output check passes."""
    problems = []
    for _, _, d in fixed:
        with open(d / "bounds.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        bad = [r for r in rows if r["c3_check"] != "true"]
        if bad:
            problems.append(f"{d.name}: {len(bad)} bounds.csv rows with c3_check false")
        obj = {}
        for r in rows:
            obj.setdefault(r["replica"], {})[r["algorithm"]] = float(r["objective"])
        for rep, by_alg in obj.items():
            if {"rnd", "opt", "opt+dp"} - set(by_alg):
                continue            # a failed algorithm; counted in `failed`
            if by_alg["opt"] > by_alg["rnd"] * (1.0 + 1e-12):
                problems.append(f"{d.name} replica {rep}: opt objective above rnd")
            if by_alg["opt+dp"] > by_alg["opt"] * (1.0 + 1e-12):
                problems.append(f"{d.name} replica {rep}: opt+dp objective above opt")
    for alg, rep, msg in loop.errors:
        if msg.split(":", 1)[0] not in DOMAIN_ERRORS:
            problems.append(f"{alg} replica {rep} raised a non-domain error: {msg}")
    return problems


def same_csv(a: Path, b: Path) -> list:
    return [f"{name} differs between --jobs 1 and --jobs {POOL_JOBS}"
            for name in CSV_NAMES if (a / name).read_bytes() != (b / name).read_bytes()]


def quality(fixed) -> dict:
    rows = [r for _, table, _ in fixed for r in table.rows]
    out = {
        "opt_objective_mean": float(np.mean([r.normalized_objective for r in rows
                                             if r.algorithm == "opt"])),
        "dp_leakage_mean": float(np.mean([r.leakage_total for r in rows
                                          if r.algorithm == "opt+dp"])),
    }
    if any(r.accuracy for r in rows):
        out["final_accuracy_mean"] = float(np.mean([r.accuracy[-1] for r in rows]))
    return out


def peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def end_to_end(loop: Loop) -> dict:
    out = {
        "replicas_per_s": loop.replicas / loop.busy,
        "replica_ms_p50": 1e3 * statistics.median(loop.latency),
        "peak_rss_mb": peak_rss_mb(),
        "failed_frac": len(loop.errors) / loop.attempted,
    }
    if loop.rounds:
        out["rounds_per_s"] = loop.rounds / loop.busy
    return out


def layer_metrics(tr, counts: dict, overhead: float, usage: tuple) -> dict:
    """Per-layer metrics from a tracer.  Counts come from `counts`, the
    tracer's snapshot after the checked calls, so they repeat for one seed;
    times come from the whole traced part."""
    reps = max(tr.calls["harness.replica"], 1)
    rounds = len(tr.samples["fl.round"])

    def per_rep(span):
        return 1e3 * tr.total[span] / reps

    def per_round(span):
        return 1e3 * tr.total[span] / rounds if rounds else 0.0

    def per_call(span, scale=1e3):
        return scale * tr.total[span] / tr.calls[span] if tr.calls[span] else 0.0

    def pct_ms(span, q):
        xs = tr.samples[span]
        return 1e3 * float(np.percentile(xs, q)) if xs else 0.0

    def calls(span):
        return counts["calls"].get(span, 0)

    def counter(name):
        return counts["counters"].get(name, 0)

    mlp_s = tr.total["mlp.loss_and_grad"] + tr.total["mlp.evaluate"]
    wall, cpu, ctx = usage
    m = {
        "topology.generate_ms": per_rep("topology.generate"),
        "scheduler.opt_sched_ms": per_rep("scheduler.opt_sched"),
        "scheduler.rnd_sched_ms": per_rep("scheduler.rnd_sched"),
        "scheduler.cell_problem_ms": per_rep("scheduler.cell_problem"),
        "scheduler.cell_solve_ms": per_rep("scheduler.cell_solve"),
        "scheduler.cell_solve_calls": calls("scheduler.cell_solve"),
        "radio.solve_powers_ms": per_rep("radio.solve_powers"),
        "radio.power_system_ms": per_rep("radio.power_system"),
        "radio.lp_ms": per_rep("radio.lp"),
        "radio.lp_calls": calls("radio.lp"),
        "radio.lp_iters": counter("radio.lp_iters"),
        "radio.lp_rows": counter("radio.lp_rows_sum") / max(calls("radio.power_system"), 1),
        "radio.enforce_rate_ms": per_rep("radio.enforce_rate"),
        "radio.uplink_rate_calls": calls("radio.uplink_rate"),
        "radio.interference_calls": calls("radio.interference"),
        "radio.users_dropped": counter("radio.users_dropped"),
        "dp.optimize_noise_ms": per_rep("dp.optimize_noise"),
        "dp.leakage_report_ms": per_rep("dp.leakage_report"),
        "dp.budget_resid_max": tr.counters["dp.budget_resid_max"],
        "bounds.evaluate_ms": per_rep("bounds.evaluate"),
        "fl.train_s": per_call("fl.train", 1.0),
        "fl.round_ms_p50": pct_ms("fl.round", 50),
        "fl.round_ms_p95": pct_ms("fl.round", 95),
        "fl.gradient_ms": per_round("fl.gradient"),
        "fl.clip_ms": per_round("fl.clip"),
        "fl.noise_ms": per_round("fl.noise"),
        "fl.noise_stream_ms": per_round("fl.noise_stream"),
        "fl.noise_stream_calls": calls("fl.noise_stream"),
        "fl.update_ms": per_round("fl.update"),
        "fl.aggregate_ms": per_round("fl.aggregate"),
        "fl.users_per_round": tr.calls["fl.gradient"] / rounds if rounds else 0.0,
        "fl.noise_bytes_computed": counter("fl.noise_bytes_computed"),
        "mlp.loss_and_grad_ms": per_round("mlp.loss_and_grad"),
        "mlp.evaluate_ms": per_round("mlp.evaluate"),
        "mlp.gflop_computed": counter("mlp.flop") / 1e9,
        "mlp.gflops_per_s": tr.counters["mlp.flop"] / 1e9 / mlp_s if mlp_s else 0.0,
        "data.load_ms": per_call("data.load"),
        "data.shards_ms": 1e3 * tr.total["data.shards"] / max(tr.calls["fl.train"], 1),
        "harness.replica_ms_p95": pct_ms("harness.replica", 95),
        "harness.replica_self_ms": 1e3 * tr.own["harness.replica"] / reps,
        "harness.emit_csv_ms": per_call("harness.emit_csv"),
        "harness.csv_bytes": counter("harness.csv_bytes"),
        "harness.cpu_util": cpu / wall,
        "harness.invol_ctx_switches": ctx / wall,
        "harness.trace_overhead": overhead,
    }
    # a metric whose span no longer exists in the package is reported absent
    live = set(tr.installed.values())
    return {k: v for k, v in m.items() if PER_LAYER[k][2] in live | {None}}


def measure(name: str, seed: int, seconds: float, trace: bool, tmp: Path) -> dict:
    w = WORKLOADS[name]
    cfgs = load_configs(w)
    base = seed * SEED_STRIDE
    problems = []
    ref_dir = None
    if w.train:
        # untimed: builds the harness's dataset cache (pool workers fork from
        # this process and inherit it) and gives the --jobs 1 reference csv
        spec = ExperimentSpec(config=cfgs[0], replicas=POOL_JOBS, seed_base=base,
                              train=True, jobs=1)
        ref_dir = tmp / "reference"
        fedcell.harness.emit_csv(fedcell.harness.run_experiment(spec), spec, ref_dir)

    result = {"absent": [], "layers": {}}
    tracer = None
    if trace:
        import spans
        # the checked calls once untraced, for the overhead and the usage figures
        plain = Loop()
        u0 = rusage_now()
        run_loop(w, cfgs, base, 0.0, plain, tmp, "untraced")
        usage = tuple(b - a for a, b in zip(u0, rusage_now()))
        (tmp / "spool").mkdir()
        tracer = spans.Tracer(tmp / "spool")
        tracer.install()
        result["absent"] = tracer.absent

    loop = Loop(tracer)
    fixed = run_loop(w, cfgs, base, seconds, loop, tmp, "checked")
    problems += check_outputs(fixed, loop)
    if ref_dir is not None and w.jobs > 1:
        problems += same_csv(ref_dir, fixed[0][2])

    if trace:
        if w.train:
            # the harness caches the dataset per process; build it once more to time it
            fedcell.harness.load_dataset(cfgs[0])
        tracer.uninstall()
        fired = tracer.fired()
        for label, span in sorted(tracer.installed.items()):
            if span.startswith(w.layers) and span not in fired:
                problems.append(f"wrapper {label} ({span}) never fired on {name}")
        overhead = loop.checked_busy / plain.checked_busy
        result["layers"] = layer_metrics(tracer, loop.checked_counts, overhead, usage)

    result["metrics"] = {**end_to_end(loop), **quality(fixed)}
    result.update(correct=not problems, problems=problems, attempted=loop.attempted,
                  failed=len(loop.errors), units=len(loop.latency),
                  replicas=loop.replicas)
    return result


def environment() -> dict:
    import scipy
    blas = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError):
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "openblas": blas,
            "nproc": len(os.sched_getaffinity(0))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tmp", required=True, type=Path)
    args = ap.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.tmp)
    result["environment"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
