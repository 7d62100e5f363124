"""Names, units and directions of every metric the benchmark reports.

GATED and PER_LAYER must match BENCHMARK.json exactly (selftest.py checks
it).  GATED metrics are printed for every workload in the last-line JSON of
an untraced run; REPORTED metrics apply to some workloads only and are
printed in the human-readable table above it.
"""

# name: (unit, better)
GATED = {
    "setup_s": ("s", "lower"),
    "replicas_per_s": ("replicas/s", "higher"),
    "replica_ms_p50": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "opt_objective_mean": ("1", "lower"),
    "dp_leakage_mean": ("rho", "lower"),
}

REPORTED = {
    "rounds_per_s": ("rounds/s", "higher"),
    "final_accuracy_mean": ("1", "higher"),
    "failed_frac": ("1", "lower"),
}

# name: (unit, better, span the metric is computed from; None: not a span)
PER_LAYER = {
    "topology.generate_ms": ("ms", "lower", "topology.generate"),
    "scheduler.opt_sched_ms": ("ms", "lower", "scheduler.opt_sched"),
    "scheduler.rnd_sched_ms": ("ms", "lower", "scheduler.rnd_sched"),
    "scheduler.cell_problem_ms": ("ms", "lower", "scheduler.cell_problem"),
    "scheduler.cell_solve_ms": ("ms", "lower", "scheduler.cell_solve"),
    "scheduler.cell_solve_calls": ("count", "lower", "scheduler.cell_solve"),
    "radio.solve_powers_ms": ("ms", "lower", "radio.solve_powers"),
    "radio.power_system_ms": ("ms", "lower", "radio.power_system"),
    "radio.lp_ms": ("ms", "lower", "radio.lp"),
    "radio.lp_calls": ("count", "lower", "radio.lp"),
    "radio.lp_iters": ("count", "lower", "radio.lp"),
    "radio.lp_rows": ("rows", "lower", "radio.power_system"),
    "radio.enforce_rate_ms": ("ms", "lower", "radio.enforce_rate"),
    "radio.uplink_rate_calls": ("count", "lower", "radio.uplink_rate"),
    "radio.interference_calls": ("count", "lower", "radio.interference"),
    "radio.users_dropped": ("count", "lower", "radio.enforce_rate"),
    "dp.optimize_noise_ms": ("ms", "lower", "dp.optimize_noise"),
    "dp.leakage_report_ms": ("ms", "lower", "dp.leakage_report"),
    "dp.budget_resid_max": ("1", "lower", "dp.optimize_noise"),
    "bounds.evaluate_ms": ("ms", "lower", "bounds.evaluate"),
    "fl.train_s": ("s", "lower", "fl.train"),
    "fl.round_ms_p50": ("ms", "lower", "mlp.evaluate"),
    "fl.round_ms_p95": ("ms", "lower", "mlp.evaluate"),
    "fl.gradient_ms": ("ms", "lower", "fl.gradient"),
    "fl.clip_ms": ("ms", "lower", "fl.clip"),
    "fl.noise_ms": ("ms", "lower", "fl.noise"),
    "fl.noise_stream_ms": ("ms", "lower", "fl.noise_stream"),
    "fl.noise_stream_calls": ("count", "lower", "fl.noise_stream"),
    "fl.update_ms": ("ms", "lower", "fl.update"),
    "fl.aggregate_ms": ("ms", "lower", "fl.aggregate"),
    "fl.users_per_round": ("users", "lower", "fl.gradient"),
    "fl.noise_bytes_computed": ("bytes", "lower", "fl.noise"),
    "mlp.loss_and_grad_ms": ("ms", "lower", "mlp.loss_and_grad"),
    "mlp.evaluate_ms": ("ms", "lower", "mlp.evaluate"),
    "mlp.gflop_computed": ("GFLOP", "lower", "mlp.loss_and_grad"),
    "mlp.gflops_per_s": ("GFLOP/s", "higher", "mlp.loss_and_grad"),
    "data.load_ms": ("ms", "lower", "data.load"),
    "data.shards_ms": ("ms", "lower", "data.shards"),
    "harness.replica_ms_p95": ("ms", "lower", "harness.replica"),
    "harness.replica_self_ms": ("ms", "lower", "harness.replica"),
    "harness.emit_csv_ms": ("ms", "lower", "harness.emit_csv"),
    "harness.csv_bytes": ("bytes", "lower", "harness.emit_csv"),
    "harness.cpu_util": ("1", "higher", None),
    "harness.invol_ctx_switches": ("1/s", "lower", None),
    "harness.trace_overhead": ("1", "lower", None),
}

# Counts that must repeat exactly between two traced runs of one seed.
EXACT_COUNTS = ("radio.lp_calls", "radio.lp_iters", "radio.uplink_rate_calls",
                "radio.users_dropped", "scheduler.cell_solve_calls",
                "fl.noise_stream_calls")
