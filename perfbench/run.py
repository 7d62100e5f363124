"""fedcell-sim benchmark: one workload per run, metrics by name and unit.

    python3 perfbench/run.py --workload sched_sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seconds 10

Each workload (see workloads.py) runs in a child interpreter whose
environment has the BLAS thread variables removed (what was removed is
printed, nothing is set).
Set-up time comes from separate fresh interpreters.  With --trace 0 the
end-to-end metrics are printed; with --trace 1 the per-layer metrics of a
traced run.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  Exit status: 0 when every
correctness check passed, 1 when one failed, 2 when the program to measure
is missing.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import GATED, PER_LAYER, REPORTED  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 7
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env():
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    removed = {k: os.environ[k] for k in THREAD_VARS if k in os.environ}
    return env, removed


def run_child(cmd, env, timeout: float) -> str:
    """Run `cmd` in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{Path(cmd[1]).name} exceeded {timeout:.0f} s") from None
    finally:
        try:                    # pool workers left behind by a failed child
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise BenchError(f"{Path(cmd[1]).name} exited with status {proc.returncode}")
    return out


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def setup_seconds(workload: str, env, deadline: float) -> list:
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload]
    return [float(run_child(cmd, env, deadline - time.monotonic()).split()[-1])
            for _ in range(SETUP_PROBES)]


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    env, removed = child_env()
    tmp_root = ROOT / ".perfbench_tmp"
    tmp = tmp_root / f"{workload}-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        setups = setup_seconds(workload, env, deadline)
        out = run_child([sys.executable, str(HERE / "measure.py"), "--workload", workload,
                         "--seed", str(seed), "--seconds", str(seconds),
                         "--trace", str(int(trace)), "--tmp", str(tmp)],
                        env, deadline - time.monotonic())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass
    result = json.loads(out.strip().splitlines()[-1])
    result["metrics"]["setup_s"] = statistics.median(setups)
    result["setup_samples"] = setups
    result["environment"].update(removed_vars=removed, cpu=cpu_model())
    return result


def report(workload: str, seed: int, trace: bool, res: dict) -> dict:
    """Print one workload's table; return its last-line JSON object."""
    print(f"== {workload} seed {seed} trace {int(trace)}: {res['replicas']} replicas, "
          f"{res['attempted']} attempted, {res['failed']} failed")
    print("environment: " + json.dumps(res["environment"], sort_keys=True))
    print("setup samples (s): " + " ".join(f"{s:.4f}" for s in res["setup_samples"]))
    if trace:
        table = {k: PER_LAYER[k][:2] for k in PER_LAYER}
        values = res["layers"]
        for name in PER_LAYER:
            if name not in values:
                print(f"  {name:32s} absent")
        if res["absent"]:
            print("absent callables: " + ", ".join(res["absent"]))
    else:
        table = {**GATED, **REPORTED}
        values = res["metrics"]
        print(f"  {'latency samples':32s} {res['units']}")
    for name, (unit, better) in table.items():
        if name in values:
            print(f"  {name:32s} {values[name]:>16.6g} {unit:10s} ({better} is better)")
    for p in res["problems"]:
        print(f"check failed: {p}")
    keys = PER_LAYER if trace else GATED
    return {"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
            "metrics": {k: {"value": values[k], "unit": keys[k][0]}
                        for k in keys if k in values}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="fedcell-sim benchmark")
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    configs = {c for w in WORKLOADS.values() for c in w.configs}
    missing = [p for p in ("src/fedcell/harness.py", *(f"configs/{c}" for c in sorted(configs)))
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: the program to measure is missing: {', '.join(missing)}",
              file=sys.stderr)
        return 2
    names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    lines = {}
    for name in names:
        try:
            res = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 2
        lines[name] = report(name, args.seed, bool(args.trace), res)
    print(json.dumps(lines[names[0]] if len(names) == 1 else lines))
    return 0 if all(line["correct"] for line in lines.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
