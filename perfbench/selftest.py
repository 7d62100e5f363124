"""Self-test of the benchmark: a smoke run of every workload at minimum size.

    python3 perfbench/selftest.py

For every workload run.py runs once untraced and twice traced with
--seconds 0, which runs only the checked calls.  The test fails when a run
does not exit 0 with `correct` true, when the metric names and units it
prints differ from BENCHMARK.json, or when a count named in
metrics.EXACT_COUNTS differs between the two traced runs.  It also checks
that run.py exits nonzero and prints no result in a directory holding only
BENCHMARK.json and the benchmark's own files.  Exit status 1 lists what
failed.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import EXACT_COUNTS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bench(workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "7", "--seconds", "0", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def units(spec: dict, key: str) -> dict:
    return {m["name"]: m["unit"] for m in spec[key]}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: units(spec, "end_to_end"), 1: units(spec, "per_layer")}
    failures = []
    for workload in WORKLOADS:
        counts = []
        for trace in (0, 1, 1):
            proc = bench(workload, trace)
            tag = f"{workload} trace {trace}"
            if proc.returncode != 0:
                failures.append(f"{tag}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
                continue
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            if not line["correct"]:
                failures.append(f"{tag}: correct is false")
            got = {name: m["unit"] for name, m in line["metrics"].items()}
            if got != expected[trace]:
                failures.append(f"{tag}: metrics {sorted(set(got) ^ set(expected[trace]))} "
                                f"or their units differ from BENCHMARK.json")
            if trace:
                counts.append({k: line["metrics"][k]["value"] for k in EXACT_COUNTS})
        if len(counts) == 2 and counts[0] != counts[1]:
            failures.append(f"{workload}: counts differ between traced runs: {counts}")
        print(f"{workload}: done", flush=True)

    bare = ROOT / ".perfbench_tmp" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench("sched_sweep", 0, cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            failures.append("run.py gave a result without the program to measure")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass

    for f in failures:
        print(f"FAIL {f}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
