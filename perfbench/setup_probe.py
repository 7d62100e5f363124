"""Print the seconds a fresh interpreter spends on a workload's set-up:
importing the package, loading the workload's configs and, for training,
building the dataset.

    python3 perfbench/setup_probe.py WORKLOAD
"""
import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import fedcell  # noqa: E402,F401
from fedcell.config import load_config  # noqa: E402
from fedcell.data import load_dataset  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

w = WORKLOADS[sys.argv[1]]
cfgs = [load_config(HERE.parent / "configs" / name) for name in w.configs]
if w.train:
    load_dataset(cfgs[0])
print(time.perf_counter() - T0)
