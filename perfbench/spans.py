"""Per-layer spans and counters, recorded from outside the package.

Each span wraps one public callable at the name its caller looks it up
under (``fedcell.scheduler.solve_powers``, ``Mlp.loss_and_grad``, ...), so the
real code path runs unchanged.  A span's time is the wrapped call's wall
time; its self time excludes the spans nested inside it.  Aggregates stay in
memory.  Pool workers forked after `Tracer.install` inherit the wrappers;
each worker writes what it recorded to a spool file when its outermost span
ends, and the parent merges those files with `collect`.

A callable that no longer exists is recorded as absent instead of failing,
so the tracer keeps working while the package is refactored under it.
"""
from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import fedcell.fl
import fedcell.harness
import fedcell.radio
import fedcell.scheduler
from fedcell.mlp import Mlp

# Spans whose individual durations are kept, for percentiles.
KEEP_SAMPLES = ("harness.replica",)


def _matmul_flops(model, n: int) -> float:
    return 2.0 * n * sum(a * b for a, b in zip(model.sizes[:-1], model.sizes[1:]))


def _after_linprog(tr, res, args):
    tr.counters["radio.lp_iters"] += int(getattr(res, "nit", 0) or 0)


def _after_power_system(tr, res, args):
    tr.counters["radio.lp_rows_sum"] += int(np.asarray(res[2]).size)


def _after_enforce_rate(tr, res, args):
    topo, alloc = args[0], args[1]
    dropped = int(alloc.scheduled(topo).sum()) - int(res.scheduled(topo).sum())
    tr.counters["radio.users_dropped"] += dropped


def _after_optimize_noise(tr, sigmas, args):
    topo, _, config = args[:3]
    on = np.asarray(sigmas) > 0.0
    k = topo.samples[on].astype(float)
    rhs = config.v_max * k.sum()
    resid = abs(float(k @ np.asarray(sigmas)[on] ** 2) - rhs) / rhs
    tr.counters["dp.budget_resid_max"] = max(tr.counters["dp.budget_resid_max"], resid)


def _after_gaussian(tr, res, args):
    grad, sigma = args[0], args[1]
    if sigma > 0.0:
        tr.counters["fl.noise_bytes_computed"] += np.asarray(grad).size * 8


def _after_loss_and_grad(tr, res, args):
    model, x = args[0], args[2]
    n = x.shape[0]
    # forward, weight gradients, and the deltas sent back to hidden layers
    first = 2.0 * n * model.sizes[0] * model.sizes[1]
    tr.counters["mlp.flop"] += 3.0 * _matmul_flops(model, n) - first


def _after_evaluate(tr, res, args):
    model, x = args[0], args[2]
    tr.counters["mlp.flop"] += _matmul_flops(model, x.shape[0])
    if tr.round_mark is not None:
        now = time.perf_counter()
        tr.samples["fl.round"].append(now - tr.round_mark)
        tr.round_mark = now


def _before_train(tr, args):
    tr.round_mark = time.perf_counter()


def _after_train(tr, res, args):
    tr.round_mark = None


def _after_emit_csv(tr, paths, args):
    tr.counters["harness.csv_bytes"] += sum(Path(p).stat().st_size for p in paths)


# (owner, attribute, span name, hooks).  Owner and attribute name the place
# the caller looks the callable up, which is not always where it is defined.
TIMED = (
    (fedcell.harness, "run_replica", "harness.replica", {}),
    (fedcell.harness, "emit_csv", "harness.emit_csv", {"after": _after_emit_csv}),
    (fedcell.harness, "generate_topology", "topology.generate", {}),
    (fedcell.harness, "opt_sched", "scheduler.opt_sched", {}),
    (fedcell.harness, "rnd_sched", "scheduler.rnd_sched", {}),
    (fedcell.scheduler, "build_cell_problem", "scheduler.cell_problem", {}),
    (fedcell.scheduler, "solve_cell_schedule", "scheduler.cell_solve", {}),
    (fedcell.scheduler, "solve_powers", "radio.solve_powers", {}),
    (fedcell.radio, "power_system", "radio.power_system", {"after": _after_power_system}),
    (fedcell.radio, "linprog", "radio.lp", {"after": _after_linprog}),
    (fedcell.scheduler, "enforce_rate", "radio.enforce_rate", {"after": _after_enforce_rate}),
    (fedcell.harness, "optimize_noise", "dp.optimize_noise", {"after": _after_optimize_noise}),
    (fedcell.harness, "leakage_report", "dp.leakage_report", {}),
    (fedcell.harness, "evaluate_bound", "bounds.evaluate", {}),
    (fedcell.harness, "c3_constraint_check", "bounds.evaluate", {}),
    (fedcell.harness, "load_dataset", "data.load", {}),
    (fedcell.harness, "train", "fl.train", {"before": _before_train, "after": _after_train}),
    (fedcell.fl, "build_shards", "data.shards", {}),
    (fedcell.fl, "local_gradient", "fl.gradient", {}),
    (fedcell.fl, "clip_global_norm", "fl.clip", {}),
    (fedcell.fl, "gaussian_mechanism", "fl.noise", {"after": _after_gaussian}),
    (fedcell.fl, "noise_stream", "fl.noise_stream", {}),
    (fedcell.fl, "local_update", "fl.update", {}),
    (fedcell.fl, "bs_aggregate", "fl.aggregate", {}),
    (fedcell.fl, "global_aggregate", "fl.aggregate", {}),
    (Mlp, "loss_and_grad", "mlp.loss_and_grad", {"after": _after_loss_and_grad}),
    (Mlp, "evaluate", "mlp.evaluate", {"after": _after_evaluate}),
)

# Hot scalar helpers: calls are counted, not timed.
COUNTED = (
    (fedcell.radio, "uplink_rate", "radio.uplink_rate"),
    (fedcell.radio, "interference", "radio.interference"),
)


def _label(owner, attr) -> str:
    if isinstance(owner, type):
        return f"{owner.__module__}.{owner.__qualname__}.{attr}"
    return f"{owner.__name__}.{attr}"


class Tracer:
    """Span and counter aggregates for one process, plus merged worker data."""

    def __init__(self, spool_dir: Path):
        self.spool_dir = Path(spool_dir)
        self.pid = os.getpid()
        self.installed = {}   # label -> span name
        self.absent = []      # labels of callables that no longer exist
        self._originals = []
        self._flushes = 0
        self.reset()

    def reset(self):
        self.total = defaultdict(float)     # span -> seconds
        self.own = defaultdict(float)       # span -> seconds not covered by child spans
        self.calls = defaultdict(int)
        self.samples = defaultdict(list)    # span -> per-call seconds
        self.counters = defaultdict(float)
        self.round_mark = None
        self._stack = []

    def _check_process(self):
        if os.getpid() != self.pid:     # first call in a forked worker
            self.pid = os.getpid()
            self.reset()

    def _wrap_timed(self, original, name, before, after):
        tracer = self
        keep = name in KEEP_SAMPLES

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            tracer._check_process()
            if before is not None:
                before(tracer, args)
            stack = tracer._stack
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                tracer.total[name] += dur
                tracer.own[name] += dur - child
                tracer.calls[name] += 1
                if keep:
                    tracer.samples[name].append(dur)
            if after is not None:
                after(tracer, result, args)
            if not stack and os.getpid() != tracer.owner_pid:
                tracer._flush()
            return result
        return wrapper

    def _wrap_counted(self, original, name):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            tracer._check_process()
            tracer.calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    def install(self):
        self.owner_pid = os.getpid()
        entries = [(o, a, n, h.get("before"), h.get("after")) for o, a, n, h in TIMED]
        entries += [(o, a, n, None, None) for o, a, n in COUNTED]
        counted = {n for _, _, n in COUNTED}
        for owner, attr, name, before, after in entries:
            label = _label(owner, attr)
            original = getattr(owner, attr, None)
            if original is None:
                self.absent.append(label)
                continue
            if name in counted:
                wrapper = self._wrap_counted(original, name)
            else:
                wrapper = self._wrap_timed(original, name, before, after)
            setattr(owner, attr, wrapper)
            self._originals.append((owner, attr, original))
            self.installed[label] = name

    def uninstall(self):
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def _flush(self):
        """Worker side: hand what this process recorded to the parent."""
        self._flushes += 1
        path = self.spool_dir / f"{self.pid}-{self._flushes}.json"
        state = {"total": self.total, "own": self.own, "calls": self.calls,
                 "samples": self.samples, "counters": self.counters}
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(state))
        tmp.rename(path)
        self.reset()

    def collect(self):
        """Parent side: merge and delete every spool file workers left."""
        for path in sorted(self.spool_dir.glob("*.json")):
            state = json.loads(path.read_text())
            path.unlink()
            for key in ("total", "own", "calls"):
                for name, v in state[key].items():
                    getattr(self, key)[name] += v
            for name, v in state["samples"].items():
                self.samples[name].extend(v)
            for name, v in state["counters"].items():
                if name == "dp.budget_resid_max":
                    self.counters[name] = max(self.counters[name], v)
                else:
                    self.counters[name] += v

    def fired(self) -> set:
        """Span names that recorded at least one call."""
        return {name for name, n in self.calls.items() if n > 0}
