import math
from dataclasses import replace

import numpy as np
import pytest

from fedcell.bounds import BoundConstants, c3_constraint_check, evaluate_bound
from fedcell.config import SystemConfig
from fedcell.radio import empty_allocation
from fedcell.scheduler import opt_sched
from fedcell.topology import generate_topology


def manual_setup(scheduled, sigma, **over):
    cfg = SystemConfig().replace(num_cells=1, total_users=4, total_samples=1000, **over)
    topo = generate_topology(cfg, 0)
    alloc = empty_allocation(topo)
    alloc.block[scheduled] = np.arange(len(scheduled))
    alloc.sigmas = np.asarray(sigma, dtype=float)
    return cfg, topo, alloc


def test_constants_match_hand_arithmetic():
    cfg, topo, alloc = manual_setup([0, 2], [0.5, 0.0, 0.25, 0.0],
                                    mu=2.0, clip=8.0, xi1=3.0, xi2=1.5)
    K = [float(k) for k in topo.samples]
    total = sum(K)
    excluded = K[1] + K[3]
    served = K[0] + K[2]
    dim = 11
    q = 4.0 * 1.5 * (excluded / total) ** 2
    c1 = 1.0 - 2.0 / 8.0 * (1.0 - q) if q <= 1.0 else q
    c2 = 2.0 * 3.0 / 8.0 * (excluded / total) ** 2
    c3 = dim / (2.0 * 8.0) * ((K[0] * 0.5 / served) ** 2 + (K[2] * 0.25 / served) ** 2)
    got = evaluate_bound(topo, alloc, cfg, dim)
    assert got.c1 == pytest.approx(c1, rel=1e-12)
    assert got.c2 == pytest.approx(c2, rel=1e-12)
    assert got.c3 == pytest.approx(c3, rel=1e-12)


def test_full_participation_contracts():
    cfg, topo, alloc = manual_setup([0, 1, 2, 3], [0.1] * 4)
    got = evaluate_bound(topo, alloc, cfg, 100)
    # nothing excluded: c1 = 1 - mu/L < 1, c2 = 0
    assert got.c1 == pytest.approx(1.0 - cfg.mu / cfg.clip, rel=1e-12)
    assert got.c2 == 0.0
    assert got.converges


def test_divergence_flag_when_too_much_excluded():
    # schedule only the smallest holder; with xi2 = 1 and most data excluded,
    # the contraction factor rises above one
    cfg, topo, alloc = manual_setup([0], [0.1, 0, 0, 0])
    small = int(np.argmin(topo.samples))
    if small != 0:
        alloc = empty_allocation(topo)
        sig = np.zeros(4)
        sig[small] = 0.1
        alloc.block[small] = 0
        alloc.sigmas = sig
    got = evaluate_bound(topo, alloc, cfg, 100)
    K = topo.samples.astype(float)
    frac = (K.sum() - K.min()) / K.sum()
    q = 4 * frac ** 2
    assert q > 1.0
    assert got.c1 == pytest.approx(q, rel=1e-12)
    assert not got.converges


def test_bound_requires_scheduled_samples():
    cfg, topo, alloc = manual_setup([], [0.0] * 4)
    with pytest.raises(ValueError):
        evaluate_bound(topo, alloc, cfg, 10)


def test_c3_check_tracks_budget():
    cfg, topo, alloc = manual_setup([0, 1], [1.0, 1.0, 0.0, 0.0])
    assert c3_constraint_check(topo, alloc, cfg)  # sigma^2 = 1 << v_max
    hot = alloc.copy()
    hot.sigmas = np.array([10.0, 10.0, 0.0, 0.0])  # sigma^2 far above v_max
    assert not c3_constraint_check(topo, hot, cfg)


def test_c3_check_empty_schedule_is_trivially_true():
    cfg, topo, alloc = manual_setup([], [0.0] * 4)
    assert c3_constraint_check(topo, alloc, cfg)


def test_pipeline_allocations_converge():
    cfg = SystemConfig()
    topo = generate_topology(cfg, 8)
    alloc = opt_sched(topo, cfg, 8)
    got = evaluate_bound(topo, alloc, cfg, 1000)
    assert c3_constraint_check(topo, alloc, cfg)
    assert got.c3 > 0.0
    assert got.converges


def excluded_share(topo, alloc):
    K = topo.samples.astype(float)
    return float(K[~alloc.scheduled(topo)].sum() / K.sum())


def test_c1_contracts_below_the_crossover():
    # leave out the smallest holder only: q = 4 xi2 s^2 stays below one
    cfg, topo, alloc = manual_setup([0, 1, 2, 3], [0.1] * 4, mu=2.0, clip=8.0)
    small = int(np.argmin(topo.samples))
    alloc.block[small] = -1
    q = 4.0 * cfg.xi2 * excluded_share(topo, alloc) ** 2
    assert 0.0 < q < 1.0
    got = evaluate_bound(topo, alloc, cfg, 10)
    assert got.c1 == pytest.approx(1.0 - 0.25 * (1.0 - q), rel=1e-12)
    assert 1.0 - 0.25 < got.c1 < 1.0
    assert got.converges


def test_c1_is_q_above_the_crossover():
    cfg, topo, alloc = manual_setup([0, 1, 2, 3], [0.1] * 4, xi2=50.0)
    small = int(np.argmin(topo.samples))
    alloc.block[small] = -1
    q = 4.0 * 50.0 * excluded_share(topo, alloc) ** 2
    assert q > 1.0
    got = evaluate_bound(topo, alloc, cfg, 10)
    assert got.c1 == pytest.approx(q, rel=1e-12)
    assert not got.converges


def test_c1_continuous_at_the_crossover():
    cfg, topo, alloc = manual_setup([0, 1, 2, 3], [0.1] * 4, mu=2.0, clip=8.0)
    small = int(np.argmin(topo.samples))
    alloc.block[small] = -1
    tie = 1.0 / (4.0 * excluded_share(topo, alloc) ** 2)   # xi2 that puts q at one
    assert tie >= 1.0
    values = [evaluate_bound(topo, alloc, replace(cfg, xi2=tie * (1.0 + rel)), 10).c1
              for rel in (-1e-9, 0.0, 1e-9)]
    assert values == pytest.approx([1.0, 1.0, 1.0], abs=1e-8)
    assert values[0] < 1.0 < values[2]
