from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import bisection_noise

from fedcell.config import SystemConfig, load_config
from fedcell.dp import InfeasibleNoiseError, leakage, leakage_report, optimize_noise
from fedcell.harness import allocate
from fedcell.radio import empty_allocation
from fedcell.scheduler import objective_value, opt_sched
from fedcell.topology import generate_topology

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_leakage_reference_value():
    # 2 * 200 * (10 / 100)^2
    assert leakage(200, 10.0, 100.0, 1.0) == 4.0


def test_leakage_requires_positive_inputs():
    with pytest.raises(ValueError):
        leakage(200, 10.0, 100.0, 0.0)
    with pytest.raises(ValueError):
        leakage(200, 10.0, 0.0, 1.0)


@settings(max_examples=60)
@given(rounds=st.integers(1, 500), clip=st.floats(0.1, 100.0),
       scale=st.floats(1.0, 1e4), factor=st.floats(0.1, 10.0))
def test_leakage_inverse_square_in_sigma(rounds, clip, scale, factor):
    base = leakage(rounds, clip, scale, 1.0)
    moved = leakage(rounds, clip, scale, factor)
    assert moved * factor ** 2 == pytest.approx(base, rel=1e-9)


def small_system(seed=0, **over):
    cfg = SystemConfig().replace(**over)
    topo = generate_topology(cfg, seed)
    return cfg, topo


def test_total_matches_per_user_sum():
    cfg, topo = small_system(seed=2)
    alloc = opt_sched(topo, cfg, 2)
    report = leakage_report(topo, alloc, cfg)
    assert report.total == pytest.approx(report.rho.sum(), rel=1e-12)
    mask = alloc.scheduled(topo)
    assert np.all(report.rho[~mask] == 0.0)
    assert np.all(report.rho[mask] > 0.0)
    for u in np.flatnonzero(mask):
        expect = 2 * cfg.rounds * (cfg.clip / (topo.samples[u] * alloc.sigmas[u])) ** 2
        assert report.rho[u] == pytest.approx(expect, rel=1e-12)


def manual_allocation(topo, cfg, scheduled_users, sigma=1.0):
    alloc = empty_allocation(topo)
    used = {}
    for u in scheduled_users:
        s = int(topo.assignment[u])
        nb = used.get(s, 0)
        alloc.block[u] = nb
        used[s] = nb + 1
    alloc.sigmas = np.full(topo.num_users, sigma)
    return alloc


def test_optimize_noise_budget_equality_and_floors():
    cfg, topo = small_system(seed=3)
    alloc = opt_sched(topo, cfg, 3)
    sig = optimize_noise(topo, alloc, cfg)
    mask = alloc.scheduled(topo)
    K = topo.samples.astype(float)
    lhs = float(K[mask] @ sig[mask] ** 2)
    rhs = cfg.v_max * K[mask].sum()
    assert abs(lhs - rhs) / rhs <= 1e-14
    assert np.all(sig[~mask] == 0.0)
    assert np.all(K[mask] * sig[mask] >= cfg.n_min * (1 - 1e-9))


def test_optimize_noise_stationarity_structure():
    """Unclamped scales share one multiplier: sigma * K^(3/4) is constant."""
    cfg, topo = small_system(seed=4)
    alloc = opt_sched(topo, cfg, 4)
    sig = optimize_noise(topo, alloc, cfg)
    mask = alloc.scheduled(topo)
    K = topo.samples.astype(float)
    floors = cfg.n_min / K
    free = mask & (sig > floors * (1 + 1e-9))
    assert free.sum() >= 2, "expected some unclamped users"
    vals = sig[free] * K[free] ** 0.75
    assert vals.max() / vals.min() - 1 <= 1e-6


def test_optimize_noise_single_user_closed_form():
    cfg = SystemConfig().replace(num_cells=1, total_users=1, total_samples=1000)
    topo = generate_topology(cfg, 0)
    alloc = manual_allocation(topo, cfg, [0])
    sig = optimize_noise(topo, alloc, cfg)
    # one user takes the whole budget: K sigma^2 = v_max K
    assert sig[0] == pytest.approx(np.sqrt(cfg.v_max), rel=1e-9)


def test_optimize_noise_clamps_to_floor():
    # tiny holder forced to the floor while the big one spends the budget
    cfg = SystemConfig().replace(num_cells=1, total_users=2, total_samples=10000,
                                 n_min=90.0, lognormal_sigma=3.0)
    topo = generate_topology(cfg, 12)
    if topo.samples.min() > 200:
        pytest.skip("draw did not produce a skewed split")
    alloc = manual_allocation(topo, cfg, [0, 1])
    sig = optimize_noise(topo, alloc, cfg)
    K = topo.samples.astype(float)
    floors = cfg.n_min / K
    small = int(np.argmin(K))
    assert sig[small] >= floors[small] * (1 - 1e-12)


def test_optimize_noise_infeasible_floor():
    cfg = SystemConfig().replace(num_cells=1, total_users=2, total_samples=200,
                                 n_min=100.0, v_max=0.5)
    topo = generate_topology(cfg, 1)
    alloc = manual_allocation(topo, cfg, [0, 1])
    # floors sigma >= 100/K with K ~ 100 make K sigma^2 ~ 100 >> v_max K
    with pytest.raises(InfeasibleNoiseError):
        optimize_noise(topo, alloc, cfg)


def test_optimize_noise_floor_alone_meets_budget():
    """When the floor spends the whole budget, every user sits on it."""
    cfg = SystemConfig().replace(num_cells=1, total_users=3, total_samples=900)
    topo = generate_topology(cfg, 2)
    alloc = manual_allocation(topo, cfg, [0, 1, 2])
    K = topo.samples.astype(float)
    floor = cfg.n_min / K
    # the floor's spend sits 5e-13 above the budget, inside its tolerance
    v_max = float(K @ floor ** 2) / K.sum() / (1.0 + 5e-13)
    sig = optimize_noise(topo, alloc, cfg.replace(v_max=v_max))
    assert np.array_equal(sig, floor)


@pytest.mark.parametrize("name,n_min", [("full_scale_r5", None), ("full_scale_r8", None),
                                        ("desk_train_r5", None), ("full_scale_r5", 3000.0)])
def test_optimize_noise_matches_bisection(name, n_min):
    """The closed form against the bisection oracle on opt's schedules of
    seeds 0-19.  At n_min = 3000 the floor binds on r5 and some seeds have
    no feasible scales; both sides must raise there."""
    base = load_config(CONFIGS / f"{name}.yaml")
    cfg = base if n_min is None else base.replace(n_min=n_min)
    clamped = infeasible = 0
    for seed in range(20):
        topo = generate_topology(base, seed)
        alloc = opt_sched(topo, base, seed)
        mask = alloc.scheduled(topo)
        K = topo.samples[mask].astype(float)
        try:
            expect = bisection_noise(K, cfg.n_min, cfg.v_max)
        except ValueError:
            infeasible += 1
            with pytest.raises(InfeasibleNoiseError):
                optimize_noise(topo, alloc, cfg)
            continue
        sig = optimize_noise(topo, alloc, cfg)
        assert sig[mask] == pytest.approx(expect, rel=1e-12)
        assert np.all(sig[~mask] == 0.0)
        clamped += int(np.sum(sig[mask] == cfg.n_min / K))
    if n_min is None:
        assert infeasible == 0
    else:
        assert infeasible > 0
        assert clamped > 20


def test_optimize_noise_needs_a_schedule():
    cfg, topo = small_system(seed=5)
    alloc = empty_allocation(topo)
    with pytest.raises(ValueError, match="scheduled"):
        optimize_noise(topo, alloc, cfg)


def test_optimized_noise_cuts_leakage():
    cfg, topo = small_system(seed=6)
    base = opt_sched(topo, cfg, 6)
    tuned = base.copy()
    tuned.sigmas = optimize_noise(topo, base, cfg)
    assert leakage_report(topo, tuned, cfg).total < leakage_report(topo, base, cfg).total


def test_opt_sched_dp_keeps_schedule_and_improves_objective():
    cfg, topo = small_system(seed=7)
    plain = opt_sched(topo, cfg, 7)
    tuned = allocate("opt+dp", topo, cfg, 7)
    assert np.array_equal(plain.scheduled(topo), tuned.scheduled(topo))
    assert np.array_equal(plain.powers, tuned.powers)
    assert objective_value(topo, tuned, cfg) <= objective_value(topo, plain, cfg)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 100))
def test_optimize_noise_monotone_in_budget(seed):
    """A looser variance budget never increases the optimal leakage term."""
    cfg = SystemConfig().replace(num_cells=1, total_users=4, total_samples=2400)
    topo = generate_topology(cfg, seed)
    alloc = manual_allocation(topo, cfg, list(range(4)))
    tight = optimize_noise(topo, alloc, cfg)
    loose_cfg = cfg.replace(v_max=cfg.v_max * 2.0)
    loose = optimize_noise(topo, alloc, loose_cfg)
    K = topo.samples.astype(float)
    term = lambda sig: float(np.sum(1.0 / (K[:4] * sig[:4]) ** 2))
    assert term(loose) <= term(tight) * (1 + 1e-9)
