import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import brute_force_cell

import fedcell.scheduler
from fedcell.config import SystemConfig, load_config
from fedcell.scheduler import (CellProblem, ScheduleInfeasibleError, _init_state,
                               build_cell_problem, objective_sum, objective_value,
                               opt_sched, rnd_sched, solve_cell_schedule)
from fedcell.topology import generate_topology

ROOT = Path(__file__).resolve().parent.parent


def init_allocation(topo, config, seed):
    """The shared random starting allocation of both schedulers."""
    return _init_state(topo, config, seed)[0]


def make_problem(samples, sigmas, feasible, *, gamma=1.0, v_max=12.0,
                 foreign_samples=0.0, foreign_noise=0.0, cell=0):
    samples = np.asarray(samples, dtype=float)
    sigmas = np.asarray(sigmas, dtype=float)
    feasible = np.asarray(feasible, dtype=bool)
    return CellProblem(
        cell=cell, users=np.arange(samples.size), samples=samples,
        sigmas=sigmas, feasible=feasible,
        foreign_samples=float(foreign_samples), foreign_noise=float(foreign_noise),
        gamma=gamma, v_max=v_max)


def solution_set(block):
    return tuple(np.flatnonzero(block >= 0))


def score(prob, block):
    """The cell's share of the objective when its users hold `block`."""
    return objective_sum(prob.samples, block >= 0, prob.sigmas, prob.gamma)


def test_prefers_sample_rich_users():
    # 3 users, 2 blocks, fully feasible: the two largest holders win
    prob = make_problem([100, 10, 50], [0.1, 0.1, 0.1],
                        np.ones((3, 2), dtype=bool), gamma=1e-3)
    block = solve_cell_schedule(prob)
    assert solution_set(block) == (0, 2)


def test_noise_weight_can_flip_the_choice():
    # user 0 holds more samples but a huge noise price
    prob = make_problem([100, 90], [0.001, 10.0], np.ones((2, 1), dtype=bool),
                        gamma=1e4, v_max=200.0)
    # cost(0) = -100 + 1e4 / (0.1)^2 = big positive; cost(1) = -90 + tiny
    block = solve_cell_schedule(prob)
    assert solution_set(block) == (1,)


def test_budget_excludes_noisy_user():
    # sigma^2 far above v_max with no slack from elsewhere
    prob = make_problem([100, 50], [10.0, 0.5], np.ones((2, 2), dtype=bool),
                        gamma=1e-6, v_max=1.0)
    # scheduling user 0 alone costs 100*(100-1) of budget > slack 0
    block = solve_cell_schedule(prob)
    assert 0 not in solution_set(block)
    assert 1 in solution_set(block)


def test_matching_limits_to_distinct_blocks():
    feas = np.array([[True, False], [True, False], [False, True]])
    prob = make_problem([100, 99, 1], [0.1, 0.1, 0.1], feas, gamma=1e-4)
    block = solve_cell_schedule(prob)
    # users 0 and 1 compete for block 0; only one fits plus user 2 on block 1
    assert solution_set(block) == (0, 2)
    rb_of = {i: int(block[i]) for i in solution_set(block)}
    assert rb_of == {0: 0, 2: 1}


@pytest.mark.parametrize("feasible, expect", [
    # two identical users compete for one block
    ([[True], [True]], [0, -1]),
    # any two of three identical users tie; user 1 can only use block 1
    ([[True, True], [False, True], [True, True]], [0, 1, -1]),
    # one user, three blocks
    ([[True, True, True]], [0]),
])
def test_exact_ties_take_the_lowest_users_then_blocks(feasible, expect):
    n = len(feasible)
    prob = make_problem([100] * n, [0.1] * n, feasible, gamma=1e-3)
    assert solve_cell_schedule(prob).tolist() == expect


def test_no_feasible_pair_schedules_nobody():
    prob = make_problem([10, 20], [1.0, 1.0], np.zeros((2, 2), dtype=bool))
    block = solve_cell_schedule(prob)
    assert solution_set(block) == ()
    assert score(prob, block) == pytest.approx(30.0)


def test_infeasible_budget_raises():
    # foreign cells already exceed the budget and the only user adds more
    prob = make_problem([10], [10.0], np.ones((1, 1), dtype=bool),
                        v_max=1.0, foreign_samples=10.0, foreign_noise=100.0)
    with pytest.raises(ScheduleInfeasibleError):
        solve_cell_schedule(prob)


def test_foreign_slack_admits_noisy_user():
    # same noisy user passes once other cells leave budget headroom
    tight = make_problem([10], [2.0], np.ones((1, 1), dtype=bool), v_max=1.0)
    assert solution_set(solve_cell_schedule(tight)) == ()
    slackful = make_problem([10], [2.0], np.ones((1, 1), dtype=bool), v_max=1.0,
                            foreign_samples=100.0, foreign_noise=50.0)
    assert solution_set(solve_cell_schedule(slackful)) == (0,)


def rand_problem(rng, max_users=6, max_rbs=3):
    u = int(rng.integers(1, max_users + 1))
    r = int(rng.integers(1, max_rbs + 1))
    samples = rng.integers(1, 1000, u).astype(float)
    sigmas = rng.uniform(0.05, 4.0, u)
    feasible = rng.random((u, r)) < 0.75
    v_max = float(rng.uniform(0.5, 20.0))
    foreign_samples = float(rng.uniform(0.0, 2000.0))
    foreign_noise = float(rng.uniform(0.0, v_max * foreign_samples * 1.5))
    gamma = float(10.0 ** rng.uniform(0.0, 5.0))
    return make_problem(samples, sigmas, feasible, gamma=gamma, v_max=v_max,
                        foreign_samples=foreign_samples, foreign_noise=foreign_noise)


def test_matches_enumeration_spot_checks():
    rng = np.random.default_rng(2024)
    for _ in range(40):
        prob = rand_problem(rng)
        expect, _, expect_block = brute_force_cell(prob)
        if expect is None:
            with pytest.raises(ScheduleInfeasibleError):
                solve_cell_schedule(prob)
            continue
        block = solve_cell_schedule(prob)
        assert score(prob, block) == pytest.approx(expect, rel=1e-12)
        assert block.tolist() == expect_block


def test_matches_enumeration_on_sweep_problems(monkeypatch):
    """The cell problems of opt's sweep on full_scale_r5 seeds 0-2 with at
    most 14 power-feasible users: same value and same block for every user
    as exhaustive enumeration."""
    seen = []

    def record(problem):
        seen.append(problem)
        return solve_cell_schedule(problem)

    monkeypatch.setattr(fedcell.scheduler, "solve_cell_schedule", record)
    cfg = load_config(ROOT / "configs" / "full_scale_r5.yaml")
    for seed in (0, 1, 2):
        opt_sched(generate_topology(cfg, seed), cfg, seed)
    small = [p for p in seen if p.feasible.any(axis=1).sum() <= 14]
    assert len(small) == 11
    for prob in small:
        expect, _, expect_block = brute_force_cell(prob)
        block = solve_cell_schedule(prob)
        assert score(prob, block) == pytest.approx(expect, rel=1e-12)
        assert block.tolist() == expect_block


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_solution_beats_single_swaps(seed):
    """Removing, adding, or swapping one user never improves the objective."""
    rng = np.random.default_rng(seed)
    prob = rand_problem(rng)
    try:
        block = solve_cell_schedule(prob)
    except ScheduleInfeasibleError:
        return
    chosen = set(solution_set(block))
    slack = prob.v_max * prob.foreign_samples - prob.foreign_noise
    g = prob.samples * (prob.sigmas ** 2 - prob.v_max)
    w = 1.0 / (prob.samples * prob.sigmas) ** 2

    def value(users):
        served = sum(prob.samples[i] for i in users)
        noise = sum(w[i] for i in users)
        return (prob.samples.sum() - served) + prob.gamma * noise

    def feasible_set(users):
        if sum(g[i] for i in users) > slack + prob.budget_tol:
            return False
        import itertools
        blocks = [tuple(np.flatnonzero(prob.feasible[i])) for i in users]
        for combo in itertools.product(*blocks) if users else [()]:
            if len(set(combo)) == len(combo):
                return True
        return not users

    base = value(chosen)
    others = [i for i in range(prob.samples.size) if i not in chosen]
    candidates = [chosen - {i} for i in chosen]
    candidates += [chosen | {j} for j in others if len(chosen) < prob.feasible.shape[1]]
    candidates += [(chosen - {i}) | {j} for i in chosen for j in others]
    for cand in candidates:
        if feasible_set(cand):
            assert base <= value(cand) * (1 + 1e-12)


def test_build_cell_problem_feasibility_matches_required_power():
    cfg = SystemConfig().replace(total_users=30, total_samples=18000)
    topo = generate_topology(cfg, 3)
    alloc = init_allocation(topo, cfg, 3)
    for cell in range(topo.num_cells):
        prob = build_cell_problem(topo, alloc, cell, cfg)
        for row, u in enumerate(prob.users):
            for n in range(cfg.num_rbs):
                req = oracles.required_power(topo, alloc, cfg, int(u), rb=n)
                assert prob.feasible[row, n] == (req <= cfg.p_max * (1 + 1e-12))


def test_build_cell_problem_foreign_sums():
    cfg = SystemConfig().replace(total_users=25, total_samples=15000)
    topo = generate_topology(cfg, 4)
    alloc = init_allocation(topo, cfg, 4)
    mask = alloc.scheduled(topo)
    for cell in range(topo.num_cells):
        prob = build_cell_problem(topo, alloc, cell, cfg)
        ks = ns = 0.0
        for u in np.flatnonzero(mask):
            if topo.assignment[u] != cell:
                ks += float(topo.samples[u])
                ns += float(topo.samples[u]) * float(alloc.sigmas[u]) ** 2
        assert prob.foreign_samples == pytest.approx(ks, rel=1e-12)
        assert prob.foreign_noise == pytest.approx(ns, rel=1e-12)


def test_init_allocation_structure():
    cfg = SystemConfig()
    topo = generate_topology(cfg, 9)
    alloc = init_allocation(topo, cfg, 9)
    assert oracles.validate_allocation(alloc, topo, cfg) == []
    mask = alloc.scheduled(topo)
    for users in topo.cell_users:
        expect = min(users.size, cfg.num_rbs)
        # blocks used are exactly 0..expect-1, each once
        used = np.sort(alloc.block[users][mask[users]])
        assert list(used) == list(range(expect))
    assert np.all(alloc.powers[mask] >= 0.0)
    assert np.all(alloc.powers[mask] <= cfg.p_max)
    assert np.all(alloc.powers[~mask] == 0.0)
    scale = topo.samples * alloc.sigmas
    assert np.all(scale >= cfg.n_min * (1 - 1e-12))
    assert np.all(scale <= 6 * cfg.n_min * (1 + 1e-12))
    # the initial draw respects the noise budget
    K = topo.samples.astype(float)
    assert float(K[mask] @ alloc.sigmas[mask] ** 2) <= cfg.v_max * K[mask].sum()


def test_init_allocation_deterministic():
    cfg = SystemConfig()
    topo = generate_topology(cfg, 5)
    a = init_allocation(topo, cfg, 5)
    b = init_allocation(topo, cfg, 5)
    assert np.array_equal(a.block, b.block)
    assert np.array_equal(a.powers, b.powers)
    assert np.array_equal(a.sigmas, b.sigmas)
    c = init_allocation(topo, cfg, 6)
    assert not np.array_equal(a.sigmas, c.sigmas)


def test_schedulers_produce_valid_allocations():
    cfg = SystemConfig()
    for seed in (0, 1):
        topo = generate_topology(cfg, seed)
        for builder in (rnd_sched, opt_sched):
            alloc = builder(topo, cfg, seed)
            assert oracles.validate_allocation(alloc, topo, cfg) == []


def test_opt_beats_rnd_on_fixed_seeds():
    cfg = SystemConfig()
    for seed in (0, 1, 2, 3):
        topo = generate_topology(cfg, seed)
        o = objective_value(topo, opt_sched(topo, cfg, seed), cfg)
        r = objective_value(topo, rnd_sched(topo, cfg, seed), cfg)
        assert o < r


def test_objective_value_hand_computed():
    cfg = SystemConfig().replace(num_cells=1, total_users=3, total_samples=300,
                                 gamma=2.0, num_rbs=2)
    topo = generate_topology(cfg, 0)
    from fedcell.radio import empty_allocation
    alloc = empty_allocation(topo)
    alloc.block[0] = 0
    alloc.sigmas = np.array([0.5, 1.0, 1.0])
    K = topo.samples.astype(float)
    expect = K[1] + K[2] + 2.0 / (K[0] * 0.5) ** 2
    assert objective_value(topo, alloc, cfg) == pytest.approx(expect, rel=1e-12)


def test_objective_rejects_zero_sigma_on_schedule():
    cfg = SystemConfig().replace(num_cells=1, total_users=2, total_samples=100)
    topo = generate_topology(cfg, 0)
    from fedcell.radio import empty_allocation
    alloc = empty_allocation(topo)
    alloc.block[0] = 0
    with pytest.raises(ValueError):
        objective_value(topo, alloc, cfg)
