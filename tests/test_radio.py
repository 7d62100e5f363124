import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles

import fedcell.radio
from fedcell.config import SystemConfig, load_config
from fedcell.radio import (PowerSolveError, empty_allocation, enforce_rate,
                           interference, power_system, snr_gap, solve_powers,
                           uplink_rate)
from fedcell.scheduler import _init_state, opt_sched, rnd_sched
from fedcell.topology import generate_topology

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_snr_gap_reference_value():
    cfg = SystemConfig()
    # 2^(100/180) - 1
    assert snr_gap(cfg) == pytest.approx(0.4697344922755988, rel=1e-15)


def two_cell_topology(seed=0, users=8):
    """Seven-cell layout trimmed by config to stay small is not possible, so
    use the full layout with few users; what matters is having >= 2 cells."""
    cfg = SystemConfig().replace(total_users=users, total_samples=users * 50)
    return cfg, generate_topology(cfg, seed)


def schedule_everyone_round_robin(topo, cfg):
    alloc = empty_allocation(topo)
    for users in topo.cell_users:
        take = min(users.size, cfg.num_rbs)
        alloc.block[users[:take]] = np.arange(take)
    mask = alloc.scheduled(topo)
    alloc.powers = np.where(mask, cfg.p_max / 2, 0.0)
    alloc.sigmas = np.full(topo.num_users, 1.0)
    return alloc


def test_interference_sums_other_cells_only():
    cfg, topo = two_cell_topology(seed=1, users=14)
    alloc = schedule_everyone_round_robin(topo, cfg)
    mat = interference(alloc, topo, cfg.num_rbs)
    assert mat.shape == (topo.num_cells, cfg.num_rbs)
    for s in range(topo.num_cells):
        for n in range(cfg.num_rbs):
            expect = 0.0
            # users by serving cell, the order in which the matrix adds them
            for u in np.argsort(topo.assignment, kind="stable"):
                if alloc.block[u] == n and topo.assignment[u] != s:
                    expect += topo.gains[s, u] * alloc.powers[u]
            assert mat[s, n] == expect


def assert_matches_oracle(alloc, topo, num_rbs):
    """Bit for bit: every entry adds the same terms in the same order as
    the user-by-user sum."""
    mat = interference(alloc, topo, num_rbs)
    for s in range(topo.num_cells):
        for n in range(num_rbs):
            assert mat[s, n] == oracles.interference(alloc, topo, s, n)


def test_interference_matrix_matches_scalar_op():
    cfg, topo = two_cell_topology(seed=2, users=20)
    alloc = schedule_everyone_round_robin(topo, cfg)
    assert_matches_oracle(alloc, topo, cfg.num_rbs)


def test_interference_matrix_exact_under_a_loud_own_cell():
    # cells 2 and 5 transmit 1e6 times louder than cells 0, 3 and 6, so their
    # base stations hear their own users far above their interferers; that
    # power must not leak into the sum through cancellation
    cfg, topo = two_cell_topology(seed=2, users=20)
    alloc = schedule_everyone_round_robin(topo, cfg)
    alloc.powers = alloc.powers * 10.0 ** (3 * (topo.assignment % 3))
    assert_matches_oracle(alloc, topo, cfg.num_rbs)


@pytest.mark.parametrize("name", ["full_scale_r5", "full_scale_r8"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_interference_matrix_matches_oracle_on_scheduler_allocations(name, seed):
    cfg = load_config(CONFIGS / f"{name}.yaml")
    topo = generate_topology(cfg, seed)
    assert_matches_oracle(_init_state(topo, cfg, seed)[0], topo, cfg.num_rbs)
    assert_matches_oracle(opt_sched(topo, cfg, seed), topo, cfg.num_rbs)


def test_interference_linear_in_power():
    cfg, topo = two_cell_topology(seed=3, users=14)
    alloc = schedule_everyone_round_robin(topo, cfg)
    base = interference(alloc, topo, cfg.num_rbs)
    double = alloc.copy()
    double.powers = alloc.powers * 2.0
    assert interference(double, topo, cfg.num_rbs) == pytest.approx(2.0 * base, rel=1e-12)


def test_interference_zero_without_other_transmitters():
    cfg = SystemConfig().replace(num_cells=1, total_users=5, total_samples=250)
    topo = generate_topology(cfg, 0)
    alloc = schedule_everyone_round_robin(topo, cfg)
    assert np.array_equal(interference(alloc, topo, cfg.num_rbs),
                          np.zeros((1, cfg.num_rbs)))


def single_user_setup(h=1e-10):
    cfg = SystemConfig().replace(num_cells=1, total_users=1, total_samples=100)
    topo = generate_topology(cfg, 0)
    # pin the gain to a known value through a rebuilt topology copy
    gains = np.full_like(topo.gains, h)
    gains.setflags(write=False)
    topo = replace(topo, gains=gains)
    alloc = empty_allocation(topo)
    alloc.block[0] = 0
    alloc.sigmas = np.ones(1)
    return cfg, topo, alloc


def test_required_power_reference_value():
    cfg, topo, alloc = single_user_setup(h=1e-10)
    p = oracles.required_power(topo, alloc, cfg, 0)
    # gap * B * N0 / h with no interference
    assert p == pytest.approx(3.3660840533620116e-06, rel=1e-15)
    # transmitting exactly that power meets the minimum rate exactly
    alloc.powers = np.array([p])
    assert uplink_rate(alloc, topo, cfg)[0] == pytest.approx(cfg.r_min, rel=1e-12)


def test_required_power_zero_when_unscheduled():
    cfg, topo, alloc = single_user_setup()
    alloc.block[0] = -1
    assert oracles.required_power(topo, alloc, cfg, 0) == 0.0
    assert uplink_rate(alloc, topo, cfg)[0] == 0.0


def test_rate_decreases_with_interference():
    cfg, topo = two_cell_topology(seed=4, users=14)
    alloc = schedule_everyone_round_robin(topo, cfg)
    louder = alloc.copy()
    louder.powers = np.minimum(alloc.powers * 2.0, cfg.p_max)
    mask = alloc.scheduled(topo)
    # doubling everyone's power doubles each user's signal but also all of
    # its interferers; with interference present the rate moves
    assert np.all(uplink_rate(louder, topo, cfg)[mask] > 0.0)
    # direct check: raising only an interferer's power lowers the victim rate
    victim = None
    for u in np.flatnonzero(mask):
        others = [v for v in np.flatnonzero(mask)
                  if alloc.block[v] == alloc.block[u] and topo.assignment[v] != topo.assignment[u]]
        if others:
            victim, bully = int(u), int(others[0])
            break
    assert victim is not None, "test topology needs a co-channel pair"
    before = uplink_rate(alloc, topo, cfg)[victim]
    alloc.powers[bully] *= 1.5
    after = uplink_rate(alloc, topo, cfg)[victim]
    assert after < before


def test_power_system_structure():
    cfg, topo = two_cell_topology(seed=5, users=12)
    alloc = schedule_everyone_round_robin(topo, cfg)
    A, b, sched = power_system(topo, alloc, cfg)
    gap = snr_gap(cfg)
    assert np.array_equal(sched, np.sort(sched))
    for j, u in enumerate(sched):
        s = int(topo.assignment[u])
        assert A[j, j] == 1.0
        assert b[j] == pytest.approx(gap * cfg.bandwidth * cfg.noise_psd / topo.gains[s, u],
                                     rel=1e-12)
        for k, v in enumerate(sched):
            if j == k:
                continue
            if alloc.block[u] == alloc.block[v] and topo.assignment[v] != s:
                expect = -gap * topo.gains[s, v] / topo.gains[s, u]
                assert A[j, k] == pytest.approx(expect, rel=1e-12)
            else:
                assert A[j, k] == 0.0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_power_system_equals_oracle_loop(seed):
    cfg = SystemConfig().replace(total_users=40, total_samples=24000)
    topo = generate_topology(cfg, seed)
    rng = np.random.default_rng(seed)
    alloc = empty_allocation(topo)
    # distinct blocks inside a cell, shifted by one in every other cell
    for s, users in enumerate(topo.cell_users):
        take = min(users.size, cfg.num_rbs - 1)
        alloc.block[users[rng.permutation(users.size)[:take]]] = np.arange(take) + s % 2
    got = power_system(topo, alloc, cfg)
    expect = oracles.power_system(topo, alloc, cfg)
    for a, b in zip(got, expect):
        assert np.array_equal(a, b)
    assert (got[0] < 0).any(), "the draw needs co-channel users"


def test_power_system_empty_schedule_equals_oracle_loop():
    cfg, topo = two_cell_topology(seed=7, users=10)
    alloc = empty_allocation(topo)
    got = power_system(topo, alloc, cfg)
    expect = oracles.power_system(topo, alloc, cfg)
    assert got[0].shape == (0, 0)
    assert got[1].size == 0 and got[2].size == 0
    for a, b in zip(got, expect):
        assert np.array_equal(a, b)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 1000), users=st.integers(8, 30))
def test_uplink_rate_matches_oracle_property(seed, users):
    cfg, topo = two_cell_topology(seed=seed, users=users)
    rng = np.random.default_rng(seed)
    alloc = empty_allocation(topo)
    for members in topo.cell_users:
        take = min(members.size, cfg.num_rbs)
        alloc.block[members[rng.permutation(members.size)[:take]]] = np.arange(take)
    mask = alloc.scheduled(topo)
    alloc.powers = np.where(mask, rng.uniform(0.0, cfg.p_max, topo.num_users), 0.0)
    shared = [(alloc.block == n) & mask for n in range(cfg.num_rbs)]
    assert any(np.unique(topo.assignment[on]).size > 1 for on in shared), \
        "the draw needs co-channel users in different cells"
    got = uplink_rate(alloc, topo, cfg)
    expect = [oracles.uplink_rate(alloc, topo, cfg, u) for u in range(topo.num_users)]
    assert got == pytest.approx(expect, rel=1e-12, abs=0.0)
    assert np.all(got[~mask] == 0.0)


def test_solve_powers_reaches_interior_fixed_point():
    # the smallest exact power of this draw is 0.37 uW
    cfg, topo = two_cell_topology(seed=10, users=16)
    alloc = schedule_everyone_round_robin(topo, cfg)
    p = solve_powers(topo, alloc, cfg)
    A, b, sched = power_system(topo, alloc, cfg)
    direct = np.linalg.solve(A, b)
    assert np.all(direct > 0) and np.all(direct < cfg.p_max), "the draw must be interior"
    assert (A[~np.eye(sched.size, dtype=bool)] < 0).any(), "the draw needs co-channel users"
    assert p[sched] == pytest.approx(direct, rel=1e-9, abs=0.0)
    alloc.powers = p
    assert uplink_rate(alloc, topo, cfg)[sched] == pytest.approx(
        np.full(sched.size, cfg.r_min), rel=1e-9)


def test_solve_powers_sends_every_block_to_the_lp_when_a_solve_fails(monkeypatch):
    cfg, topo = two_cell_topology(seed=10, users=16)
    alloc = schedule_everyone_round_robin(topo, cfg)
    A, b, sched = power_system(topo, alloc, cfg)
    direct = np.linalg.solve(A, b)

    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    p = solve_powers(topo, alloc, cfg)
    # every block is interior, so the program's optimum is the direct
    # solution; the simplex lands on it to 3e-16 relative
    assert p[sched] == pytest.approx(direct, rel=1e-12, abs=0.0)


def test_solve_powers_sends_only_a_failing_block_to_the_lp(monkeypatch):
    cfg, topo = two_cell_topology(seed=10, users=16)
    alloc = schedule_everyone_round_robin(topo, cfg)
    A, b, sched = power_system(topo, alloc, cfg)
    blocks = alloc.block[sched]
    rows_of = [np.flatnonzero(blocks == n) for n in np.unique(blocks)]
    exact = [np.linalg.solve(A[np.ix_(rows, rows)], b[rows]) for rows in rows_of]
    assert len(rows_of) > 1, "the draw needs a second block"
    failing = max(range(len(rows_of)), key=lambda i: rows_of[i].size)
    assert rows_of[failing].size > 1, "the failing block needs co-channel users"
    real = np.linalg.solve

    def singular_for_the_failing_block(a, rhs):
        # a call that asks for the failing block's demands fails
        if np.isin(b[rows_of[failing]], rhs).all():
            raise np.linalg.LinAlgError("Singular matrix")
        return real(a, rhs)

    lp_demands = []
    real_lp = fedcell.radio._scaled_lp

    def recorded_lp(a, demand, p_max):
        lp_demands.append(demand)
        return real_lp(a, demand, p_max)

    monkeypatch.setattr(np.linalg, "solve", singular_for_the_failing_block)
    monkeypatch.setattr(fedcell.radio, "_scaled_lp", recorded_lp)
    p = solve_powers(topo, alloc, cfg)
    # one program, over the failing block's rows only
    assert len(lp_demands) == 1
    assert np.array_equal(lp_demands[0], b[rows_of[failing]])
    for i, (rows, direct) in enumerate(zip(rows_of, exact)):
        # the simplex meets the failing block's direct solution to 2e-16
        # relative, as the solve meets the others
        assert p[sched[rows]] == pytest.approx(direct, rel=1e-12, abs=0.0), f"block {i}"


def test_solve_powers_empty_schedule():
    cfg, topo = two_cell_topology(seed=7, users=10)
    alloc = empty_allocation(topo)
    alloc.sigmas = np.ones(topo.num_users)
    assert np.array_equal(solve_powers(topo, alloc, cfg), np.zeros(topo.num_users))


def test_solve_powers_respects_cap():
    # force an unreachable demand by crushing one user's gain; its block
    # leaves the box, and every other block keeps its exact powers
    cfg, topo = two_cell_topology(seed=8, users=12)
    gains = topo.gains.copy()
    users0 = topo.cell_users[0]
    assert users0.size > 0
    weak = int(users0[0])
    gains[0, weak] *= 1e-9
    gains.setflags(write=False)
    topo = replace(topo, gains=gains)
    alloc = schedule_everyone_round_robin(topo, cfg)
    p = solve_powers(topo, alloc, cfg)
    assert p.max() <= cfg.p_max * (1 + 1e-12)
    assert p[weak] == pytest.approx(cfg.p_max, rel=1e-9)
    A, b, sched = power_system(topo, alloc, cfg)
    blocks = alloc.block[sched]
    others = [n for n in np.unique(blocks) if n != blocks[sched == weak][0]]
    assert others, "the draw needs a second block"
    for n in others:
        rows = np.flatnonzero(blocks == n)
        direct = np.linalg.solve(A[np.ix_(rows, rows)], b[rows])
        assert np.all((direct >= 0) & (direct <= cfg.p_max)), f"block {n} must be interior"
        assert p[sched[rows]] == pytest.approx(direct, rel=1e-9, abs=0.0)


def random_schedule(seed, users, num_rbs):
    """Every cell schedules a random number of its users on distinct random
    blocks, so blocks carry anywhere from zero to seven co-channel users."""
    cfg = SystemConfig().replace(total_users=users, total_samples=users * 50, num_rbs=num_rbs)
    topo = generate_topology(cfg, seed)
    rng = np.random.default_rng(seed)
    alloc = empty_allocation(topo)
    for members in topo.cell_users:
        k = rng.integers(0, min(members.size, cfg.num_rbs) + 1)
        rows = rng.choice(members.size, k, replace=False)
        alloc.block[members[rows]] = rng.choice(cfg.num_rbs, k, replace=False)
    return cfg, topo, alloc


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), users=st.integers(8, 40), num_rbs=st.integers(1, 8))
def test_solve_powers_matches_direct_blocks_and_lp_oracle_property(seed, users, num_rbs):
    cfg, topo, alloc = random_schedule(seed, users, num_rbs)
    p = solve_powers(topo, alloc, cfg)
    assert np.all((p >= 0.0) & (p <= cfg.p_max))
    A, b, sched = power_system(topo, alloc, cfg)
    assert np.all(p[np.setdiff1d(np.arange(topo.num_users), sched)] == 0.0)
    blocks = alloc.block[sched]
    for n in np.unique(blocks):
        rows = np.flatnonzero(blocks == n)
        direct = np.linalg.solve(A[np.ix_(rows, rows)], b[rows])
        if np.all((direct >= 0) & (direct <= cfg.p_max)):
            assert p[sched[rows]] == pytest.approx(direct, rel=1e-9, abs=0.0)
    expect = oracles.solve_powers_lp(topo, alloc, cfg)
    assert expect is not None
    # the watt-unit HiGHS oracle works to an absolute tolerance of about
    # 1e-7 and is no closer; over 400 draws ours exceeded its residual by
    # at most 5.5e-16 b.sum(), the rounding of the sums themselves
    ours = np.abs(A @ p[sched] - b).sum()
    theirs = np.abs(A @ expect[sched] - b).sum()
    assert ours <= theirs + 1e-12 * b.sum()


def lp_objective(A, b, p_max, y):
    """The scaled program's objective at y, and a bound on the rounding of
    that evaluation: m eps times the weighted sum of the terms' magnitudes."""
    S = A * (p_max / b[:, None])
    w = b / b.max()
    value = w @ np.abs(S @ y - 1.0)
    rounding = b.size * np.finfo(float).eps * (w @ (1.0 + np.abs(S) @ y))
    return float(value), float(rounding)


def assert_lp_matches_highs(A, b, p_max):
    """`_scaled_lp` against HiGHS on the same program; returns our y."""
    y = fedcell.radio._scaled_lp(A, b, p_max)
    expect = oracles.scaled_lp_highs(A, b, p_max)
    assert expect is not None
    assert y == pytest.approx(expect, rel=0.0, abs=1e-10)
    (ours, ours_err), (theirs, theirs_err) = (lp_objective(A, b, p_max, v) for v in (y, expect))
    # an optimum that meets every row reads only the rounding of the sum
    assert ours == pytest.approx(theirs, rel=1e-11, abs=ours_err + theirs_err)
    return y


def recorded_lps(run):
    """(A, b, p_max) of every program that `run()` sends to `_scaled_lp`."""
    calls = []
    real = fedcell.radio._scaled_lp

    def record(A, b, p_max):
        calls.append((A, b, p_max))
        return real(A, b, p_max)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fedcell.radio, "_scaled_lp", record)
        run()
    return calls


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), users=st.integers(8, 40), num_rbs=st.integers(1, 8))
def test_scaled_lp_matches_highs_property(seed, users, num_rbs):
    cfg, topo, alloc = random_schedule(seed, users, num_rbs)
    programs = recorded_lps(lambda: solve_powers(topo, alloc, cfg))
    # the whole system too, in-box blocks included, so every draw has one
    A, b, sched = power_system(topo, alloc, cfg)
    if sched.size:
        programs.append((A, b, cfg.p_max))
    for program in programs:
        assert_lp_matches_highs(*program)


@pytest.mark.parametrize("name", ["full_scale_r5", "full_scale_r8"])
def test_scaled_lp_matches_highs_on_scheduler_programs(name):
    # what rnd and opt send to the program on seeds 0-2, and the whole
    # system of each initial draw
    cfg = load_config(CONFIGS / f"{name}.yaml")
    programs = []
    for seed in range(3):
        topo = generate_topology(cfg, seed)
        programs += recorded_lps(lambda: (rnd_sched(topo, cfg, seed),
                                          opt_sched(topo, cfg, seed)))
        A, b, _ = power_system(topo, _init_state(topo, cfg, seed)[0], cfg)
        programs.append((A, b, cfg.p_max))
    assert len(programs) > 3, "the seeds need programs from the schedulers"
    for program in programs:
        assert_lp_matches_highs(*program)


P_MAX = SystemConfig().p_max


@pytest.mark.parametrize("A, demand, expect", [
    # one user who needs twice the cap transmits at the cap
    ([[1.0]], [2.0], [1.0]),
    ([[1.0]], [0.5], [0.5]),
    # the first user needs more than p_max even alone; the second meets
    # its demand exactly against the first at full power
    ([[1.0, -0.1], [-0.2, 1.0]], [2.0, 0.1], [1.0, 0.3]),
    # two identical rows that no power in the box meets: full power for the
    # first user and none for the second is the one optimum
    ([[1.0, -0.5], [1.0, -0.5]], [2.0, 2.0], [1.0, 0.0]),
    # co-channel gains of spectral radius 2: any power raises the L1 misfit
    ([[1.0, -2.0], [-2.0, 1.0]], [0.1, 0.1], [0.0, 0.0]),
    # the second power flips to the cap and later enters the basis from it
    ([[1.0, -0.5, -0.2], [-0.5, 1.0, -0.4], [0.0, -0.3, 1.0]], [0.4, 1.6, 0.6],
     [1.0, 1.0, 0.9]),
], ids=["one row over the cap", "one row inside the cap", "a user over the cap",
        "singular block", "spectral radius above one", "entering from the cap"])
def test_scaled_lp_edge_cases(A, demand, expect):
    A = np.array(A)
    y = assert_lp_matches_highs(A, np.array(demand) * P_MAX, P_MAX)
    assert y == pytest.approx(expect, rel=0.0, abs=1e-15)


def test_scaled_lp_raises_at_the_step_cap(monkeypatch):
    monkeypatch.setattr(fedcell.radio, "MAX_STEPS_PER_ROW", 0)
    with pytest.raises(PowerSolveError, match="step limit"):
        fedcell.radio._scaled_lp(np.array([[1.0]]), np.array([0.5 * P_MAX]), P_MAX)


def test_scaled_lp_raises_on_a_singular_basis(monkeypatch):
    def singular(a):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "inv", singular)
    with pytest.raises(PowerSolveError, match="singular basis"):
        fedcell.radio._scaled_lp(np.array([[1.0]]), np.array([0.5 * P_MAX]), P_MAX)


@pytest.mark.parametrize("name", ["full_scale_r5", "full_scale_r8"])
def test_solve_powers_keeps_a_user_who_needs_nanowatts(name):
    # golden replica 4: in watts, user 12's exact power of about 4.4 nW lies
    # below HiGHS's absolute tolerance, and a watt-unit HiGHS solve drops
    # the user
    cfg = load_config(CONFIGS / f"{name}.yaml")
    topo = generate_topology(cfg, 4)
    alloc = opt_sched(topo, cfg, 4)
    assert alloc.scheduled(topo)[12]
    assert alloc.powers[12] == pytest.approx(4.4e-9, rel=0.05)
    assert uplink_rate(alloc, topo, cfg)[12] >= cfg.r_min * (1.0 - 1e-6)


def test_enforce_rate_keeps_satisfied_users():
    cfg = SystemConfig().replace(num_cells=1, total_users=5, total_samples=250)
    topo = generate_topology(cfg, 1)
    alloc = schedule_everyone_round_robin(topo, cfg)
    alloc.powers = solve_powers(topo, alloc, cfg)
    cleaned = enforce_rate(topo, alloc, cfg)
    # single cell, solved powers: everyone either met the rate or sits at cap
    kept = cleaned.scheduled(topo)
    assert np.all(uplink_rate(cleaned, topo, cfg)[kept] >= cfg.r_min * (1 - 1e-6))
    # idempotent
    again = enforce_rate(topo, cleaned, cfg)
    assert np.array_equal(again.scheduled(topo), cleaned.scheduled(topo))


def test_enforce_rate_drops_starved_user():
    cfg, topo, alloc = single_user_setup()
    alloc.powers = np.array([1e-9])  # far too weak for the minimum rate
    cleaned = enforce_rate(topo, alloc, cfg)
    assert cleaned.scheduled(topo).sum() == 0
    assert cleaned.powers[0] == 0.0
    # original untouched
    assert alloc.scheduled(topo).sum() == 1


def test_enforce_rate_terminates_on_cascades():
    cfg, topo = two_cell_topology(seed=9, users=20)
    alloc = schedule_everyone_round_robin(topo, cfg)
    # deliberately underpowered: everyone at a sliver of the cap
    mask = alloc.scheduled(topo)
    alloc.powers = np.where(mask, cfg.p_max * 1e-6, 0.0)
    cleaned = enforce_rate(topo, alloc, cfg)
    kept = cleaned.scheduled(topo)
    assert np.all(uplink_rate(cleaned, topo, cfg)[kept] >= cfg.r_min * (1 - 1e-6))


def test_validate_allocation_flags_problems():
    cfg, topo = two_cell_topology(seed=10, users=10)
    alloc = schedule_everyone_round_robin(topo, cfg)
    mask = alloc.scheduled(topo)
    alloc.sigmas = np.where(mask, 10 * cfg.n_min / topo.samples, 0.0)
    assert oracles.validate_allocation(alloc, topo, cfg) == []

    bad = alloc.copy()
    bad.powers = bad.powers + cfg.p_max  # above the cap and nonzero off-schedule
    msgs = " ".join(oracles.validate_allocation(bad, topo, cfg))
    assert "p_max" in msgs or "power" in msgs

    bad2 = alloc.copy()
    users = next(users for users in topo.cell_users if users.size >= 2)
    bad2.block[users[:2]] = 0
    assert any("shared" in m for m in oracles.validate_allocation(bad2, topo, cfg))

    bad3 = alloc.copy()
    bad3.block[users[0]] = cfg.num_rbs
    assert any("outside" in m for m in oracles.validate_allocation(bad3, topo, cfg))

    bad4 = alloc.copy()
    bad4.sigmas = np.zeros(topo.num_users)
    assert any("floor" in m for m in oracles.validate_allocation(bad4, topo, cfg))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 1000), scale=st.floats(0.1, 1.0))
def test_interference_scales_linearly_property(seed, scale):
    cfg, topo = two_cell_topology(seed=seed % 20, users=12)
    alloc = schedule_everyone_round_robin(topo, cfg)
    scaled = alloc.copy()
    scaled.powers = alloc.powers * scale
    a = interference(alloc, topo, cfg.num_rbs)
    b = interference(scaled, topo, cfg.num_rbs)
    assert b == pytest.approx(scale * a, rel=1e-12, abs=1e-300)
