"""End to end quality gate.

Each test here checks one release requirement and prints a single verdict
line (written straight to the terminal so it survives pytest capture).  The
training checks share one experiment run through a module fixture.
"""
import time
from pathlib import Path

import numpy as np
import pytest

import conftest
from oracles import brute_force_cell, central_difference, grid_noise_minimum

from fedcell.config import SystemConfig, load_config
from fedcell.data import build_shards, load_dataset
from fedcell.dp import InfeasibleNoiseError, leakage, optimize_noise
from fedcell.fl import train
from fedcell.harness import (ALGORITHMS, CSV_NAMES, ExperimentSpec, emit_csv,
                             run_experiment)
from fedcell.mlp import Mlp
from fedcell.radio import empty_allocation
from fedcell.scheduler import (CellProblem, ScheduleInfeasibleError, objective_sum,
                               solve_cell_schedule)
from fedcell.topology import generate_topology
from fedcell import seeding

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def verdict(name: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    conftest.record("acceptance verdicts", line)


@pytest.fixture(scope="module")
def desk_run():
    """Ten paired training replicas at desk scale, shared by two checks."""
    spec = ExperimentSpec(config=load_config(CONFIGS / "desk_train_r5.yaml"),
                          algorithms=ALGORITHMS, replicas=10, train=True)
    t0 = time.perf_counter()
    table = run_experiment(spec)
    elapsed = time.perf_counter() - t0
    return table, elapsed


def random_cell_instance(rng) -> CellProblem:
    users = int(rng.integers(1, 7))
    blocks = int(rng.integers(1, 4))
    v_max = float(rng.uniform(0.5, 20.0))
    foreign = float(rng.uniform(0.0, 2000.0))
    return CellProblem(
        cell=0,
        users=np.arange(users),
        samples=rng.integers(1, 1000, users).astype(float),
        sigmas=rng.uniform(0.05, 4.0, users),
        feasible=rng.random((users, blocks)) < 0.75,
        foreign_samples=foreign,
        foreign_noise=float(rng.uniform(0.0, v_max * foreign * 1.5)),
        gamma=float(10.0 ** rng.uniform(0.0, 5.0)),
        v_max=v_max,
    )


def test_cell_solver_matches_exhaustive_enumeration():
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    worst = 0.0
    infeasible = 0
    other_blocks = 0
    for _ in range(200):
        prob = random_cell_instance(rng)
        expect, _, expect_block = brute_force_cell(prob)
        if expect is None:
            infeasible += 1
            with pytest.raises(ScheduleInfeasibleError):
                solve_cell_schedule(prob)
            continue
        block = solve_cell_schedule(prob)
        got = objective_sum(prob.samples, block >= 0, prob.sigmas, prob.gamma)
        worst = max(worst, abs(got - expect) / max(abs(expect), 1e-300))
        other_blocks += block.tolist() != expect_block
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and other_blocks == 0 and elapsed < 10.0
    verdict("cell solver matches exhaustive enumeration", ok,
            f"200 instances, {infeasible} infeasible, "
            f"max rel err {worst:.2e}, {other_blocks} other block vectors, "
            f"{elapsed:.1f} s")
    assert worst <= 1e-12
    assert other_blocks == 0
    assert elapsed < 10.0


def test_schedule_objective_dominance_across_replicas():
    t0 = time.perf_counter()
    fractions = {}
    for scenario in ("r5", "r8"):
        cfg = load_config(CONFIGS / f"full_scale_{scenario}.yaml")
        spec = ExperimentSpec(config=cfg, replicas=100)
        table = run_experiment(spec)
        opt, rnd = table.paired("objective", "opt", "rnd")
        dp, opt2 = table.paired("objective", "opt+dp", "opt")
        fractions[scenario] = (
            float(np.sum(opt < rnd)) / 100.0,
            float(np.sum(dp <= opt2 * (1.0 + 1e-12))) / 100.0,
        )
    elapsed = time.perf_counter() - t0
    ok = (elapsed < 300.0
          and all(f1 >= 0.95 and f2 >= 0.95
                  for f1, f2 in fractions.values()))
    detail = ", ".join(
        f"{sc}: opt<rnd {f1:.0%}, dp<=opt {f2:.0%}"
        for sc, (f1, f2) in fractions.items())
    verdict("optimised schedule dominates the random one", ok,
            f"{detail}, {elapsed:.1f} s")
    for f1, f2 in fractions.values():
        assert f1 >= 0.95
        assert f2 >= 0.95
    assert elapsed < 300.0


def test_training_accuracy_gap(desk_run):
    table, elapsed = desk_run
    finals = {alg: {r.replica: r.accuracy[-1] for r in table.rows_for(alg)}
              for alg in ALGORITHMS}
    common = sorted(set(finals["rnd"]) & set(finals["opt"]))
    mean_rnd = float(np.mean([finals["rnd"][k] for k in common]))
    mean_opt = float(np.mean([finals["opt"][k] for k in common]))
    gap = mean_opt - mean_rnd
    # the spread of the paired gaps, and what the noise of opt+dp costs
    gaps = np.array([finals["opt"][k] - finals["rnd"][k] for k in common])
    stderr = float(gaps.std(ddof=1) / np.sqrt(gaps.size))
    mean_dp = float(np.mean(list(finals["opt+dp"].values())))
    ok = len(common) >= 10 and gap >= 0.03 and elapsed < 3600.0
    verdict("optimised schedule lifts test accuracy", ok,
            f"{len(common)} replicas, rnd {mean_rnd:.3f}, opt {mean_opt:.3f}, "
            f"gap {gap * 100:+.1f} pts (paired se {stderr * 100:.2f}, "
            f"per replica {gaps.min() * 100:+.1f} to {gaps.max() * 100:+.1f}, "
            f"opt ahead on {int(np.sum(gaps > 0))}), opt+dp {mean_dp:.3f}, "
            f"{elapsed / 60:.1f} min")
    assert len(common) >= 10
    assert gap >= 0.03
    assert elapsed < 3600.0


def test_leakage_reduction(desk_run):
    table, _ = desk_run
    pooled = {alg: np.array([rho for r in table.rows_for(alg) for rho in r.leakage_rho])
              for alg in ("rnd", "opt+dp")}
    max_rnd = float(pooled["rnd"].max())
    max_dp = float(pooled["opt+dp"].max())
    levels = np.linspace(0.5, 1.0, 51)[1:]
    q_rnd = np.quantile(pooled["rnd"], levels, method="inverted_cdf")
    q_dp = np.quantile(pooled["opt+dp"], levels, method="inverted_cdf")
    left = bool(np.all(q_dp < q_rnd))
    ok = max_dp <= 0.25 * max_rnd and left
    verdict("optimised noise cuts privacy leakage", ok,
            f"max rho rnd {max_rnd:.1f} vs dp {max_dp:.3f}, "
            f"upper cdf strictly left: {left}")
    assert max_dp <= 0.25 * max_rnd
    assert left


def random_noise_instance(rng, idx: int):
    users = int(rng.integers(1, 4))
    # log-scale draws so tight budgets (floor-infeasible) appear as well
    samples = int(10.0 ** rng.uniform(np.log10(users * 15), 3.3))
    cfg = SystemConfig().replace(
        num_cells=1, total_users=users, num_rbs=3,
        total_samples=samples,
        n_min=float(rng.uniform(0.5, 40.0)),
        v_max=float(10.0 ** rng.uniform(-2.0, 1.3)))
    topo = generate_topology(cfg, 10_000 + idx)
    alloc = empty_allocation(topo)
    alloc.block[:] = np.arange(users)
    alloc.sigmas = np.ones(topo.num_users)
    return cfg, topo, alloc


def test_noise_optimiser_matches_grid_search():
    rng = np.random.default_rng(23)
    worst_obj = 0.0
    worst_resid = 0.0
    feasible = 0
    infeasible = 0
    for i in range(100):
        cfg, topo, alloc = random_noise_instance(rng, i)
        K = topo.samples.astype(float)
        floor = cfg.n_min / K
        budget = cfg.v_max * K.sum()
        if float(K @ floor ** 2) > budget * (1.0 + 1e-12):
            infeasible += 1
            with pytest.raises(InfeasibleNoiseError):
                optimize_noise(topo, alloc, cfg)
            continue
        feasible += 1
        sig = optimize_noise(topo, alloc, cfg)
        obj = float(np.sum(1.0 / (K * sig) ** 2))
        resid = abs(float(K @ sig ** 2) - budget) / budget
        grid_obj, _ = grid_noise_minimum(K, floor, budget)
        worst_obj = max(worst_obj, abs(grid_obj - obj) / obj)
        worst_resid = max(worst_resid, resid)
    ok = worst_obj <= 1e-6 and worst_resid <= 1e-8
    verdict("noise optimiser matches grid search", ok,
            f"{feasible} feasible / {infeasible} infeasible, "
            f"max rel obj err {worst_obj:.2e}, "
            f"max budget resid {worst_resid:.2e}")
    assert worst_obj <= 1e-6
    assert worst_resid <= 1e-8


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(5):
        features = int(rng.integers(5, 12))
        classes = int(rng.integers(2, 6))
        model = Mlp(features, classes)
        w = model.init_params(rng)
        x = rng.normal(size=(int(rng.integers(8, 40)), features))
        y = rng.integers(0, classes, size=x.shape[0])
        coords = rng.choice(model.dim, size=20, replace=False)
        fd = central_difference(lambda v: model.loss_and_grad(v, x, y)[0],
                                w, coords, 1e-5)
        _, grad = model.loss_and_grad(w, x, y)
        rel = (np.linalg.norm(fd - grad[coords])
               / max(np.linalg.norm(grad[coords]), 1e-12))
        worst = max(worst, float(rel))
    ok = worst <= 1e-4
    verdict("analytic gradients match finite differences", ok,
            f"5 models x 20 coordinates, max rel err {worst:.2e}")
    assert worst <= 1e-4


def test_noiseless_single_cell_equals_batch_descent():
    cfg = SystemConfig().replace(num_cells=1, total_users=6, total_samples=120,
                                 num_rbs=6, rounds=50, clip=1e6, dataset_test_size=30,
                                 features=8, classes=3)
    topo = generate_topology(cfg, 0)
    ds = load_dataset(cfg)
    alloc = empty_allocation(topo)
    alloc.block[:] = np.arange(6)
    alloc.sigmas = np.zeros(6)

    model = Mlp(cfg.features, cfg.classes)
    w0 = model.init_params(seeding.stream(0, seeding.WEIGHTS))
    shards = build_shards(ds, topo, 0)
    union_x = np.concatenate([s.x for s in shards])
    union_y = np.concatenate([s.y for s in shards])

    from oracles import gradient_descent
    path = gradient_descent(lambda w: model.loss_and_grad(w, union_x, union_y),
                            w0, cfg.step, cfg.rounds)
    worst = 0.0
    for t in range(1, cfg.rounds + 1):
        state = train(topo, alloc, ds, cfg.replace(rounds=t), seed=0)
        worst = max(worst, float(np.max(np.abs(state.weights - path[t]))))
    ok = worst <= 1e-9
    verdict("noiseless federated run equals batch descent", ok,
            f"50 rounds, max weight deviation {worst:.2e}")
    assert worst <= 1e-9


def test_leakage_closed_form_and_scaling():
    exact = leakage(200, 10.0, 100.0, 1.0)
    base = 2.0 * 200 * 10.0 ** 2 / 100.0 ** 2
    worst = 0.0
    for sigma in np.logspace(-3, 3, 25):
        rho = leakage(200, 10.0, 100.0, float(sigma))
        worst = max(worst, abs(rho * sigma ** 2 - base) / base)
    ok = exact == 4.0 and worst <= 1e-12
    verdict("privacy loss closed form and inverse square scaling", ok,
            f"value {exact!r}, max sweep deviation {worst:.2e}")
    assert exact == 4.0
    assert worst <= 1e-12


def test_csv_outputs_reproduce_byte_for_byte(tmp_path):
    cfg = SystemConfig().replace(total_users=12, total_samples=7200, num_rbs=3,
                                 features=8, classes=3,
                                 dataset_test_size=60, rounds=3)
    outs = []
    for tag, jobs in (("first", 1), ("second", 1), ("pool", 2)):
        spec = ExperimentSpec(config=cfg, algorithms=ALGORITHMS, replicas=3,
                              train=True, jobs=jobs)
        out = tmp_path / tag
        emit_csv(run_experiment(spec), spec, out)
        outs.append(out)
    same = all((outs[0] / name).read_bytes() == (d / name).read_bytes()
               for d in outs[1:] for name in CSV_NAMES)
    verdict("experiment csv output reproduces byte for byte", same,
            f"{len(CSV_NAMES)} files, rerun and 2-process run identical")
    assert same
