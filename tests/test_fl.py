import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import gradient_descent, two_level_round, weighted_model_mean

from fedcell import seeding
from fedcell.config import SystemConfig, load_config
from fedcell.data import build_shards, load_dataset
from fedcell.fl import (TrainDivergedError, bs_aggregate, clip_global_norm,
                        gaussian_mechanism, global_aggregate, local_gradient,
                        local_update, noise_stream, train)
from fedcell.mlp import Mlp
from fedcell.radio import empty_allocation
from fedcell.topology import generate_topology


@settings(max_examples=60)
@given(hnp.arrays(np.float64, st.integers(1, 40),
                  elements=st.floats(-1e6, 1e6, allow_nan=False)),
       st.floats(0.01, 100.0))
def test_clip_never_exceeds_limit(vec, limit):
    out = clip_global_norm(vec, limit)
    assert np.linalg.norm(out) <= limit * (1 + 1e-12)


def test_clip_rescales_exactly_to_limit():
    v = np.array([3.0, 4.0])
    out = clip_global_norm(v, 1.0)
    assert np.linalg.norm(out) == pytest.approx(1.0, rel=1e-12)
    assert out == pytest.approx(v / 5.0, rel=1e-12)


def test_clip_keeps_short_vectors_and_zero():
    v = np.array([0.1, 0.2])
    assert clip_global_norm(v, 10.0) is v
    z = np.zeros(3)
    assert clip_global_norm(z, 1.0) is z


def test_mechanism_identity_at_zero_sigma():
    g = np.arange(5, dtype=float)
    for seed, round_index in [(0, 0), (3, 7)]:
        out = gaussian_mechanism(g, 0.0, noise_stream(seed, round_index))
        assert out is g
        with pytest.raises(ValueError):
            gaussian_mechanism(g, -1.0, noise_stream(seed, round_index))


def test_mechanism_uses_the_given_stream():
    g = np.zeros(8)
    a = gaussian_mechanism(g, 2.0, noise_stream(7, 3))
    b = gaussian_mechanism(g, 2.0, noise_stream(7, 3))
    assert np.array_equal(a, b)
    assert np.array_equal(a, 2.0 * noise_stream(7, 3).standard_normal(8))
    assert not np.array_equal(a, gaussian_mechanism(g, 2.0, noise_stream(7, 4)))
    assert not np.array_equal(a, gaussian_mechanism(g, 2.0, noise_stream(8, 3)))


def test_noise_streams_distinct_across_seeds_and_rounds():
    keys = [(s, t) for s in (0, 1, 2) for t in (0, 1, 2)]
    draws = [noise_stream(*k).standard_normal(4) for k in keys]
    for i in range(len(draws)):
        for j in range(i + 1, len(draws)):
            assert not np.array_equal(draws[i], draws[j])


def test_weighted_mean_identity():
    models = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 1.0])]
    out = weighted_model_mean(models, [1.0, 2.0, 1.0])
    assert out == pytest.approx(np.array([0.5, 0.75]), rel=1e-15)


@settings(max_examples=40)
@given(st.integers(1, 6), st.integers(0, 1000))
def test_weighted_mean_matches_numpy_average(count, seed):
    rng = np.random.default_rng(seed)
    models = [rng.normal(size=7) for _ in range(count)]
    weights = rng.uniform(0.1, 10.0, count)
    out = weighted_model_mean(models, weights)
    expect = np.average(np.stack(models), axis=0, weights=weights)
    assert out == pytest.approx(expect, rel=1e-12, abs=1e-12)


def test_aggregate_rejects_zero_weight():
    with pytest.raises(ValueError):
        weighted_model_mean([np.zeros(2)], [0.0])
    with pytest.raises(ValueError):
        weighted_model_mean([np.zeros(2)], [-1.0])


@settings(max_examples=40)
@given(st.lists(st.lists(st.integers(1, 500), min_size=1, max_size=5),
                min_size=1, max_size=7), st.integers(0, 1000))
def test_accumulators_equal_the_two_level_weighted_mean(cell_samples, seed):
    # integer sample counts make every weight and total exact, so the
    # in-place sums are the reference means bit for bit
    rng = np.random.default_rng(seed)
    grads = [[rng.normal(size=9) for _ in cell] for cell in cell_samples]
    k_cells = [float(sum(cell)) for cell in cell_samples]
    k_total = float(sum(k_cells))

    g = np.zeros(9)
    for cell, vecs, k_cell in zip(cell_samples, grads, k_cells):
        cell_mean = np.zeros(9)
        for k_u, vec in zip(cell, vecs):
            assert bs_aggregate(cell_mean, vec, k_u / k_cell) is None
        assert np.array_equal(cell_mean, weighted_model_mean(vecs, cell))
        global_aggregate(g, cell_mean, k_cell / k_total)
    means = [weighted_model_mean(vecs, cell) for vecs, cell in zip(grads, cell_samples)]
    assert np.array_equal(g, weighted_model_mean(means, k_cells))


def test_local_update_formula():
    w = np.array([1.0, 2.0])
    g = np.array([0.5, -1.0])
    assert local_update(w, g, 0.1) == pytest.approx(np.array([0.95, 2.1]), rel=1e-15)


def everyone_scheduled(cfg, topo, sigma=0.0):
    alloc = empty_allocation(topo)
    for users in topo.cell_users:
        alloc.block[users] = np.arange(users.size)
    alloc.sigmas = np.full(topo.num_users, sigma)
    return alloc


def tiny_training_config(**over):
    base = dict(num_cells=1, total_users=6, total_samples=120, num_rbs=6,
                rounds=5, clip=1e6, dataset_test_size=30,
                features=8, classes=3)
    base.update(over)
    return SystemConfig().replace(**base)


def test_noiseless_single_cell_equals_batch_descent():
    cfg = tiny_training_config()
    topo = generate_topology(cfg, 0)
    ds = load_dataset(cfg)
    alloc = everyone_scheduled(cfg, topo)
    state = train(topo, alloc, ds, cfg, seed=0)

    model = Mlp(cfg.features, cfg.classes)
    w0 = model.init_params(seeding.stream(0, seeding.WEIGHTS))
    shards = build_shards(ds, topo, 0)
    union_x = np.concatenate([s.x for s in shards])
    union_y = np.concatenate([s.y for s in shards])
    path = gradient_descent(lambda w: model.loss_and_grad(w, union_x, union_y),
                            w0, cfg.step, cfg.rounds)
    assert np.max(np.abs(state.weights - path[-1])) <= 1e-10


def three_cell_setup(sigmas=None, **over):
    """Seven-cell desk topology with up to num_rbs users of cells 0-2
    scheduled and cells 3-6 left empty; returns the scheduled users per cell."""
    cfg = tiny_training_config(num_cells=7, total_users=28, total_samples=560,
                               num_rbs=4, **over)
    topo = generate_topology(cfg, 6)
    ds = load_dataset(cfg)
    alloc = empty_allocation(topo)
    cells = []
    for s, users in enumerate(topo.cell_users):
        on = users[:cfg.num_rbs] if s < 3 else users[:0]
        alloc.block[on] = np.arange(on.size)
        cells.append([int(u) for u in on])
    assert all(cells[:3]), "each of the three cells needs a scheduled user"
    alloc.sigmas = np.zeros(topo.num_users) if sigmas is None else sigmas(topo)
    return cfg, topo, ds, alloc, cells


def per_user_gradients(cfg, ds, topo, seed):
    """Initial weights and user u's full-batch gradient, as train builds them."""
    model = Mlp(cfg.features, cfg.classes)
    w0 = model.init_params(seeding.stream(seed, seeding.WEIGHTS))
    shards = build_shards(ds, topo, seed)
    return w0, lambda u, w: model.loss_and_grad(w, shards[u].x, shards[u].y)[1]


def test_noiseless_train_matches_two_level_oracle():
    cfg, topo, ds, alloc, cells = three_cell_setup(clip=0.5, mu=0.1)
    state = train(topo, alloc, ds, cfg, seed=6)

    w, grad = per_user_gradients(cfg, ds, topo, 6)
    norms = [np.linalg.norm(grad(u, w)) for c in cells for u in c]
    assert min(norms) < cfg.clip < max(norms), "the round needs clipped and unclipped users"
    for _ in range(cfg.rounds):
        w = two_level_round(grad, w, cells, topo.samples, alloc.sigmas,
                            cfg.clip, cfg.step, None)
    assert np.max(np.abs(state.weights - w)) <= 1e-12


def test_round_noise_has_the_summed_users_variance():
    unequal = lambda topo: np.linspace(0.0, 0.3, topo.num_users)
    cfg, topo, ds, noisy, cells = three_cell_setup(sigmas=unequal, rounds=1)
    clean = replace(noisy, sigmas=np.zeros(topo.num_users))
    a = train(topo, noisy, ds, cfg, seed=6).weights
    b = train(topo, clean, ds, cfg, seed=6).weights

    on = noisy.scheduled(topo)
    K = topo.samples[on].astype(float)
    sig = noisy.sigmas[on]
    assert len(set(sig)) == sig.size and (sig == 0.0).any()
    expect = float(np.sum((K * sig / K.sum()) ** 2))

    # the paper's per-user mechanisms, drawn user by user, have the same law
    w0, grad = per_user_gradients(cfg, ds, topo, 6)
    one_round = lambda sigmas: two_level_round(
        grad, w0, cells, topo.samples, sigmas, cfg.clip, cfg.step,
        lambda s, u: seeding.stream(6, seeding.NOISE, 0, s, u))
    per_user = one_round(noisy.sigmas) - one_round(clean.sigmas)

    for diff in (a - b, per_user):
        nu = diff / -cfg.step
        n = nu.size
        assert abs(nu.mean()) <= 5.0 * np.sqrt(expect / n)
        assert abs(nu.var() - expect) <= 5.0 * expect * np.sqrt(2.0 / n)


def test_training_memory_does_not_grow_with_the_schedule():
    cfg = load_config(Path(__file__).resolve().parent.parent / "configs"
                      / "desk_train_r5.yaml").replace(rounds=1)
    topo = generate_topology(cfg, 0)
    ds = load_dataset(cfg)
    shards = sum(s.x.nbytes + s.y.nbytes for s in build_shards(ds, topo, 0))

    def net_peak(num_cells):
        """Traced peak inside train, net of its shards, with up to num_rbs
        users scheduled in each of the first num_cells cells."""
        alloc = empty_allocation(topo)
        for users in topo.cell_users[:num_cells]:
            on = users[:cfg.num_rbs]
            alloc.block[on] = np.arange(on.size)
        alloc.sigmas = np.ones(topo.num_users)
        tracemalloc.start()
        try:
            train(topo, alloc, ds, cfg, seed=0)
            return tracemalloc.get_traced_memory()[1] - shards
        finally:
            tracemalloc.stop()

    one, seven = net_peak(1), net_peak(topo.num_cells)
    # a list of gradients or cell means would add one vector per cell
    assert seven - one < Mlp(cfg.features, cfg.classes).dim * 8


def test_train_metrics_lengths_and_determinism():
    cfg = tiny_training_config(rounds=4)
    topo = generate_topology(cfg, 1)
    ds = load_dataset(cfg)
    alloc = everyone_scheduled(cfg, topo, sigma=0.05)
    a = train(topo, alloc, ds, cfg, seed=1)
    b = train(topo, alloc, ds, cfg, seed=1)
    assert len(a.test_accuracy) == 4 and len(a.test_loss) == 4
    assert np.array_equal(a.weights, b.weights)
    assert a.test_accuracy == b.test_accuracy
    c = train(topo, alloc, ds, cfg, seed=2)
    assert not np.array_equal(a.weights, c.weights)


def test_train_zero_rounds_returns_init():
    cfg = tiny_training_config(rounds=0)
    topo = generate_topology(cfg, 2)
    ds = load_dataset(cfg)
    alloc = everyone_scheduled(cfg, topo)
    state = train(topo, alloc, ds, cfg, seed=2)
    model = Mlp(cfg.features, cfg.classes)
    w0 = model.init_params(seeding.stream(2, seeding.WEIGHTS))
    assert np.array_equal(state.weights, w0)
    assert state.test_accuracy == []


def test_unscheduled_users_never_touch_their_data():
    cfg = tiny_training_config(rounds=3)
    topo = generate_topology(cfg, 3)
    ds = load_dataset(cfg)
    alloc = everyone_scheduled(cfg, topo)
    # bench user 0, then poison its shard rows: training must not read them
    alloc.block[0] = -1
    clean = train(topo, alloc, ds, cfg, seed=3)

    rng = seeding.stream(3, seeding.SHARDS)
    perm = rng.permutation(ds.train_x.shape[0])[:int(topo.samples.sum())]
    user0_rows = perm[:int(topo.samples[0])]  # first slice belongs to user 0
    x2 = ds.train_x.copy()
    x2[user0_rows] = np.nan
    ds2 = type(ds)(x2, ds.train_y, ds.test_x, ds.test_y)
    state2 = train(topo, alloc, ds2, cfg, seed=3)
    assert np.array_equal(clean.weights, state2.weights)


def test_train_requires_scheduled_samples():
    cfg = tiny_training_config()
    topo = generate_topology(cfg, 4)
    ds = load_dataset(cfg)
    alloc = empty_allocation(topo)
    with pytest.raises(ValueError, match="scheduled"):
        train(topo, alloc, ds, cfg, seed=4)


def test_train_diverged_error():
    cfg = tiny_training_config(rounds=3)
    topo = generate_topology(cfg, 5)
    ds = load_dataset(cfg)
    alloc = everyone_scheduled(cfg, topo)
    # noise draws at this scale overflow to inf immediately
    alloc.sigmas[:] = 1e308
    with pytest.raises(TrainDivergedError) as exc:
        with np.errstate(all="ignore"):
            train(topo, alloc, ds, cfg, seed=5)
    assert exc.value.round_index == 0


def test_local_gradient_empty_shard_rejected():
    from fedcell.data import Shard
    model = Mlp(4, 2)
    with pytest.raises(ValueError):
        local_gradient(model, Shard(np.zeros((0, 4)), np.zeros(0, dtype=int), 0),
                       np.zeros(model.dim))
