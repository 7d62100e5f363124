import functools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import central_difference

from fedcell.config import load_config
from fedcell.data import load_dataset
from fedcell.mlp import CHUNK, Mlp

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def toy_batch(model, n=12, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, model.sizes[0]))
    y = rng.integers(0, model.sizes[-1], n)
    return x, y


def test_parameter_count():
    m = Mlp(64, 10)
    expect = 64 * 256 + 256 + 256 * 256 + 256 + 256 * 10 + 10
    assert m.dim == expect
    small = Mlp(5, 3, hidden=(4,))
    assert small.dim == 5 * 4 + 4 + 4 * 3 + 3


def test_init_params_ranges_and_determinism():
    m = Mlp(20, 4, hidden=(16, 8))
    w1 = m.init_params(np.random.default_rng(5))
    w2 = m.init_params(np.random.default_rng(5))
    assert np.array_equal(w1, w2)
    assert not np.array_equal(w1, m.init_params(np.random.default_rng(6)))
    for (ws, bs, fan_in, fan_out) in m.slices:
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        assert np.all(np.abs(w1[ws]) <= bound)
        assert np.all(w1[bs] == 0.0)


def test_unpack_returns_views():
    m = Mlp(6, 3, hidden=(5,))
    w = m.init_params(np.random.default_rng(0))
    W1, b1 = m.unpack(w)[0]
    W1[0, 0] = 123.0
    assert w[0] == 123.0


def test_predict_proba_rows_normalised():
    m = Mlp(9, 4, hidden=(8, 8))
    w = m.init_params(np.random.default_rng(1))
    x, _ = toy_batch(m, n=30, seed=1)
    p = oracles.predict_proba(m, w, x * 50.0)  # large inputs stay finite
    assert np.all(np.isfinite(p))
    assert p.sum(axis=1) == pytest.approx(np.ones(30), abs=1e-12)
    assert np.all(p >= 0.0)


def test_loss_matches_direct_cross_entropy():
    m = Mlp(7, 3, hidden=(6,))
    w = m.init_params(np.random.default_rng(2))
    x, y = toy_batch(m, n=9, seed=2)
    loss, _ = m.loss_and_grad(w, x, y)
    p = oracles.predict_proba(m, w, x)
    expect = float(np.mean(-np.log(p[np.arange(9), y])))
    assert loss == pytest.approx(expect, rel=1e-12)
    eval_loss, _ = m.evaluate(w, x, y)
    assert eval_loss == pytest.approx(expect, rel=1e-12)


def test_gradient_matches_central_differences():
    m = Mlp(8, 4, hidden=(10, 6))
    rng = np.random.default_rng(3)
    x, y = toy_batch(m, n=11, seed=3)
    w = m.init_params(rng) + 0.01 * rng.normal(size=m.dim)
    _, grad = m.loss_and_grad(w, x, y)
    coords = rng.choice(m.dim, 40, replace=False)
    fd = central_difference(lambda v: m.loss_and_grad(v, x, y)[0], w, coords, 1e-5)
    assert np.linalg.norm(fd - grad[coords]) <= 1e-7 * max(1.0, np.linalg.norm(grad[coords]))


def test_gradient_descent_reduces_loss():
    m = Mlp(5, 3, hidden=(12,))
    rng = np.random.default_rng(4)
    n = 60
    y = rng.integers(0, 3, n)
    centers = rng.normal(scale=3.0, size=(3, 5))
    x = centers[y] + rng.normal(scale=0.5, size=(n, 5))
    w = m.init_params(rng)
    first, _ = m.loss_and_grad(w, x, y)
    for _ in range(150):
        _, g = m.loss_and_grad(w, x, y)
        w = w - 0.5 * g
    last, acc = m.evaluate(w, x, y)
    assert last < first * 0.2
    assert acc >= 0.9


def test_empty_batch_rejected():
    m = Mlp(4, 2, hidden=(3,))
    w = m.init_params(np.random.default_rng(0))
    with pytest.raises(ValueError):
        m.loss_and_grad(w, np.zeros((0, 4)), np.zeros(0, dtype=int))


def test_accuracy_counts_argmax_matches():
    m = Mlp(2, 2, hidden=(4,))
    w = np.zeros(m.dim)
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    y = np.array([0, 1])
    # zero weights: uniform logits, argmax picks class 0 for every row
    _, acc = m.evaluate(w, x, y)
    assert acc == 0.5


@settings(max_examples=20)
@given(seed=st.integers(0, 1000))
def test_gradient_zero_at_uniform_optimum(seed):
    """With labels split evenly and x = 0, zero weights are stationary in the
    final-layer weight block (symmetry), so its gradient block vanishes."""
    m = Mlp(3, 2, hidden=(4,))
    w = np.zeros(m.dim)
    x = np.zeros((2, 3))
    y = np.array([0, 1])
    _, g = m.loss_and_grad(w, x, y)
    ws, bs, _, _ = m.slices[-1]
    assert np.allclose(g[bs], 0.0, atol=1e-15)


@functools.cache
def desk_setup():
    cfg = load_config(CONFIGS / "desk_train_r5.yaml")
    return Mlp(cfg.features, cfg.classes), load_dataset(cfg)


def desk_batch(n):
    """The desk model at its initial weights and the first n desk samples."""
    model, data = desk_setup()
    w = model.init_params(np.random.default_rng(0))
    return model, w, data.train_x[:n], data.train_y[:n]


@pytest.mark.parametrize("n", [1, 37, CHUNK - 1, CHUNK])
def test_one_slice_keeps_the_whole_batch_bits(n):
    model, w, x, y = desk_batch(n)
    loss, grad = model.loss_and_grad(w, x, y)
    ref_loss, ref_grad = oracles.whole_batch_loss_and_grad(model, w, x, y)
    assert loss == ref_loss
    assert np.array_equal(grad, ref_grad)


def test_slices_stay_near_the_whole_batch_pass():
    model, w, x, y = desk_batch(700)
    loss, grad = model.loss_and_grad(w, x, y)
    ref_loss, ref_grad = oracles.whole_batch_loss_and_grad(model, w, x, y)
    assert loss == pytest.approx(ref_loss, rel=1e-12)
    assert np.linalg.norm(grad - ref_grad) <= 1e-12 * np.linalg.norm(ref_grad)
    eval_loss, _ = model.evaluate(w, x, y)
    assert eval_loss == pytest.approx(ref_loss, rel=1e-12)


def traced_peak(call, *args):
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_working_set_does_not_grow_with_the_batch():
    """A call holds one slice's activations, however many rows it walks."""
    model, w, x, y = desk_batch(2000)
    one = traced_peak(model.loss_and_grad, w, x[:CHUNK], y[:CHUNK])
    assert traced_peak(model.loss_and_grad, w, x, y) <= 1.5 * one
    one = traced_peak(model.evaluate, w, x[:CHUNK], y[:CHUNK])
    assert traced_peak(model.evaluate, w, x[:1000], y[:1000]) <= 1.5 * one


def test_bits_do_not_depend_on_the_blas_thread_count(set_blas_threads):
    model, w, x, y = desk_batch(3700)
    runs = []
    for threads in (1, 2):
        set_blas_threads(threads)
        runs.append((model.loss_and_grad(w, x, y), model.evaluate(w, x, y)))
    ((loss1, grad1), eval1), ((loss2, grad2), eval2) = runs
    assert loss1 == loss2
    assert np.array_equal(grad1, grad2)
    assert eval1 == eval2
