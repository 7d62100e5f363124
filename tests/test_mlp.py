import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import central_difference

from fedcell.mlp import Mlp


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
