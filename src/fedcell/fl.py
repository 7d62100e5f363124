"""Federated training over the scheduled users.

Each round, every scheduled user computes its full-batch gradient and clips
it to the norm bound; base stations average their users' clipped gradients
by sample count, and the global model averages the cells the same way.  In
the paper's scheme every user also adds its own N(0, sigma_u^2 I) before the
uplink, and the global model only ever sees the sample-weighted sum of those
noises.  The users' mechanisms are independent Gaussians, so their sum is
drawn as one: N(0, sum_u (K_u sigma_u / K_a)^2 I), with the same law.  The
round is then one step, w' = w - step * (mean clipped gradient + noise).
The per-user accounting in `dp.py` is unchanged.  Noise comes from a
dedicated stream per (seed, round), so results are independent of
evaluation order.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import seeding
from .config import SystemConfig
from .data import Dataset, Shard, build_shards
from .mlp import Mlp
from .radio import Allocation
from .topology import Topology


class TrainDivergedError(RuntimeError):
    def __init__(self, round_index: int):
        super().__init__(f"non-finite model weights after round {round_index}")
        self.round_index = round_index


def clip_global_norm(grad: np.ndarray, limit: float) -> np.ndarray:
    """Scale `grad` down to norm `limit` when it exceeds it."""
    norm = float(np.linalg.norm(grad))
    if norm <= limit or norm == 0.0:
        return grad
    return grad * (limit / norm)


def gaussian_mechanism(grad: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Add isotropic Gaussian noise of scale sigma; sigma zero is the identity."""
    if sigma < 0.0:
        raise ValueError("sigma must be >= 0")
    if sigma == 0.0:
        return grad
    return grad + sigma * rng.standard_normal(grad.shape)


def local_gradient(model: Mlp, shard: Shard, w: np.ndarray) -> np.ndarray:
    if shard.x.shape[0] == 0:
        raise ValueError(f"user {shard.user} holds no samples")
    return model.loss_and_grad(w, shard.x, shard.y)[1]


def local_update(w: np.ndarray, grad: np.ndarray, step: float) -> np.ndarray:
    return w - step * grad


def weighted_model_mean(models, weights) -> np.ndarray:
    """Sample-weighted average of vectors: users' clipped gradients in a
    cell, or the cells' mean gradients."""
    weights = np.asarray(weights, dtype=float)
    total = weights.sum()
    if total <= 0.0:
        raise ValueError("aggregation needs positive total weight")
    out = np.zeros_like(models[0])
    for m, wt in zip(models, weights):
        out += (wt / total) * m
    return out


def bs_aggregate(models, weights) -> np.ndarray:
    return weighted_model_mean(models, weights)


def global_aggregate(cell_models, cell_weights) -> np.ndarray:
    return weighted_model_mean(cell_models, cell_weights)


def noise_stream(seed: int, round_index: int) -> np.random.Generator:
    return seeding.stream(seed, seeding.NOISE, round_index)


@dataclass
class FlState:
    weights: np.ndarray
    test_loss: list = field(default_factory=list)
    test_accuracy: list = field(default_factory=list)


def train(topo: Topology, alloc: Allocation, dataset: Dataset,
          config: SystemConfig, seed: int) -> FlState:
    """Run the federated loop for config.rounds rounds and track test metrics.

    The schedule is fixed throughout; only scheduled users participate.
    """
    mask = alloc.scheduled(topo)
    K = topo.samples.astype(float)
    total = K[mask].sum()
    if total <= 0.0:
        raise ValueError("no scheduled samples: nothing to train on")
    # scale of the sum of the users' noises, each weighted K_u / K_a
    sigma = float(np.linalg.norm(K[mask] * alloc.sigmas[mask])) / total

    model = Mlp(dataset.input_dim, dataset.num_classes)
    w = model.init_params(seeding.stream(seed, seeding.WEIGHTS))
    shards = build_shards(dataset, topo, seed)

    state = FlState(weights=w)
    for t in range(config.rounds):
        cell_grads = []
        cell_weights = []
        for s in range(topo.num_cells):
            users = [int(u) for u in topo.cell_users[s] if mask[u]]
            if not users:
                continue
            grads = [clip_global_norm(local_gradient(model, shards[u], w), config.clip)
                     for u in users]
            wts = [K[u] for u in users]
            cell_grads.append(bs_aggregate(grads, wts))
            cell_weights.append(sum(wts))
        g = global_aggregate(cell_grads, cell_weights)
        g = gaussian_mechanism(g, sigma, noise_stream(seed, t))
        w = local_update(w, g, config.step)
        if not np.isfinite(w).all():
            raise TrainDivergedError(t)
        loss, acc = model.evaluate(w, dataset.test_x, dataset.test_y)
        state.test_loss.append(loss)
        state.test_accuracy.append(acc)
    state.weights = w
    return state
