"""Federated training of `Mlp(config.features, config.classes)`, the model
whose dimension the convergence bound charges, over the scheduled users.

Each round, every scheduled user computes its full-batch gradient and clips
it to the norm bound; base stations average their users' clipped gradients
by sample count, and the global model averages the cells the same way.  Both
averages are accumulated in place, one weighted term at a time:
`bs_aggregate` adds K_u / K_cell times a user's clipped gradient into its
cell's mean, and `global_aggregate` adds K_cell / K_a times that mean into
the round's gradient.  Sample counts are integers, so every weight and total
is exact and the sums are the sample-weighted means term for term; a round
holds a fixed handful of model-sized arrays however many users it schedules.
In the paper's scheme every user also adds its own N(0, sigma_u^2 I) before
the uplink, and the global model only ever sees the sample-weighted sum of
those noises.  The users' mechanisms are independent Gaussians, so their sum
is drawn as one: N(0, sum_u (K_u sigma_u / K_a)^2 I), with the same law.  The
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
    noise = rng.standard_normal(grad.shape)
    noise *= sigma
    noise += grad
    return noise


def local_gradient(model: Mlp, shard: Shard, w: np.ndarray) -> np.ndarray:
    return model.loss_and_grad(w, shard.x, shard.y)[1]


def local_update(w: np.ndarray, grad: np.ndarray, step: float) -> np.ndarray:
    return w - step * grad


def bs_aggregate(acc: np.ndarray, grad: np.ndarray, weight: float) -> None:
    """Add a user's clipped gradient, weighted K_u / K_cell, into its cell's
    mean `acc` in place."""
    acc += weight * grad


def global_aggregate(acc: np.ndarray, cell_mean: np.ndarray, weight: float) -> None:
    """Add a cell's mean gradient, weighted K_cell / K_a, into the round's
    gradient `acc` in place."""
    acc += weight * cell_mean


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

    model = Mlp(config.features, config.classes)
    w = model.init_params(seeding.stream(seed, seeding.WEIGHTS))
    shards = build_shards(dataset, topo, seed)

    # each cell's scheduled users and their sample total K_cell
    cells = [(users, K[users].sum()) for users in
             ([int(u) for u in cell if mask[u]] for cell in topo.cell_users) if users]
    g = np.empty(model.dim)          # the round's mean clipped gradient
    cell_mean = np.empty(model.dim)
    state = FlState(weights=w)
    for t in range(config.rounds):
        g.fill(0.0)
        for users, k_cell in cells:
            cell_mean.fill(0.0)
            for u in users:
                grad = clip_global_norm(local_gradient(model, shards[u], w), config.clip)
                bs_aggregate(cell_mean, grad, K[u] / k_cell)
            global_aggregate(g, cell_mean, k_cell / total)
        w = local_update(w, gaussian_mechanism(g, sigma, noise_stream(seed, t)),
                         config.step)
        if not np.isfinite(w).all():
            raise TrainDivergedError(t)
        loss, acc = model.evaluate(w, dataset.test_x, dataset.test_y)
        state.test_loss.append(loss)
        state.test_accuracy.append(acc)
    state.weights = w
    return state
