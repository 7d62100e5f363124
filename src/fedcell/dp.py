"""Privacy accounting and optimal noise scales.

Each round, a scheduled user releases its clipped gradient (norm bound L,
sensitivity 2L/K through the sample average) under Gaussian noise of scale
sigma.  Over T rounds the zero-concentrated privacy loss per user is

    rho = 2 T (L / (K sigma))^2

and the total across scheduled users is 2 T L^2 sum a / (K sigma)^2, the
same aggregate the scheduler's noise term weights by gamma.

The sensitivity 2L/K holds only when every per-sample gradient is bounded
by L.  `fl.train` clips each user's mean gradient instead, which bounds the
sensitivity only by 2L, so the reported rho rests on a bound the training
does not enforce.  Per-example clipping (ROADMAP item 3) closes the gap.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SystemConfig
from .radio import Allocation
from .topology import Topology


class InfeasibleNoiseError(ValueError):
    """No noise scales meet the budget: nobody is scheduled, or the sigma
    floor alone exceeds the noise variance budget."""


def leakage(rounds: int, clip: float, samples, sigma):
    """Per-user privacy loss rho = 2 T (L / (K sigma))^2; `samples` and
    `sigma` may be arrays over users."""
    if np.any(np.asarray(sigma) <= 0.0):
        raise ValueError("sigma must be positive to account privacy")
    if np.any(np.asarray(samples) <= 0):
        raise ValueError("samples must be positive")
    # squared terms kept separate so integer-valued cases stay exact
    return 2.0 * rounds * clip ** 2 / (samples * sigma) ** 2


@dataclass
class LeakageReport:
    rho: np.ndarray      # (num_users,) per-user loss, zero when unscheduled
    total: float


def leakage_report(topo: Topology, alloc: Allocation, config: SystemConfig) -> LeakageReport:
    mask = alloc.scheduled(topo)
    rho = np.zeros(topo.num_users)
    rho[mask] = leakage(config.rounds, config.clip, topo.samples[mask], alloc.sigmas[mask])
    return LeakageReport(rho=rho, total=float(rho.sum()))


def optimize_noise(topo: Topology, alloc: Allocation, config: SystemConfig) -> np.ndarray:
    """Noise scales minimising the leakage term under the variance budget.

    Stationarity gives sigma_i = (K_i^3 kappa)^(-1/4) clamped from below by
    the floor n_min / K_i, with the multiplier kappa chosen so the budget

        sum K sigma^2 = v_max * sum K        (over scheduled users)

    holds with equality.  This is water-filling (Boyd and Vandenberghe,
    Convex Optimization, 2004, 5.5.3), solved exactly.  With the level
    t = kappa^(-1/2), sigma_i = sqrt(t) K_i^(-3/4), and a user is clamped iff
    t < t_i = n_min^2 K_i^(-1/2), i.e. iff K_i < n_min^4 kappa; the clamped
    users are the c smallest holders, and

        t = (v_max sum K - n_min^2 sum_clamped 1/K) / sum_free K^(-1/2).

    The budget spent, sum max(t K^(-1/2), n_min^2 / K), grows with t, so c
    is the number of users whose own threshold t_i already spends more than
    the budget.  When the floor alone meets the budget, c counts every user
    and each sits on its floor.  Unscheduled users get sigma zero.
    """
    mask = alloc.scheduled(topo)
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        raise InfeasibleNoiseError("nothing to optimise: no user is scheduled")
    K = topo.samples[idx].astype(float)
    floor = config.n_min / K
    rhs = config.v_max * K.sum()
    if float(K @ floor ** 2) > rhs * (1.0 + 1e-12):
        raise InfeasibleNoiseError(
            "sigma floor exceeds the variance budget for the scheduled set")

    Ks = np.sort(K)
    root = Ks ** -0.5
    n2 = config.n_min ** 2
    clamped = np.concatenate(([0.0], np.cumsum(n2 / Ks)))     # first c users
    free = np.concatenate((np.cumsum(root[::-1])[::-1], [0.0]))  # the rest
    spent_at_threshold = clamped[:-1] + n2 * root * free[:-1]
    c = int(np.count_nonzero(spent_at_threshold > rhs))
    t = (rhs - clamped[c]) / free[c] if c < K.size else 0.0
    sigmas = np.zeros(topo.num_users)
    sigmas[idx] = np.maximum(np.sqrt(t) * K ** -0.75, floor)
    return sigmas
