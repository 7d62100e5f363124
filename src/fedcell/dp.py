"""Privacy accounting and optimal noise scales.

Each round, a scheduled user releases its clipped gradient (norm bound L,
sensitivity 2L/K through the sample average) under Gaussian noise of scale
sigma.  Over T rounds the zero-concentrated privacy loss per user is

    rho = 2 T (L / (K sigma))^2

and the total across scheduled users is 2 T L^2 sum a / (K sigma)^2, the
same aggregate the scheduler's noise term weights by gamma.
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
    rounds: int
    clip: float


def leakage_report(topo: Topology, alloc: Allocation, config: SystemConfig) -> LeakageReport:
    mask = alloc.scheduled(topo)
    rho = np.zeros(topo.num_users)
    rho[mask] = leakage(config.rounds, config.clip, topo.samples[mask], alloc.sigmas[mask])
    return LeakageReport(rho=rho, total=float(rho.sum()),
                         rounds=config.rounds, clip=config.clip)


def optimize_noise(topo: Topology, alloc: Allocation, config: SystemConfig) -> np.ndarray:
    """Noise scales minimising the leakage term under the variance budget.

    Stationarity gives sigma_i = (K_i^3 kappa)^(-1/4) clamped from below by
    the floor n_min / K_i, with the multiplier kappa chosen so the budget

        sum K sigma^2 = v_max * sum K        (over scheduled users)

    holds with equality.  The left side is continuous and non-increasing in
    kappa, so kappa comes from a geometric bisection; unscheduled users get
    sigma zero.
    """
    mask = alloc.scheduled(topo)
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        raise InfeasibleNoiseError("nothing to optimise: no user is scheduled")
    K = topo.samples[idx].astype(float)
    floor = config.n_min / K
    rhs = config.v_max * K.sum()
    floor_lhs = float(K @ floor ** 2)
    if floor_lhs > rhs * (1.0 + 1e-12):
        raise InfeasibleNoiseError(
            "sigma floor exceeds the variance budget for the scheduled set")

    def lhs(kappa: float) -> float:
        sig = np.maximum((K ** 3 * kappa) ** -0.25, floor)
        return float(K @ sig ** 2)

    lo = hi = 1.0
    for _ in range(200):
        if lhs(hi) <= rhs:
            break
        hi *= 16.0
    for _ in range(200):
        if lhs(lo) >= rhs:
            break
        lo /= 16.0
    for _ in range(200):
        mid = np.sqrt(lo * hi)
        if lhs(mid) >= rhs:
            lo = mid
        else:
            hi = mid
        if hi / lo - 1.0 < 1e-12:
            break
    kappa = np.sqrt(lo * hi)
    sig_sched = np.maximum((K ** 3 * kappa) ** -0.25, floor)
    resid = abs(float(K @ sig_sched ** 2) - rhs) / rhs
    if resid > 1e-8:
        raise InfeasibleNoiseError(f"noise budget residual {resid:.3e} after bisection")
    sigmas = np.zeros(topo.num_users)
    sigmas[idx] = sig_sched
    return sigmas

