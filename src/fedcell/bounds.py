"""Convergence bound constants for a fixed schedule.

With total sample count K, scheduled samples K_a = sum K a, unscheduled
share s = sum K (1 - a) / K, gradient bound L, strong convexity mu, and
gradient deviation parameters xi1/xi2, the expected optimality gap after T
rounds contracts per round by C1 with additive terms C2 (unscheduled data)
and C3 (injected noise):

    q  = 4 xi2 s^2
    C1 = 1 - (mu/L) (1 - q)   when q <= 1,   C1 = q   otherwise
    C2 = (2 xi1 / L) s^2
    C3 = (d / (2 L)) sum (K a sigma / K_a)^2

C1 follows Chen et al., "A Joint Learning and Communications Framework for
Federated Learning over Wireless Networks", IEEE TWC 2021, Thm 1.  A step of
1/L on the L-smooth loss F with aggregate gradient error e gives

    F+ - F* <= F - F* - |grad F|^2 / 2L + |e|^2 / 2L,

and leaving out a share s of the data bounds
|e|^2 <= 4 s^2 (xi1 + xi2 |grad F|^2).  The xi1 part is C2.  The two
|grad F|^2 terms collect to -(1 - q) |grad F|^2 / 2L.  When q <= 1 the
coefficient is non-positive, and strong convexity, |grad F|^2 >= 2 mu (F - F*),
gives the factor 1 - (mu/L)(1 - q).  When q > 1 it is positive, and
smoothness, |grad F|^2 <= 2 L (F - F*), gives the factor q >= 1.  Both
branches equal 1 at q = 1.

L is `config.clip`, the norm that bounds every gradient, and the bound
assumes a step of 1/L; training itself steps by `config.step`.

The recursion converges iff C1 < 1.  C3 stays bounded whenever the noise
budget sum K sigma^2 a <= v_max sum K a holds, which `c3_constraint_check`
verifies directly.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SystemConfig
from .radio import Allocation
from .topology import Topology

C3_CHECK_REL_TOL = 1e-8   # slack of the budget check for a budget-tight optimum


@dataclass(frozen=True)
class BoundConstants:
    c1: float
    c2: float
    c3: float

    @property
    def converges(self) -> bool:
        return self.c1 < 1.0


def evaluate_bound(topo: Topology, alloc: Allocation, config: SystemConfig,
                   dim: int) -> BoundConstants:
    mask = alloc.scheduled(topo)
    K = topo.samples.astype(float)
    total = K.sum()
    k_a = K[mask].sum()
    if k_a == 0.0:
        raise ValueError("bound undefined with no scheduled samples")
    share = float(K[~mask].sum() / total)
    q = 4.0 * config.xi2 * share ** 2
    c1 = 1.0 - config.mu / config.clip * (1.0 - q) if q <= 1.0 else q
    c2 = 2.0 * config.xi1 / config.clip * share ** 2
    noise = float(np.sum((K[mask] * alloc.sigmas[mask] / k_a) ** 2))
    c3 = dim / (2.0 * config.clip) * noise
    return BoundConstants(c1=c1, c2=c2, c3=c3)


def c3_constraint_check(topo: Topology, alloc: Allocation, config: SystemConfig) -> bool:
    """True when the scheduled noise variance respects its budget:
    sum K sigma^2 a <= v_max sum K a (within relative C3_CHECK_REL_TOL)."""
    mask = alloc.scheduled(topo)
    K = topo.samples[mask].astype(float)
    lhs = float(K @ alloc.sigmas[mask] ** 2)
    rhs = config.v_max * float(K.sum())
    return lhs <= rhs * (1.0 + C3_CHECK_REL_TOL)
