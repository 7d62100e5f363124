"""Uplink interference, achievable rates, and transmit power selection.

A user scheduled on resource block n is heard by every other base station on
the same block, so required powers couple across cells.  Setting each
scheduled user's SNR-gap equation to equality gives a linear system
A p = b; powers solve min ||A p - b||_1 subject to 0 <= p <= p_max, which
returns the exact fixed point whenever one exists inside the box.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .config import SystemConfig
from .topology import Topology


class PowerSolveError(RuntimeError):
    """Raised when the power program cannot be solved."""


@dataclass
class Allocation:
    """Resource blocks, transmit powers, and noise scales for every user.

    rb holds one (cell users x num_rbs) 0/1 matrix per cell, rows ordered like
    topology.cell_users.  powers and sigmas are global (num_users,) arrays;
    powers are zero for unscheduled users.
    """
    rb: list
    powers: np.ndarray
    sigmas: np.ndarray

    def copy(self) -> "Allocation":
        return Allocation([m.copy() for m in self.rb],
                          self.powers.copy(), self.sigmas.copy())

    def scheduled(self, topo: Topology) -> np.ndarray:
        """0/1 vector over users: 1 when the user holds a resource block."""
        mask = np.zeros(topo.num_users, dtype=np.int8)
        for s, users in enumerate(topo.cell_users):
            if users.size:
                mask[users] = self.rb[s].sum(axis=1).astype(np.int8)
        return mask

    def rb_index(self, topo: Topology) -> np.ndarray:
        """Resource block per user, -1 when unscheduled."""
        idx = np.full(topo.num_users, -1, dtype=np.int64)
        for s, users in enumerate(topo.cell_users):
            for row, u in enumerate(users):
                cols = np.flatnonzero(self.rb[s][row])
                if cols.size:
                    idx[u] = cols[0]
        return idx


def empty_allocation(topo: Topology, num_rbs: int) -> Allocation:
    rb = [np.zeros((users.size, num_rbs), dtype=np.int8) for users in topo.cell_users]
    return Allocation(rb, np.zeros(topo.num_users), np.zeros(topo.num_users))


def snr_gap(config: SystemConfig) -> float:
    """SNR needed for one block to carry the minimum rate: 2^(r_min/B) - 1."""
    return 2.0 ** (config.r_min / config.bandwidth) - 1.0


def interference(alloc: Allocation, topo: Topology, cell: int, rb: int) -> float:
    """Total received power at base station `cell` on block `rb` from users
    served by other cells."""
    total = 0.0
    for other, users in enumerate(topo.cell_users):
        if other == cell or users.size == 0:
            continue
        on_rb = users[alloc.rb[other][:, rb] == 1]
        for u in on_rb:
            total += topo.gains[cell, u] * alloc.powers[u]
    return total


def interference_matrix(alloc: Allocation, topo: Topology, num_rbs: int) -> np.ndarray:
    """(num_cells, num_rbs) matrix of the `interference` values, vectorised."""
    out = np.zeros((topo.num_cells, num_rbs))
    for other, users in enumerate(topo.cell_users):
        if users.size == 0:
            continue
        # received power at every BS from cell `other`'s users, per block
        contrib = (topo.gains[:, users] * alloc.powers[users]) @ alloc.rb[other]
        out += contrib
        out[other] -= contrib[other]
    return out


def uplink_rate(alloc: Allocation, topo: Topology, config: SystemConfig, user: int) -> float:
    """Achievable rate of `user` at its serving base station, bit/s."""
    cell = int(topo.assignment[user])
    row = alloc.rb[cell][topo.local_index[user]]
    cols = np.flatnonzero(row)
    if cols.size == 0:
        return 0.0
    rate = 0.0
    for n in cols:
        denom = interference(alloc, topo, cell, int(n)) + config.bandwidth * config.noise_psd
        snr = alloc.powers[user] * topo.gains[cell, user] / denom
        rate += config.bandwidth * math.log2(1.0 + snr)
    return rate


def required_power(topo: Topology, alloc: Allocation, config: SystemConfig,
                   user: int, rb: int | None = None) -> float:
    """Power that hits the minimum rate exactly on the user's block, holding
    every other transmitter fixed.  Zero when the user is unscheduled and no
    block is named; with `rb` given, answers for that hypothetical block."""
    cell = int(topo.assignment[user])
    if rb is None:
        cols = np.flatnonzero(alloc.rb[cell][topo.local_index[user]])
        if cols.size == 0:
            return 0.0
        rb = int(cols[0])
    denom = interference(alloc, topo, cell, rb) + config.bandwidth * config.noise_psd
    return snr_gap(config) * denom / topo.gains[cell, user]


def power_system(topo: Topology, alloc: Allocation, config: SystemConfig):
    """Equality system A p = b over scheduled users (ascending user id).

    Row j demands user j's SNR on its block equals the gap, with co-channel
    users of other cells appearing through negative off-diagonal entries.
    """
    rb_idx = alloc.rb_index(topo)
    sched = np.flatnonzero(rb_idx >= 0)
    m = sched.size
    gap = snr_gap(config)
    A = np.eye(m)
    b = np.empty(m)
    for j, u in enumerate(sched):
        s = int(topo.assignment[u])
        h_own = topo.gains[s, u]
        b[j] = gap * config.bandwidth * config.noise_psd / h_own
        for k, v in enumerate(sched):
            if k == j or rb_idx[v] != rb_idx[u] or topo.assignment[v] == s:
                continue
            A[j, k] = -gap * topo.gains[s, v] / h_own
    return A, b, sched


def solve_powers(topo: Topology, alloc: Allocation, config: SystemConfig) -> np.ndarray:
    """Box-constrained L1 fit of the coupled power system.

    Splits the residual as A p - b = u - v with u, v >= 0 and minimises
    1.(u + v) by linear programming, so an interior fixed point comes back
    with zero residual.
    """
    A, b, sched = power_system(topo, alloc, config)
    powers = np.zeros(topo.num_users)
    m = sched.size
    if m == 0:
        return powers
    c = np.concatenate([np.zeros(m), np.ones(m)])
    eye = np.eye(m)
    a_ub = np.block([[A, -eye], [-A, -eye]])
    b_ub = np.concatenate([b, -b])
    bounds = [(0.0, config.p_max)] * m + [(0.0, None)] * m
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not res.success:
        raise PowerSolveError(f"power program failed: {res.message}")
    powers[sched] = np.clip(res.x[:m], 0.0, config.p_max)
    return powers


def enforce_rate(topo: Topology, alloc: Allocation, config: SystemConfig) -> Allocation:
    """Drop users whose rate misses the minimum, to a fixed point.

    All violators of a pass are removed together; powers are not re-solved, so
    remaining rates only improve as interferers disappear.
    """
    out = alloc.copy()
    floor = config.r_min * (1.0 - 1e-6)
    while True:
        mask = out.scheduled(topo)
        bad = [u for u in np.flatnonzero(mask)
               if uplink_rate(out, topo, config, int(u)) < floor]
        if not bad:
            return out
        for u in bad:
            s = int(topo.assignment[u])
            out.rb[s][topo.local_index[u], :] = 0
            out.powers[u] = 0.0


def validate_allocation(alloc: Allocation, topo: Topology, config: SystemConfig) -> list:
    """Structural checks; returns a list of violation descriptions."""
    problems = []
    for s, users in enumerate(topo.cell_users):
        mat = alloc.rb[s]
        if mat.shape != (users.size, config.num_rbs):
            problems.append(f"cell {s}: rb matrix shape {mat.shape}")
            continue
        if not np.isin(mat, (0, 1)).all():
            problems.append(f"cell {s}: rb entries not 0/1")
        if (mat.sum(axis=1) > 1).any():
            problems.append(f"cell {s}: user on more than one block")
        if (mat.sum(axis=0) > 1).any():
            problems.append(f"cell {s}: block shared inside the cell")
    mask = alloc.scheduled(topo)
    tol = config.p_max * 1e-12
    if (alloc.powers < 0).any() or (alloc.powers > config.p_max + tol).any():
        problems.append("powers outside [0, p_max]")
    if (alloc.powers[mask == 0] != 0).any():
        problems.append("unscheduled user with nonzero power")
    ks = topo.samples * alloc.sigmas
    low = config.n_min * (1.0 - 1e-12)
    if (ks[mask == 1] < low).any():
        problems.append("scheduled user below the sigma floor")
    return problems

