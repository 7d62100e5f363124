"""Uplink interference, achievable rates, and transmit power selection.

A user scheduled on resource block n is heard by every other base station on
the same block, so required powers couple across cells.  Setting each
scheduled user's SNR-gap equation to equality gives a linear system
A p = b; powers solve min ||A p - b||_1 subject to 0 <= p <= p_max.  Users
couple only through a shared block, so A is block diagonal by resource
block, with one row per cell at most in each block.  The blocks are solved
directly, one at a time; a solution inside the box is the exact
zero-residual optimum (the Foschini-Miljanic fixed point, without the
iteration).  Only a block that is singular or whose solution leaves the box
goes through the one linear program, in scaled units, because powers of a
few nW lie below the LP solver's absolute tolerance in watts.

An allocation stores one block id per user (-1 when unscheduled), the
vector that rates, the power system and the per-block solve index by.
Interference and rates have one path: `interference` gives every base
station's co-channel power on every block at once, adding each entry's
terms in ascending serving-cell order, and `uplink_rate` turns one such
matrix into every user's rate.  Rate enforcement, the scheduler's
feasibility test and the `schedule` csv all use it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .config import SystemConfig
from .topology import Topology


class PowerSolveError(RuntimeError):
    """Raised when the power program cannot be solved."""


@dataclass
class Allocation:
    """Resource block, transmit power, and noise scale of every user.

    All three are global (num_users,) arrays.  block[u] is the resource block
    user u holds in its own cell, -1 when unscheduled, so a user holds at
    most one block; no two users of a cell share one, as the schedulers
    guarantee.  powers are zero for unscheduled users.
    """
    block: np.ndarray
    powers: np.ndarray
    sigmas: np.ndarray

    def copy(self) -> "Allocation":
        return Allocation(self.block.copy(), self.powers.copy(), self.sigmas.copy())

    def scheduled(self, topo: Topology) -> np.ndarray:
        """Boolean vector over users: True when the user holds a resource block."""
        return self.block >= 0


def empty_allocation(topo: Topology) -> Allocation:
    return Allocation(np.full(topo.num_users, -1), np.zeros(topo.num_users),
                      np.zeros(topo.num_users))


def snr_gap(config: SystemConfig) -> float:
    """SNR needed for one block to carry the minimum rate: 2^(r_min/B) - 1."""
    return 2.0 ** (config.r_min / config.bandwidth) - 1.0


def interference(alloc: Allocation, topo: Topology, num_rbs: int) -> np.ndarray:
    """(num_cells, num_rbs) received power at every base station on every
    block from the users served by other cells.

    Each entry adds its terms one by one in ascending serving-cell order,
    at most one per cell.
    """
    users = np.concatenate(topo.cell_users)
    users = users[alloc.block[users] >= 0]
    # received power at every BS from every scheduled user; a cell does not
    # interfere with itself
    heard = topo.gains[:, users] * alloc.powers[users]
    heard[topo.assignment[users], np.arange(users.size)] = 0.0
    bins = np.arange(topo.num_cells)[:, None] * num_rbs + alloc.block[users]
    out = np.bincount(bins.ravel(), heard.ravel(), minlength=topo.num_cells * num_rbs)
    return out.reshape(topo.num_cells, num_rbs)


def uplink_rate(alloc: Allocation, topo: Topology, config: SystemConfig) -> np.ndarray:
    """(num_users,) achievable rate of every user at its serving base
    station, bit/s; zero for unscheduled users."""
    on = np.flatnonzero(alloc.scheduled(topo))
    cells = topo.assignment[on]
    inter = interference(alloc, topo, config.num_rbs)[cells, alloc.block[on]]
    snr = alloc.powers[on] * topo.gains[cells, on] / (inter + config.bandwidth * config.noise_psd)
    rate = np.zeros(topo.num_users)
    rate[on] = config.bandwidth * np.log2(1.0 + snr)
    return rate


def power_system(topo: Topology, alloc: Allocation, config: SystemConfig):
    """Equality system A p = b over scheduled users (ascending user id).

    Row j demands user j's SNR on its block equals the gap, with co-channel
    users of other cells appearing through negative off-diagonal entries.
    """
    sched = np.flatnonzero(alloc.scheduled(topo))
    gap = snr_gap(config)
    cells = topo.assignment[sched]
    blocks = alloc.block[sched]
    h_own = topo.gains[cells, sched]
    b = gap * config.bandwidth * config.noise_psd / h_own
    # A[j, k] couples user k into user j's base station on a shared block
    heard = topo.gains[cells[:, None], sched[None, :]]
    couple = (blocks[:, None] == blocks[None, :]) & (cells[:, None] != cells[None, :])
    A = np.where(couple, -gap * heard / h_own[:, None], 0.0)
    np.fill_diagonal(A, 1.0)
    return A, b, sched


def solve_powers(topo: Topology, alloc: Allocation, config: SystemConfig) -> np.ndarray:
    """Box-constrained L1 fit of the coupled power system, block by block.

    Every resource block's rows of A p = b are solved directly, one block at
    a time.  A block whose solution lies in [0, p_max] keeps it: that is the
    zero-residual optimum.  Only the other blocks, those that are singular or
    whose solution leaves the box, go to one linear program over their rows,
    min 1.t subject to -t <= A p - b <= t, 0 <= p <= p_max, solved in scaled
    units: p = p_max y, row j divided by b_j and its slack weighted by
    b_j / max b.  The objective is the watt-unit one divided by max b, so
    the optimum set is the same, but every row and column is of order one;
    in watts, a user who needs a few nW sits below the solver's absolute
    tolerance and comes back with no power.
    """
    A, b, sched = power_system(topo, alloc, config)
    powers = np.zeros(topo.num_users)
    blocks = alloc.block[sched]
    to_lp = np.zeros(sched.size, dtype=bool)
    for n in np.unique(blocks):
        rows = np.flatnonzero(blocks == n)
        try:
            direct = np.linalg.solve(A[np.ix_(rows, rows)], b[rows])
        except np.linalg.LinAlgError:
            direct = np.full(rows.size, np.nan)
        # a NaN or infinite power fails both comparisons
        if np.all((direct >= 0.0) & (direct <= config.p_max)):
            powers[sched[rows]] = direct
        else:
            to_lp[rows] = True
    rest = np.flatnonzero(to_lp)
    if rest.size:
        powers[sched[rest]] = config.p_max * _scaled_lp(A[np.ix_(rest, rest)], b[rest],
                                                        config.p_max)
    return powers


def _scaled_lp(A: np.ndarray, b: np.ndarray, p_max: float) -> np.ndarray:
    """y in [0, 1] minimising sum_j (b_j / max b) |(p_max (A y)_j - b_j) / b_j|,
    that is ||A p - b||_1 / max b at p = p_max y."""
    m = b.size
    scaled = A * (p_max / b[:, None])
    eye = np.eye(m)
    c = np.concatenate([np.zeros(m), b / b.max()])
    a_ub = np.block([[scaled, -eye], [-scaled, -eye]])
    b_ub = np.concatenate([np.ones(m), -np.ones(m)])
    bounds = [(0.0, 1.0)] * m + [(0.0, None)] * m
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not res.success:
        raise PowerSolveError(f"power program failed: {res.message}")
    return np.clip(res.x[:m], 0.0, 1.0)


def enforce_rate(topo: Topology, alloc: Allocation, config: SystemConfig) -> Allocation:
    """Drop users whose rate misses the minimum, to a fixed point.

    All violators of a pass are removed together; powers are not re-solved, so
    remaining rates only improve as interferers disappear.
    """
    out = alloc.copy()
    floor = config.r_min * (1.0 - 1e-6)
    while True:
        bad = np.flatnonzero(out.scheduled(topo) & (uplink_rate(out, topo, config) < floor))
        if not bad.size:
            return out
        out.block[bad] = -1
        out.powers[bad] = 0.0
