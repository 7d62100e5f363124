"""Independent reference implementations used to check the package.

Everything here is written from the problem statements directly (exhaustive
enumeration, grids, finite differences), not from the package's algorithms,
so agreement is evidence rather than tautology.
"""
from __future__ import annotations

import gzip
import itertools
import math
import struct

import numpy as np
from scipy.optimize import linprog


def brute_force_cell(problem):
    """Exhaustive minimum of a cell scheduling subproblem.

    Enumerates every user subset of size <= num_rbs, every injective block
    assignment for it, and the noise budget; returns (objective, user set,
    block vector) or (None, None, None) when nothing is feasible.  The block
    vector holds each user's block, -1 when unscheduled; permutations come
    in lexicographic order, so the first placeable one gives the set its
    lowest blocks.  Uses plain Python arithmetic.
    """
    K = [float(k) for k in problem.samples]
    sig = [float(s) for s in problem.sigmas]
    U, R = problem.feasible.shape
    slack = problem.v_max * problem.foreign_samples - problem.foreign_noise
    tol = problem.budget_tol
    total_k = math.fsum(K)
    best = None
    best_set = None
    best_blocks = None
    for size in range(0, R + 1):
        for subset in itertools.combinations(range(U), size):
            load = math.fsum(K[i] * (sig[i] ** 2 - problem.v_max) for i in subset)
            if load > slack + tol:
                continue
            placed = next((blocks for blocks in itertools.permutations(range(R), size)
                           if all(problem.feasible[i, b] for i, b in zip(subset, blocks))),
                          None)
            if placed is None:
                continue
            served = math.fsum(K[i] for i in subset)
            noise = math.fsum(1.0 / (K[i] * sig[i]) ** 2 for i in subset)
            obj = (total_k - served) + problem.gamma * noise
            if best is None or obj < best or (obj == best and subset < best_set):
                best = obj
                best_set = subset
                best_blocks = [-1] * U
                for i, b in zip(subset, placed):
                    best_blocks[i] = b
    return best, best_set, best_blocks


def grid_noise_minimum(K, floors, budget, rounds=6, points=25):
    """Grid minimiser of sum 1/(K sigma)^2 over sigma >= floors with
    sum K sigma^2 <= budget, spending the budget through the last user.

    The first len(K)-1 scales sweep a refining grid; the last one takes
    whatever budget remains.  Returns (objective, sigmas).
    """
    K = np.asarray(K, dtype=float)
    floors = np.asarray(floors, dtype=float)
    d = K.size

    def close_last(prefix):
        used = float(np.sum(K[:d - 1] * prefix ** 2))
        rest = budget - used
        if rest <= 0.0:
            return None
        last = math.sqrt(rest / K[d - 1])
        if last < floors[d - 1] * (1.0 - 1e-12):
            return None
        return last

    def objective(sig):
        return float(np.sum(1.0 / (K * sig) ** 2))

    if d == 1:
        sig = np.array([math.sqrt(budget / K[0])])
        if sig[0] < floors[0] * (1.0 - 1e-12):
            return None, None
        return objective(sig), sig

    los = floors[:d - 1].copy()
    his = np.sqrt(budget / K[:d - 1])
    best_obj = None
    best_sig = None
    for _ in range(rounds):
        axes = [np.linspace(lo, hi, points) for lo, hi in zip(los, his)]
        for combo in itertools.product(*axes):
            prefix = np.array(combo)
            if (prefix < floors[:d - 1] * (1.0 - 1e-12)).any():
                continue
            last = close_last(prefix)
            if last is None:
                continue
            sig = np.append(prefix, last)
            obj = objective(sig)
            if best_obj is None or obj < best_obj:
                best_obj = obj
                best_sig = sig
        if best_sig is None:
            return None, None
        # zoom each axis around the incumbent, clamped to the floors
        for a in range(d - 1):
            width = (his[a] - los[a]) * 2.0 / (points - 1)
            los[a] = max(floors[a], best_sig[a] - width)
            his[a] = best_sig[a] + width
    return best_obj, best_sig


def bisection_noise(K, n_min, v_max):
    """Optimal noise scales of the users with sample counts K by bisection
    on the budget multiplier kappa.

    sigma_i = max((K_i^3 kappa)^(-1/4), n_min / K_i), and sum K sigma^2 is
    continuous and non-increasing in kappa, so a geometric bisection finds
    the kappa that spends v_max * sum K exactly.  Raises ValueError when the
    floor alone exceeds the budget.
    """
    K = np.asarray(K, dtype=float)
    floor = n_min / K
    rhs = v_max * K.sum()
    if float(K @ floor ** 2) > rhs * (1.0 + 1e-12):
        raise ValueError("sigma floor exceeds the variance budget")

    def lhs(kappa):
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
        mid = math.sqrt(lo * hi)
        if lhs(mid) >= rhs:
            lo = mid
        else:
            hi = mid
        if hi / lo - 1.0 < 1e-12:
            break
    return np.maximum((K ** 3 * math.sqrt(lo * hi)) ** -0.25, floor)


def central_difference(fun, w, coords, eps):
    """Central finite differences of a scalar function at chosen coordinates."""
    out = np.empty(len(coords))
    for j, c in enumerate(coords):
        wp = w.copy()
        wp[c] += eps
        wm = w.copy()
        wm[c] -= eps
        out[j] = (fun(wp) - fun(wm)) / (2.0 * eps)
    return out


def gradient_descent(loss_and_grad, w0, step, rounds):
    """Plain full-batch descent trajectory, including the start point."""
    path = [w0.copy()]
    w = w0.copy()
    for _ in range(rounds):
        _, g = loss_and_grad(w)
        w = w - step * g
        path.append(w.copy())
    return path


def weighted_model_mean(models, weights) -> np.ndarray:
    """Sample-weighted average of vectors, the reference for the in-place
    accumulation of `fedcell.fl`: users' clipped gradients in a cell, or the
    cells' mean gradients.  Adds (weight / total) * vector in list order."""
    weights = np.asarray(weights, dtype=float)
    total = weights.sum()
    if total <= 0.0:
        raise ValueError("aggregation needs positive total weight")
    out = np.zeros_like(models[0])
    for m, wt in zip(models, weights):
        out += (wt / total) * m
    return out


def two_level_round(grad, w, cells, samples, sigmas, clip, step, rng):
    """One training round of the paper's scheme as written.

    Every scheduled user u clips its gradient grad(u, w) to norm `clip`, adds
    its own N(0, sigmas[u]^2 I) from the generator rng(cell, u) (not called
    when sigmas[u] is 0) and takes one local step; each base station averages
    its users' models by sample count, and the server averages the cells by
    their sample totals.  `cells` lists the scheduled users of each cell.
    """
    cell_models = []
    cell_totals = []
    for s, users in enumerate(cells):
        if not users:
            continue
        total = math.fsum(float(samples[u]) for u in users)
        model = np.zeros_like(w)
        for u in users:
            g = grad(u, w)
            norm = float(np.sqrt(np.sum(g * g)))
            if norm > clip:
                g = g * (clip / norm)
            if sigmas[u] > 0.0:
                g = g + sigmas[u] * rng(s, u).standard_normal(g.shape)
            model += (float(samples[u]) / total) * (w - step * g)
        cell_models.append(model)
        cell_totals.append(total)
    grand = math.fsum(cell_totals)
    out = np.zeros_like(w)
    for model, total in zip(cell_models, cell_totals):
        out += (total / grand) * model
    return out


def idx_bytes(array, compress=False) -> bytes:
    """Serialise an array in idx layout (big endian, dims then payload)."""
    codes = {np.dtype(np.uint8): 0x08, np.dtype(np.int8): 0x09,
             np.dtype(np.int16): 0x0B, np.dtype(np.int32): 0x0C,
             np.dtype(np.float32): 0x0D, np.dtype(np.float64): 0x0E}
    arr = np.asarray(array)
    code = codes[arr.dtype]
    head = struct.pack(">BBBB", 0, 0, code, arr.ndim)
    head += struct.pack(f">{arr.ndim}I", *arr.shape)
    payload = arr.astype(arr.dtype.newbyteorder(">")).tobytes()
    raw = head + payload
    if compress:
        raw = gzip.compress(raw)
    return raw


def write_idx_dataset(root, train_n=50, test_n=20, side=6, classes=10, seed=0):
    """Random side x side uint8 images and labels below `classes`, written
    under `root` as the four idx files `data.load_idx_dataset` looks for
    (the test files gzip-compressed); returns the arrays by file name."""
    rng = np.random.default_rng(seed)
    files = {
        "train-images-idx3-ubyte": rng.integers(0, 256, (train_n, side, side)).astype(np.uint8),
        "train-labels-idx1-ubyte": rng.integers(0, classes, train_n).astype(np.uint8),
        "t10k-images-idx3-ubyte": rng.integers(0, 256, (test_n, side, side)).astype(np.uint8),
        "t10k-labels-idx1-ubyte": rng.integers(0, classes, test_n).astype(np.uint8),
    }
    for name, arr in files.items():
        (root / name).write_bytes(idx_bytes(arr, compress=name.startswith("t10k")))
    return files


def interference(alloc, topo, cell, rb):
    """Received power at base station `cell` on block `rb` from the users of
    every other cell, summed user by user."""
    total = 0.0
    for other, users in enumerate(topo.cell_users):
        if other == cell or users.size == 0:
            continue
        for u in users[alloc.block[users] == rb]:
            total += topo.gains[cell, u] * alloc.powers[u]
    return total


def _snr_gap(config):
    return 2.0 ** (config.r_min / config.bandwidth) - 1.0


def uplink_rate(alloc, topo, config, user):
    """Rate of `user` at its serving base station, bit/s: the Shannon rate of
    its block against that block's interference; zero when unscheduled."""
    cell = int(topo.assignment[user])
    n = int(alloc.block[user])
    if n < 0:
        return 0.0
    denom = interference(alloc, topo, cell, n) + config.bandwidth * config.noise_psd
    snr = alloc.powers[user] * topo.gains[cell, user] / denom
    return config.bandwidth * math.log2(1.0 + snr)


def required_power(topo, alloc, config, user, rb=None):
    """Power that meets the minimum rate exactly on the user's block, holding
    every other transmitter fixed.  Zero when the user is unscheduled and no
    block is named; with `rb` given, answers for that hypothetical block."""
    cell = int(topo.assignment[user])
    if rb is None:
        if alloc.block[user] < 0:
            return 0.0
        rb = int(alloc.block[user])
    denom = interference(alloc, topo, cell, rb) + config.bandwidth * config.noise_psd
    return _snr_gap(config) * denom / topo.gains[cell, user]


def power_system(topo, alloc, config):
    """Pair-by-pair build of the power equality system A p = b over the
    scheduled users in ascending id order; returns (A, b, sched)."""
    blocks = {}
    for u in range(topo.num_users):
        if alloc.block[u] >= 0:
            blocks[u] = int(alloc.block[u])
    sched = np.array(sorted(blocks), dtype=np.int64)
    m = sched.size
    gap = _snr_gap(config)
    A = np.eye(m)
    b = np.empty(m)
    for j, u in enumerate(sched):
        s = int(topo.assignment[u])
        h_own = topo.gains[s, u]
        b[j] = gap * config.bandwidth * config.noise_psd / h_own
        for k, v in enumerate(sched):
            if k == j or blocks[int(v)] != blocks[int(u)] or topo.assignment[v] == s:
                continue
            A[j, k] = -gap * topo.gains[s, v] / h_own
    return A, b, sched


def solve_powers_lp(topo, alloc, config):
    """Powers minimising ||A p - b||_1 over 0 <= p <= p_max: one joint linear
    program over every scheduled user, in watts, with one slack per row.

    HiGHS works to an absolute tolerance of about 1e-7, so a user whose exact
    power is a few nW can come back with none.  Returns (num_users,) powers,
    or None when the program fails.
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
        return None
    powers[sched] = np.clip(res.x[:m], 0.0, config.p_max)
    return powers


def scaled_lp_highs(A, b, p_max):
    """y in [0, 1] minimising sum_j (b_j / max b) |(p_max (A y)_j - b_j) / b_j|,
    by HiGHS: the program `radio._scaled_lp` solves, with each |.| split into
    two inequalities on one slack per row.  Returns y, or None when HiGHS
    fails.
    """
    m = b.size
    scaled = A * (p_max / b[:, None])
    eye = np.eye(m)
    c = np.concatenate([np.zeros(m), b / b.max()])
    a_ub = np.block([[scaled, -eye], [-scaled, -eye]])
    b_ub = np.concatenate([np.ones(m), -np.ones(m)])
    bounds = [(0.0, 1.0)] * m + [(0.0, None)] * m
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not res.success:
        return None
    return np.clip(res.x[:m], 0.0, 1.0)


def validate_allocation(alloc, topo, config):
    """Structural checks of an allocation; returns violation descriptions."""
    problems = []
    if ((alloc.block < -1) | (alloc.block >= config.num_rbs)).any():
        problems.append("block id outside [-1, num_rbs)")
    for s, users in enumerate(topo.cell_users):
        held = [int(n) for n in alloc.block[users] if n >= 0]
        if len(set(held)) < len(held):
            problems.append(f"cell {s}: block shared inside the cell")
    mask = alloc.scheduled(topo)
    tol = config.p_max * 1e-12
    if (alloc.powers < 0).any() or (alloc.powers > config.p_max + tol).any():
        problems.append("powers outside [0, p_max]")
    if (alloc.powers[~mask] != 0).any():
        problems.append("unscheduled user with nonzero power")
    ks = topo.samples * alloc.sigmas
    low = config.n_min * (1.0 - 1e-12)
    if (ks[mask] < low).any():
        problems.append("scheduled user below the sigma floor")
    return problems


def predict_proba(model, w, x):
    """Class probabilities of an Mlp: ReLU hidden layers, then a softmax
    shifted by the row maximum so large logits stay finite."""
    layers = model.unpack(w)
    h = x
    for wm, b in layers[:-1]:
        h = np.maximum(h @ wm + b, 0.0)
    wm, b = layers[-1]
    logits = h @ wm + b
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def whole_batch_loss_and_grad(model, w, x, y):
    """Mean cross entropy of an Mlp and its flat gradient from one forward
    and backward pass over the whole batch: the pass `Mlp.loss_and_grad`
    ran before it walked the batch in slices, written out plainly."""
    layers = model.unpack(w)
    n = x.shape[0]
    acts = [x]
    for wm, b in layers[:-1]:
        acts.append(np.maximum(acts[-1] @ wm + b, 0.0))
    wm, b = layers[-1]
    logits = acts[-1] @ wm + b
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    denom = exp.sum(axis=1)
    loss = float(np.mean(np.log(denom) - shifted[np.arange(n), y]))
    delta = exp / denom[:, None]
    delta[np.arange(n), y] -= 1.0
    delta /= n
    grad = np.empty(model.dim)
    for layer in range(len(layers) - 1, -1, -1):
        ws, bs, _, _ = model.slices[layer]
        grad[ws] = (acts[layer].T @ delta).ravel()
        grad[bs] = delta.sum(axis=0)
        if layer:
            delta = (delta @ layers[layer][0].T) * (acts[layer] > 0.0)
    return loss, grad
