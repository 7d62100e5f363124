"""Cell layout, user placement, channel gains, and the data split.

The service area is a square of side five cell radii centred on the origin.
Base stations sit on a hexagonal layout (a centre cell plus one ring for the
seven-cell setup); users drop uniformly over the square and attach to the
nearest base station, so outer cells also cover the corners of the square.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import seeding
from .config import SPEED_OF_LIGHT, SystemConfig


@dataclass(frozen=True)
class Topology:
    cell_centers: np.ndarray   # (S, 2) m
    user_positions: np.ndarray  # (U, 2) m
    assignment: np.ndarray     # (U,) serving cell per user
    distances: np.ndarray      # (S, U) m, floored at the configured minimum
    gains: np.ndarray          # (S, U) linear power gain BS s <- user i
    samples: np.ndarray        # (U,) training samples held by each user
    cell_users: tuple          # per cell, ascending global user ids

    @property
    def num_cells(self) -> int:
        return self.cell_centers.shape[0]

    @property
    def num_users(self) -> int:
        return self.user_positions.shape[0]


def hex_centers(num_cells: int, radius: float) -> np.ndarray:
    """Base station coordinates for the supported layouts (1 or 7 cells).

    Neighbouring flat-top hexagons of circumradius r have centres sqrt(3)*r
    apart, at angles 30 + 60k degrees from the centre cell.
    """
    if num_cells == 1:
        return np.zeros((1, 2))
    if num_cells == 7:
        centers = [(0.0, 0.0)]
        spacing = math.sqrt(3.0) * radius
        for k in range(6):
            ang = math.radians(30.0 + 60.0 * k)
            centers.append((spacing * math.cos(ang), spacing * math.sin(ang)))
        return np.array(centers)
    raise ValueError(f"unsupported cell count {num_cells}: layouts exist for 1 and 7")


def channel_gains(distances: np.ndarray, fading: np.ndarray, center_freq: float) -> np.ndarray:
    """Linear power gain: squared fading amplitude times (c / 4 pi f)^2 / d^3."""
    ref = (SPEED_OF_LIGHT / (4.0 * math.pi * center_freq)) ** 2
    return fading ** 2 * ref / distances ** 3


def _largest_remainder(weights: np.ndarray, total: int) -> np.ndarray:
    """Integer split of `total` proportional to `weights` (largest remainder)."""
    target = weights / weights.sum() * total
    base = np.floor(target).astype(np.int64)
    short = total - int(base.sum())
    if short > 0:
        # stable sort keeps index order among equal fractional parts
        order = np.argsort(-(target - base), kind="stable")
        base[order[:short]] += 1
    return base


def partition_samples(config: SystemConfig, num_users: int, seed: int) -> np.ndarray:
    """Split the sample budget across users: lognormal weights, largest-remainder
    rounding, then a top-up so every user keeps at least one sample.  Only the
    log-space spread matters: a log-space mean scales every weight alike."""
    if config.total_samples < num_users:
        raise ValueError("not enough samples to give every user at least one")
    rng = seeding.stream(seed, seeding.PARTITION)
    weights = rng.lognormal(0.0, config.lognormal_sigma, num_users)
    counts = _largest_remainder(weights, config.total_samples)
    # top up empty users from the largest holders, one sample at a time; while
    # any user holds 0 the largest holds at least 2, so one pass suffices
    for u in np.flatnonzero(counts == 0):
        donor = int(np.argmax(counts))
        counts[donor] -= 1
        counts[u] += 1
    return counts


def generate_topology(config: SystemConfig, seed: int) -> Topology:
    if config.total_users < 1:
        raise ValueError("need at least one user")
    centers = hex_centers(config.num_cells, config.cell_radius)
    half = 2.5 * config.cell_radius

    pos_rng = seeding.stream(seed, seeding.POSITIONS)
    positions = pos_rng.uniform(-half, half, size=(config.total_users, 2))

    raw = np.linalg.norm(centers[:, None, :] - positions[None, :, :], axis=2)
    assignment = np.argmin(raw, axis=0)
    distances = np.maximum(raw, config.min_distance)

    fade_rng = seeding.stream(seed, seeding.FADING)
    fading = fade_rng.rayleigh(scale=1.0, size=distances.shape)
    gains = channel_gains(distances, fading, config.center_freq)

    samples = partition_samples(config, config.total_users, seed)

    cell_users = tuple(np.flatnonzero(assignment == s) for s in range(len(centers)))
    for arr in (centers, positions, assignment, distances, gains, samples):
        arr.setflags(write=False)
    return Topology(centers, positions, assignment, distances, gains,
                    samples, cell_users)
