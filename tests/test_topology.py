import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedcell.config import SystemConfig
from fedcell.topology import (Topology, channel_gains, generate_topology,
                              hex_centers, partition_samples)


def small_config(**over):
    base = dict(num_cells=1, total_users=12, total_samples=600, cell_radius=200.0)
    base.update(over)
    return SystemConfig().replace(**base)


def test_single_cell_at_origin():
    centers = hex_centers(1, 500.0)
    assert centers.shape == (1, 2)
    assert np.all(centers == 0.0)


def test_seven_cell_ring_geometry():
    r = 500.0
    centers = hex_centers(7, r)
    assert centers.shape == (7, 2)
    assert np.all(centers[0] == 0.0)
    dist = np.linalg.norm(centers[1:], axis=1)
    assert dist == pytest.approx(np.full(6, math.sqrt(3.0) * r), rel=1e-12)
    # ring neighbours are also sqrt(3) r apart
    for k in range(6):
        a = centers[1 + k]
        b = centers[1 + (k + 1) % 6]
        assert np.linalg.norm(a - b) == pytest.approx(math.sqrt(3.0) * r, rel=1e-12)


def test_unsupported_layout_rejected():
    with pytest.raises(ValueError, match="unsupported"):
        hex_centers(3, 500.0)


def test_channel_gain_reference_value():
    # unit fading, 100 m, 2450 MHz: (c / 4 pi f)^2 / d^3
    g = channel_gains(np.array([[100.0]]), np.array([[1.0]]), 2450e6)
    assert g[0, 0] == pytest.approx(9.481772023562601e-11, rel=1e-15)


def test_gain_distance_law():
    d = np.array([[100.0, 200.0]])
    f = np.ones_like(d)
    g = channel_gains(d, f, 2450e6)
    # doubling distance divides the gain by exactly 8
    assert g[0, 0] / g[0, 1] == pytest.approx(8.0, rel=1e-12)


def test_gain_scales_with_fading_squared():
    d = np.full((1, 1), 250.0)
    g1 = channel_gains(d, np.full((1, 1), 1.0), 2450e6)
    g2 = channel_gains(d, np.full((1, 1), 2.0), 2450e6)
    assert g2[0, 0] / g1[0, 0] == pytest.approx(4.0, rel=1e-12)


def test_generate_topology_shapes_and_bounds():
    cfg = SystemConfig()
    topo = generate_topology(cfg, 7)
    S, U = cfg.num_cells, cfg.total_users
    assert topo.cell_centers.shape == (S, 2)
    assert topo.user_positions.shape == (U, 2)
    assert topo.distances.shape == (S, U)
    assert topo.gains.shape == (S, U)
    half = 2.5 * cfg.cell_radius
    assert np.all(np.abs(topo.user_positions) <= half)
    assert np.all(topo.distances >= cfg.min_distance)
    assert np.all(topo.gains > 0.0)


def test_assignment_is_nearest_base_station():
    cfg = SystemConfig()
    topo = generate_topology(cfg, 3)
    for u in range(topo.num_users):
        d = [np.linalg.norm(topo.cell_centers[s] - topo.user_positions[u])
             for s in range(topo.num_cells)]
        assert topo.assignment[u] == int(np.argmin(d))


def test_cell_users_partition_users():
    topo = generate_topology(SystemConfig(), 5)
    seen = np.concatenate(topo.cell_users)
    assert sorted(seen) == list(range(topo.num_users))
    for s, users in enumerate(topo.cell_users):
        assert list(users) == sorted(users)
        assert np.all(topo.assignment[users] == s)


def test_distance_floor_applies():
    # a user dropped on top of the base station cannot blow up the gain
    cfg = small_config(min_distance=5.0)
    topo = generate_topology(cfg, 11)
    assert topo.distances.min() >= 5.0


def test_topology_is_deterministic():
    cfg = SystemConfig()
    a = generate_topology(cfg, 42)
    b = generate_topology(cfg, 42)
    assert np.array_equal(a.user_positions, b.user_positions)
    assert np.array_equal(a.gains, b.gains)
    assert np.array_equal(a.samples, b.samples)
    c = generate_topology(cfg, 43)
    assert not np.array_equal(a.user_positions, c.user_positions)


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32), users=st.integers(1, 40),
       total=st.integers(0, 5000))
def test_partition_conserves_and_covers(seed, users, total):
    total = total + users  # keep the instance feasible
    cfg = small_config(total_users=users, total_samples=total)
    topo = generate_topology(cfg, seed)
    counts = partition_samples(cfg, users, seed)
    assert counts.sum() == total
    assert counts.min() >= 1
    assert np.array_equal(counts, topo.samples)


def test_even_split_when_sigma_zero():
    cfg = small_config(total_users=7, total_samples=40, lognormal_sigma=0.0)
    topo = generate_topology(cfg, 1)
    assert topo.samples.sum() == 40
    assert topo.samples.max() - topo.samples.min() <= 1


def test_partition_rejects_starving_users():
    cfg = small_config(total_users=5, total_samples=500)
    with pytest.raises(ValueError, match="at least one"):
        partition_samples(cfg, 1000, 0)


def test_arrays_are_frozen():
    topo = generate_topology(SystemConfig(), 2)
    with pytest.raises(ValueError):
        topo.gains[0, 0] = 1.0
