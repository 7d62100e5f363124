"""Scale invariances of the schedule, checked against the model's algebra.

These hold by the problem's units, not by recorded bits, so they keep
testing after tests/golden is regenerated.

- Power units: multiplying `p_max` and `noise_psd` by one c leaves every
  SNR as it was. Blocks and sigmas stay, powers scale by c, and rates and
  the objective stay.
- Noise units: (`v_max`, `n_min`, `gamma`) -> (c^2 v_max, c n_min,
  c^2 gamma) scales the initial sigma draw and the noise budget together.
  Blocks, powers and rates stay, sigmas scale by c, and the objective stays.

Both full-scale configs run seeds 0-4 and every algorithm. Blocks compare
exactly; powers, sigmas, rates and the objective compare at the golden
files' relative tolerance.
"""
from __future__ import annotations

import functools
from pathlib import Path

import numpy as np
import pytest

from fedcell.config import load_config
from fedcell.harness import ALGORITHMS, allocate
from fedcell.radio import uplink_rate
from fedcell.scheduler import objective_value
from fedcell.topology import generate_topology

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SEEDS = range(5)
REL = 1e-9   # test_golden.REL


def power_units(config, c):
    """The config in other power units, and how powers and sigmas scale."""
    return config.replace(p_max=c * config.p_max, noise_psd=c * config.noise_psd), c, 1.0


def noise_units(config, c):
    """The config in other noise units, and how powers and sigmas scale."""
    return config.replace(v_max=c * c * config.v_max, n_min=c * config.n_min,
                          gamma=c * c * config.gamma), 1.0, c


def schedules(config):
    """(seed, algorithm) -> (blocks, powers, sigmas, rates, objective)."""
    out = {}
    for seed in SEEDS:
        topo = generate_topology(config, seed)
        done = {}
        for alg in ALGORITHMS:
            alloc = done[alg] = allocate(alg, topo, config, seed, done)
            out[seed, alg] = (alloc.block, alloc.powers, alloc.sigmas,
                              uplink_rate(alloc, topo, config),
                              objective_value(topo, alloc, config))
    return out


@functools.cache
def base(tag):
    """A shipped full-scale config and its schedules."""
    config = load_config(CONFIGS / f"full_scale_{tag}.yaml")
    return config, schedules(config)


def assert_close(got, expect, what):
    got, expect = np.asarray(got, dtype=float), np.asarray(expect, dtype=float)
    gap = np.abs(got - expect)
    assert np.all(gap <= REL * np.maximum(np.abs(got), np.abs(expect))), \
        f"{what}: relative gap {np.max(gap / np.maximum(np.abs(expect), 1e-300)):.3g}"


@pytest.mark.parametrize("tag", ["r5", "r8"])
@pytest.mark.parametrize("scale, c", [(power_units, 1e-3), (power_units, 1e3),
                                      (noise_units, 10.0)])
def test_schedule_is_invariant_to_units(tag, scale, c):
    config, expect = base(tag)
    scaled, power_c, sigma_c = scale(config, c)
    got = schedules(scaled)
    for key, (block, powers, sigmas, rates, objective) in expect.items():
        g_block, g_powers, g_sigmas, g_rates, g_objective = got[key]
        assert np.array_equal(g_block, block), f"{key}: blocks moved"
        assert_close(g_powers / power_c, powers, f"{key} powers")
        assert_close(g_sigmas / sigma_c, sigmas, f"{key} sigmas")
        assert_close(g_rates, rates, f"{key} rates")
        assert_close(g_objective, objective, f"{key} objective")
