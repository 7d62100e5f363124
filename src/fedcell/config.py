"""System configuration and unit handling.

All internal quantities are linear SI (Hz, W, W/Hz, bit/s, m).  Config files
use the customary radio units instead (MHz, dBm, dBm/Hz, kbit/s) and are
converted once at load time.
"""
from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path

import yaml

SPEED_OF_LIGHT = 299_792_458.0  # m/s


class ConfigError(ValueError):
    """Raised for malformed or inconsistent configuration input."""


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


@dataclass
class SystemConfig:
    """Defaults are the full-scale 5-block profile; the shipped profiles are
    the yaml files under configs/.  Training uses `total_samples` examples,
    synthetic unless `dataset_path` names a directory of idx files."""

    # layout / radio
    num_cells: int = 7
    num_rbs: int = 5                     # resource blocks per cell
    total_users: int = 100
    cell_radius: float = 500.0           # m
    center_freq: float = 2450e6          # Hz
    bandwidth: float = 180e3             # Hz per resource block
    noise_psd: float = dbm_to_watts(-174.0)  # W/Hz
    p_max: float = dbm_to_watts(10.0)    # W
    r_min: float = 100e3                 # bit/s
    min_distance: float = 1.0            # m, floor applied before pathloss

    # scheduling / noise design
    v_max: float = 12.0                  # per-round noise variance cap (sample weighted)
    n_min: float = 100.0                 # lower bound on sigma * samples
    gamma: float = 1e6                   # weight on the aggregate noise term
    sweeps: int = 1                      # passes of the cell-by-cell schedule refinement

    # learning
    rounds: int = 200
    step: float = 0.05                   # gradient step size
    clip: float = 10.0                   # gradient norm bound
    mu: float = 1.0                      # strong-convexity constant used in the bound
    xi1: float = 0.0                     # gradient deviation offset
    xi2: float = 1.0                     # gradient deviation slope

    # data
    total_samples: int = 60000
    lognormal_sigma: float = 1.0         # log-space std of the sample split
    dataset_path: str | None = None      # directory of idx files; None draws synthetic data
    dataset_test_size: int = 1000
    synthetic_features: int = 64
    synthetic_classes: int = 10

    seed: int = 0

    def validate(self) -> None:
        problems = []
        if self.num_cells < 1:
            problems.append("num_cells must be >= 1")
        if self.num_rbs < 1:
            problems.append("num_rbs must be >= 1")
        if self.total_users < 1:
            problems.append("total_users must be >= 1")
        for name in ("cell_radius", "center_freq", "bandwidth", "noise_psd",
                     "p_max", "r_min", "min_distance", "v_max", "n_min",
                     "gamma", "step"):
            if getattr(self, name) <= 0.0:
                problems.append(f"{name} must be positive")
        if self.clip <= 0.0:
            problems.append("clip must be positive")
        if not 0.0 < self.mu <= self.clip:
            problems.append("mu must be in (0, clip]")
        if self.xi1 < 0.0:
            problems.append("xi1 must be >= 0")
        if self.xi2 < 1.0:
            problems.append("xi2 must be >= 1")
        if self.sweeps < 1:
            problems.append("sweeps must be >= 1")
        if self.rounds < 0:
            problems.append("rounds must be >= 0")
        if self.total_samples < self.total_users:
            problems.append("total_samples must be >= total_users so every user holds data")
        if self.lognormal_sigma < 0.0:
            problems.append("lognormal_sigma must be >= 0")
        for name in ("dataset_test_size", "synthetic_features", "synthetic_classes"):
            if getattr(self, name) < 1:
                problems.append(f"{name} must be >= 1")
        if problems:
            raise ConfigError("; ".join(problems))

    def replace(self, **changes) -> "SystemConfig":
        cfg = replace(self, **changes)
        cfg.validate()
        return cfg


# Config files carry these fields in radio units (MHz, dBm/Hz, dBm, kbit/s,
# as the README lists them); everything else is taken as is.
_FILE_UNIT_SCALES = {
    "center_freq": lambda v: v * 1e6,
    "noise_psd": dbm_to_watts,
    "p_max": dbm_to_watts,
    "r_min": lambda v: v * 1e3,
}

_FIELD_NAMES = {f.name for f in fields(SystemConfig)}


def config_from_mapping(raw: dict) -> SystemConfig:
    """Build a config from a flat mapping in file units."""
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a flat key/value mapping")
    unknown = sorted(set(raw) - _FIELD_NAMES)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    values = {}
    for key, val in raw.items():
        if key in _FILE_UNIT_SCALES and val is not None:
            val = _FILE_UNIT_SCALES[key](float(val))
        values[key] = val
    cfg = SystemConfig(**values)
    cfg.validate()
    return cfg


def load_config(path: str | Path) -> SystemConfig:
    with open(path) as fh:
        raw = yaml.safe_load(fh)
    if raw is None:
        raw = {}
    return config_from_mapping(raw)
