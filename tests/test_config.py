import re
from dataclasses import asdict, fields
from pathlib import Path

import pytest

from fedcell.config import (ConfigError, SystemConfig, config_from_mapping,
                            dbm_to_watts, load_config)

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


def test_dbm_conversions_known_values():
    assert dbm_to_watts(30.0) == 1.0
    assert dbm_to_watts(0.0) == 0.001
    assert dbm_to_watts(10.0) == pytest.approx(0.01, rel=1e-15)
    # thermal noise floor
    assert dbm_to_watts(-174.0) == pytest.approx(3.981071705534986e-21, rel=1e-15)


def test_defaults_are_full_scale():
    cfg = load_config(CONFIGS / "full_scale_r5.yaml")
    # the defaults are this profile, field for field
    assert asdict(cfg) == asdict(SystemConfig())
    assert cfg.num_cells == 7
    assert cfg.num_rbs == 5
    assert cfg.total_users == 100
    assert cfg.cell_radius == 500.0
    assert cfg.center_freq == 2450e6
    assert cfg.bandwidth == 180e3
    assert cfg.p_max == pytest.approx(0.01, rel=1e-15)
    assert cfg.r_min == 100e3
    assert cfg.v_max == 12.0
    assert cfg.n_min == 100.0
    assert cfg.rounds == 200
    assert cfg.step == 0.05
    assert cfg.clip == 10.0
    assert cfg.total_samples == 60000


def test_r8_profile_differs_in_blocks_and_noise_weight():
    r5 = asdict(load_config(CONFIGS / "full_scale_r5.yaml"))
    r8 = asdict(load_config(CONFIGS / "full_scale_r8.yaml"))
    assert {k for k in r5 if r5[k] != r8[k]} == {"num_rbs", "gamma"}
    assert r8["num_rbs"] == 8
    assert r8["gamma"] == 1e7


def test_desk_profile_rescales_noise_constants():
    cfg = load_config(CONFIGS / "desk_train_r5.yaml")
    desk, full = asdict(cfg), asdict(SystemConfig())
    assert {k for k in desk if desk[k] != full[k]} == {"total_samples", "n_min", "gamma"}
    assert cfg.total_samples == 6000
    assert cfg.n_min == 3.0
    assert cfg.gamma == 100.0
    assert cfg.num_rbs == 5
    assert cfg.rounds == 200


def test_file_units_convert_to_si(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(
        "num_cells: 1\n"
        "total_users: 4\n"
        "total_samples: 40\n"
        "center_freq: 2450\n"     # MHz
        "noise_psd: -174\n"       # dBm/Hz
        "p_max: 10\n"             # dBm
        "r_min: 100\n"            # kbit/s
    )
    cfg = load_config(path)
    assert cfg.center_freq == 2450e6
    assert cfg.noise_psd == pytest.approx(3.981071705534986e-21, rel=1e-15)
    assert cfg.p_max == pytest.approx(0.01, rel=1e-15)
    assert cfg.r_min == 100e3
    assert cfg.num_cells == 1


def test_empty_file_gives_defaults(tmp_path):
    path = tmp_path / "empty.yaml"
    path.write_text("")
    cfg = load_config(path)
    assert cfg.num_cells == SystemConfig().num_cells


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown config keys"):
        config_from_mapping({"bandwidht": 180})


def test_invalid_values_rejected():
    with pytest.raises(ConfigError, match="mu"):
        config_from_mapping({"mu": 50.0, "clip": 10.0})
    with pytest.raises(ConfigError, match="num_rbs"):
        config_from_mapping({"num_rbs": 0})
    with pytest.raises(ConfigError, match="total_samples"):
        config_from_mapping({"total_users": 10, "total_samples": 5})
    with pytest.raises(ConfigError):
        config_from_mapping({"xi2": 0.5})


def test_replace_validates():
    cfg = SystemConfig()
    with pytest.raises(ConfigError):
        cfg.replace(step=-1.0)
    assert cfg.replace(num_rbs=8).num_rbs == 8
    # original untouched
    assert cfg.num_rbs == 5


def test_non_mapping_config_rejected():
    with pytest.raises(ConfigError):
        config_from_mapping([1, 2, 3])


def test_readme_names_every_config_field():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Configuration\n", 1)[1].split("\n## ", 1)[0]
    # backticked snake_case words; file names hold a dot and do not match
    named = set(re.findall(r"`([a-z][a-z0-9]*(?:_[a-z0-9]+)*)`", section))
    assert named == {f.name for f in fields(SystemConfig)}
