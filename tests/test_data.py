import gzip

import numpy as np
import pytest

from oracles import idx_bytes, write_idx_dataset

from fedcell.config import SystemConfig
from fedcell.data import (Dataset, build_shards, load_dataset, load_idx_dataset,
                          read_idx, synthetic_blobs)
from fedcell.topology import generate_topology


def test_idx_round_trip(tmp_path):
    arr = np.arange(24, dtype=np.uint8).reshape(2, 3, 4)
    path = tmp_path / "tensor.idx"
    path.write_bytes(idx_bytes(arr))
    assert np.array_equal(read_idx(path), arr)


def test_idx_gzip_and_dtypes(tmp_path):
    arr = (np.arange(12, dtype=np.int32) - 6).reshape(3, 4)
    path = tmp_path / "tensor.idx.gz"
    path.write_bytes(idx_bytes(arr, compress=True))
    got = read_idx(path)
    assert got.dtype == np.int32
    assert np.array_equal(got, arr)
    f = np.linspace(-1, 1, 10, dtype=np.float32)
    path2 = tmp_path / "floats.idx"
    path2.write_bytes(idx_bytes(f))
    assert np.allclose(read_idx(path2), f)


def test_idx_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.idx"
    path.write_bytes(b"\x01\x02\x03\x04" + b"\x00" * 16)
    with pytest.raises(ValueError, match="not an idx file"):
        read_idx(path)


def test_load_idx_dataset_scales_and_flattens(tmp_path):
    files = write_idx_dataset(tmp_path)
    ds = load_idx_dataset(tmp_path)
    assert ds.train_x.shape == (50, 36)
    assert ds.test_x.shape == (20, 36)
    assert ds.train_x.min() >= 0.0 and ds.train_x.max() <= 1.0
    expect = files["train-images-idx3-ubyte"].reshape(50, -1) / 255.0
    assert np.allclose(ds.train_x, expect)
    assert np.array_equal(ds.train_y, files["train-labels-idx1-ubyte"])


def test_load_idx_dataset_missing_file(tmp_path):
    write_idx_dataset(tmp_path)
    (tmp_path / "train-labels-idx1-ubyte").unlink()
    with pytest.raises(FileNotFoundError):
        load_idx_dataset(tmp_path)


def test_synthetic_blobs_properties():
    ds = synthetic_blobs(10, 64, 500, 100, seed=0)
    assert ds.train_x.shape == (500, 64)
    assert ds.test_x.shape == (100, 64)
    assert ds.train_x.min() >= 0.0 and ds.train_x.max() <= 1.0
    assert set(np.unique(ds.train_y)) == set(range(10))
    again = synthetic_blobs(10, 64, 500, 100, seed=0)
    assert np.array_equal(ds.train_x, again.train_x)
    other = synthetic_blobs(10, 64, 500, 100, seed=1)
    assert not np.array_equal(ds.train_x, other.train_x)


def test_load_dataset_synthetic_by_default():
    cfg = SystemConfig().replace(total_users=10, total_samples=200,
                                 dataset_test_size=50,
                                 features=16, classes=4)
    ds = load_dataset(cfg)
    assert ds.train_x.shape == (200, 16)
    assert ds.test_x.shape == (50, 16)


def test_load_dataset_rejects_short_supply(tmp_path):
    write_idx_dataset(tmp_path, train_n=80)
    cfg = SystemConfig().replace(total_users=10, total_samples=100,
                                 dataset_path=str(tmp_path))
    with pytest.raises(ValueError, match="holds 80 training samples, config assigns 100"):
        load_dataset(cfg)


def test_load_dataset_rejects_a_short_test_set(tmp_path):
    write_idx_dataset(tmp_path, train_n=80, test_n=20)
    cfg = SystemConfig().replace(total_users=10, total_samples=40, features=36,
                                 dataset_path=str(tmp_path), dataset_test_size=21)
    with pytest.raises(ValueError, match="holds 20 test samples, config asks for 21"):
        load_dataset(cfg)
    assert load_dataset(cfg.replace(dataset_test_size=20)).test_x.shape == (20, 36)


def test_load_dataset_idx_path(tmp_path):
    write_idx_dataset(tmp_path, train_n=80, test_n=30)
    cfg = SystemConfig().replace(total_users=5, total_samples=40, features=36,
                                 dataset_path=str(tmp_path), dataset_test_size=20)
    ds = load_dataset(cfg)
    assert ds.train_x.shape == (40, 36)
    assert ds.test_x.shape == (20, 36)


def test_load_dataset_rejects_idx_images_of_another_size(tmp_path):
    write_idx_dataset(tmp_path, train_n=80, test_n=30)
    cfg = SystemConfig().replace(total_users=5, total_samples=40, features=49,
                                 dataset_path=str(tmp_path), dataset_test_size=20)
    with pytest.raises(ValueError, match="images hold 36 pixels, config sets features 49"):
        load_dataset(cfg)


def test_load_dataset_rejects_idx_labels_outside_the_classes(tmp_path):
    write_idx_dataset(tmp_path, train_n=80, test_n=30, classes=4)
    cfg = SystemConfig().replace(total_users=5, total_samples=40, features=36,
                                 classes=3, dataset_path=str(tmp_path),
                                 dataset_test_size=20)
    with pytest.raises(ValueError, match=r"labels span 0\.\.3, config sets classes 3"):
        load_dataset(cfg)
    assert load_dataset(cfg.replace(classes=4)).train_y.max() <= 3


def test_load_dataset_idx_requires_files(tmp_path):
    cfg = SystemConfig().replace(dataset_path=str(tmp_path))
    with pytest.raises(FileNotFoundError, match="missing idx file"):
        load_dataset(cfg)


def test_build_shards_cover_and_sizes():
    cfg = SystemConfig().replace(num_cells=1, total_users=12, total_samples=240,
                                 dataset_test_size=40,
                                 features=8, classes=3)
    topo = generate_topology(cfg, 2)
    ds = load_dataset(cfg)
    shards = build_shards(ds, topo, seed=2)
    assert len(shards) == 12
    assert sum(s.x.shape[0] for s in shards) == 240
    for u, s in enumerate(shards):
        assert s.user == u
        assert s.x.shape[0] == int(topo.samples[u])
        assert s.x.shape[1] == 8
    # deterministic
    again = build_shards(ds, topo, seed=2)
    assert all(np.array_equal(a.x, b.x) for a, b in zip(shards, again))
    moved = build_shards(ds, topo, seed=3)
    assert any(not np.array_equal(a.x, b.x) for a, b in zip(shards, moved))


def test_build_shards_rejects_overdraw():
    cfg = SystemConfig().replace(num_cells=1, total_users=4, total_samples=100,
                                 dataset_test_size=10,
                                 features=4, classes=2)
    topo = generate_topology(cfg, 0)
    ds = load_dataset(cfg)
    short = Dataset(ds.train_x[:50], ds.train_y[:50], ds.test_x, ds.test_y)
    with pytest.raises(ValueError, match="exceed"):
        build_shards(short, topo, seed=0)
