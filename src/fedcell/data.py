"""Datasets: idx files when available, seeded synthetic blobs otherwise.

The idx format is big-endian: two zero bytes, a dtype code, a dimension
count, then one 4-byte size per dimension, then the raw payload.  Files may
be gzip-compressed (.gz suffix or magic detection).
"""
from __future__ import annotations

import gzip
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import seeding
from .config import SystemConfig
from .topology import Topology

_IDX_DTYPES = {
    0x08: np.uint8,
    0x09: np.int8,
    0x0B: np.dtype(">i2"),
    0x0C: np.dtype(">i4"),
    0x0D: np.dtype(">f4"),
    0x0E: np.dtype(">f8"),
}


def read_idx(path: str | Path) -> np.ndarray:
    path = Path(path)
    raw = path.read_bytes()
    if raw[:2] == b"\x1f\x8b":
        raw = gzip.decompress(raw)
    zero1, zero2, code, ndim = struct.unpack(">BBBB", raw[:4])
    if zero1 or zero2 or code not in _IDX_DTYPES:
        raise ValueError(f"{path}: not an idx file")
    dims = struct.unpack(f">{ndim}I", raw[4:4 + 4 * ndim])
    data = np.frombuffer(raw, dtype=_IDX_DTYPES[code], count=int(np.prod(dims)),
                         offset=4 + 4 * ndim)
    return data.reshape(dims).astype(data.dtype.newbyteorder("="))


@dataclass
class Dataset:
    train_x: np.ndarray   # (n, features) float64 in [0, 1]
    train_y: np.ndarray   # (n,) int64
    test_x: np.ndarray
    test_y: np.ndarray

    @property
    def input_dim(self) -> int:
        return self.train_x.shape[1]

    @property
    def num_classes(self) -> int:
        return int(max(self.train_y.max(), self.test_y.max())) + 1


_IDX_NAMES = {
    "train_x": ("train-images-idx3-ubyte", "train-images.idx3-ubyte"),
    "train_y": ("train-labels-idx1-ubyte", "train-labels.idx1-ubyte"),
    "test_x": ("t10k-images-idx3-ubyte", "t10k-images.idx3-ubyte"),
    "test_y": ("t10k-labels-idx1-ubyte", "t10k-labels.idx1-ubyte"),
}


def _find_idx(root: Path, names) -> Path | None:
    for name in names:
        for cand in (root / name, root / (name + ".gz")):
            if cand.exists():
                return cand
    return None


def load_idx_dataset(root: str | Path) -> Dataset:
    root = Path(root)
    found = {}
    for key, names in _IDX_NAMES.items():
        path = _find_idx(root, names)
        if path is None:
            raise FileNotFoundError(f"{root}: missing idx file for {key}")
        found[key] = read_idx(path)
    tx = found["train_x"].reshape(found["train_x"].shape[0], -1).astype(np.float64) / 255.0
    ex = found["test_x"].reshape(found["test_x"].shape[0], -1).astype(np.float64) / 255.0
    return Dataset(tx, found["train_y"].astype(np.int64),
                   ex, found["test_y"].astype(np.int64))


_CLUSTERS_PER_CLASS = 3


def synthetic_blobs(num_classes: int, num_features: int, train_n: int, test_n: int,
                    seed: int) -> Dataset:
    """Gaussian mixture classification data, rescaled into [0, 1].

    Each class owns three unit-variance clusters around standard normal
    centres, so decision boundaries are curved and extra training data keeps
    paying off.
    """
    rng = seeding.stream(seed, seeding.DATASET)
    centers = rng.normal(0.0, 1.0, size=(num_classes, _CLUSTERS_PER_CLASS, num_features))

    def draw(n):
        y = rng.integers(0, num_classes, n)
        cl = rng.integers(0, _CLUSTERS_PER_CLASS, n)
        x = centers[y, cl] + rng.normal(0.0, 1.0, size=(n, num_features))
        return x, y.astype(np.int64)

    tx, ty = draw(train_n)
    ex, ey = draw(test_n)
    lo = min(tx.min(), ex.min())
    hi = max(tx.max(), ex.max())
    tx = (tx - lo) / (hi - lo)
    ex = (ex - lo) / (hi - lo)
    return Dataset(tx, ty, ex, ey)


def load_dataset(config: SystemConfig) -> Dataset:
    """`total_samples` training and `dataset_test_size` test examples, fixed
    by the config seed: synthetic blobs when `dataset_path` is None, else a
    seeded selection of the idx files in that directory."""
    if config.dataset_path is None:
        return synthetic_blobs(config.synthetic_classes, config.synthetic_features,
                               config.total_samples, config.dataset_test_size,
                               config.seed)
    full = load_idx_dataset(config.dataset_path)
    if full.train_x.shape[0] < config.total_samples:
        raise ValueError(
            f"dataset holds {full.train_x.shape[0]} training samples, "
            f"config assigns {config.total_samples}")
    if full.test_x.shape[0] < config.dataset_test_size:
        raise ValueError(
            f"dataset holds {full.test_x.shape[0]} test samples, "
            f"config asks for {config.dataset_test_size}")
    rng = seeding.stream(config.seed, seeding.DATASET)
    tsel = rng.permutation(full.train_x.shape[0])[:config.total_samples]
    esel = rng.permutation(full.test_x.shape[0])[:config.dataset_test_size]
    return Dataset(full.train_x[tsel], full.train_y[tsel],
                   full.test_x[esel], full.test_y[esel])


@dataclass
class Shard:
    """One user's local training slice."""
    x: np.ndarray
    y: np.ndarray
    user: int


def build_shards(dataset: Dataset, topo: Topology, seed: int) -> list:
    """Disjoint per-user slices of a seeded shuffle of the training set,
    sized by the topology's sample counts."""
    total = int(topo.samples.sum())
    if total > dataset.train_x.shape[0]:
        raise ValueError("sample counts exceed the training set")
    rng = seeding.stream(seed, seeding.SHARDS)
    perm = rng.permutation(dataset.train_x.shape[0])[:total]
    shards = []
    off = 0
    for u in range(topo.num_users):
        take = perm[off:off + int(topo.samples[u])]
        off += int(topo.samples[u])
        shards.append(Shard(x=dataset.train_x[take], y=dataset.train_y[take], user=u))
    return shards
