"""Datasets: idx files when available, seeded synthetic blobs otherwise.

The config's `features` and `classes` shape the model and either source:
blobs are drawn with them, and idx images and labels must fit them.

The idx format is big-endian: two zero bytes, a dtype code, a dimension
count, then one 4-byte size per dimension, then the raw payload.  Files may
be gzip-compressed (.gz suffix or magic detection).  Only uint8 payloads
(code 0x08, as in MNIST) are read: images are pixels scaled by 1/255, and
only the rows a run keeps are scaled.
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

_IDX_DTYPES = {0x08: np.uint8}


def read_idx(path: str | Path) -> np.ndarray:
    """The file's payload as a read-only array over its bytes."""
    path = Path(path)
    raw = path.read_bytes()
    if raw[:2] == b"\x1f\x8b":
        raw = gzip.decompress(raw)
    zero1, zero2, code, ndim = struct.unpack(">BBBB", raw[:4])
    if zero1 or zero2:
        raise ValueError(f"{path}: not an idx file")
    if code not in _IDX_DTYPES:
        raise ValueError(f"{path}: idx dtype code 0x{code:02X} is not uint8 (0x08)")
    dims = struct.unpack(f">{ndim}I", raw[4:4 + 4 * ndim])
    data = np.frombuffer(raw, dtype=_IDX_DTYPES[code], count=int(np.prod(dims)),
                         offset=4 + 4 * ndim)
    return data.reshape(dims)


@dataclass
class Dataset:
    train_x: np.ndarray   # (n, features) float64 in [0, 1]
    train_y: np.ndarray   # (n,) int64
    test_x: np.ndarray
    test_y: np.ndarray


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


def _read_idx_files(root: str | Path) -> dict:
    """The four idx arrays by Dataset field, images flattened, still uint8."""
    root = Path(root)
    found = {}
    for key, names in _IDX_NAMES.items():
        path = _find_idx(root, names)
        if path is None:
            raise FileNotFoundError(f"{root}: missing idx file for {key}")
        found[key] = read_idx(path)
    for key in ("train_x", "test_x"):
        found[key] = found[key].reshape(found[key].shape[0], -1)
    return found


def _scaled(found: dict, train_rows=slice(None), test_rows=slice(None)) -> Dataset:
    """The chosen rows of `_read_idx_files`' arrays, pixels scaled into [0, 1]."""
    return Dataset(found["train_x"][train_rows] / 255.0,
                   found["train_y"][train_rows].astype(np.int64),
                   found["test_x"][test_rows] / 255.0,
                   found["test_y"][test_rows].astype(np.int64))


def load_idx_dataset(root: str | Path) -> Dataset:
    return _scaled(_read_idx_files(root))


_CLUSTERS_PER_CLASS = 3


def synthetic_blobs(classes: int, features: int, train_n: int, test_n: int,
                    seed: int) -> Dataset:
    """Gaussian mixture classification data, rescaled into [0, 1].

    Each class owns three unit-variance clusters around standard normal
    centres, so decision boundaries are curved and extra training data keeps
    paying off.
    """
    rng = seeding.stream(seed, seeding.DATASET)
    centers = rng.normal(0.0, 1.0, size=(classes, _CLUSTERS_PER_CLASS, features))

    def draw(n):
        y = rng.integers(0, classes, n)
        cl = rng.integers(0, _CLUSTERS_PER_CLASS, n)
        x = centers[y, cl] + rng.normal(0.0, 1.0, size=(n, features))
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
        return synthetic_blobs(config.classes, config.features, config.total_samples,
                               config.dataset_test_size, config.seed)
    full = _read_idx_files(config.dataset_path)
    train_n, test_n = full["train_x"].shape[0], full["test_x"].shape[0]
    if train_n < config.total_samples:
        raise ValueError(
            f"dataset holds {train_n} training samples, "
            f"config assigns {config.total_samples}")
    if test_n < config.dataset_test_size:
        raise ValueError(
            f"dataset holds {test_n} test samples, "
            f"config asks for {config.dataset_test_size}")
    for key in ("train_x", "test_x"):
        if full[key].shape[1] != config.features:
            raise ValueError(f"dataset images hold {full[key].shape[1]} pixels, "
                             f"config sets features {config.features}")
    labels = np.concatenate([full["train_y"], full["test_y"]])
    if labels.max() >= config.classes:
        raise ValueError(f"dataset labels span {labels.min()}..{labels.max()}, "
                         f"config sets classes {config.classes}")
    rng = seeding.stream(config.seed, seeding.DATASET)
    tsel = rng.permutation(train_n)[:config.total_samples]
    esel = rng.permutation(test_n)[:config.dataset_test_size]
    return _scaled(full, tsel, esel)


@dataclass
class Shard:
    """One user's local training slice; `build_shards` lists them by user."""
    x: np.ndarray
    y: np.ndarray


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
        shards.append(Shard(x=dataset.train_x[take], y=dataset.train_y[take]))
    return shards
