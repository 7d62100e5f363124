"""Deterministic derivation of independent random streams.

Every random draw in the simulator comes from a generator keyed by the run
seed plus a fixed purpose tag (and, for training noise, the round index).
Streams therefore never depend on evaluation order.
"""
from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

# purpose tags; values are arbitrary but frozen, changing one changes every result
POSITIONS = 0
FADING = 1
PARTITION = 2
INIT = 10
WEIGHTS = 20
SHARDS = 21
NOISE = 22
DATASET = 30


def stream(*parts: int) -> np.random.Generator:
    """Generator for the stream identified by (seed, tag, *indices); the
    parts, masked to 64 bits, are the entropy of one `SeedSequence`."""
    return np.random.default_rng([int(p) & _MASK64 for p in parts])
