"""Reproducible counter-based random streams.

Every random quantity in the package draws from a Philox generator whose key
is derived from (master_seed, *path) through numpy's SeedSequence hashing.
Streams for distinct paths are statistically independent, and the same
(master_seed, path) pair yields the same draws regardless of the order in
which streams are consumed.

Registry of stream tags (first path element):
    1  audit grids (Monte Carlo screening points)
    2  Brownian path simulation, sub-keyed by path block
    3  distance estimation samples
    4  measures.sample: uniforms inverted through the grid CDF
    5  Ornstein-Uhlenbeck Monte Carlo checks
    6  identity-suite randomness
"""

from __future__ import annotations

import numpy as np

STREAM_AUDIT = 1
STREAM_PATHS = 2
STREAM_DISTANCE = 3
STREAM_SAMPLER = 4
STREAM_OU = 5
STREAM_VALIDATE = 6


def child_seed(seed: int, *path: int) -> int:
    """64-bit seed for the sub-stream addressed by `path` under `seed`."""
    ss = np.random.SeedSequence(entropy=int(seed) & ((1 << 64) - 1), spawn_key=tuple(int(p) for p in path))
    return int(ss.generate_state(1, np.uint64)[0])


def substream(seed: int, *path: int) -> np.random.Generator:
    """Philox generator for the sub-stream addressed by `path` under `seed`."""
    return np.random.Generator(np.random.Philox(key=child_seed(seed, *path)))
