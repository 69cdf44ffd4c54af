"""Deterministic counter-based noise substreams for parallel Monte Carlo.

Trials are grouped into fixed-size blocks. Block b of a run seeded with s
draws from an independent Philox stream keyed by (s, b), so the noise seen
by trial t depends only on (seed, t) and never on scheduling or thread
count. Error counts are integers summed per block, which makes aggregation
order-independent and output byte-identical for any worker-pool size.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BLOCK_SIZE", "block_plan", "noise_block", "substream"]

#: Trials per noise block. Fixed: changing it changes every sampled stream.
BLOCK_SIZE = 8192

_MASK64 = (1 << 64) - 1


def substream(seed: int, index: int) -> np.random.Generator:
    """Independent generator for one block of one run."""
    key = np.array([seed & _MASK64, index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def block_plan(trials: int):
    """Yield (block_index, start_trial, rows) covering `trials` trials."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    start = 0
    b = 0
    while start < trials:
        rows = min(BLOCK_SIZE, trials - start)
        yield b, start, rows
        start += rows
        b += 1


def noise_block(seed: int, block_index: int, rows: int, dim: int) -> np.ndarray:
    """Standard normal (rows, dim) block; row r holds trial block*BLOCK_SIZE + r."""
    return substream(seed, block_index).standard_normal((rows, dim))

