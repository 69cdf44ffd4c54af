"""Deterministic counter-based noise substreams for parallel Monte Carlo.

Trials are grouped into fixed-size blocks. Block b of a run seeded with s
draws from an independent Philox stream keyed by (s, b), so the noise seen
by trial t depends only on (seed, t) and never on scheduling or thread
count. Every Monte Carlo path (the sweep engine, the grid oracle and the
moment study) sums its per-block counts through `sum_over_blocks`, in block
order, so output is byte-identical for any worker-pool size.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

__all__ = ["BLOCK_SIZE", "block_plan", "noise_block", "substream", "sum_over_blocks"]

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


def noise_block(seed: int, block_index: int, rows: int, dim: int,
                stream: np.random.Generator | None = None, out: np.ndarray | None = None
                ) -> np.ndarray:
    """Standard normal (rows, dim) block; row r holds trial block*BLOCK_SIZE + r.

    The substream fills the block in row-major order, so a narrower block is
    a prefix of a wider one: for d <= D, noise_block(s, b, r, d) equals
    noise_block(s, b, r, D).ravel()[:r * d].reshape(r, d), bit for bit. The
    engine draws each block once at a run's widest dimension and reads every
    narrower one that way.

    A block can also be read in chunks: open its substream once with
    `substream(seed, block_index)` and pass it as stream. Each call then
    draws the next rows * dim values of the block, into out (a (rows, dim)
    float64 array) when given. Philox is counter-based and fills in order,
    so the chunks, end to end, are the values of one draw, bit for bit.
    The engine reads every block that way, into a window of about two
    tiles, so with `sum_over_blocks` on `threads` workers up to `threads`
    windows, not whole blocks, are alive at once.
    """
    generator = substream(seed, block_index) if stream is None else stream
    return generator.standard_normal((rows, dim), out=out)


def sum_over_blocks(trials: int, count, threads: int = 1):
    """The sum of count(block_index, rows) over the blocks of `trials`, added in block order.

    count draws its own block (through `noise_block`, whole or in chunks)
    and returns its counts, an integer or array of per-block sums. With
    threads > 1 the blocks run on a pool of that many workers, so up to
    `threads` blocks, or the engine's windows of them, are alive at once;
    with one thread they run lazily, one at a time.
    Either way the parts are added in block order, so the sum does not
    depend on `threads`.
    """
    blocks = block_plan(trials)
    if threads <= 1:
        return sum(count(b, rows) for b, _, rows in blocks)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return sum(pool.map(lambda block: count(block[0], block[2]), blocks))
