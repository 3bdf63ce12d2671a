"""Counter-based random streams for reproducible sampling.

Every sampled possible world is drawn from its own Philox stream addressed by
(master seed, sample index).  Streams start on 4-word counter blocks, so the
uniforms for sample i are the same whether worlds are drawn one at a time, in
one large batch, or split across workers.  Aggregation of sampling results is
done with integer success counters, which keeps estimates bit-identical for a
fixed seed at any worker count.
"""
from __future__ import annotations

import zlib

import numpy as np

# Philox-4x64 emits 4 64-bit words per counter increment; one uniform double
# consumes one word.  Each sample owns a whole number of blocks so that
# per-sample streams tile a single sequential draw exactly.
_BLOCK_WORDS = 4


def philox_key(seed: int) -> np.ndarray:
    """Expand an integer seed into a 128-bit Philox key."""
    return np.random.SeedSequence(seed).generate_state(2, np.uint64)


def blocks_per_sample(m: int) -> int:
    """Number of counter blocks reserved for one m-edge sample."""
    return max(1, -(-m // _BLOCK_WORDS))


def world_stream(seed: int, index: int, m: int) -> np.random.Generator:
    """Independent generator for sample `index` of an m-edge graph."""
    if index < 0:
        raise ValueError("sample index must be non-negative")
    bitgen = np.random.Philox(key=philox_key(seed), counter=index * blocks_per_sample(m))
    return np.random.Generator(bitgen)


def uniform_batch(seed: int, count: int, m: int, start: int = 0) -> np.ndarray:
    """(count, m) uniforms whose row i equals world_stream(seed, start + i, m).random(m)."""
    if m == 0:
        return np.empty((count, 0), dtype=np.float64)
    blocks = blocks_per_sample(m)
    bitgen = np.random.Philox(key=philox_key(seed), counter=start * blocks)
    width = blocks * _BLOCK_WORDS
    return np.random.Generator(bitgen).random(count * width).reshape(count, width)[:, :m]


def _encode(part) -> int:
    if isinstance(part, (int, np.integer)):
        return int(part) & 0xFFFFFFFFFFFFFFFF
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    raise TypeError(f"cannot derive seed from {type(part).__name__}")


def derive_seed(seed: int, *parts) -> int:
    """Deterministically derive a child seed from a master seed and a key path."""
    entropy = [_encode(seed)] + [_encode(p) for p in parts]
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])
