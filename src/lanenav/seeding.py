"""Deterministic seed derivation for episodes and RNG substreams.

Every random stream in the package is a numpy PCG64 generator seeded through
``derive_seed``, a splitmix64-style mixer. The scheme is documented so that
"episode i of master seed m" means the same thing on every machine:

    episode_seed(m, i)   = derive_seed(m, i)
    substream(es, tag)   = derive_seed(es, tag)

where ``tag`` is one of the STREAM_* constants below.
"""
from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Substream tags. Values are arbitrary but frozen: changing them changes
# every derived stream.
STREAM_SPAWN = 1  # per-step Poisson arrival counts
STREAM_CLASS = 2  # obstacle length/speed draws and lane class assignment
STREAM_PLACE = 3  # agent/goal placement and goal direction at reset
STREAM_MODEL = 4  # forward-model noise (noisy-sampled model)
STREAM_PLAN = 5   # planner final-action sampling
STREAM_AGENT = 6  # uniform-random agent actions


def _mix(x: int) -> int:
    """splitmix64 finalizer: a bijective 64-bit avalanche."""
    x &= _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def derive_seed(seed: int, index: int) -> int:
    """Seed for substream ``index`` of ``seed`` (splitmix64 stream element)."""
    return _mix((seed + (index + 1) * _GOLDEN) & _MASK64)


def episode_seed(master_seed: int, episode_index: int) -> int:
    """Seed for episode ``episode_index`` of a benchmark run."""
    return derive_seed(master_seed, episode_index)


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def substream(seed: int, tag: int) -> np.random.Generator:
    return make_rng(derive_seed(seed, tag))


def clone_rng(rng: np.random.Generator) -> np.random.Generator:
    """Value copy on a bit generator of the same type: the clone continues the exact same stream."""
    new = np.random.Generator(type(rng.bit_generator)())
    new.bit_generator.state = rng.bit_generator.state
    return new
