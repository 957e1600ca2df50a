"""Counter-based deterministic random numbers: SplitMix64 + Box-Muller.

Output depends only on (seed, draw index), is identical across platforms
(pure 64-bit integer mixing), and is therefore safe to freeze into test
expectations and run metadata.
"""
from __future__ import annotations

import operator

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)

GENERATOR_NAME = "splitmix64+box-muller"


def _mix(x: np.ndarray) -> np.ndarray:
    x = (x ^ (x >> np.uint64(30))) * _M1
    x = (x ^ (x >> np.uint64(27))) * _M2
    return x ^ (x >> np.uint64(31))


class CounterRng:
    """Stateful façade over the stateless (seed, index) -> value map."""

    def __init__(self, seed: int):
        seed = operator.index(seed)  # an int or numpy integer; a float raises TypeError
        if not 0 <= seed < 2 ** 64:  # each seed its own stream: no wrap-around
            raise ValueError(f"seed must be in [0, 2**64), got {seed}")
        self.seed = np.uint64(seed)
        self.counter = 0

    def _raw(self, count: int) -> np.ndarray:
        idx = np.arange(self.counter + 1, self.counter + count + 1, dtype=np.uint64)
        self.counter += count
        with np.errstate(over="ignore"):
            return _mix(self.seed + idx * _GAMMA)

    def uniform(self, count: int) -> np.ndarray:
        """Uniform draws in the open interval (0, 1)."""
        bits = self._raw(count) >> np.uint64(11)  # 53 significant bits
        return (bits.astype(np.float64) + 0.5) / 9007199254740992.0

    def normals(self, count: int) -> np.ndarray:
        half = (count + 1) // 2
        u1 = self.uniform(half)
        u2 = self.uniform(half)
        radius = np.sqrt(-2.0 * np.log(u1))
        angle = 2.0 * np.pi * u2
        out = np.empty(2 * half)
        out[0::2] = radius * np.cos(angle)
        out[1::2] = radius * np.sin(angle)
        return out[:count]
