"""Deterministic pseudo-random numbers for seeded experiments.

SplitMix64 is used instead of numpy's generators so that output files are
reproducible byte for byte across numpy versions. Constants are the
standard ones: the state increment 0x9E3779B97F4A7C15 (the golden ratio
times 2^64) and the finalizer multipliers 0xBF58476D1CE4E5B9 and
0x94D049BB133111EB with shifts 30/27/31 (Steele, Lea and Flood's mix13).
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """Tiny deterministic generator with 64-bit state."""

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def uniform(self) -> float:
        # 53 significant bits, in [0, 1)
        return (self.next_u64() >> 11) * 2.0**-53

    def uniforms(self, n: int, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        u = np.array([self.uniform() for _ in range(n)], dtype=float)
        return low + (high - low) * u
