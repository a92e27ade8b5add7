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

    def uniforms(self, n: int, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        """n draws in [low, high), each from 53 significant bits of one
        output. Draw i = 1..n mixes the state s + i * gamma, s the state
        before the call (mod 2^64, which uint64 arithmetic wraps), so all n
        are mixed at once."""
        z = np.uint64(self._state) + np.uint64(_GAMMA) * np.arange(1, n + 1, dtype=np.uint64)
        self._state = (self._state + n * _GAMMA) & _MASK
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        return low + (high - low) * ((z >> np.uint64(11)) * 2.0**-53)
