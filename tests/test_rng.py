"""SplitMix64 draws against a scalar reference, bit for bit."""

import numpy as np
import pytest

from neckspec.rng import SplitMix64

MASK = (1 << 64) - 1


class ScalarSplitMix64:
    """One output per call in Python integers (Steele, Lea and Flood's mix13)."""

    def __init__(self, seed):
        self.state = seed & MASK

    def next_u64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        return z ^ (z >> 31)

    def uniform(self):
        return (self.next_u64() >> 11) * 2.0**-53


@pytest.mark.parametrize("seed", [1, 7, 2**63 + 5])
def test_uniforms_match_the_scalar_reference_across_calls(seed):
    gen, ref = SplitMix64(seed), ScalarSplitMix64(seed)
    # the state must carry from one call to the next, an empty call included
    for n, low, high in ((1, 0.0, 1.0), (0, 0.0, 1.0), (8, -1.0, 1.0), (1000, -9.0, 9.0),
                         (3047, 1.0, 9.0)):
        got = gen.uniforms(n, low, high)
        want = np.array([ref.uniform() for _ in range(n)], dtype=float)
        np.testing.assert_array_equal(got, low + (high - low) * want)
