"""Deterministic random number generation.

All stochastic components (splitting, bootstrap draws, synthetic cohorts) use
SplitMix64 so that results are bit-reproducible across platforms and Python
versions, independent of any library's stream evolution.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1, _MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


class SplitMix64:
    """SplitMix64 generator (Steele, Lea & Flood) with convenience draws."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64
        self._gauss_cache: float | None = None

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def randint_below(self, n: int) -> int:
        """Unbiased integer in [0, n) via rejection sampling."""
        if n <= 0:
            raise ValueError("n must be positive")
        threshold = (1 << 64) % n
        while True:
            r = self.next_u64()
            if r >= threshold:
                return r % n

    def randints_below(self, n: int, k: int) -> np.ndarray:
        """k draws of `randint_below(n)` as one int64 array, leaving the
        generator in the state k scalar calls leave it in.

        SplitMix64 is counter-based, so draw i of a block is the mix of
        state + i * golden in wrapping uint64 arithmetic; each round draws as
        many values as are still missing and drops the rejected ones.
        """
        if not 0 < n < 1 << 63:
            raise ValueError("n must be in [1, 2**63)")
        threshold = np.uint64((1 << 64) % n)
        kept = [np.empty(0, np.uint64)]
        while k > 0:
            z = np.arange(1, k + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
            z += np.uint64(self._state)
            self._state = int(z[-1])
            z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
            z ^= z >> np.uint64(31)
            z = z[z >= threshold]
            kept.append(z % np.uint64(n))
            k -= len(z)
        return np.concatenate(kept).astype(np.int64)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint_below(i + 1)
            items[i], items[j] = items[j], items[i]

    def normal(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        """Gaussian draw via Box-Muller (cached pair for determinism)."""
        if self._gauss_cache is not None:
            z = self._gauss_cache
            self._gauss_cache = None
        else:
            u1 = self.random()
            while u1 <= 1e-300:
                u1 = self.random()
            u2 = self.random()
            r = math.sqrt(-2.0 * math.log(u1))
            z = r * math.cos(2.0 * math.pi * u2)
            self._gauss_cache = r * math.sin(2.0 * math.pi * u2)
        return mu + sigma * z

    def spawn(self, index: int) -> "SplitMix64":
        """Derive an independent child stream, e.g. one per tree."""
        child = SplitMix64((self._state ^ ((index + 1) * _GOLDEN)) & _MASK64)
        child.next_u64()
        return child
