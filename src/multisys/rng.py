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
_DRAWS = 4096  # most bounded draws per block, which caps the block's temporaries


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

    def _block(self, k: int) -> np.ndarray:
        """The next k `next_u64()` outputs as one uint64 array.

        SplitMix64 is counter-based: draw i of the block is the mix of
        state + i * golden in wrapping uint64 arithmetic.
        """
        z = np.arange(1, k + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
        z += np.uint64(self._state)
        self._state = (self._state + k * _GOLDEN) & _MASK64
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        return z ^ (z >> np.uint64(31))

    def _below(self, bounds: np.ndarray) -> np.ndarray:
        """`randint_below(b)` for each b of the uint64 array `bounds` in turn,
        as one int64 array, leaving the generator as those scalar calls leave
        it.

        The draws come as one block, each checked against its own rejection
        threshold; from the first draw the scalar call would reject, the
        scalar call takes over.
        """
        start = self._state
        z = self._block(len(bounds))
        rejected = np.flatnonzero(z < (0 - bounds) % bounds)  # (2**64) % b, wrapping
        kept = int(rejected[0]) if rejected.size else len(z)
        out = (z[:kept] % bounds[:kept]).astype(np.int64)
        if kept == len(z):
            return out
        self._state = (start + kept * _GOLDEN) & _MASK64
        rest = [self.randint_below(b) for b in bounds[kept:].tolist()]
        return np.concatenate([out, np.array(rest, dtype=np.int64)])

    def randints_below(self, n: int, k: int) -> np.ndarray:
        """k draws of `randint_below(n)` as one int64 array, leaving the
        generator in the state k scalar calls leave it in, drawn _DRAWS at a
        time (`_below`)."""
        if not 0 < n < 1 << 63:
            raise ValueError("n must be in [1, 2**63)")
        return np.concatenate([np.empty(0, np.int64)] + [
            self._below(np.full(min(_DRAWS, k - done), n, dtype=np.uint64))
            for done in range(0, k, _DRAWS)])

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle: from the last position i down to 1,
        item i swaps with item `randint_below(i + 1)`.  The draws come _DRAWS
        at a time (`_below`)."""
        for top in range(len(items) - 1, 0, -_DRAWS):
            bounds = np.arange(top + 1, max(top + 1 - _DRAWS, 1), -1, dtype=np.uint64)
            for i, j in zip(range(top, 0, -1), self._below(bounds).tolist()):
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

    def normals(self, k: int) -> np.ndarray:
        """The next k values of `normal()` as one float64 array, leaving the
        generator (the cached half-pair included) as k scalar calls leave it.

        The uniforms of all pairs are drawn as one block.  `math.log`,
        `math.cos` and `math.sin` run per element, since numpy's differ from
        them in the last bit; from the first pair whose u1 would be redrawn,
        the scalar loop takes over.
        """
        out = np.empty(k)
        done = 0
        if k and self._gauss_cache is not None:
            out[0], self._gauss_cache, done = self._gauss_cache, None, 1
        pairs = (k - done + 1) // 2
        start = self._state
        u = (self._block(2 * pairs) >> np.uint64(11)) * (1.0 / (1 << 53))
        u1, u2 = u[0::2], u[1::2]
        redraw = np.flatnonzero(u1 <= 1e-300)
        if redraw.size:
            pairs = int(redraw[0])
            u1, u2 = u1[:pairs], u2[:pairs]
            self._state = (start + 2 * pairs * _GOLDEN) & _MASK64
        r = np.sqrt(-2.0 * np.array(list(map(math.log, u1.tolist()))))
        theta = ((2.0 * math.pi) * u2).tolist()
        z = np.empty(2 * pairs)
        z[0::2] = r * np.array(list(map(math.cos, theta)))
        z[1::2] = r * np.array(list(map(math.sin, theta)))
        take = min(2 * pairs, k - done)
        out[done:done + take] = z[:take]
        if take < 2 * pairs:
            self._gauss_cache = float(z[-1])
        for i in range(done + take, k):
            out[i] = self.normal()
        return out

    def spawn(self, index: int) -> "SplitMix64":
        """Derive an independent child stream, e.g. one per tree."""
        child = SplitMix64((self._state ^ ((index + 1) * _GOLDEN)) & _MASK64)
        child.next_u64()
        return child
