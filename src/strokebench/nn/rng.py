"""Seedable 64-bit PRNG used for weight init, shuffling and the synthetic corpus.

The generator is splitmix-style and fully specified by its output sequence:
the k-th draw (k = 1, 2, ...) from seed ``s`` is ``mix64((s + k * GAMMA) mod 2^64)``
where GAMMA = 0x9E3779B97F4A7C15 and mix64 is

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

(all arithmetic mod 2^64). Because each output depends only on the draw
counter, blocks of draws can be produced vectorized without changing the
sequence. Floats in [0, 1) are the top 53 bits: ``(u >> 11) * 2**-53``.

Sample sequence from seed 0 (first three draws):
    0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F
(frozen in the test suite against an independent scalar evaluation).
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def derive_seed(seed: int, *salts: int) -> int:
    """Fold salts into a seed to carve independent, reproducible streams:
    h = mix64(seed + GAMMA), then mix64((h ^ salt) + GAMMA) per salt.

    Used to give weight init, every training epoch's shuffle and every
    synthetic video its own stream from one user-facing seed.
    """
    h = 0
    for x in (seed, *salts):
        h = int(_mix64(np.array([((h ^ x) + _GAMMA) & MASK64], dtype=np.uint64))[0])
    return h


def _mix64(z: np.ndarray) -> np.ndarray:
    # mix64 of each uint64 element; the wraparound is intentional throughout
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


class SplitMix64:
    """Counter-based splitmix generator; scalar and block draws interleave freely."""

    def __init__(self, seed: int):
        self.seed = seed & MASK64
        self.counter = 0

    def next_u64(self) -> int:
        return int(self.fill_u64(1)[0])

    def fill_u64(self, n: int) -> np.ndarray:
        """Next n >= 0 draws as a uint64 array (same sequence as n next_u64 calls)."""
        if n < 0:
            raise ValueError(f"draw count must be >= 0, got {n}")
        ks = np.arange(self.counter + 1, self.counter + n + 1, dtype=np.uint64)
        self.counter += n
        with np.errstate(over="ignore"):
            states = ks * np.uint64(_GAMMA) + np.uint64(self.seed)
        return _mix64(states)

    def fill_float(self, n: int) -> np.ndarray:
        return (self.fill_u64(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def uniform(self, n: int, low: float, high: float) -> np.ndarray:
        return low + (high - low) * self.fill_float(n)

    def below(self, bound: int) -> int:
        """Integer in [0, bound). Plain modulo; bias is irrelevant here, the
        contract is reproducibility, not statistical perfection."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        return self.next_u64() % bound

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates driven by this stream."""
        draws = self.fill_u64(max(len(items) - 1, 0)).tolist()
        for i, u in zip(range(len(items) - 1, 0, -1), draws):
            j = u % (i + 1)  # as below(i + 1) draws it
            items[i], items[j] = items[j], items[i]
