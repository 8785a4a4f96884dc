"""Deterministic PRNG for weight generation: xoshiro256** with splitmix64 seeding.

The generator is fully specified here so that seeded weights are bit-identical
across platforms and Python versions:

  * State: four 64-bit words, initialized by four successive outputs of
    splitmix64 run on the user seed (constant 0x9E3779B97F4A7C15 increment,
    mix constants 0xBF58476D1CE4E5B9 and 0x94D049BB133111EB).
  * Output function: rotl(s1 * 5, 7) * 9 (the ** scrambler).
  * State transition: t = s1 << 17; s2^=s0; s3^=s1; s1^=s2; s0^=s3; s2^=t;
    s3 = rotl(s3, 45).
  * Doubles: take the top 53 bits of an output word, scale by 2**-53,
    giving a uniform value in [0, 1).

All arithmetic is modulo 2**64.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_SPLITMIX_MIX1 = 0xBF58476D1CE4E5B9
_SPLITMIX_MIX2 = 0x94D049BB133111EB

_DOUBLE_SCALE = 2.0 ** -53

# next_doubles walks the state this many draws at a time, so the Python ints
# it holds at once stay few
DRAW_BLOCK = 1 << 14


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


def splitmix64_stream(seed: int):
    """Yield the splitmix64 sequence for a 64-bit seed."""
    state = seed & _MASK64
    while True:
        state = (state + _SPLITMIX_GAMMA) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * _SPLITMIX_MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _SPLITMIX_MIX2) & _MASK64
        yield z ^ (z >> 31)


class Xoshiro256StarStar:
    """xoshiro256** generator with a documented splitmix64 seeding path."""

    def __init__(self, seed: int):
        if not 0 <= seed <= _MASK64:
            raise ValueError(f"seed must fit in 64 bits, got {seed}")
        sm = splitmix64_stream(seed)
        self._s = [next(sm) for _ in range(4)]

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s
        result = (_rotl((s1 * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return result

    def next_doubles(self, n: int) -> np.ndarray:
        """n successive next_double() values as float64, leaving the state
        where n next_double() calls would.

        The state walk stays in Python ints; the ** scrambler, which reads
        only s1, runs vectorised over np.uint64, which wraps mod 2**64.
        """
        out = np.empty(n, dtype=np.float64)
        s0, s1, s2, s3 = self._s
        for start in range(0, n, DRAW_BLOCK):
            k = min(DRAW_BLOCK, n - start)
            s1s = []
            push = s1s.append
            for _ in range(k):
                push(s1)
                t = (s1 << 17) & _MASK64
                s2 ^= s0
                s3 ^= s1
                s1 ^= s2
                s0 ^= s3
                s2 ^= t
                s3 = ((s3 << 45) | (s3 >> 19)) & _MASK64
            x = np.array(s1s, dtype=np.uint64) * np.uint64(5)
            x = ((x << np.uint64(7)) | (x >> np.uint64(57))) * np.uint64(9)
            np.multiply(x >> np.uint64(11), _DOUBLE_SCALE, out=out[start:start + k])
        self._s = [s0, s1, s2, s3]
        return out

    def next_double(self) -> float:
        """Uniform in [0, 1), using the top 53 bits of one output."""
        return (self.next_u64() >> 11) * _DOUBLE_SCALE

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.next_double()
