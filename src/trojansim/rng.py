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

All arithmetic is modulo 2**64. `next_u64` is the reference: one output and
one transition per call, on Python ints.

Bulk draws (`next_doubles`) give the same bits from parallel lanes. The
transition only shifts, rotates and XORs, so it is linear over GF(2): the
state LANE_LENGTH draws ahead is a fixed 256x256 bit matrix applied to the
256 state bits. Its 256 rows, the images of the one-bit states, are built
once, on the first bulk draw. A jump XORs the rows of the state's set bits.
A bulk draw is cut into blocks of at most BLOCK_DRAWS draws, and each block
into lanes of LANE_LENGTH successive draws; every lane after the first
starts one jump after the one before. All lanes then take their steps
together, vectorised over np.uint64 arrays, and the outputs are written lane
after lane, in the order the scalar walk would give them.
"""

from __future__ import annotations

import functools

import numpy as np

_MASK64 = (1 << 64) - 1

_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_SPLITMIX_MIX1 = 0xBF58476D1CE4E5B9
_SPLITMIX_MIX2 = 0x94D049BB133111EB

_DOUBLE_SCALE = 2.0 ** -53

# successive draws per lane of a bulk draw: the jump distance
LANE_LENGTH = 256
# draws per block of a bulk draw, 256 KiB of output words; the lanes of one
# block walk together
BLOCK_DRAWS = 1 << 15
# draws per slice of the in-place scrambler, so that its temporaries stay
# slice-sized
_SCRAMBLE_SLICE = 4096

# every operand of the vectorised walk is np.uint64: NumPy 1.x turns a uint64
# combined with a Python int into float64
_U5, _U7, _U9, _U11 = np.uint64(5), np.uint64(7), np.uint64(9), np.uint64(11)
_U17, _U19, _U45, _U57 = np.uint64(17), np.uint64(19), np.uint64(45), np.uint64(57)


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


def _stepper(state: np.ndarray):
    """A function that applies one transition to every lane of a (4, lanes)
    uint64 state, in place."""
    s1, s2, s3 = state[1], state[2], state[3]
    low, high, high_swapped = state[:2], state[2:], state[:1:-1]
    t = np.empty_like(s1)

    def step() -> None:
        np.left_shift(s1, _U17, out=t)
        np.bitwise_xor(high, low, out=high)  # s2 ^= s0; s3 ^= s1
        np.bitwise_xor(low, high_swapped, out=low)  # s0 ^= s3; s1 ^= s2
        np.bitwise_xor(s2, t, out=s2)
        np.left_shift(s3, _U45, out=t)
        np.right_shift(s3, _U19, out=s3)
        np.bitwise_or(s3, t, out=s3)

    return step


@functools.cache
def _rows() -> np.ndarray:
    """(256, 4) uint64, read-only: row 64*w + b is the state LANE_LENGTH
    steps after the state whose only set bit is bit b of word w. Built on
    the first bulk draw that needs a jump."""
    bits = np.arange(256)
    basis = np.zeros((4, 256), dtype=np.uint64)
    basis[bits // 64, bits] = np.left_shift(np.uint64(1), (bits % 64).astype(np.uint64))
    step = _stepper(basis)
    for _ in range(LANE_LENGTH):
        step()
    rows = basis.T.copy()
    rows.flags.writeable = False
    return rows


def _jump(state: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The (4,) uint64 state LANE_LENGTH steps after the given one."""
    bits = np.unpackbits(state.astype("<u8").view(np.uint8), bitorder="little")
    return np.bitwise_xor.reduce(rows[bits.view(bool)], axis=0)


def _walk_block(start: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill out (at most BLOCK_DRAWS doubles) with the draws from state
    start, and return the state after them."""
    k = out.size
    lanes = -(-k // LANE_LENGTH)
    last = k - (lanes - 1) * LANE_LENGTH  # draws of the last lane
    state = np.empty((4, lanes), dtype=np.uint64)
    state[:, 0] = start
    if lanes > 1:
        rows = _rows()
        for lane in range(1, lanes):
            state[:, lane] = _jump(state[:, lane - 1], rows)
    # s1 words go straight into out's memory, lane-major: step j of lane i
    # is draw i * LANE_LENGTH + j; the last lane's slots end at its last draw
    u = out.view(np.uint64)
    step = _stepper(state)
    end = None
    for j in range(min(LANE_LENGTH, k)):
        col = u[j::LANE_LENGTH]
        col[...] = state[1, :col.size]
        step()
        if j + 1 == last:
            end = state[:, -1].copy()
    # the ** scrambler in place, a slice at a time
    tmp = np.empty(min(k, _SCRAMBLE_SLICE), dtype=np.uint64)
    for at in range(0, k, _SCRAMBLE_SLICE):
        x = u[at:at + _SCRAMBLE_SLICE]
        r = tmp[:x.size]
        x *= _U5
        np.left_shift(x, _U7, out=r)
        x >>= _U57
        x |= r
        x *= _U9
        x >>= _U11
        np.multiply(x, np.float64(_DOUBLE_SCALE), out=out[at:at + _SCRAMBLE_SLICE])
    return end


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

        Drawn in lanes (see the module docstring); a call costs a few
        microseconds per lane step, so few large calls are much cheaper than
        many small ones.
        """
        out = np.empty(n, dtype=np.float64)
        state = np.array(self._s, dtype=np.uint64)
        for start in range(0, n, BLOCK_DRAWS):
            state = _walk_block(state, out[start:start + BLOCK_DRAWS])
        self._s = [int(w) for w in state]
        return out

    def next_double_rows(self, rows: int, width: int):
        """Yield the next rows * width doubles as (g, width) arrays of whole
        rows, each from one next_doubles call of at most BLOCK_DRAWS draws
        (or of one row, if a row is wider). Consume it before drawing again."""
        per_call = max(1, BLOCK_DRAWS // width) if width else max(1, rows)
        for first in range(0, rows, per_call):
            g = min(per_call, rows - first)
            yield self.next_doubles(g * width).reshape(g, width)

    def next_double(self) -> float:
        """Uniform in [0, 1), using the top 53 bits of one output."""
        return (self.next_u64() >> 11) * _DOUBLE_SCALE

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.next_double()
