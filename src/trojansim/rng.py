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
state d draws ahead is a fixed 256x256 bit matrix applied to the 256 state
bits. A bulk draw is cut into blocks of at most BLOCK_DRAWS draws (the
kernels' scratch budget of output words), and each block into lanes of
LANE_LENGTH successive draws, so a full block has 512 lanes. Lane i starts
i * LANE_LENGTH draws after the block, and the starts are made by doubling:
lanes [2^k, 2^(k+1)) are lanes [0, 2^k) jumped by LANE_LENGTH * 2^k draws.
Each of those jumps is stored as 4-bit lookup tables, 64 nibbles x 16 values
of a whole state each (32 KiB), so jumping a set of lanes is one gather and
one XOR reduction. The table for LANE_LENGTH draws comes from stepping the
256 one-bit states; each larger one squares the one before (jumps its
one-bit images once more). The tables are built once, on the first bulk draw
that needs them. All lanes then take their steps together, vectorised over
np.uint64 arrays, recording step j of every lane in row j of a (LANE_LENGTH,
lanes) buffer; one transposed copy lays the words out lane after lane, in
the order the scalar walk would give them, and the ** scrambler runs on them
in place.
"""

from __future__ import annotations

import functools

import numpy as np

from .tensor import SCRATCH_BYTES

_MASK64 = (1 << 64) - 1

_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_SPLITMIX_MIX1 = 0xBF58476D1CE4E5B9
_SPLITMIX_MIX2 = 0x94D049BB133111EB

_DOUBLE_SCALE = 2.0 ** -53

# successive draws per lane of a bulk draw: the jump distance
LANE_LENGTH = 256
# draws per block of a bulk draw, SCRATCH_BYTES of recorded words (512 lanes);
# the lanes of one block walk together
BLOCK_DRAWS = SCRATCH_BYTES // 8
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
def _doubling_table(k: int) -> np.ndarray:
    """(1024, 4) uint64, read-only: the jump by LANE_LENGTH * 2**k draws as
    4-bit lookup tables. Entry 16*g + v is the state that many steps after
    the state whose bits 4g..4g+3 (bit 64*w + b being bit b of word w) are
    the bits of v and whose other bits are clear. Built on the first bulk
    draw that needs it: k = 0 by stepping the 256 one-bit states, every
    later k by jumping the one-bit images of k - 1 once more (squaring)."""
    if k == 0:
        bits = np.arange(256)
        basis = np.zeros((4, 256), dtype=np.uint64)
        basis[bits // 64, bits] = np.left_shift(np.uint64(1), (bits % 64).astype(np.uint64))
        step = _stepper(basis)
        for _ in range(LANE_LENGTH):
            step()
        rows = basis.T
    else:
        prev = _doubling_table(k - 1)
        rows = _advance(prev, prev.reshape(64, 16, 4)[:, [1, 2, 4, 8]].reshape(256, 4))
    # entry v of nibble g XORs the rows of v's set bits
    nibbles = rows.reshape(64, 4, 1, 4)
    table = np.zeros((64, 16, 4), dtype=np.uint64)
    for bit in range(4):
        has = (np.arange(16) >> bit) & 1 == 1
        table[:, has] ^= nibbles[:, bit]
    table = table.reshape(1024, 4)
    table.flags.writeable = False
    return table


def _advance(table: np.ndarray, states: np.ndarray) -> np.ndarray:
    """The (m, 4) uint64 states one table's jump after the given (m, 4) ones:
    one gather of a table entry per nibble, XORed together."""
    octets = np.ascontiguousarray(states, dtype="<u8").view(np.uint8).T  # octet i holds bits 8i..8i+7
    index = np.empty((64, states.shape[0]), dtype=np.intp)
    np.bitwise_and(octets, 15, out=index[0::2])
    np.right_shift(octets, 4, out=index[1::2])
    index += np.arange(0, 1024, 16)[:, None]
    return np.bitwise_xor.reduce(table[index], axis=0)


def _walk_block(start: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill out (at most BLOCK_DRAWS doubles) with the draws from state
    start, and return the state after them."""
    k = out.size
    lanes = -(-k // LANE_LENGTH)
    last = k - (lanes - 1) * LANE_LENGTH  # draws of the last lane
    # lane starts by doubling: lanes [2^j, 2^(j+1)) are lanes [0, 2^j)
    # jumped by LANE_LENGTH * 2^j draws
    state = np.empty((4, lanes), dtype=np.uint64)
    starts = state.T  # lane i's start in row i
    starts[0] = start
    have = 1
    while have < lanes:
        m = min(have, lanes - have)
        starts[have:have + m] = _advance(_doubling_table(have.bit_length() - 1), starts[:m])
        have += m
    # step j of every lane into row j; draw i * LANE_LENGTH + j is row j of
    # lane i, the last lane's rows ending at its last draw
    steps = min(LANE_LENGTH, k)
    record = np.empty((steps, lanes), dtype=np.uint64)
    step = _stepper(state)
    end = None
    for j in range(steps):
        record[j] = state[1]
        step()
        if j + 1 == last:
            end = state[:, -1].copy()
    u = out.view(np.uint64)
    full, rest = divmod(k, LANE_LENGTH)
    if full:
        u[:full * LANE_LENGTH].reshape(full, LANE_LENGTH)[...] = record[:, :full].T
    u[full * LANE_LENGTH:] = record[:rest, -1]
    del record
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
