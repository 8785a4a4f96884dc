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

Bulk draws give the same bits from parallel lanes, from any offset. The
transition only shifts, rotates and XORs, so it is linear over GF(2)
(Blackman and Vigna, "Scrambled Linear Pseudorandom Number Generators",
2021): the state d draws ahead is a fixed 256x256 bit matrix applied to the
256 state bits. The jump by 2^k draws is stored as 4-bit lookup tables, 64
nibbles x 16 values of a whole state each (32 KiB), so jumping a set of
states is one gather and one XOR reduction. The table for one draw comes
from stepping the 256 one-bit states once; each larger one squares the one
before (jumps its one-bit images once more). The tables are built once, on
the first draw that needs them.

A bulk draw is a list of runs, run r being counts[r] successive draws from
draw offsets[r]: next_doubles and next_u64s are one run from offset 0,
next_double_rows one run per stretch of consecutive rows of an index set.
The runs are cut into lanes of successive draws. The lanes span the whole
draw: their length is the shortest power of two with which
min(BLOCK_LANES, 4 sqrt(draws)) lanes hold it, which balances the cost of
starting a lane (a jump) against that of a step of all lanes, so a draw of
2000 LeNet images walks 1532 lanes of 1024 draws and a split's 1099 words
69 lanes of 16. A draw whose runs need more than BLOCK_LANES lanes is cut
into blocks of BLOCK_LANES; a run that does not fit ends its block at a
lane edge and goes on in the next. A block's run starts are jumped from
the state where the block before ended, one table per bit of their offsets
over all of them together, so a run that goes on from the block before
needs no jump. Inside a run, lanes start by doubling: lanes [2^k, 2^(k+1))
are lanes [0, 2^k) jumped by (lane length) * 2^k draws.

All lanes of a block then take their steps together, vectorised over
np.uint64 arrays, in segments: step j of every lane goes into row j of a
(steps, lanes) record, the record, the lanes' state and the scrambler's
temporaries within SCRATCH_BYTES. After each segment the ** scrambler runs
on the record in place, and for doubles the top 53 bits of each word
become the exact double; one transposed copy per run then puts the
segment's words or doubles straight into their places in the caller's
output, in the order the scalar walk gives them. A float32 output takes
each double rounded once, bitwise the double's astype(np.float32), so no
float64 copy of it is made.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .tensor import SCRATCH_BYTES

_MASK64 = (1 << 64) - 1

_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_SPLITMIX_MIX1 = 0xBF58476D1CE4E5B9
_SPLITMIX_MIX2 = 0x94D049BB133111EB

_DOUBLE_SCALE = 2.0 ** -53

# SCRATCH_BYTES in words: a walk's record of lane steps, its lanes' state
# and the scrambler's temporaries fit in it
BLOCK_DRAWS = SCRATCH_BYTES // 8
# lanes of a bulk draw at most; a draw with more runs than that walks them
# in blocks of BLOCK_LANES lanes
BLOCK_LANES = 2048
# states per gather of a jump, a quarter of SCRATCH_BYTES of table entries
_ADVANCE_SLICE = 128
# draws per slice of the in-place scrambler, so that its temporaries stay
# slice-sized
_SCRAMBLE_SLICE = 8192

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
    """(1024, 4) uint64, read-only: the jump by 2**k draws as 4-bit lookup
    tables. Entry 16*g + v is the state that many steps after the state
    whose bits 4g..4g+3 (bit 64*w + b being bit b of word w) are the bits of
    v and whose other bits are clear. Built on the first draw that needs
    it: k = 0 by stepping the 256 one-bit states once, every later k by
    jumping the one-bit images of k - 1 once more (squaring)."""
    if k == 0:
        bits = np.arange(256)
        basis = np.zeros((4, 256), dtype=np.uint64)
        basis[bits // 64, bits] = np.left_shift(np.uint64(1), (bits % 64).astype(np.uint64))
        _stepper(basis)()
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
    one gather of a table entry per nibble, XORed together, _ADVANCE_SLICE
    states at a time."""
    out = np.empty(states.shape, dtype=np.uint64)
    for at in range(0, len(states), _ADVANCE_SLICE):
        part = np.ascontiguousarray(states[at:at + _ADVANCE_SLICE], dtype="<u8")
        octets = part.view(np.uint8).T  # octet i holds bits 8i..8i+7
        index = np.empty((64, len(part)), dtype=np.intp)
        np.bitwise_and(octets, 15, out=index[0::2])
        np.right_shift(octets, 4, out=index[1::2])
        index += np.arange(0, 1024, 16)[:, None]
        np.bitwise_xor.reduce(table[index], axis=0, out=out[at:at + _ADVANCE_SLICE])
    return out


def _jump(state: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """(len(offsets), 4) uint64: the states offsets[i] draws after the (4,)
    state, by one _advance per bit over every offset that has the bit."""
    starts = np.tile(state, (len(offsets), 1))
    for bit in range(int(offsets.max(initial=0)).bit_length()):
        has = np.flatnonzero((offsets >> bit) & 1)
        if has.size:
            starts[has] = _advance(_doubling_table(bit), starts[has])
    return starts


def _lane_length(draws: int) -> int:
    """The shortest power of two with which min(BLOCK_LANES, 4 sqrt(draws))
    lanes hold the given number of draws.

    A lane start costs about a microsecond (its jump) and a step of all
    lanes about five, whatever their number, so sqrt(5 draws), about
    2 sqrt(draws) lanes, cost least; rounding the length up to a power of
    two leaves between 2 and 4 sqrt(draws) lanes."""
    lanes = max(1, min(BLOCK_LANES, 4 * math.isqrt(draws)))
    return 1 << (-(-draws // lanes) - 1).bit_length()


def _blocks(offsets: np.ndarray, counts: np.ndarray, length: int):
    """The runs (offsets[r], counts[r]) cut into blocks of at most
    BLOCK_LANES lanes of the given length: yield each block as its runs'
    (offsets, counts). A run that does not fit ends the block at a lane edge
    and goes on in the next one; empty runs are dropped."""
    if not counts.all():
        offsets, counts = offsets[counts > 0], counts[counts > 0]
    lanes = -(-counts // length)
    ends = np.cumsum(lanes)  # the lane after each run
    for lo in range(0, int(ends[-1]) if ends.size else 0, BLOCK_LANES):
        hi = lo + BLOCK_LANES
        first = int(np.searchsorted(ends, lo, side="right"))
        last = min(int(np.searchsorted(ends, hi)) + 1, len(ends))
        o, c = offsets[first:last].copy(), counts[first:last].copy()
        # the lanes of the first run before lo and of the last run from hi on
        skip = (lo - int(ends[first] - lanes[first])) * length
        o[0] += skip
        c[0] -= skip
        if ends[last - 1] > hi:
            c[-1] = (hi - max(lo, int(ends[last - 1] - lanes[last - 1]))) * length
        yield o, c


def _draw(state: np.ndarray, offsets, counts, out: np.ndarray) -> np.ndarray:
    """Fill out with the draws of runs from the (4,) state, run after run:
    run r is counts[r] draws from draw offsets[r], the runs ascending and
    disjoint. out is uint64 (the output words), float64 (doubles) or
    float32 (the doubles rounded once). Return the state after the last
    draw.

    Each block's run starts are jumped together from the state after the
    block before, so a block that goes on with the same run starts where
    that one ended, without a jump."""
    length = _lane_length(out.size)
    at = done = 0  # words written, draws past state
    for block_offsets, block_counts in _blocks(offsets, counts, length):
        starts = _jump(state, block_offsets - done)
        k = int(block_counts.sum())
        state = _walk_block(starts, block_counts, out[at:at + k], length)
        at += k
        done = int(block_offsets[-1] + block_counts[-1])
    return state


def _walk_block(starts: np.ndarray, counts: np.ndarray, out: np.ndarray, length: int) -> np.ndarray:
    """Fill out with the draws of runs of at most BLOCK_LANES lanes of the
    given length (a power of two) in all: run r gives counts[r] >= 1 draws
    from the state starts[r], after the draws of run r - 1. Return the state
    after the last run."""
    lanes_of = -(-counts // length)
    first = np.cumsum(lanes_of) - lanes_of  # each run's first lane
    lanes = int(lanes_of.sum())
    state = np.empty((4, lanes), dtype=np.uint64)
    lane_starts = state.T  # lane i's start in row i
    lane_starts[first] = starts
    # lane starts by doubling inside each run: lanes [2^j, 2^(j+1)) of a run
    # are its lanes [0, 2^j) jumped by length * 2^j draws
    for j in range(int(lanes_of.max() - 1).bit_length()):
        have = 1 << j
        m = np.clip(lanes_of - have, 0, have)  # lanes each run gains
        src = np.repeat(first - np.cumsum(m) + m, m) + np.arange(m.sum())
        lane_starts[src + have] = _advance(_doubling_table(length.bit_length() - 1 + j), lane_starts[src])
    # step j of every lane into row j of a segment's record; draw
    # i * length + j of a run is step j of its lane i, the last lane's steps
    # ending at its last draw
    steps = min(length, int(counts.max()))
    last = int(counts[-1]) - (int(lanes_of[-1]) - 1) * length  # draws of the last lane
    span = _segment_steps(lanes)
    record = np.empty((min(span, steps), lanes), dtype=np.uint64)
    step = _stepper(state)
    end = None
    for at in range(0, steps, span):
        segment = record[:min(span, steps - at)]
        for j, row in enumerate(segment, at + 1):
            np.copyto(row, state[1])
            step()
            if j == last:
                end = state[:, -1].copy()
        _scramble(segment.reshape(-1), out.dtype != np.uint64)
        _lay_out(segment, at, first, counts, length, out)
    return end


def _segment_steps(lanes: int) -> int:
    """The steps of the given number of lanes per segment of a walk: the
    segment's record, the lanes' state (four words and a shift temporary
    each) and the scrambler's two slice-sized temporaries fit
    SCRATCH_BYTES."""
    return max(1, (BLOCK_DRAWS - 2 * _SCRAMBLE_SLICE) // lanes - 5)


def _scramble(words: np.ndarray, doubles: bool) -> None:
    """The ** scrambler on the flat uint64 words in place, _SCRAMBLE_SLICE
    at a time so that its temporary stays slice-sized; with doubles, each
    scrambled word's top 53 bits times 2**-53 in place of the word, as a
    float64 (exact)."""
    tmp = np.empty(min(words.size, _SCRAMBLE_SLICE), dtype=np.uint64)
    for at in range(0, words.size, _SCRAMBLE_SLICE):
        x = words[at:at + _SCRAMBLE_SLICE]
        r = tmp[:x.size]
        x *= _U5
        np.left_shift(x, _U7, out=r)
        x >>= _U57
        x |= r
        x *= _U9
        if doubles:
            x >>= _U11
            # below 2**53, so exact as an int64 and as a double
            np.multiply(x.view(np.int64), _DOUBLE_SCALE, out=x.view(np.float64))


def _lay_out(
    segment: np.ndarray, step: int, first: np.ndarray, counts: np.ndarray, length: int, out: np.ndarray
) -> None:
    """Copy a segment's scrambled words (uint64 out) or doubles (float out,
    each rounded once into its type), steps step ... of every lane, to
    their places in out, run after run: step j of lane i of a run is the
    run's draw i * length + j."""
    steps = len(segment)
    if out.dtype != np.uint64:
        segment = segment.view(np.float64)
    at = 0
    for lane, count in zip(first.tolist(), counts.tolist()):
        full, rest = divmod(count, length)
        if full:
            np.copyto(out[at:at + full * length].reshape(full, length)[:, step:step + steps],
                      segment[:, lane:lane + full].T, casting="same_kind")
        if rest > step:
            k = min(steps, rest - step)
            np.copyto(out[at + full * length + step:at + full * length + step + k], segment[:k, lane + full],
                      casting="same_kind")
        at += count


def _row_runs(rows: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The runs (offsets, counts) of draws of the ascending rows of width
    draws, one per stretch of consecutive rows."""
    heads = np.r_[0, np.flatnonzero(np.diff(rows) != 1) + 1]
    lengths = np.diff(heads, append=len(rows))
    return rows[heads] * width, lengths * width


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

    def _next(self, offsets, counts, dtype) -> np.ndarray:
        """The draws of runs (see _draw), offsets counted from the current
        state, as output words (uint64), doubles (float64) or doubles
        rounded to float32, leaving the state after the last draw."""
        offsets, counts = np.asarray(offsets, dtype=np.int64), np.asarray(counts, dtype=np.int64)
        out = np.empty(int(counts.sum()), dtype=dtype)
        state = _draw(np.array(self._s, dtype=np.uint64), offsets, counts, out)
        self._s = [int(w) for w in state]
        return out

    def next_u64s(self, n: int) -> np.ndarray:
        """n successive next_u64() values as np.uint64, leaving the state
        where n next_u64() calls would."""
        return self._next([0], [n], np.uint64)

    def next_doubles(self, n: int) -> np.ndarray:
        """n successive next_double() values as float64, leaving the state
        where n next_double() calls would.

        Drawn in lanes (see the module docstring); a call costs up to about
        two milliseconds to start its lanes and a few microseconds per lane
        step, so few large calls are much cheaper than many small ones.
        """
        return self._next([0], [n], np.float64)

    def next_double_rows(self, rows, width: int, dtype=np.float64) -> np.ndarray:
        """The doubles of rows of width draws, row i being the width draws
        from draw i * width on, as one (len(rows), width) array of dtype
        float64, or float32 (each double rounded once). rows is a count
        (rows 0 ... rows - 1) or the ascending indices of the rows to draw;
        the rows between them are jumped over. The state ends after the
        last row drawn."""
        rows = np.arange(rows) if isinstance(rows, int) else np.asarray(rows, dtype=np.int64)
        if not rows.size:
            return np.empty((0, width), dtype=dtype)
        offsets, counts = _row_runs(rows, width)
        return self._next(offsets, counts, dtype).reshape(len(rows), width)

    def next_double(self) -> float:
        """Uniform in [0, 1), using the top 53 bits of one output."""
        return (self.next_u64() >> 11) * _DOUBLE_SCALE

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.next_double()
