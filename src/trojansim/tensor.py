"""Numeric foundation: tensors, layer arithmetic, fixed-point quantization.

Arithmetic contract (shared by every op here and by the naive oracles the
tests compare against):

  * Operands are converted to float64, accumulation runs in float64 in a
    fixed order (row-major over input channel, kernel row, kernel column for
    convolution; ascending input index for dense), starting from the bias.
  * float32 results are rounded once, at the end, per output element.
  * Fixed-point results are rounded half-to-even to the format's resolution
    and saturated to its representable range; saturation events are counted
    on the result tensor, never silently wrapped.
  * Batches keep the image axis last: conv2d and maxpool2d take only a batch
    (C, H, W, N) and give (O, oh, ow, N) and (C, oh, ow, N), dense takes
    only a batch (in, N) and gives (out, N), of any length N; relu and
    quantize take any shape. Each image of a batch goes through exactly the
    sequence above, so column i of a result (the values at index i of its
    last axis) is bitwise equal to the op applied to a batch of image i
    alone, and a result's saturation count is the sum over its columns. That
    sequence, the fold, defines every sum. conv2d and dense compute sums as
    BLAS matrix products, which add the terms in an order of their own, and
    keep a product's result only where a certificate proves that it has the
    fold's bits (below); every other sum is folded.
  * A certificate per output element, for float32 and for fixed-point
    batches that the batch certificate below does not cover. The fold r and
    the product s each add n terms, the bias and n - 1 products, in some
    order. Let A = |b| + sum |w| |x|, u = 2^-53, gamma_k = k u / (1 - k u)
    (Higham, Accuracy and Stability of Numerical Algorithms, secs. 3.1 and
    4.2). float32 x float32 products are exact in float64; fixed-point ones
    round (a Q16.16 one has up to 62 significant bits) and, as multiples of
    2^-2f, never underflow. Either way |r - s| <= 2 gamma_n * A, and any
    E >= (n + 4) * 2^-51 * A is twice what that and the roundings of s -+ E
    need (n < 2^25): fl(s - E) <= r <= fl(s + E).
  * One bound per window, without a second product, by Cauchy-Schwarz:
    A <= |b| + ||w||_2 ||x||_2, w the output channel's weights and x the
    element's window or column, which all the channels share. Let k = (n +
    5) * 2^-51 (exact). The kernels take E = F ||x|| + G for every channel
    of a window, with F = max_c k ||w_c|| and G = max_c k |b_c| once per
    kernel (Kernel.bound_factors), in place of the norms ||x|| of a group
    of blocks (conv2d, for their output rows at once: _window_bounds) or
    of a tile (dense: _to_bounds). Squares of float32 values are exact in
    float64, fixed-point ones within u; a squared sum adds nonnegative
    terms, so in any order and grouping it ends at least (1 -
    gamma_(n-1)) times the exact one. conv2d groups a window's squares by
    channels, then rows, then columns, adding shifted slices of the
    channel sums, so overlapping windows share partial sums; a difference
    of prefix sums would add terms of both signs, which this bound does
    not cover. Each square root, product and sum rounds once, so channel
    c's own bound fl(fl(k ||w_c||) ||x|| + fl(k |b_c|)), rounded the same
    way, is at least k (|b_c| + ||w_c|| ||x||)(1 - gamma_(2n+3)) >= (n +
    4) * 2^-51 * A, as (n + 5) gamma_(2n+3) <= 1 for n < 2^25. A max is
    exact and rounding is monotone, so F and G are at least every
    channel's factors and E at least every channel's bound: one step more,
    and E covers each channel's A. No step underflows (nonzero squares are
    at least 2^-298 or 2^-2f) or overflows (float32 squares < 2^256); a
    NaN or infinite weight or bias of any channel makes F or G, and so
    every E of the kernel, NaN or +inf.
  * The rounding test. Rounding to the output is monotone (float64 to
    float32, overflow to infinity included; fixed point v -> rint(v *
    2^f), compared before saturation), so where the two ends round to
    the same nonzero value, r rounds to it; fixed point keeps s - E for
    the finish to round and saturate as r. Two fixed-point ends past the
    same saturation limit settle the element too: r saturates there
    alike. E = 0 only where G = 0 and F ||x|| = 0, so where every bias
    and every weight or every input of the window are signed zeros, and
    so every term: the fold ends on -0.0 only when the bias and every
    term are -0.0, and s, which adds the bias last, is +0.0 when the bias
    is +0.0, as are s -+ E, so that zero stands. The other elements are
    folded: those near a rounding midpoint, every other zero (of a
    cancelling sum, of zero terms with a nonzero bound, or of a -0.0
    bias), whose sign only the fold decides, and float32 sums with a NaN
    or infinite term, which makes |b|, ||w|| or ||x|| NaN or infinite and
    E NaN or +inf (0 * inf is NaN), so that s -+ E are NaN or infinities
    of both signs, never equal. The zeros take a pass of their own, which
    float32 kernels with G >= 2^-148 skip: every E is then at least
    2^-148, and a lower end s - E that rounds to a float32 zero, |fl(s -
    E)| <= 2^-150, leaves s + E > 2^-147 - 2^-149, whose upper end, at
    least 2^-149, differs from it, so the element is flagged already.
    Each block hands the call's refold the output positions of its
    flagged elements. Once `per` of them are held, and at the end of the
    call, the refold reads their terms from the call's input (conv2d:
    each element's window; dense: its column) into the window-column
    scratch, term-major (term + 1, element), and np.add.reduce over the
    term axis, from -0.0, adds each term row to the running sums of all
    of them: the element axis is NumPy's fast axis, and every element's
    sum is its running sum (a lone element is summed beside a copy of
    itself, as np.add.reduce would sum a single column pairwise). It runs
    under the NumPy error state of the caller; the kernels turn invalid
    and overflow warnings off around their blocks, once per call. Ziv's
    strategy: a fast path, a rounding test and an exact fallback.
  * NaN. A NaN output comes only from the fold, as its bound is NaN, and the
    fold makes every NaN sum the canonical quiet NaN (positive, zero
    payload; float32 0x7FC00000): which payload IEEE arithmetic keeps
    where NaNs of different payloads or an inf - inf meet depends on the
    code path, so no other NaN leaves conv2d or dense.
  * Fixed point: a certificate per batch (_any_order_is_exact). With f
    fractional bits every value is a multiple of 2^-f, so every product and
    every sum of products and bias is a multiple of 2^-2f. If max|b| +
    max_c sum_t |w_c,t| * max|x| < 2^(52-2f) (Q16.16: 2^20), that bound
    caps every product and every partial sum of every output element, in
    whatever order and grouping they are added. Each of them is then
    k * 2^-2f with |k| < 2^53, which float64 holds exactly, so every
    multiplication and addition (fused or not) is exact and any order
    gives the same exact sum. The bound is one bit below that limit, which
    covers the rounding of the bound itself. Only the sign of a zero sum
    depends on the order: the fold ends on -0.0 only when the bias and
    every product are -0.0, while the product adds the bias last, so a
    zero sum of a -0.0 bias is refolded; with any other bias both give
    +0.0.
  * No saturation below half the range. The same bound B caps every sum
    s of a certified batch: |s| <= B. If B < 2^(int_bits-2) (Q16.16:
    2^14), half the format's range, then, rint being monotone,
    |rint(s 2^f)| <= rint(B 2^f) < 2^(int_bits-1+f), inside the raw range
    [-2^(int_bits-1+f), 2^(int_bits-1+f) - 1]: no sum saturates, and the
    finish only scales, rounds and scales back. Half the range is one bit
    of margin for the rounding of B itself, as in the exactness test.
    Every other fixed-point finish (uncertified batches, quantize) takes
    the min and max of the rounded values and counts and clips only if
    one of them lies outside the range.
  * Both certificates assume a conventional dgemm (OpenBLAS, MKL,
    Accelerate or reference BLAS), which sums plain products; none of
    them uses Strassen-like schemes, whose intermediate differences the
    bounds do not cover.
  * Every block or tile is one product of the weights, one row per output
    channel, by K-major window columns (conv2d: C*kh*kw rows, one column per
    (output row, output column, image), in that C order; output rows of all
    the batch's images while one row of them fits, else one output row of a
    run of its images) or by a tile of the batch's columns (dense). With the
    image axis last, a block's copy from the input moves runs of ow*N values
    (stride 1, every image) and its products land in out as they lie there.
    What a block holds fits SCRATCH_BYTES, counted in bytes as the code
    holds it (_footprint). Per column: its float64 window column (dense:
    the tile's float64 copy of its input, none for a certified batch), and
    per output element the float64 sum. Under the per-element certificate,
    beside the block, the float64 weights and bias, and per column also
    its bound (float64; conv2d's lies in the map of its group of blocks),
    and per output element the rounding test's upper end in the output's
    storage dtype (float32: 4 bytes) and the flag bytes of the test's
    masks, three with the zero pass and one without. The window columns
    (or the tile's copy), the sums and the rounding test's upper ends are
    three arrays per thread; conv2d's
    window bounds of a group of blocks' rows have one more, of at most a
    quarter of SCRATCH_BYTES (or one block's rows, where that is more).
    The window columns are free from a block's product to the next
    block's copy: the squares and row sums of the window bounds are made
    there, and the refold folds there, taking no more bytes than the
    blocks hold (two elements where that is more; a quarter of
    SCRATCH_BYTES for a certified dense call, which holds none). All are
    kept from call to call and grown on demand, so that a pass of many
    blocks touches no fresh pages once they have grown. Saturations are
    summed.
  * conv2d, maxpool2d, dense and relu write into a caller's `out` array
    (C-contiguous, of the result's shape and storage dtype) where one is
    given, else into a new one; relu's may hold its input, the others'
    may not overlap theirs. The result is bitwise the same either way.

This makes outputs bitwise reproducible across runs and bitwise comparable
with an independent scalar-loop implementation of the same contract.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimensionError

FLOAT32 = "float32"

# Elements per slice of the fixed-point representability check, so that the
# check's scaled and rounded temporaries stay slice-sized, not tensor-sized.
CHECK_SLICE = 8192

# Float64 scratch budget of one conv2d or dense call; models.forward_chunk
# sizes forward_batch's chunk of images by the same budget.
SCRATCH_BYTES = 1 << 20

# this thread's float64 scratch arrays of conv2d and dense, by name
_SCRATCH = threading.local()


@dataclass(frozen=True)
class FixedFormat:
    """Signed fixed-point format with int_bits.frac_bits split (e.g. Q16.16)."""

    int_bits: int
    frac_bits: int

    def __post_init__(self):
        if self.int_bits < 1 or self.frac_bits < 0:
            raise ValueError(f"bad fixed-point format Q{self.int_bits}.{self.frac_bits}")

    @property
    def resolution(self) -> float:
        return 2.0 ** -self.frac_bits

    @property
    def min_value(self) -> float:
        return -(2.0 ** (self.int_bits - 1))

    @property
    def max_value(self) -> float:
        return 2.0 ** (self.int_bits - 1) - self.resolution

    def __str__(self) -> str:
        return f"Q{self.int_bits}.{self.frac_bits}"


Q16_16 = FixedFormat(16, 16)

DType = Union[str, FixedFormat]


@dataclass(frozen=True, eq=False)
class Tensor:
    """Immutable n-dimensional array with a flat row-major payload.

    float32 tensors store float32 data; fixed-point tensors store float64
    data whose values are exact multiples of the format resolution (exact
    for int_bits + frac_bits <= 53). `saturations` counts how many elements
    saturated while producing this tensor.
    """

    shape: tuple[int, ...]
    dtype: DType
    data: np.ndarray
    saturations: int = 0

    def __post_init__(self):
        self._check_layout()
        if isinstance(self.dtype, FixedFormat):
            fmt = self.dtype
            scale = 2.0 ** fmt.frac_bits
            for start in range(0, self.data.size, CHECK_SLICE):
                scaled = self.data[start:start + CHECK_SLICE] * scale
                if not np.array_equal(scaled, np.rint(scaled)):
                    raise ValueError(f"values not representable in {fmt}")
            if self.data.size and (self.data.min() < fmt.min_value or self.data.max() > fmt.max_value):
                raise ValueError(f"values outside {fmt} range [{fmt.min_value}, {fmt.max_value}]")

    def _check_layout(self) -> None:
        """Check the shape against the flat data and freeze the data."""
        if any(d < 1 for d in self.shape):
            raise DimensionError(f"non-positive dimension in shape {self.shape}")
        n = math.prod(self.shape)
        if self.data.ndim != 1 or self.data.size != n:
            raise DimensionError(
                f"data length {self.data.size} does not match shape {self.shape} (expect {n})"
            )
        self.data.flags.writeable = False

    @classmethod
    def _built(cls, shape: tuple[int, ...], dtype: DType, data: np.ndarray, saturations: int = 0) -> "Tensor":
        """A tensor of values this module's ops made representable by
        construction (kernel outputs, reshapes, quantize): the layout is
        checked, the fixed-point value scan of direct construction is
        skipped."""
        t = object.__new__(cls)
        # field by field, as the dataclass's __init__ sets them, so that the
        # instance keeps the class's shared-key dict (vars(t).update makes
        # it a dict of its own, 80 bytes more per tensor)
        object.__setattr__(t, "shape", shape)
        object.__setattr__(t, "dtype", dtype)
        object.__setattr__(t, "data", data)
        object.__setattr__(t, "saturations", saturations)
        t._check_layout()
        return t

    @classmethod
    def from_array(cls, values, dtype: DType = FLOAT32, saturations: int = 0) -> "Tensor":
        arr = np.asarray(values)
        shape = arr.shape if arr.shape else (1,)
        flat = np.ascontiguousarray(arr, dtype=_storage(dtype)).reshape(-1).copy()
        return cls(tuple(shape), dtype, flat, saturations)

    @property
    def array(self) -> np.ndarray:
        """Read-only view of the data in this tensor's shape."""
        return self.data.reshape(self.shape)

    @property
    def size(self) -> int:
        return self.data.size

    def reshaped(self, shape: Sequence[int]) -> "Tensor":
        if math.prod(shape) != self.size:
            raise DimensionError(f"cannot reshape {self.shape} to {tuple(shape)}")
        return Tensor._built(tuple(shape), self.dtype, self.data, self.saturations)


@dataclass(frozen=True, eq=False)
class Kernel:
    """Layer parameters: 4-D weights for conv (out, in, kh, kw) or 2-D for
    dense (out, in), plus a 1-D bias of length out."""

    weights: Tensor
    bias: Tensor

    def __post_init__(self):
        if len(self.weights.shape) not in (2, 4):
            raise DimensionError(f"kernel weights must be 2-D or 4-D, got {self.weights.shape}")
        if len(self.bias.shape) != 1:
            raise DimensionError(f"kernel bias must be 1-D, got {self.bias.shape}")
        if self.bias.shape[0] != self.weights.shape[0]:
            raise DimensionError(
                f"bias length {self.bias.shape[0]} does not match output count {self.weights.shape[0]}"
            )
        if self.weights.dtype != self.bias.dtype:
            raise ValueError("kernel weights and bias must share one dtype")

    @property
    def dtype(self) -> DType:
        return self.weights.dtype

    @cached_property
    def weight_rows(self) -> np.ndarray:
        """The weights as float64, one read-only row per output channel: the
        weight operand of every conv2d and dense product and fold."""
        w_rows = self.weights.array.reshape(self.weights.shape[0], -1).astype(np.float64, copy=False)
        w_rows.flags.writeable = False
        return w_rows

    @cached_property
    def bias_values(self) -> np.ndarray:
        """The bias as read-only float64: the first term of every fold and
        the addend of every product."""
        bias = self.bias.array.astype(np.float64, copy=False)
        bias.flags.writeable = False
        return bias

    @cached_property
    def minus_zero_bias(self) -> np.ndarray | None:
        """Which output channels' bias is -0.0, as a read-only bool mask, or
        None where none is: only the fold signs their zero sums
        (_round_sums)."""
        bias = self.bias_values
        minus = np.signbit(bias) & (bias == 0)
        minus.flags.writeable = False
        return minus if minus.any() else None

    @cached_property
    def bound_factors(self) -> tuple[float, float]:
        """The factors (F, G) of the per-window bound of the module
        docstring: F = max_c k ||w_c||_2 and G = max_c k |b_c| over the
        output channels c, NaN where any channel's is."""
        w_rows = self.weight_rows
        k = (w_rows.shape[1] + 6) * 2.0 ** -51
        norms = np.sqrt(np.einsum("ij,ij->i", w_rows, w_rows))
        return float(np.max(norms * k)), float(np.max(np.abs(self.bias_values) * k))

    @cached_property
    def zero_pass(self) -> bool:
        """Whether the rounding test runs its zero pass (_round_sums): for
        fixed point always, for float32 only where G < 2^-148, as every
        bound of at least 2^-148 flags a zero lower end already (module
        docstring)."""
        return self.dtype != FLOAT32 or self.bound_factors[1] < 2.0 ** -148

    @cached_property
    def max_row_magnitude(self) -> float:
        """max_c sum_t |w_c,t| over the output channels c, the weights'
        part of the fixed-point certificate's bound (_any_order_is_exact)."""
        return float(np.abs(self.weights.data.reshape(self.weights.shape[0], -1)).sum(axis=1).max())


def _storage(dtype: DType) -> type:
    """NumPy type a tensor of this dtype stores its data in."""
    return np.float32 if dtype == FLOAT32 else np.float64


def _finish(acc: np.ndarray, fmt: FixedFormat, out: np.ndarray, bound: float = math.inf) -> int:
    """Round a float64 fixed-point accumulator into out (acc's shape),
    returning how many elements saturated.

    acc is scaled and rounded in place: callers hand over scratch they own
    and do not read afterwards. out may be acc itself. bound caps |acc|:
    below half the format's range nothing can saturate (module docstring),
    else the rounded values are counted and clipped only if their min or
    max lies past the range.
    """
    scale = 2.0 ** fmt.frac_bits
    np.multiply(acc, scale, out=acc)
    np.rint(acc, out=acc)
    saturated = 0
    if bound >= 2.0 ** (fmt.int_bits - 2):
        lo = np.rint(fmt.min_value * scale)
        hi = np.rint(fmt.max_value * scale)
        if acc.min() < lo or acc.max() > hi:
            saturated = int(np.count_nonzero(acc < lo)) + int(np.count_nonzero(acc > hi))
            np.clip(acc, lo, hi, out=acc)
    np.multiply(acc, fmt.resolution, out=out)
    return saturated


def _scratch(name: str, size: int, dtype: type = np.float64) -> np.ndarray:
    """size elements of dtype at the start of this thread's float64
    scratch array `name`, which is kept across calls and grown on demand:
    its contents are whatever the last call left there."""
    words = -(-size * np.dtype(dtype).itemsize // 8)
    arrays = vars(_SCRATCH)
    if name not in arrays or arrays[name].size < words:
        arrays.pop(name, None)  # freed before its successor is made
        arrays[name] = np.empty(words)
    return arrays[name][:words].view(dtype)[:size]


def _output(out: np.ndarray | None, shape: tuple[int, ...], dtype: DType, input: np.ndarray | None) -> np.ndarray:
    """A kernel's output array: a new one when out is None, else out, which
    must be writeable and C-contiguous, of the result's shape and storage
    dtype, and must not overlap `input` (None: it may)."""
    store = _storage(dtype)
    if out is None:
        return np.empty(shape, dtype=store)
    if out.shape != shape:
        raise DimensionError(f"out is {out.shape}, the result is {shape}")
    if out.dtype != store or not (out.flags.c_contiguous and out.flags.writeable):
        raise ValueError(f"out must be a writeable C-contiguous {np.dtype(store)} array")
    if input is not None and np.may_share_memory(out, input):
        raise ValueError("out overlaps the input")
    return out


def _footprint(kernel: Kernel, factors: tuple[float, float] | None, copied: int) -> tuple[int, int]:
    """The bytes a conv2d block or dense tile holds (module docstring):
    beside it, and per column, `copied` float64 input terms (conv2d: the
    window column; dense: the tile's copy of its input, if any) and what
    the sums take. A batch that _any_order_is_exact certifies (factors
    None) takes one float64 sum per output element. Otherwise the float64
    weights and bias are held beside the block, each column has its bound
    (float64), and each output element its float64 sum, the rounding
    test's upper end in the output's storage dtype and the test's flag
    bytes: three with the zero pass, one without (Kernel.zero_pass)."""
    out_ch = kernel.weights.shape[0]
    if factors is None:
        return 0, 8 * (copied + out_ch)
    upper = np.dtype(_storage(kernel.dtype)).itemsize
    flags = 3 if kernel.zero_pass else 1
    return 8 * (kernel.weight_rows.size + out_ch), 8 * (copied + 1) + out_ch * (8 + upper + flags)


def _tile_length(n: int, fixed: int, per_image: int) -> int:
    """Images per dense tile: as many as keep `fixed` bytes plus
    `per_image` per image within SCRATCH_BYTES; at least one, at most n."""
    return max(1, min(n, (SCRATCH_BYTES - fixed) // per_image))


def _any_order_is_exact(x: np.ndarray, kernel: Kernel) -> float | None:
    """The fixed-point certificate of the module docstring: B = max|b| +
    max_c sum_t |w_c,t| * max|x| if it proves every output element's sum
    of bias and w_c x window products, for any window of x, exact in
    float64 in any order; else None. Fixed-point data are finite by
    construction."""
    bias = kernel.bias.data
    bound = max(bias.max(), -bias.min()) + kernel.max_row_magnitude * max(x.max(), -x.min())
    return float(bound) if bound < 2.0 ** (52 - 2 * kernel.dtype.frac_bits) else None


def _sum_products(a: np.ndarray, b: np.ndarray, bias: np.ndarray, out: np.ndarray) -> None:
    """out = a @ b + bias on BLAS, summed in whatever order it picks: the
    one matrix product of conv2d and dense. A float32 sum it makes
    non-finite is refolded, so the kernels run it with invalid and
    overflow warnings off and leave them to the fold."""
    np.matmul(a, b, out=out)
    out += bias


def _operands(kernel: Kernel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple[float, float] | None, float]:
    """The kernel's weight_rows, bias_values, its bound_factors and a cap on
    every sum's magnitude for the finish: for a fixed-point batch x that
    _any_order_is_exact certifies, None and its bound B; otherwise the
    factors and infinity."""
    w_rows = kernel.weight_rows
    bias = kernel.bias_values
    bound = None if kernel.dtype == FLOAT32 else _any_order_is_exact(x, kernel)
    if bound is None:
        return w_rows, bias, kernel.bound_factors, math.inf
    return w_rows, bias, None, bound


def _to_bounds(norms: np.ndarray, factors: tuple[float, float]) -> None:
    """The bound F ||x|| + G of the module docstring, in place of the
    input 2-norms ||x||: a NaN or infinite factor or norm makes it NaN or
    +inf (0 * inf is NaN), which flags the element, so the kernels run
    this with invalid warnings off."""
    np.multiply(norms, factors[0], out=norms)
    np.add(norms, factors[1], out=norms)


def _window_bounds(x: np.ndarray, kh: int, kw: int, stride: int, factors: tuple[float, float]) -> np.ndarray:
    """The bound of every kh x kw window, at the stride, of the batch x
    (C, H, W, N) under factors (F, G) (_to_bounds), as an (oh, ow, N)
    float64 view of this thread's bound scratch of oh W N values (module
    docstring). The squares are summed over channels into H rows of W N
    sums and adding kh of those rows, shifted by one input row at a time,
    gives every output row's window rows summed, both in the
    window-column scratch, which no block uses between its product and
    the next block's copy. Adding kw slices of that run shifted by
    multiples of N then sums the windows' columns into the bound scratch,
    and the square roots and the bounds follow there. Sums at starts whose
    window would wrap past a row's end are made too, but never read."""
    _, h, w, n = x.shape
    oh, ow = (h - kh) // stride + 1, (w - kw) // stride + 1
    size, down = h * w * n, oh * w * n
    work = _scratch("terms", size + down)
    squares = np.einsum("chwn,chwn->hwn", x, x, dtype=np.float64, out=work[:size].reshape(h, w, n)).reshape(h, -1)
    rows = work[size:].reshape(oh, -1)
    last = stride * (oh - 1) + 1
    np.copyto(rows, squares[:last:stride])
    for u in range(1, kh):
        np.add(rows, squares[u:u + last:stride], out=rows)
    rows = rows.reshape(-1)
    buf = _scratch("bounds", down)
    norms = buf[:down - (kw - 1) * n]
    np.copyto(norms, rows[:norms.size])
    for v in range(1, kw):
        np.add(norms, rows[v * n:v * n + norms.size], out=norms)
    np.sqrt(norms, out=norms)
    _to_bounds(norms, factors)
    return buf.reshape(oh, w, n)[:, :stride * (ow - 1) + 1:stride]


def _fold_elements(dtype: DType, dst: np.ndarray, w_rows: np.ndarray, bias: np.ndarray, at: np.ndarray,
                   x: np.ndarray, offsets: np.ndarray, starts: np.ndarray) -> int:
    """Fold the elements at C-order indices `at` of dst, a conv2d or dense
    output (channel first), in the pinned order, returning the
    saturations: bias[c], then w_rows[c, t] times input t of the element
    for t = 0, 1, ..., where input t of element j lies at flat index
    offsets[t, 0] + starts[j] of x, for j < at.size, and starts has at
    least two entries, the further one a copy of starts[0]. The terms are
    read, term-major (term + 1, element), into this thread's window-column
    scratch ("terms"), beside their flat indices, which the weights of
    their channels then take the place of, and their inputs as x stores
    them, and each term row is added to the running sums of all elements
    at once (np.add.reduce over the term axis runs row after row; over a
    single column it would sum pairwise, hence the copy), starting from
    -0.0, the identity that keeps a -0.0 bias. The float64 sums go into
    dst, a NaN one as the canonical quiet NaN, and fixed-point ones rounded
    and saturated."""
    depth, width = offsets.shape[0], starts.size
    cells = depth * width
    buf = _scratch("terms", cells + (depth + 1) * width + -(-cells * x.itemsize // 8))
    index = buf[:cells].view(np.intp).reshape(depth, width)
    terms = buf[cells:cells + (depth + 1) * width].reshape(depth + 1, width)
    inputs = buf[cells + (depth + 1) * width:].view(x.dtype)[:cells].reshape(depth, width)
    np.add(offsets, starts, out=index)
    np.take(x.reshape(-1), index, out=inputs, mode="clip")
    # then the weight rows of the elements' channels in the indices' place
    c = at // (dst.size // w_rows.shape[0])
    if width > at.size:
        c = c[[0, 0]]
    weights = buf[:cells].reshape(width, depth)
    np.take(w_rows, c, axis=0, out=weights, mode="clip")
    np.take(bias, c, out=terms[0], mode="clip")
    np.multiply(inputs, weights.T, out=terms[1:])
    sums = np.add.reduce(terms, axis=0, initial=-0.0)[:at.size]
    # which payload a NaN sum keeps depends on NumPy's loop
    sums[np.isnan(sums)] = np.nan
    saturations = 0 if dtype == FLOAT32 else _finish(sums, dtype, sums)
    dst.reshape(-1)[at] = sums
    return saturations


class _Refold:
    """The elements of one conv2d or dense call that the certificates leave
    to the fold: each block hands over their output positions (gather),
    and they are folded together, by _fold_elements, once `per` of them
    are held and at the end of the call (flush), under the NumPy error
    state the call was made in, as the kernels turn invalid and overflow
    warnings off around their blocks. A fold reads the elements' terms
    from the call's input x (conv2d: each element's window; dense: its
    column) into the window-column scratch, which no block uses between
    its rounding and the next block's copy: `room`, the bytes the call's
    blocks or tiles hold there (none for a certified dense call: a
    quarter of SCRATCH_BYTES), sets `per`, so that a fold fits (or two
    elements, where that is more)."""

    def __init__(self, kernel: Kernel, out: np.ndarray, x: np.ndarray, room: int, stride: int = 1):
        self.dtype, self.w_rows, self.bias, self.out = kernel.dtype, kernel.weight_rows, kernel.bias_values, out
        self.x, self.window, self.stride = x, kernel.weights.shape[2:], stride
        # elements per output channel
        self.plane = out.size // out.shape[0]
        # per element, beside a word of rounding: per term an index, an input
        # and a float64 term, and its float64 bias
        depth = self.w_rows.shape[1]
        self.per = max(1, min(out.size, ((room or SCRATCH_BYTES // 4) - 8) // ((16 + x.itemsize) * depth + 8)))
        # the caller's modes; an errstate that names no callback keeps the caller's
        self.state = np.geterr()
        self.at, self.offsets, self.count, self.saturations = None, None, 0, 0

    def gather(self, flat: np.ndarray, columns: int, first: int, run: int | None = None) -> None:
        """Take over the elements at C-order indices `flat` of a block's
        (channel, column) sums of `columns` columns. Column j is at index
        first + j of its channel's plane of out, or, for a block of runs of
        `run` columns one image row (out's last axis) apart, at first +
        (j // run) N + j % run."""
        while flat.size:
            if self.at is None:
                self.at = np.empty(self.per, dtype=np.intp)
            k = self.count
            part, flat = flat[:self.per - k], flat[self.per - k:]
            self.count += part.size
            c, j = np.divmod(part, columns)
            if run is not None:
                j = j // run * self.out.shape[-1] + j % run
            at = np.multiply(c, self.plane, out=self.at[k:self.count])
            at += j
            at += first
            if self.count == self.per:
                self.flush()

    def flush(self) -> None:
        """Fold the elements held so far into out, adding their
        saturations."""
        if not self.count:
            return
        x, depth = self.x, self.w_rows.shape[1]
        at = self.at[:self.count]
        # each element's first input in x (a lone one's twice), and each
        # term's offset from it
        start = at % self.plane if self.count > 1 else (at % self.plane)[[0, 0]]
        if x.ndim == 4:
            (c, h, w, n), (kh, kw), ow = x.shape, self.window, self.out.shape[2]
            r, rest = np.divmod(start, ow * n)
            col, i = np.divmod(rest, n)
            start = (r * w + col) * (self.stride * n) + i
        if self.offsets is None:
            if x.ndim == 2:
                self.offsets = np.arange(depth)[:, None] * x.shape[1]
            else:
                rows = (np.arange(c)[:, None, None] * h + np.arange(kh)[:, None]) * w + np.arange(kw)
                self.offsets = rows.reshape(-1, 1) * n
        with np.errstate(**self.state):
            self.saturations += _fold_elements(self.dtype, self.out, self.w_rows, self.bias, at, x, self.offsets,
                                               start)
        self.count = 0


def _flag_zeros(flags: np.ndarray, lo: np.ndarray, bounds: np.ndarray, minus: np.ndarray | None) -> None:
    """The zero pass of the rounding test: flag the zero lower ends lo
    (channel, *element axes) whose sign only the fold decides, all but
    the zeros of all-zero terms and bias (bound 0) of a bias that is not
    -0.0 (minus, broadcast over the elements, marks the -0.0 ones): s adds
    the bias last, and +0.0 + +-0.0 is +0.0."""
    zeros = lo == 0
    if zeros.any():
        folds = bounds != 0
        if minus is not None:
            folds = folds | minus
        zeros &= folds
        flags |= zeros


def _round_sums(kernel: Kernel, refold: _Refold, sums: np.ndarray, out: np.ndarray, cap: float,
                bounds: np.ndarray | None, first: int, run: int | None = None) -> int:
    """Round a block's BLAS sums (channel, *element axes) into out, a view
    of the call's output of their shape, returning the saturations, and
    hand the positions of the elements left to the fold to refold, with
    first and run as refold.gather takes them. Certified fixed-point sums
    (bounds None) are exact: all are rounded, and saturated unless their
    cap (from _operands) proves that none can be, and the zeros of a -0.0
    bias are refolded for their sign. Otherwise bounds (*element axes)
    holds each column's bound, shared by its channels, and the
    per-element certificate of the module docstring runs: an element it
    settles keeps s - bound (float32: rounded; fixed point: rounded and
    saturated by the finish), the rest are refolded. Run with invalid and
    overflow warnings off."""
    minus = kernel.minus_zero_bias
    if minus is not None:
        minus = minus.reshape((-1,) + (1,) * (out.ndim - 1))
    if bounds is None:
        zeros = None if minus is None else np.flatnonzero((sums == 0) & minus)
        saturations = _finish(sums, kernel.dtype, out, cap)
        if zeros is not None:
            refold.gather(zeros, out[0].size, first, run)
        return saturations
    hi = _scratch("hi", out.size, out.dtype).reshape(out.shape)
    # computed in float64; a float32 out and hi round on output
    np.subtract(sums, bounds, out=out)
    np.add(sums, bounds, out=hi)
    lo = out
    if kernel.dtype != FLOAT32:
        # rint(v * 2^f) before the clip, out keeping s - E for _finish; an end
        # past the range counts as one unit past it, so two ends past the same
        # limit settle the element and its saturation
        scale = 2.0 ** kernel.dtype.frac_bits
        limits = np.rint(kernel.dtype.min_value * scale) - 1, np.rint(kernel.dtype.max_value * scale) + 1
        lo = np.clip(np.rint(np.multiply(out, scale, out=sums), out=sums), *limits, out=sums)
        np.clip(np.rint(np.multiply(hi, scale, out=hi), out=hi), *limits, out=hi)
    flags = hi != lo
    if kernel.zero_pass:
        _flag_zeros(flags, lo, bounds, minus)
    saturations = 0
    flagged = np.count_nonzero(flags)
    if kernel.dtype != FLOAT32:
        # the refold finishes and counts its own elements
        if flagged:
            out[flags] = 0
        saturations = _finish(out, kernel.dtype, out)
    if flagged:
        refold.gather(np.flatnonzero(flags), out[0].size, first, run)
    return saturations


def _product_block(n: int, oh: int, ow: int, fixed: int, per_column: int) -> tuple[int, int]:
    """Images and output rows per conv2d product block: as many columns (one
    per output position of an image) as keep `fixed` bytes plus
    `per_column` per column within SCRATCH_BYTES. Rows of all n images
    while one row of them fits, the rows split evenly into blocks; else one
    row of the images split evenly into blocks of at least one image."""
    columns = (SCRATCH_BYTES - fixed) // per_column
    if columns >= ow * n:
        blocks = -(-oh // (columns // (ow * n)))
        return n, -(-oh // blocks)
    blocks = -(-n // max(1, columns // ow))
    return -(-n // blocks), 1


def _conv2d_products(x: np.ndarray, kernel: Kernel, stride: int, out: np.ndarray) -> int:
    """conv2d of the batch x into out on BLAS, returning the saturations:
    blocks of output rows of a run of images (_product_block), one product
    each, rounded by _round_sums straight into out, with their windows'
    bounds unless _any_order_is_exact certifies the batch. The bounds are
    taken for a group of whole blocks' rows at a time (_window_bounds, on
    the input rows they read, after the group's first product), as many
    as fit a quarter of SCRATCH_BYTES, at least one block's, and each
    block reads its slice of them. Its elements left to the fold are
    folded once per call (_Refold)."""
    _, h, w, n = x.shape
    out_ch, _, kh, kw = kernel.weights.shape
    oh, ow = out.shape[1:3]
    w_rows, bias, factors, cap = _operands(kernel, x)
    depth = w_rows.shape[1]
    # windows[ci, u, v, r, c, i] is term (ci, u, v) of output (r, c) of image i
    windows = sliding_window_view(x, (kh, kw), axis=(1, 2))[:, ::stride, ::stride].transpose(0, 4, 5, 1, 2, 3)
    images, rows = _product_block(n, oh, ow, *_footprint(kernel, factors, depth))
    columns = rows * ow * images
    acc_buf = _scratch("acc", out_ch * columns)
    if factors is not None:
        # output rows whose W images bounds fit a quarter of the budget
        group = rows * max(1, SCRATCH_BYTES // 32 // (w * images) // rows)
    bounds = None
    refold = _Refold(kernel, out, x, 8 * depth * columns, stride)
    saturations = 0
    with np.errstate(invalid="ignore", over="ignore"):
        for start in range(0, n, images):
            for top in range(0, oh, rows):
                # runs of ow m contiguous values at stride 1 when m is every image
                block = windows[:, :, :, top:top + rows, :, start:start + images]
                r, m = block.shape[3], block.shape[5]
                # fetched per block: the window bounds and the refold work there too
                cols = _scratch("terms", depth * r * ow * m).reshape(block.shape)
                np.copyto(cols, block)
                cols = cols.reshape(depth, -1)
                acc = acc_buf[:out_ch * cols.shape[1]].reshape(out_ch, -1)
                _sum_products(w_rows, cols, bias[:, None], acc)
                if factors is not None:
                    first = top % group
                    if first == 0:
                        span = min(group, oh - top)
                        slab = x[:, top * stride:(top + span - 1) * stride + kh, :, start:start + m]
                        group_bounds = _window_bounds(slab, kh, kw, stride, factors)
                    bounds = group_bounds[first:first + r]
                saturations += _round_sums(kernel, refold, acc.reshape(-1, r, ow, m),
                                           out[:, top:top + r, :, start:start + m], cap, bounds,
                                           top * ow * n + start, None if m == n else m)
    refold.flush()
    return saturations + refold.saturations


def _dense_products(x: np.ndarray, kernel: Kernel, out: np.ndarray) -> int:
    """dense of the batch x into out on BLAS, returning the saturations:
    tiles of images (columns), one product each, rounded by _round_sums. A
    tile of a batch that _any_order_is_exact certifies is rounded in its
    columns of out; any other takes a float64 copy of its columns and
    their bounds, from the copy's column norms (_to_bounds). The elements
    left to the fold are folded once per call (_Refold)."""
    m, n = kernel.weights.shape
    images = x.shape[1]
    w_rows, bias, factors, cap = _operands(kernel, x)
    tile = _tile_length(images, *_footprint(kernel, factors, 0 if factors is None else n))
    refold = _Refold(kernel, out, x, 0 if factors is None else 8 * n * tile)
    saturations = 0
    with np.errstate(invalid="ignore", over="ignore"):
        if factors is None:
            for start in range(0, images, tile):
                acc, xs = out[:, start:start + tile], x[:, start:start + tile]
                _sum_products(w_rows, xs, bias[:, None], acc)
                saturations += _round_sums(kernel, refold, acc, acc, cap, None, start)
        else:
            acc_buf, bounds_buf = _scratch("acc", m * tile), np.empty(tile)
            for start in range(0, images, tile):
                t = min(tile, images - start)
                # fetched per tile, as the refold works there too
                xs = _scratch("terms", n * t).reshape(n, t)
                np.copyto(xs, x[:, start:start + t])
                acc = acc_buf[:m * t].reshape(m, t)
                _sum_products(w_rows, xs, bias[:, None], acc)
                bounds = np.sqrt(np.einsum("ij,ij->j", xs, xs, out=bounds_buf[:t]), out=bounds_buf[:t])
                _to_bounds(bounds, factors)
                saturations += _round_sums(kernel, refold, acc, out[:, start:start + t], cap, bounds, start)
    refold.flush()
    return saturations + refold.saturations


def _check_same_dtype(a: DType, b: DType, what: str) -> None:
    if a != b:
        raise ValueError(f"{what}: dtype mismatch ({a} vs {b})")


def conv2d(input: Tensor, kernel: Kernel, stride: int = 1, out: np.ndarray | None = None) -> Tensor:
    """Valid (unpadded) 2-D convolution of every image of a (C, H, W, N)
    batch, giving (O, oh, ow, N), into out if given (module docstring)."""
    if len(input.shape) != 4:
        raise DimensionError(f"conv2d input must be (C, H, W, N), got {input.shape}")
    if len(kernel.weights.shape) != 4:
        raise DimensionError(f"conv2d kernel must be 4-D, got {kernel.weights.shape}")
    if stride < 1:
        raise ValueError(f"stride must be positive, got {stride}")
    c, h, w, n = input.shape
    out_ch, in_ch, kh, kw = kernel.weights.shape
    if in_ch != c:
        raise DimensionError(
            f"input channels {input.shape} do not match kernel {kernel.weights.shape}"
        )
    if kh > h or kw > w:
        raise DimensionError(
            f"kernel {kernel.weights.shape} larger than input {input.shape}"
        )
    _check_same_dtype(input.dtype, kernel.dtype, "conv2d")

    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    x = input.array
    out = _output(out, (out_ch, oh, ow, n), input.dtype, x)
    saturations = _conv2d_products(x, kernel, stride, out)
    return Tensor._built(out.shape, input.dtype, out.reshape(-1), saturations)


def maxpool2d(input: Tensor, window: int, stride: int, out: np.ndarray | None = None) -> Tensor:
    """Max pooling over square windows of every image of a (C, H, W, N)
    batch, giving (C, oh, ow, N), into out if given (module docstring)."""
    if len(input.shape) != 4:
        raise DimensionError(f"maxpool2d input must be (C, H, W, N), got {input.shape}")
    if window < 1 or stride < 1:
        raise ValueError(f"window and stride must be positive, got {window}, {stride}")
    c, h, w, n = input.shape
    if window > h or window > w:
        raise DimensionError(f"window {window} larger than input {input.shape}")
    oh = (h - window) // stride + 1
    ow = (w - window) // stride + 1
    x = input.array
    out = _output(out, (c, oh, ow, n), input.dtype, x)
    for u in range(window):
        for v in range(window):
            # runs of N values: one position of every image
            win = x[:, u:u + stride * oh:stride, v:v + stride * ow:stride]
            if u == v == 0:
                np.copyto(out, win)
            else:
                np.maximum(out, win, out=out)
    # max never rounds or leaves the representable set, so dtype carries over
    return Tensor._built(out.shape, input.dtype, out.reshape(-1))


def dense(input: Tensor, kernel: Kernel, out: np.ndarray | None = None) -> Tensor:
    """Fully connected layer: out[i] = sum_j W[i][j] * in[j] + bias[i], on
    every column of an (in, N) batch, giving (out, N), into out if given
    (module docstring)."""
    if len(input.shape) != 2:
        raise DimensionError(f"dense input must be (in, N), got {input.shape}")
    if len(kernel.weights.shape) != 2:
        raise DimensionError(f"dense kernel must be 2-D, got {kernel.weights.shape}")
    m, n = kernel.weights.shape
    if input.shape[0] != n:
        raise DimensionError(
            f"input length {input.shape[0]} does not match kernel columns {kernel.weights.shape}"
        )
    _check_same_dtype(input.dtype, kernel.dtype, "dense")
    x = input.array
    out = _output(out, (m, x.shape[1]), input.dtype, x)
    saturations = _dense_products(x, kernel, out)
    return Tensor._built(out.shape, input.dtype, out.reshape(-1), saturations)


def relu(input: Tensor, out: np.ndarray | None = None) -> Tensor:
    """Elementwise max(0, x); exact in every dtype and any shape. out, if
    given, may be the input's own buffer (module docstring)."""
    out = _output(out, input.shape, input.dtype, None).reshape(-1)
    np.maximum(input.data, np.zeros((), dtype=input.data.dtype), out=out)
    return Tensor._built(input.shape, input.dtype, out)


def quantize(input: Tensor, fmt: FixedFormat) -> Tensor:
    """Round to the nearest representable fixed-point value (half to even),
    saturating out-of-range values, infinities included, and counting them
    on the result. NaN has no fixed-point value."""
    acc = input.data.astype(np.float64)
    if np.isnan(acc).any():
        raise ValueError(f"values not representable in {fmt}")
    return Tensor._built(input.shape, fmt, acc, _finish(acc, fmt, acc))
