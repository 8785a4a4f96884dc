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
  * conv2d and maxpool2d take only a batch (N, C, H, W) and dense only a
    batch (N, in), of any length N; relu and quantize take any shape. Each
    image of a batch goes through exactly the sequence above, so row i of a
    result is bitwise equal to the op applied to a batch of image i alone,
    and a result's saturation count is the sum over its rows. Sums are
    folded one term at a time across a block of images; matmul, einsum and
    tensordot reorder the terms, so they are used only where the order
    provably cannot change a bit (next point).
  * A fixed-point batch may be summed as one matrix product when a
    certificate (_any_order_is_exact) holds. With f fractional bits every
    value is a multiple of 2^-f, so every product and every sum of products
    and bias is a multiple of 2^-2f. If max|b| + max_c sum_t |w_c,t| * max|x|
    < 2^(52-2f) (Q16.16: 2^20), that bound caps every product and every
    partial sum of every output element, in whatever order and grouping
    they are added. Each of them is then k * 2^-2f with |k| < 2^53, which
    float64 holds exactly, so every multiplication and addition (fused or
    not) is exact and any order gives the same exact sum. The bound is one
    bit below that limit, which covers the rounding of the bound itself.
    No bias element may be -0.0: the fold ends on -0.0 only when the bias
    and every product are -0.0, while a product that starts from +0.0 and
    adds the bias after ends on +0.0. This assumes a conventional dgemm
    (OpenBLAS, MKL, Accelerate or reference BLAS), which sums plain
    products; none of them uses Strassen-like schemes, whose intermediate
    differences the bound does not cover. float32 batches and uncertified
    fixed-point batches are folded.
  * conv2d folds the batch in blocks of images x output channels. A block
    holds enough images that one weight scales a window row of at least
    half NumPy's ufunc buffer (row_images): NumPy buffers a broadcast
    multiply whose contiguous operand is shorter than a third of that
    buffer, which costs several times more per element. The rest of
    SCRATCH_BYTES, after the float64 weights copy and the block's window
    row, sets the output channels per block (an accumulator and a product
    each), split evenly across the channel blocks. dense splits the batch
    into tiles whose float64 scratch (weights copy plus accumulator,
    product buffer and input column per image) fits SCRATCH_BYTES. Every
    element is folded bias first, then term by term in the order
    above, and rounded once; each block or tile is rounded straight into
    its slice of one output array of the stored dtype, and the blocks'
    saturations are summed. A certified conv2d multiplies the weights, one
    row per output channel, by K-major window columns (C*kh*kw rows, one
    column per output element of a block of images), in blocks of images
    whose columns and product fit SCRATCH_BYTES; a certified dense
    multiplies tiles of the batch straight into the output.

This makes outputs bitwise reproducible across runs and bitwise comparable
with an independent scalar-loop implementation of the same contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimensionError

FLOAT32 = "float32"

# Elements per slice of the fixed-point representability check, so that the
# check's scaled and rounded temporaries stay slice-sized, not tensor-sized.
CHECK_SLICE = 8192

# Float64 scratch budget of one conv2d or dense call; models.forward_stages
# bounds each stage chunk's activations by the same budget.
SCRATCH_BYTES = 1 << 20


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
        construction (kernel outputs, reshapes, batches stacked from checked
        tensors): the layout is checked, the fixed-point value scan of
        direct construction is skipped."""
        t = object.__new__(cls)
        vars(t).update(shape=shape, dtype=dtype, data=data, saturations=saturations)
        t._check_layout()
        return t

    @classmethod
    def from_array(cls, values, dtype: DType = FLOAT32, saturations: int = 0) -> "Tensor":
        arr = np.asarray(values)
        shape = arr.shape if arr.shape else (1,)
        flat = np.ascontiguousarray(arr, dtype=_storage(dtype)).reshape(-1).copy()
        return cls(tuple(shape), dtype, flat, saturations)

    @classmethod
    def zeros(cls, shape: Sequence[int], dtype: DType = FLOAT32) -> "Tensor":
        return cls(tuple(shape), dtype, np.zeros(math.prod(shape), dtype=_storage(dtype)))

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


def bitwise_equal(a: Tensor, b: Tensor) -> bool:
    """Same shape, dtype and bytes: -0.0 and +0.0 differ, as do NaNs of
    different payloads."""
    return (
        a.shape == b.shape
        and a.dtype == b.dtype
        and a.data.dtype == b.data.dtype
        and a.data.tobytes() == b.data.tobytes()
    )


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


def _storage(dtype: DType) -> type:
    """NumPy type a tensor of this dtype stores its data in."""
    return np.float32 if dtype == FLOAT32 else np.float64


def _finish(acc: np.ndarray, dtype: DType, out: np.ndarray) -> int:
    """Round a float64 accumulator into out (the dtype's storage, acc's
    shape), returning how many elements saturated.

    The fixed-point finish scales and rounds acc in place: callers hand over
    scratch they own and do not read afterwards. out may be acc itself.
    """
    if dtype == FLOAT32:
        np.copyto(out, acc, casting="same_kind")
        return 0
    fmt = dtype
    scale = 2.0 ** fmt.frac_bits
    lo = np.rint(fmt.min_value * scale)
    hi = np.rint(fmt.max_value * scale)
    np.multiply(acc, scale, out=acc)
    np.rint(acc, out=acc)
    saturated = int(np.count_nonzero(acc < lo)) + int(np.count_nonzero(acc > hi))
    np.clip(acc, lo, hi, out=acc)
    np.multiply(acc, fmt.resolution, out=out)
    return saturated


def _tile_length(n: int, fixed: int, per_image: int) -> int:
    """Images per dense tile: as many as keep `fixed` float64 values plus
    `per_image` per image within SCRATCH_BYTES; at least one, at most n."""
    return max(1, min(n, (SCRATCH_BYTES // 8 - fixed) // per_image))


def row_images(window: int) -> int:
    """Images whose output windows of `window` elements each make a conv2d
    multiply row of at least half NumPy's ufunc buffer, too long for NumPy
    to buffer the broadcast multiply (see the module docstring)."""
    return -(-(np.getbufsize() // 2) // window)


def _conv_block(n: int, out_ch: int, fixed: int, window: int) -> tuple[int, int]:
    """Images and output channels per conv2d block. Images: enough for a
    full multiply row (row_images), fewer only if the budget cannot hold
    even one channel's accumulator and product for them. Channels: as many
    as the rest of SCRATCH_BYTES holds for an accumulator and a product
    each, split evenly across the channel blocks. `fixed` counts the float64
    weights copy and bias, `window` one image's output window."""
    free = SCRATCH_BYTES // 8 - fixed
    images = max(1, min(n, row_images(window), free // (3 * window)))
    row = images * window
    blocks = -(-out_ch // max(1, min(out_ch, (free - row) // (2 * row))))
    return images, -(-out_ch // blocks)


def _any_order_is_exact(dtype: DType, x: np.ndarray, w_rows: np.ndarray, bias: np.ndarray) -> bool:
    """The certificate of the module docstring: every output element's sum
    of bias and w_rows[c] x window products, for any window of x, is exact
    in float64 in any order. Fixed-point data are finite by construction."""
    if not isinstance(dtype, FixedFormat):
        return False
    if np.any(np.signbit(bias) & (bias == 0)):
        return False
    bound = max(bias.max(), -bias.min()) + np.abs(w_rows).sum(axis=1).max() * max(x.max(), -x.min())
    return bool(bound < 2.0 ** (52 - 2 * dtype.frac_bits))


def _exact_sum(a: np.ndarray, b: np.ndarray, bias: np.ndarray, out: np.ndarray) -> None:
    """out = a @ b + bias on BLAS, for sums _any_order_is_exact certified."""
    np.matmul(a, b, out=out)
    out += bias


def _conv2d_exact(x: np.ndarray, kernel: Kernel, stride: int, out: np.ndarray) -> int:
    """Certified conv2d of the batch x into out, returning the saturations:
    blocks of images whose K-major window columns and product fit
    SCRATCH_BYTES, one matrix product each."""
    n = x.shape[0]
    out_ch, _, kh, kw = kernel.weights.shape
    oh, ow = out.shape[2:]
    w_rows = kernel.weights.array.reshape(out_ch, -1)
    bias = kernel.bias.array[:, None]
    depth = w_rows.shape[1]
    # windows[ci, u, v, i] is the fold's window row of term (ci, u, v) for image i
    windows = sliding_window_view(x, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride].transpose(1, 4, 5, 0, 2, 3)
    images = _tile_length(n, 0, (depth + out_ch) * oh * ow)
    cols_buf = np.empty(depth * images * oh * ow, dtype=np.float64)
    acc_buf = np.empty(out_ch * images * oh * ow, dtype=np.float64)
    saturations = 0
    for start in range(0, n, images):
        block = windows[:, :, :, start:start + images]
        m = block.shape[3]
        cols = cols_buf[:depth * m * oh * ow].reshape(block.shape)
        np.copyto(cols, block)
        acc = acc_buf[:out_ch * m * oh * ow].reshape(out_ch, -1)
        _exact_sum(w_rows, cols.reshape(depth, -1), bias, acc)
        saturations += _finish(acc.reshape(out_ch, m, oh, ow).transpose(1, 0, 2, 3), kernel.dtype, out[start:start + m])
    return saturations


def _check_same_dtype(a: DType, b: DType, what: str) -> None:
    if a != b:
        raise ValueError(f"{what}: dtype mismatch ({a} vs {b})")


def conv2d(input: Tensor, kernel: Kernel, stride: int = 1) -> Tensor:
    """Valid (unpadded) 2-D convolution of every image of an (N, C, H, W)
    batch."""
    if len(input.shape) != 4:
        raise DimensionError(f"conv2d input must be (N, C, H, W), got {input.shape}")
    if len(kernel.weights.shape) != 4:
        raise DimensionError(f"conv2d kernel must be 4-D, got {kernel.weights.shape}")
    if stride < 1:
        raise ValueError(f"stride must be positive, got {stride}")
    n, c, h, w = input.shape
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
    out = np.empty((n, out_ch, oh, ow), dtype=_storage(input.dtype))
    if _any_order_is_exact(input.dtype, x, kernel.weights.array.reshape(out_ch, -1), kernel.bias.array):
        saturations = _conv2d_exact(x, kernel, stride, out)
        return Tensor._built(out.shape, input.dtype, out.reshape(-1), saturations)
    wts = kernel.weights.array.astype(np.float64)
    bias = kernel.bias.array.astype(np.float64)[:, None, None, None]
    images, channels = _conv_block(n, out_ch, wts.size + out_ch, oh * ow)
    row_buf = np.empty(images * oh * ow, dtype=np.float64)
    acc_buf = np.empty(channels * row_buf.size, dtype=np.float64)
    tmp_buf = np.empty_like(acc_buf)
    saturations = 0
    for start in range(0, n, images):
        xs = x[start:start + images]
        row = row_buf[:xs.shape[0] * oh * ow].reshape(xs.shape[0], oh, ow)
        for k in range(0, out_ch, channels):
            ks = slice(k, min(k + channels, out_ch))
            # acc is (channels, images, oh, ow) so that one weight scales a
            # whole window row of the block's images
            acc = acc_buf[:(ks.stop - k) * row.size].reshape((-1,) + row.shape)
            tmp = tmp_buf[:acc.size].reshape(acc.shape)
            acc[:] = bias[ks]
            for ci in range(in_ch):
                for u in range(kh):
                    for v in range(kw):
                        np.copyto(row, xs[:, ci, u:u + stride * oh:stride, v:v + stride * ow:stride])
                        np.multiply(wts[ks, ci, u, v, None, None, None], row, out=tmp)
                        acc += tmp
            saturations += _finish(acc.transpose(1, 0, 2, 3), input.dtype, out[start:start + images, ks])
    return Tensor._built(out.shape, input.dtype, out.reshape(-1), saturations)


def maxpool2d(input: Tensor, window: int, stride: int) -> Tensor:
    """Max pooling over square windows of every image of an (N, C, H, W)
    batch."""
    if len(input.shape) != 4:
        raise DimensionError(f"maxpool2d input must be (N, C, H, W), got {input.shape}")
    if window < 1 or stride < 1:
        raise ValueError(f"window and stride must be positive, got {window}, {stride}")
    h, w = input.shape[-2:]
    if window > h or window > w:
        raise DimensionError(f"window {window} larger than input {input.shape}")
    oh = (h - window) // stride + 1
    ow = (w - window) // stride + 1
    x = input.array
    acc = None
    for u in range(window):
        for v in range(window):
            win = x[..., u:u + stride * oh:stride, v:v + stride * ow:stride]
            if acc is None:
                acc = win.copy()
            else:
                np.maximum(acc, win, out=acc)
    # max never rounds or leaves the representable set, so dtype carries over
    return Tensor._built(tuple(acc.shape), input.dtype, acc.reshape(-1))


def dense(input: Tensor, kernel: Kernel) -> Tensor:
    """Fully connected layer: out[i] = sum_j W[i][j] * in[j] + bias[i], on
    every row of an (N, in) batch."""
    if len(input.shape) != 2:
        raise DimensionError(f"dense input must be (N, in), got {input.shape}")
    if len(kernel.weights.shape) != 2:
        raise DimensionError(f"dense kernel must be 2-D, got {kernel.weights.shape}")
    m, n = kernel.weights.shape
    if input.shape[1] != n:
        raise DimensionError(
            f"input length {input.shape[1]} does not match kernel columns {kernel.weights.shape}"
        )
    _check_same_dtype(input.dtype, kernel.dtype, "dense")
    x = input.array
    out = np.empty((x.shape[0], m), dtype=_storage(input.dtype))
    if _any_order_is_exact(input.dtype, x, kernel.weights.array, kernel.bias.array):
        # tiles bound the fixed-point finish's masks; each is its own accumulator
        tile = _tile_length(x.shape[0], 0, m)
        saturations = 0
        for start in range(0, x.shape[0], tile):
            acc = out[start:start + tile]
            _exact_sum(x[start:start + tile], kernel.weights.array.T, kernel.bias.array, acc)
            saturations += _finish(acc, input.dtype, acc)
        return Tensor._built(out.shape, input.dtype, out.reshape(-1), saturations)
    w_t = np.ascontiguousarray(kernel.weights.array.T, dtype=np.float64)
    bias = kernel.bias.array.astype(np.float64)
    tile = _tile_length(x.shape[0], w_t.size + m, 2 * m + n)
    saturations = 0
    for start in range(0, x.shape[0], tile):
        # transposed, so that input column j and weight column j are contiguous
        x_t = np.ascontiguousarray(x[start:start + tile].T, dtype=np.float64)
        acc = np.empty((x_t.shape[1], m), dtype=np.float64)
        acc[:] = bias
        tmp = np.empty_like(acc)
        for j in range(n):
            # a plain in-place multiply: the broadcast form buffers its short
            # contiguous operand (see the module docstring)
            tmp[...] = w_t[j]
            tmp *= x_t[j, :, None]
            acc += tmp
        del x_t, tmp  # the fixed-point finish allocates masks of its own
        saturations += _finish(acc, input.dtype, out[start:start + tile])
    return Tensor._built(out.shape, input.dtype, out.reshape(-1), saturations)


def relu(input: Tensor) -> Tensor:
    """Elementwise max(0, x); exact in every dtype and any shape."""
    return Tensor._built(input.shape, input.dtype, np.maximum(input.data, np.zeros((), dtype=input.data.dtype)))


def quantize(input: Tensor, fmt: FixedFormat) -> Tensor:
    """Round to the nearest representable fixed-point value (half to even),
    saturating out-of-range values and counting them on the result."""
    acc = input.data.astype(np.float64)
    return Tensor(input.shape, fmt, acc, _finish(acc, fmt, acc))
