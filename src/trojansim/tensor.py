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
    and a result's saturation count is the sum over its rows. That
    sequence, the fold, defines every sum. conv2d and dense compute sums as
    BLAS matrix products, which add the terms in an order of their own,
    and keep a product's result only where a certificate proves that it
    has the fold's bits (below); every other sum is folded.
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
  * E without a second product, by Cauchy-Schwarz: A <= |b| + ||w||_2
    ||x||_2, w the output channel's weights and x the element's window or
    row. E = k |b| + (k ||w||) ||x|| with k = (n + 5) * 2^-51 (exact): the
    channel factors once per kernel (Kernel.bound_factors), each norm
    ||x|| once per block, and E as one product of the factors by (||x||,
    1). Squares of float32 values are exact in float64, fixed-point ones
    within u; a squared sum adds nonnegative terms, so in any order it
    ends at least (1 - gamma_(n-1)) times the exact one; each square
    root, product and the sum (fused or not) rounds once. So E >= k (|b|
    + ||w|| ||x||)(1 - gamma_(2n+3)) >= (n + 4) * 2^-51 * A, as (n + 5)
    gamma_(2n+3) <= 1 for n < 2^25. No step underflows (nonzero squares
    are at least 2^-298 or 2^-2f) or overflows (float32 squares < 2^256).
  * The rounding test. Rounding to the output is monotone (float64 to
    float32, overflow to infinity included; fixed point v -> rint(v *
    2^f), compared before saturation), so where the two ends round to
    the same nonzero value, r rounds to it; fixed point keeps s - E for
    the finish to round and saturate as r. Two fixed-point ends past the
    same saturation limit settle the element too: r saturates there
    alike. E = 0 only where the bias and every weight or every input are
    signed zeros, and so every term: the fold ends on -0.0 only when the
    bias and every term are -0.0, and s, which adds the bias last, is
    +0.0 when the bias is +0.0, as are s -+ E, so that zero stands. The
    other elements are folded: those near a rounding midpoint, every
    other zero (of a cancelling sum, of zero terms with nonzero norms, or
    of a -0.0 bias), whose sign only the fold decides, and float32 sums
    with a NaN or infinite term, which makes |b|, ||w|| or ||x|| NaN or
    infinite and E NaN or +inf (0 * inf is NaN), so that s -+ E are NaN
    or infinities of both signs, never equal. The fold gathers their terms
    from the input and sums them by np.add.accumulate, the running sum:
    Ziv's strategy, a fast path, a rounding test and an exact fallback.
  * NaN. A NaN output comes only from the fold, as its E is NaN, and the
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
  * Every block or tile is one product of the weights, one row per
    output channel, by K-major window columns (conv2d: C*kh*kw rows, one
    column per output position; whole images while one image's columns
    fit, else output rows of one image) or by a tile of the batch (dense).
    Its float64 scratch fits SCRATCH_BYTES beside the float64 weights and
    bias: per output element the product and, under the per-element
    certificate, E and two values for rounding (reused by the refold),
    and per column its norm and a one. Saturations are summed.

This makes outputs bitwise reproducible across runs and bitwise comparable
with an independent scalar-loop implementation of the same contract.
"""

from __future__ import annotations

import math
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
    def bound_factors(self) -> np.ndarray:
        """The factors of the bound E of the module docstring: one float64
        row (k ||w_c||_2, k |b_c|) per output channel c."""
        w_rows = self.weight_rows
        factors = np.stack([np.sqrt(np.einsum("ij,ij->i", w_rows, w_rows)), np.abs(self.bias.array)], axis=1)
        return factors * ((w_rows.shape[1] + 6) * 2.0 ** -51)

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


def _tile_length(n: int, fixed: int, per_image: int) -> int:
    """Images per dense tile: as many as keep
    `fixed` float64 values plus `per_image` per image within SCRATCH_BYTES;
    at least one, at most n."""
    return max(1, min(n, (SCRATCH_BYTES // 8 - fixed) // per_image))


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
    non-finite is refolded, so warnings are left to the fold."""
    with np.errstate(invalid="ignore", over="ignore"):
        np.matmul(a, b, out=out)
        out += bias


def _operands(kernel: Kernel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, float]:
    """The kernel's weight_rows, its bias as float64, its bound_factors and
    a cap on every sum's magnitude for the finish: for a fixed-point batch x
    that _any_order_is_exact certifies, None and its bound B; otherwise the
    factors and infinity."""
    w_rows = kernel.weight_rows
    bias = kernel.bias.array.astype(np.float64, copy=False)
    bound = None if kernel.dtype == FLOAT32 else _any_order_is_exact(x, kernel)
    if bound is None:
        return w_rows, bias, kernel.bound_factors, math.inf
    return w_rows, bias, None, bound


def _bound(e: np.ndarray, factors: np.ndarray, terms: np.ndarray, norms: np.ndarray) -> None:
    """E of the module docstring into e (channel, element) from terms
    (term, element, float64): the 2-norms go into row 0 of norms, whose
    row 1 is ones, and one product of the factors by norms gives E."""
    np.sqrt(np.einsum("ij,ij->j", terms, terms, out=norms[0]), out=norms[0])
    with np.errstate(invalid="ignore"):  # 0 * inf is NaN, which flags
        np.matmul(factors, norms, out=e)


def _fold_elements(dst: np.ndarray, w_rows: np.ndarray, source: np.ndarray, bias: np.ndarray,
                   flat: np.ndarray, scratch: np.ndarray | None) -> None:
    """Fold the elements at C-order indices `flat` of dst, a (channel,
    *element axes) view, in the pinned order: bias[c], then w_rows[c, t]
    times term t of the element's input for t = 0, 1, ...; source holds
    the inputs as (*term axes, *element axes), in any layout. The float64
    sums go into dst, a NaN one as the canonical quiet NaN. A slice of
    elements takes its bias, weights and products in two thirds of
    scratch (float64, free to overwrite), or of a buffer of at most a
    quarter of SCRATCH_BYTES if scratch is None or too short, and its
    gathered inputs the last third's size."""
    if not flat.size:
        return
    depth = w_rows.shape[1]
    width = 3 * depth + 1
    if scratch is None or scratch.size < width:
        scratch = np.empty(width * max(1, min(flat.size, SCRATCH_BYTES // 32 // width)))
    per = scratch.size // width
    for start in range(0, flat.size, per):
        c, *at = np.unravel_index(flat[start:start + per], dst.shape)
        f = c.size
        terms = scratch[:(depth + 1) * f].reshape(f, depth + 1)
        ws = w_rows.take(c, 0, scratch[(depth + 1) * f:(2 * depth + 1) * f].reshape(f, depth), "clip")
        terms[:, 0] = bias[c]
        np.multiply(ws, source[(Ellipsis, *at)].reshape(depth, f).T, out=terms[:, 1:])
        # accumulate is defined as the running sum, term after term
        np.add.accumulate(terms, axis=1, out=terms)
        sums = terms[:, depth]
        # which payload a NaN sum keeps depends on NumPy's loop
        sums[np.isnan(sums)] = np.nan
        dst[(c, *at)] = sums


def _round_sums(dtype: DType, w_rows: np.ndarray, source: np.ndarray, bias: np.ndarray,
                sums: np.ndarray, out: np.ndarray, scratch: np.ndarray | None, bound: float) -> int:
    """Round a block's BLAS sums into out, a (channel, *element axes)
    view, returning the saturations; source is the block's input as
    _fold_elements takes it. Certified fixed-point sums (one row per
    channel) are exact: the zeros of a -0.0 bias are refolded for their
    sign, then all are rounded, and saturated unless their cap `bound`
    (from _operands) proves that none can be. Otherwise the rows are the
    sums s, then their bounds E (from _bound), and the per-element
    certificate of the module docstring runs: an element it settles keeps
    s - E (float32: rounded; fixed point: rounded and saturated by the
    finish), the rest are folded, with scratch as the fold's buffer."""
    out_ch = w_rows.shape[0]
    minus = np.signbit(bias) & (bias == 0)
    if sums.shape[0] == out_ch:
        if minus.any():
            zeros = (sums == 0) & minus.reshape((-1,) + (1,) * (out.ndim - 1))
            _fold_elements(sums, w_rows, source, bias, np.flatnonzero(zeros), None)
        return _finish(sums, dtype, out, bound)
    s, e = sums[:out_ch], sums[out_ch:]
    hi = np.empty(out.shape, dtype=out.dtype)
    with np.errstate(invalid="ignore", over="ignore"):
        # computed in float64; a float32 out and hi round on output
        np.subtract(s, e, out=out)
        np.add(s, e, out=hi)
    lo = out
    if dtype != FLOAT32:
        # rint(v * 2^f) before the clip, out keeping s - E for _finish; an end
        # past the range counts as one unit past it, so two ends past the same
        # limit settle the element and its saturation
        scale = 2.0 ** dtype.frac_bits
        limits = np.rint(dtype.min_value * scale) - 1, np.rint(dtype.max_value * scale) + 1
        lo = np.clip(np.rint(np.multiply(out, scale, out=s), out=s), *limits, out=s)
        np.clip(np.rint(np.multiply(hi, scale, out=hi), out=hi), *limits, out=hi)
    flagged = np.flatnonzero((hi != lo) | (lo == 0))
    del hi
    if flagged.size:
        # a zero of all-zero terms and bias (e == 0) stands unless the bias is
        # -0.0: s adds the bias last, and +0.0 + +-0.0 is +0.0
        stands = (lo.flat[flagged] == 0) & (e.flat[flagged] == 0) & ~minus[flagged // (lo.size // out_ch)]
        _fold_elements(out, w_rows, source, bias, flagged[~stands], scratch)
    return 0 if dtype == FLOAT32 else _finish(out, dtype, out)


def _product_block(n: int, oh: int, ow: int, fixed: int, per_column: int) -> tuple[int, int]:
    """Images and output rows per conv2d product block: as many columns (one
    per output position) as keep `fixed` float64 values plus `per_column`
    per column within SCRATCH_BYTES. Whole images while one fits, else the
    rows of one image split evenly into blocks; at least one row."""
    columns = (SCRATCH_BYTES // 8 - fixed) // per_column
    if columns >= oh * ow:
        return max(1, min(n, columns // (oh * ow))), oh
    blocks = -(-oh // max(1, columns // ow))
    return 1, -(-oh // blocks)


def _conv2d_products(x: np.ndarray, kernel: Kernel, stride: int, out: np.ndarray) -> int:
    """conv2d of the batch x into out on BLAS, returning the saturations:
    blocks of images, or of output rows of one image, one product each,
    rounded by _round_sums, with their columns' E unless
    _any_order_is_exact certifies the batch."""
    n = x.shape[0]
    out_ch, _, kh, kw = kernel.weights.shape
    oh, ow = out.shape[2:]
    w_rows, bias, factors, bound = _operands(kernel, x)
    depth = w_rows.shape[1]
    if factors is None:
        held, per_column, acc_rows = 0, depth + out_ch, out_ch
    else:
        held, per_column, acc_rows = w_rows.size + 3 * out_ch, depth + 2 + 4 * out_ch, 2 * out_ch
    # windows[ci, u, v, i, r, c] is term (ci, u, v) of output (r, c) of image i
    windows = sliding_window_view(x, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride].transpose(1, 4, 5, 0, 2, 3)
    images, rows = _product_block(n, oh, ow, held, per_column)
    columns = images * rows * ow
    cols_buf = np.empty(depth * columns)
    acc_buf = np.empty(acc_rows * columns)
    norms = None if factors is None else np.ones((2, columns))
    saturations = 0
    for start in range(0, n, images):
        for top in range(0, oh, rows):
            block = windows[:, :, :, start:start + images, top:top + rows]
            m, r = block.shape[3:5]
            cols = cols_buf[:depth * m * r * ow].reshape(block.shape)
            np.copyto(cols, block)
            cols = cols.reshape(depth, -1)
            acc = acc_buf[:acc_rows * cols.shape[1]].reshape(acc_rows, -1)
            _sum_products(w_rows, cols, bias[:, None], acc[:out_ch])
            if factors is not None:
                _bound(acc[out_ch:], factors, cols, norms[:, :cols.shape[1]])
            dst = out[start:start + m, :, top:top + r].transpose(1, 0, 2, 3)
            saturations += _round_sums(kernel.dtype, w_rows, block, bias, acc.reshape(-1, m, r, ow), dst, acc_buf, bound)
    return saturations


def _dense_products(x: np.ndarray, kernel: Kernel, out: np.ndarray) -> int:
    """dense of the batch x into out on BLAS, returning the saturations:
    tiles of images, one product each, rounded by _round_sums. A tile of
    a batch that _any_order_is_exact certifies is its own accumulator;
    any other takes a float64 copy of its rows and their E."""
    m, n = kernel.weights.shape
    w_rows, bias, factors, bound = _operands(kernel, x)
    saturations = 0
    if factors is None:
        tile = _tile_length(x.shape[0], 0, m)
        for start in range(0, x.shape[0], tile):
            acc, xs = out[start:start + tile], x[start:start + tile]
            _sum_products(xs, w_rows.T, bias, acc)
            saturations += _round_sums(kernel.dtype, w_rows, xs.T, bias, acc.T, acc.T, None, bound)
        return saturations
    tile = _tile_length(x.shape[0], w_rows.size + 3 * m, n + 2 + 4 * m)
    x_buf, acc_buf, norms = np.empty(tile * n), np.empty(tile * 2 * m), np.ones((2, tile))
    for start in range(0, x.shape[0], tile):
        t = min(tile, x.shape[0] - start)
        xs = x_buf[:t * n].reshape(t, n)
        np.copyto(xs, x[start:start + t])
        acc = acc_buf[:t * 2 * m].reshape(t, 2 * m)
        _sum_products(xs, w_rows.T, bias, acc[:, :m])
        _bound(acc[:, m:].T, factors, xs.T, norms[:, :t])
        dst = out[start:start + t].T
        saturations += _round_sums(kernel.dtype, w_rows, x[start:start + t].T, bias, acc.T, dst, acc_buf, bound)
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
    saturations = _conv2d_products(x, kernel, stride, out)
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
    saturations = _dense_products(x, kernel, out)
    return Tensor._built(out.shape, input.dtype, out.reshape(-1), saturations)


def relu(input: Tensor) -> Tensor:
    """Elementwise max(0, x); exact in every dtype and any shape."""
    return Tensor._built(input.shape, input.dtype, np.maximum(input.data, np.zeros((), dtype=input.data.dtype)))


def quantize(input: Tensor, fmt: FixedFormat) -> Tensor:
    """Round to the nearest representable fixed-point value (half to even),
    saturating out-of-range values, infinities included, and counting them
    on the result. NaN has no fixed-point value."""
    acc = input.data.astype(np.float64)
    if np.isnan(acc).any():
        raise ValueError(f"values not representable in {fmt}")
    return Tensor._built(input.shape, fmt, acc, _finish(acc, fmt, acc))
