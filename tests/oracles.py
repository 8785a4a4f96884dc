"""Naive reference implementations used as oracles.

Everything here is deliberately dumb: scalar Python loops, one multiply-add
at a time, accumulating in float64 (Python floats) in the declared order and
rounding to the output type once at the end. The production kernels must
match these bitwise.
"""

import math

import numpy as np

from trojansim.tensor import FLOAT32, FixedFormat, Tensor


def _finish_scalar(acc: float, dtype):
    if dtype == FLOAT32:
        # every NaN sum is the canonical quiet NaN, whatever its terms' payloads
        return np.float32(math.nan if math.isnan(acc) else acc), 0
    scale = float(1 << dtype.frac_bits)
    # Python round = half to even, like np.rint; an infinity saturates below
    raw = round(acc * scale) if math.isfinite(acc) else acc
    lo = -(1 << (dtype.int_bits + dtype.frac_bits - 1))
    hi = (1 << (dtype.int_bits + dtype.frac_bits - 1)) - 1
    sat = 0
    if raw < lo:
        raw, sat = lo, 1
    elif raw > hi:
        raw, sat = hi, 1
    # np.rint keeps the sign of a zero result (-0.3 -> -0.0); round() does not
    return math.copysign(raw / scale, acc), sat


def on_image(kernel_op, x: Tensor, *args) -> Tensor:
    """A production kernel, which takes only batches, applied to a batch of
    the one image x; the batch axis is taken off the result again, which
    keeps its saturation count, so it compares with an oracle's result."""
    out = kernel_op(x.reshaped((1,) + x.shape), *args)
    assert out.shape[0] == 1
    return out.reshaped(out.shape[1:])


def conv2d_naive(x: Tensor, weights: Tensor, bias: Tensor, stride: int) -> Tensor:
    cin, h, w = x.shape
    cout, cin2, kh, kw = weights.shape
    assert cin == cin2
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    xa, wa, ba = x.array, weights.array, bias.array
    out = np.empty(cout * oh * ow, dtype=np.float64)
    sats = 0
    pos = 0
    for o in range(cout):
        for i in range(oh):
            for j in range(ow):
                acc = float(ba[o])
                for c in range(cin):
                    for u in range(kh):
                        for v in range(kw):
                            acc += float(wa[o, c, u, v]) * float(xa[c, i * stride + u, j * stride + v])
                val, s = _finish_scalar(acc, x.dtype)
                out[pos] = val
                sats += s
                pos += 1
    data = out.astype(np.float32) if x.dtype == FLOAT32 else out
    return Tensor((cout, oh, ow), x.dtype, data, saturations=sats)


def dense_naive(x: Tensor, weights: Tensor, bias: Tensor) -> Tensor:
    m, n = weights.shape
    xa, wa, ba = x.array, weights.array, bias.array
    out = np.empty(m, dtype=np.float64)
    sats = 0
    for r in range(m):
        acc = float(ba[r])
        for j in range(n):
            acc += float(wa[r, j]) * float(xa[j])
        val, s = _finish_scalar(acc, x.dtype)
        out[r] = val
        sats += s
    data = out.astype(np.float32) if x.dtype == FLOAT32 else out
    return Tensor((m,), x.dtype, data, saturations=sats)


def maxpool2d_naive(x: Tensor, window: int, stride: int) -> Tensor:
    c, h, w = x.shape
    oh = (h - window) // stride + 1
    ow = (w - window) // stride + 1
    xa = x.array
    out = np.empty(c * oh * ow, dtype=np.float64)
    pos = 0
    for ch in range(c):
        for i in range(oh):
            for j in range(ow):
                best = float(xa[ch, i * stride, j * stride])
                for u in range(window):
                    for v in range(window):
                        best = max(best, float(xa[ch, i * stride + u, j * stride + v]))
                out[pos] = best
                pos += 1
    data = out.astype(np.float32) if x.dtype == FLOAT32 else out
    return Tensor((c, oh, ow), x.dtype, data)


def quantize_naive(values, fmt: FixedFormat):
    """(quantized float values, saturation count) for a float array."""
    out = []
    sats = 0
    for v in np.asarray(values, dtype=np.float64).ravel():
        q, s = _finish_scalar(float(v), fmt)
        out.append(q)
        sats += s
    return np.array(out, dtype=np.float64), sats


def check_trigger_naive(values, bands):
    for i, v in enumerate(np.asarray(values, dtype=np.float64).ravel()):
        for b in bands:
            if b.lo <= v <= b.hi:
                return i, float(v)
    return None
