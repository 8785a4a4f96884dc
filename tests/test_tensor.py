import math

import numpy as np
import pytest

from trojansim import tensor as T
from trojansim.errors import DimensionError
from trojansim.tensor import FLOAT32, Q16_16, FixedFormat, Kernel, Tensor

from oracles import bitwise_equal, conv2d_naive, dense_naive, maxpool2d_naive, on_image, quantize_naive


def rand_tensor(rng, shape, dtype=FLOAT32, scale=1.0):
    vals = (rng.random(int(np.prod(shape))) * 2 - 1) * scale
    if dtype == FLOAT32:
        return Tensor(tuple(shape), FLOAT32, vals.astype(np.float32))
    q, _ = quantize_naive(vals, dtype)
    return Tensor(tuple(shape), dtype, q)


def rand_kernel(rng, w_shape, dtype=FLOAT32, scale=1.0):
    return Kernel(
        weights=rand_tensor(rng, w_shape, dtype, scale),
        bias=rand_tensor(rng, (w_shape[0],), dtype, scale),
    )


# --- Tensor container ---------------------------------------------------


def test_tensor_rejects_bad_shapes():
    with pytest.raises(DimensionError):
        Tensor((0, 2), FLOAT32, np.zeros(0, dtype=np.float32))
    with pytest.raises(DimensionError):
        Tensor((2, 2), FLOAT32, np.zeros(3, dtype=np.float32))
    with pytest.raises(DimensionError):
        Tensor((2,), FLOAT32, np.zeros((2, 1), dtype=np.float32))


def test_fixed_tensor_rejects_unrepresentable_values():
    with pytest.raises(ValueError):
        Tensor((1,), Q16_16, np.array([0.1]))  # not a multiple of 2^-16
    with pytest.raises(ValueError):
        Tensor((1,), Q16_16, np.array([40000.0]))  # out of Q16.16 range
    Tensor((1,), Q16_16, np.array([1.5]))


def test_fixed_tensor_check_covers_every_slice():
    n = 2 * T.CHECK_SLICE + 3
    data = np.full(n, 0.25)
    Tensor((n,), Q16_16, data.copy())
    data[-1] = 0.1  # only the last slice holds a non-representable value
    with pytest.raises(ValueError, match="not representable"):
        Tensor((n,), Q16_16, data)


def test_tensor_data_is_immutable():
    t = Tensor.from_array([1.0, 2.0])
    with pytest.raises(ValueError):
        t.data[0] = 5.0


def test_reshaped_shares_data_and_checks_size():
    t = Tensor.from_array(np.arange(6, dtype=np.float32))
    r = t.reshaped((2, 3))
    assert r.shape == (2, 3) and np.array_equal(r.data, t.data)
    with pytest.raises(DimensionError):
        t.reshaped((4,))


def test_fixed_format_bounds():
    q8 = FixedFormat(8, 8)
    assert q8.resolution == 1 / 256
    assert q8.min_value == -128.0
    assert q8.max_value == 128.0 - 1 / 256
    assert str(q8) == "Q8.8"


# --- conv2d vs naive oracle ---------------------------------------------


def test_conv2d_exhaustive_spatial_grid():
    """Every (H, W, k, stride) with dims <= 8, single channel."""
    rng = np.random.default_rng(11)
    checked = 0
    for h in range(1, 9):
        for w in range(1, 9):
            for k in range(1, min(h, w) + 1):
                for s in (1, 2, 3):
                    x = rand_tensor(rng, (1, h, w))
                    kern = rand_kernel(rng, (1, 1, k, k))
                    got = on_image(T.conv2d, x, kern, s)
                    want = conv2d_naive(x, kern.weights, kern.bias, s)
                    assert bitwise_equal(got, want), (h, w, k, s)
                    checked += 1
    assert checked > 500


def test_conv2d_exhaustive_channel_grid():
    rng = np.random.default_rng(12)
    for cin in range(1, 5):
        for cout in range(1, 5):
            for k in (1, 2, 3):
                x = rand_tensor(rng, (cin, 5, 5))
                kern = rand_kernel(rng, (cout, cin, k, k))
                got = on_image(T.conv2d, x, kern, 1)
                want = conv2d_naive(x, kern.weights, kern.bias, 1)
                assert bitwise_equal(got, want), (cin, cout, k)


def test_conv2d_rectangular_kernels():
    rng = np.random.default_rng(13)
    for _ in range(60):
        h, w = rng.integers(2, 9, size=2)
        kh = int(rng.integers(1, h + 1))
        kw = int(rng.integers(1, w + 1))
        cin = int(rng.integers(1, 4))
        cout = int(rng.integers(1, 4))
        s = int(rng.integers(1, 3))
        x = rand_tensor(rng, (cin, h, w))
        kern = rand_kernel(rng, (cout, cin, kh, kw))
        got = on_image(T.conv2d, x, kern, s)
        want = conv2d_naive(x, kern.weights, kern.bias, s)
        assert bitwise_equal(got, want)


def test_conv2d_shape_and_dtype_errors():
    rng = np.random.default_rng(14)
    x = rand_tensor(rng, (2, 4, 4, 1))
    with pytest.raises(DimensionError):
        T.conv2d(x.reshaped((2, 4, 4)), rand_kernel(rng, (1, 2, 2, 2)))  # one image, no batch
    with pytest.raises(DimensionError):
        T.conv2d(x, rand_kernel(rng, (1, 3, 2, 2)))  # channel mismatch
    with pytest.raises(DimensionError):
        T.conv2d(x, rand_kernel(rng, (1, 2, 5, 5)))  # kernel too big
    with pytest.raises(ValueError):
        T.conv2d(x, rand_kernel(rng, (1, 2, 2, 2), Q16_16))  # dtype mix
    with pytest.raises(ValueError):
        T.conv2d(x, rand_kernel(rng, (1, 2, 2, 2)), stride=0)


def test_conv2d_linearity_power_of_two():
    # scaling input by 2 scales output by exactly 2 when bias is zero
    rng = np.random.default_rng(15)
    x = rand_tensor(rng, (2, 6, 6, 1))
    kern = Kernel(rand_tensor(rng, (3, 2, 3, 3)), Tensor.from_array(np.zeros((3,))))
    doubled = Tensor((2, 6, 6, 1), FLOAT32, (x.data * np.float32(2)))
    assert np.array_equal(T.conv2d(doubled, kern).data, T.conv2d(x, kern).data * np.float32(2))


# --- dense vs naive oracle ----------------------------------------------


def test_dense_exhaustive_small():
    rng = np.random.default_rng(21)
    for m in range(1, 9):
        for n in range(1, 9):
            x = rand_tensor(rng, (n,))
            kern = rand_kernel(rng, (m, n))
            got = on_image(T.dense, x, kern)
            want = dense_naive(x, kern.weights, kern.bias)
            assert bitwise_equal(got, want), (m, n)


def test_dense_accumulation_order_matters_and_matches():
    # crafted magnitudes where summation order changes the rounded result
    x = Tensor.from_array(np.array([1e8, 1.0, -1e8, 1.0], dtype=np.float32))
    kern = Kernel(
        weights=Tensor.from_array(np.ones((1, 4), dtype=np.float32)),
        bias=Tensor.from_array(np.array([0.5], dtype=np.float32)),
    )
    got = on_image(T.dense, x, kern)
    want = dense_naive(x, kern.weights, kern.bias)
    assert bitwise_equal(got, want)


def test_dense_errors():
    rng = np.random.default_rng(22)
    with pytest.raises(DimensionError):
        T.dense(rand_tensor(rng, (4,)), rand_kernel(rng, (2, 4)))  # one row, no batch
    with pytest.raises(DimensionError):
        T.dense(rand_tensor(rng, (3, 1)), rand_kernel(rng, (2, 4)))
    with pytest.raises(DimensionError):
        T.dense(rand_tensor(rng, (2, 2)), rand_kernel(rng, (2, 4)))


# --- maxpool vs naive oracle --------------------------------------------


def test_maxpool_exhaustive_small():
    rng = np.random.default_rng(31)
    for h in range(1, 9):
        for w in range(1, 9):
            for win in range(1, min(h, w) + 1):
                for s in (1, 2, 3):
                    for c in (1, 3):
                        x = rand_tensor(rng, (c, h, w))
                        got = on_image(T.maxpool2d, x, win, s)
                        want = maxpool2d_naive(x, win, s)
                        assert bitwise_equal(got, want), (c, h, w, win, s)


def test_maxpool_errors():
    rng = np.random.default_rng(32)
    with pytest.raises(DimensionError):
        T.maxpool2d(rand_tensor(rng, (1, 2, 2)), 1, 1)  # one image, no batch
    with pytest.raises(DimensionError):
        T.maxpool2d(rand_tensor(rng, (1, 2, 2, 1)), 3, 1)
    with pytest.raises(ValueError):
        T.maxpool2d(rand_tensor(rng, (1, 2, 2, 1)), 1, 0)


# --- fixed point ---------------------------------------------------------


def test_quantize_known_values():
    t = Tensor.from_array([1.7])
    q = T.quantize(t, FixedFormat(8, 8))
    assert q.data[0] == pytest.approx(1.69921875, abs=0)  # 435/256
    assert q.saturations == 0


def test_quantize_rounds_half_to_even():
    q8 = FixedFormat(8, 8)
    assert T.quantize(Tensor.from_array([3 / 512]), q8).data[0] == 2 / 256
    assert T.quantize(Tensor.from_array([5 / 512]), q8).data[0] == 2 / 256
    assert T.quantize(Tensor.from_array([7 / 512]), q8).data[0] == 4 / 256


def test_quantize_saturates_and_counts():
    q8 = FixedFormat(8, 8)
    q = T.quantize(Tensor.from_array([300.0, -300.0, 1.0]), q8)
    assert q.saturations == 2
    assert q.data[0] == q8.max_value
    assert q.data[1] == q8.min_value


def test_quantize_refuses_nan_and_saturates_infinities():
    """NaN has no fixed-point value, whatever its payload or sign, and
    +-inf saturate to the format's limits, each counted once."""
    for nan in np.array([0x7FC00000, 0xFFC0ABCD, 0x7FD23456], dtype=np.uint32).view(np.float32):
        with pytest.raises(ValueError, match=r"^values not representable in Q16\.16$"):
            T.quantize(Tensor.from_array(np.array([1.0, nan, np.inf], dtype=np.float32)), Q16_16)
    q = T.quantize(Tensor.from_array(np.array([np.inf, -np.inf, 1.5, np.inf], dtype=np.float32)), Q16_16)
    assert q.saturations == 3
    assert q.data.tolist() == [Q16_16.max_value, Q16_16.min_value, 1.5, Q16_16.max_value]
    want, sats = quantize_naive([np.inf, -np.inf, 1.5, np.inf], Q16_16)
    assert q.data.tobytes() == want.tobytes() and sats == 3


def test_quantize_is_idempotent():
    rng = np.random.default_rng(41)
    t = rand_tensor(rng, (50,), scale=100.0)
    once = T.quantize(t, Q16_16)
    twice = T.quantize(once, Q16_16)
    assert bitwise_equal(once, twice) and twice.saturations == 0


def test_fixed_conv_and_dense_match_oracle():
    rng = np.random.default_rng(42)
    for _ in range(20):
        x = rand_tensor(rng, (2, 5, 5), Q16_16)
        kern = rand_kernel(rng, (2, 2, 3, 3), Q16_16)
        assert bitwise_equal(on_image(T.conv2d, x, kern), conv2d_naive(x, kern.weights, kern.bias, 1))
        xd = rand_tensor(rng, (6,), Q16_16)
        kd = rand_kernel(rng, (4, 6), Q16_16)
        assert bitwise_equal(on_image(T.dense, xd, kd), dense_naive(xd, kd.weights, kd.bias))


def test_fixed_dense_saturation_counted():
    big = 30000.0
    x = Tensor((2,), Q16_16, np.array([big, big]))
    kern = Kernel(
        weights=Tensor((1, 2), Q16_16, np.array([2.0, 2.0])),
        bias=Tensor((1,), Q16_16, np.array([0.0])),
    )
    out = on_image(T.dense, x, kern)
    assert out.saturations == 1
    assert out.data[0] == Q16_16.max_value
    want = dense_naive(x, kern.weights, kern.bias)
    assert bitwise_equal(out, want) and want.saturations == 1


# --- misc ops ------------------------------------------------------------


def test_relu():
    t = Tensor.from_array(np.array([-1.0, 0.0, 2.5], dtype=np.float32))
    assert np.array_equal(T.relu(t).data, np.array([0.0, 0.0, 2.5], dtype=np.float32))


def kernel_calls(dtype):
    """{name: (input, call(input, out))} of every kernel that takes out, on
    a batch whose first image (column 0) is all zeros and kernels whose first bias is
    zero, so that some sums are zeros, which are refolded; the Q16.16
    operands are past the exactness bound, and many sums saturate."""
    rng = np.random.default_rng(61)
    scale = 1.0 if dtype == FLOAT32 else 3000.0

    def batch(shape):
        t = rand_tensor(rng, shape, dtype, scale)
        return Tensor(shape, dtype, np.where(np.arange(t.size) % shape[-1] == 0, 0, t.data).astype(t.data.dtype))

    def kernel(w_shape):
        k = rand_kernel(rng, w_shape, dtype, scale)
        return Kernel(k.weights, Tensor(k.bias.shape, dtype, np.where(np.arange(w_shape[0]) == 0, 0, k.bias.data)))

    conv, fc = kernel((4, 2, 3, 3)), kernel((5, 30))
    images, rows = batch((2, 9, 9, 3)), batch((30, 4))
    return {
        "conv2d": (images, lambda x, out: T.conv2d(x, conv, 2, out=out)),
        "dense": (rows, lambda x, out: T.dense(x, fc, out=out)),
        "maxpool2d": (images, lambda x, out: T.maxpool2d(x, 2, 2, out=out)),
        "relu": (images, lambda x, out: T.relu(x, out=out)),
    }


@pytest.mark.parametrize("dtype", [FLOAT32, Q16_16], ids=["f32", "q16"])
@pytest.mark.parametrize("name", ["conv2d", "dense", "maxpool2d", "relu"])
def test_kernel_writes_into_out_what_it_returns_without(name, dtype):
    """A kernel given out fills it, whatever it held, with the bits and
    saturations of its result without out; relu may be given its input's
    own buffer."""
    x, call = kernel_calls(dtype)[name]
    want = call(x, None)
    if dtype == Q16_16 and name in ("conv2d", "dense"):
        assert want.saturations > 0
    runs = [(x, np.full(want.shape, np.nan, dtype=want.data.dtype))]
    if name == "relu":
        own = x.array.copy()
        runs.append((Tensor._built(x.shape, x.dtype, own.reshape(-1)), own))
    for source, out in runs:
        got = call(source, out)
        assert np.shares_memory(got.data, out)
        assert got.shape == want.shape and got.saturations == want.saturations
        assert got.data.tobytes() == want.data.tobytes()


@pytest.mark.parametrize("name", ["conv2d", "dense", "maxpool2d", "relu"])
def test_kernel_refuses_an_unfit_out_before_writing(name):
    """out of another shape (DimensionError), of another dtype, not
    C-contiguous, read-only or, for all but relu, overlapping the input
    (ValueError) is refused and left as it was."""
    x, call = kernel_calls(FLOAT32)[name]
    shape = call(x, None).shape
    wrong = {
        "shape": np.zeros((shape[0] + 1,) + shape[1:], dtype=np.float32),
        "dtype": np.zeros(shape, dtype=np.float64),
        "strided": np.zeros(shape[:-1] + (2 * shape[-1],), dtype=np.float32)[..., ::2],
        "read-only": np.zeros(shape, dtype=np.float32),
    }
    wrong["read-only"].flags.writeable = False
    if name != "relu":
        whole = np.zeros(x.size + math.prod(shape), dtype=np.float32)
        whole[:x.size] = x.data
        x = Tensor._built(x.shape, x.dtype, whole[:x.size])
        wrong["overlap"] = whole[x.size // 2:x.size // 2 + math.prod(shape)].reshape(shape)
    for why, out in wrong.items():
        before = out.tobytes()
        with pytest.raises(DimensionError if why == "shape" else ValueError):
            call(x, out)
        assert out.tobytes() == before, why


def test_ops_are_deterministic():
    rng = np.random.default_rng(51)
    x = rand_tensor(rng, (3, 7, 7, 1))
    kern = rand_kernel(rng, (4, 3, 3, 3))
    a = T.conv2d(x, kern, 2)
    b = T.conv2d(x, kern, 2)
    assert bitwise_equal(a, b)


def test_float32_kernel_converts_its_weights_once(monkeypatch):
    rng = np.random.default_rng(31)
    conv, fc = rand_kernel(rng, (3, 2, 3, 3)), rand_kernel(rng, (4, 5))
    products = []
    real = T._sum_products

    def spy(a, b, bias, out):
        products.append((a, b))
        real(a, b, bias, out)

    monkeypatch.setattr(T, "_sum_products", spy)
    for _ in range(2):
        T.conv2d(rand_tensor(rng, (2, 6, 6, 2)), conv)
        T.dense(rand_tensor(rng, (5, 2)), fc)
    # one product per call, the weights on the left of both
    assert len(products) == 4
    assert all(a is conv.weight_rows for a, _ in products[::2])
    assert all(a is fc.weight_rows for a, _ in products[1::2])
    for kern in (conv, fc):
        assert kern.weight_rows.dtype == np.float64 and not kern.weight_rows.flags.writeable
        assert np.array_equal(kern.weight_rows, kern.weights.data.reshape(kern.weights.shape[0], -1))
