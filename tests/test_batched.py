"""The batched paths against their per-image and scalar references: kernels
on batches whose image axis is the last (column i of a result is image i),
forward_batch, batched stream_hit_rate, and bulk xoshiro draws against the
scalar next_u64 walk.

Float32 inputs are drawn from magnitudes 1 and 2**-30, so products of 1,
2**-30 and 2**-60 meet in one sum: big terms cancel exactly and what is left
depends on the order the terms were added in. A batched path that folds the
terms in any other order than the scalar oracles gives different bits. The
forward_batch models get such weights too, and sparse images, so that deeper
layers still see repeated values that cancel; a small dense-only model makes
the dense fold order visible, which the convolutional models' wide sums hide.
Conv and dense sums run as matrix products. Fixed-point batches under a
bound that makes every order exact keep the product; float32 sums, and
fixed-point sums past that bound (Q16.16 at scale 300 among them), keep the
product's result where a per-element rounding certificate proves the fold's
bits and refold the rest. All are checked against the same oracles, with
sums built to defeat the certificates; counters on the product and on the
refold show which path ran, and the product blocks and tiles are sized
through the kernels' own SCRATCH_BYTES arithmetic.
"""

import concurrent.futures
import functools
import hashlib
import math
import os
import platform
import subprocess
import sys
import threading
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trojansim import rng as R, tensor as T
from trojansim.data import SplitPlan, synthesize, synthesize_split
from trojansim.defense import stream_hit_rate
from trojansim.errors import ConfigError, DimensionError
from trojansim.models import (
    LayerSpec,
    ModelSpec,
    apply_weights,
    build_cifar_net,
    build_lenet,
    forward,
    forward_batch,
    forward_chunk,
    iter_layer_shapes,
    layer_output_shapes,
    model_numeric_dtype,
    model_params,
    quantize_model,
    seed_weights,
)
from trojansim.profiling import SigmaBand, collect_observations
from trojansim.rng import BLOCK_DRAWS, BLOCK_LANES, Xoshiro256StarStar
from trojansim.tensor import FLOAT32, Q16_16, Kernel, Tensor

from oracles import (
    bitwise_equal,
    check_trigger_naive,
    columns,
    conv2d_naive,
    dataset_of,
    dense_naive,
    maxpool2d_naive,
    quantize_naive,
    stacked,
)

TINY = 2.0 ** -30


def cancelling_values(rng, n):
    """float32 values in {0, ±1, ±2**-30}."""
    return rng.choice(np.array([0.0, 1.0, -1.0, TINY, -TINY], dtype=np.float32), size=n)


def batch_values(rng, shape, dtype):
    n = int(np.prod(shape))
    if dtype == FLOAT32:
        return cancelling_values(rng, n)
    # Q16.16 at scale 300: products reach 9e4, past the format's 32768
    q, _ = quantize_naive((rng.random(n) * 2 - 1) * 300.0, dtype)
    return q


def counting_products(mp):
    """Patch tensor._sum_products, the one matrix product of conv2d and
    dense, to count its calls in the returned one-element list."""
    calls = [0]
    real = T._sum_products

    def counted(*args):
        calls[0] += 1
        return real(*args)

    mp.setattr(T, "_sum_products", counted)
    return calls


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    fixed=st.booleans(),
    n=st.integers(1, 3),
    cin=st.integers(1, 3),
    cout=st.integers(1, 3),
    h=st.integers(1, 6),
    w=st.integers(1, 6),
    k=st.integers(1, 3),
    stride=st.integers(1, 2),
)
def test_batched_kernels_match_oracles_row_by_row(seed, fixed, n, cin, cout, h, w, k, stride):
    rng = np.random.default_rng(seed)
    dtype = Q16_16 if fixed else FLOAT32
    k = min(k, h, w)
    x = Tensor((cin, h, w, n), dtype, batch_values(rng, (cin, h, w, n), dtype))
    kern = Kernel(
        Tensor((cout, cin, k, k), dtype, batch_values(rng, (cout, cin, k, k), dtype)),
        Tensor((cout,), dtype, batch_values(rng, (cout,), dtype)),
    )

    with pytest.MonkeyPatch.context() as mp:
        sums = counting_products(mp)
        got = T.conv2d(x, kern, stride)
    want = [conv2d_naive(img, kern.weights, kern.bias, stride) for img in columns(x)]
    assert all(bitwise_equal(g, o) for g, o in zip(columns(got), want))
    assert got.saturations == sum(o.saturations for o in want)
    # one block, one product of the weights
    assert sums == [1]

    got = T.maxpool2d(x, k, stride)
    want = [maxpool2d_naive(img, k, stride) for img in columns(x)]
    assert all(bitwise_equal(g, o) for g, o in zip(columns(got), want))

    got = T.relu(x)
    assert got.shape == x.shape and got.data.dtype == x.data.dtype
    assert np.array_equal(got.data, np.maximum(x.data, 0))

    flat = x.reshaped((cin * h * w, n))
    dkern = Kernel(
        Tensor((cout, cin * h * w), dtype, batch_values(rng, (cout, cin * h * w), dtype)),
        kern.bias,
    )
    with pytest.MonkeyPatch.context() as mp:
        sums = counting_products(mp)
        got = T.dense(flat, dkern)
    want = [dense_naive(row, dkern.weights, dkern.bias) for row in columns(flat)]
    assert all(bitwise_equal(g, o) for g, o in zip(columns(got), want))
    assert got.saturations == sum(o.saturations for o in want)
    assert sums == [1]

    wide = Tensor((cin * h * w, n), FLOAT32, ((rng.random(n * cin * h * w) * 2 - 1) * 1e5).astype(np.float32))
    got = T.quantize(wide, Q16_16)
    want = [quantize_naive(row.data, Q16_16) for row in columns(wide)]
    assert got.shape == wide.shape
    assert all(np.array_equal(g.data, q) for g, (q, _) in zip(columns(got), want))
    assert got.saturations == sum(s for _, s in want)


def product_geometry(x, kern):
    """How conv2d (4-D weights) or dense lays out its matrix products on
    x, one per block or tile, as (held, per) bytes: what is held beside
    the blocks or tiles (nothing for a Q16.16 batch under the exact bound;
    else the weights and bias as float64), and what a column of a conv
    block or an image of a dense tile takes: its float64 input terms (a
    conv block's K-major column; a dense tile's input copy, none under the
    exact bound) and, per output element, the float64 product; under the
    per-element certificate also the column's or image's bound, one
    float64 shared by its channels, and per output element the rounding
    test's upper end as the output stores it (float32 4 bytes, Q16.16 8)
    and the flag bytes, three where the zero pass runs and one where it
    does not."""
    out_ch = kern.weights.shape[0]
    depth = kern.weights.size // out_ch
    if x.dtype != FLOAT32 and exact_bound(x, kern) < 2**20:
        return 0, 8 * ((depth if len(kern.weights.shape) == 4 else 0) + out_ch)
    upper = 4 if x.dtype == FLOAT32 else 8
    flags = 3 if kern.zero_pass else 1
    return 8 * (kern.weights.size + out_ch), 8 * (depth + 1) + out_ch * (8 + upper + flags)


def scratch_budget(held, per, count):
    """SCRATCH_BYTES that holds `held` bytes plus `per` for each of `count`
    conv block columns or dense tile images."""
    return held + per * count


def tiled(kernel, budget, *args):
    """kernel(*args) under SCRATCH_BYTES = budget, and the number of its
    matrix products."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(T, "SCRATCH_BYTES", budget)
        sums = counting_products(mp)
        return kernel(*args), sums[0]


def product_block(budget, n, oh, ow, held, per):
    """The (images, output rows) of conv2d's product blocks under budget."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(T, "SCRATCH_BYTES", budget)
        return T._product_block(n, oh, ow, held, per)


def tile_length(budget, n, held, per):
    """The images per dense tile under budget."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(T, "SCRATCH_BYTES", budget)
        return T._tile_length(n, held, per)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    fixed=st.booleans(),
    by_rows=st.booleans(),
    tile=st.integers(1, 3),
    n=st.integers(2, 7),
    cin=st.integers(1, 3),
    cout=st.integers(1, 5),
    h=st.integers(1, 5),
    w=st.integers(1, 5),
    k=st.integers(1, 3),
    stride=st.integers(1, 2),
)
def test_tiled_kernels_match_oracles_row_by_row(seed, fixed, by_rows, tile, n, cin, cout, h, w, k, stride):
    # conv2d: either product blocks of output rows of all n images, at most
    # `tile` of them, split evenly (uneven when they do not divide the
    # rows), or blocks of one output row of fewer than n images, at most
    # `tile` of them, split evenly (partial when they do not divide n);
    # dense: tiles of `tile` images. Q16.16 sums take the exact product
    # under the bound and the per-element certificate past it
    rng = np.random.default_rng(seed)
    dtype = Q16_16 if fixed else FLOAT32
    k = min(k, h, w)
    oh, ow = (h - k) // stride + 1, (w - k) // stride + 1
    x = Tensor((cin, h, w, n), dtype, batch_values(rng, (cin, h, w, n), dtype))
    kern = Kernel(
        Tensor((cout, cin, k, k), dtype, batch_values(rng, (cout, cin, k, k), dtype)),
        Tensor((cout,), dtype, batch_values(rng, (cout,), dtype)),
    )
    held, per = product_geometry(x, kern)
    if by_rows:
        height = min(tile, oh)
        budget = scratch_budget(held, per, height * ow * n)
        block = (n, -(-oh // -(-oh // height)))
    else:
        images = min(tile, n - 1)
        budget = scratch_budget(held, per, images * ow)
        block = (-(-n // -(-n // images)), 1)
    assert product_block(budget, n, oh, ow, held, per) == block
    got, sums = tiled(T.conv2d, budget, x, kern, stride)
    assert sums == -(-n // block[0]) * -(-oh // block[1])
    want = [conv2d_naive(img, kern.weights, kern.bias, stride) for img in columns(x)]
    assert all(bitwise_equal(g, o) for g, o in zip(columns(got), want))
    assert got.saturations == sum(o.saturations for o in want)

    flat = x.reshaped((cin * h * w, n))
    dkern = Kernel(
        Tensor((cout, cin * h * w), dtype, batch_values(rng, (cout, cin * h * w), dtype)),
        kern.bias,
    )
    held, per = product_geometry(flat, dkern)
    budget = scratch_budget(held, per, tile)
    assert tile_length(budget, n, held, per) == min(n, tile)
    got, sums = tiled(T.dense, budget, flat, dkern)
    assert sums == -(-n // tile)
    want = [dense_naive(row, dkern.weights, dkern.bias) for row in columns(flat)]
    assert all(bitwise_equal(g, o) for g, o in zip(columns(got), want))
    assert got.saturations == sum(o.saturations for o in want)


@pytest.mark.parametrize("case", ["f32", "q16", "q16-past-bound"])
def test_row_blocks_match_oracles_row_by_row(case):
    # a budget for product blocks of 6 output rows of 37 images of 11x11
    # outputs: the 11 rows make one full block and a partial one of 5.
    # Q16.16 at scale 300 over 2x2 windows of 2 channels stays under the
    # exact bound, and of 8 channels passes it
    fixed = case != "f32"
    cin = 8 if case == "q16-past-bound" else 2
    rng = np.random.default_rng(7 + fixed)
    dtype = Q16_16 if fixed else FLOAT32
    n, oh = 37, 11
    x = Tensor((cin, 12, 12, n), dtype, batch_values(rng, (cin, 12, 12, n), dtype))
    kern = Kernel(
        Tensor((5, cin, 2, 2), dtype, batch_values(rng, (5, cin, 2, 2), dtype)),
        Tensor((5,), dtype, batch_values(rng, (5,), dtype)),
    )
    assert not fixed or (exact_bound(x, kern) >= 2**20) == (case == "q16-past-bound")
    held, per = product_geometry(x, kern)
    budget = scratch_budget(held, per, 6 * oh * n)
    assert product_block(budget, n, oh, oh, held, per) == (n, 6)
    got, sums = tiled(T.conv2d, budget, x, kern, 1)
    assert sums == 2
    want = [conv2d_naive(img, kern.weights, kern.bias, 1) for img in columns(x)]
    assert all(bitwise_equal(g, o) for g, o in zip(columns(got), want))
    assert got.saturations == sum(o.saturations for o in want)
    if fixed:
        assert got.saturations > 0


@pytest.mark.parametrize("hot", [(0,), (0, 3), (2, 4)])
def test_tiled_saturations_sum_over_tiles(hot):
    # seven Q16.16 images in conv product blocks of one output row of all
    # seven images and of one output row of two images, and in dense tiles
    # of two images; weights of ones keep the sums under the exact bound, of
    # twos take them past it. Only the hot images saturate, so a count that
    # drops any block's or tile's saturations reads low
    rng = np.random.default_rng(0)
    n = 7
    scale = np.where(np.isin(np.arange(n), hot), 30000.0, 1.0)
    raw = rng.random((2 * 4 * 4, n)) * scale
    x = Tensor((2, 4, 4, n), Q16_16, quantize_naive(raw.ravel(), Q16_16)[0])
    flat = x.reshaped((32, n))
    for weight in (1.0, 2.0):
        kern = Kernel(Tensor((3, 2, 3, 3), Q16_16, np.full(54, weight)), Tensor((3,), Q16_16, np.zeros(3)))
        assert (exact_bound(x, kern) >= 2**20) == (weight == 2.0)
        want = [conv2d_naive(img, kern.weights, kern.bias, 1) for img in columns(x)]
        assert [o.saturations > 0 for o in want] == [i in hot for i in range(n)]
        held, per = product_geometry(x, kern)
        for images, height in ((7, 1), (2, 1)):
            budget = scratch_budget(held, per, images * height * 2)
            assert product_block(budget, n, 2, 2, held, per) == (images, height)
            got, sums = tiled(T.conv2d, budget, x, kern, 1)
            assert sums == -(-n // images) * (2 // height)
            assert all(bitwise_equal(g, o) for g, o in zip(columns(got), want))
            assert got.saturations == sum(o.saturations for o in want)

        dkern = Kernel(Tensor((3, 32), Q16_16, np.full(96, weight)), kern.bias)
        assert (exact_bound(flat, dkern) >= 2**20) == (weight == 2.0)
        held, per = product_geometry(flat, dkern)
        got, sums = tiled(T.dense, scratch_budget(held, per, 2), flat, dkern)
        assert sums == -(-n // 2)
        want = [dense_naive(row, dkern.weights, dkern.bias) for row in columns(flat)]
        assert [o.saturations > 0 for o in want] == [i in hot for i in range(n)]
        assert all(bitwise_equal(g, o) for g, o in zip(columns(got), want))
        assert got.saturations == sum(o.saturations for o in want)


def fixed_values(rng, n, scale, signed_zeros=True):
    """Q16.16 values uniform in [-scale, scale], one in eight of them zero:
    -0.0 where the dropped value was negative if signed_zeros, else +0.0."""
    v = np.rint((rng.random(n) * 2 - 1) * scale * 2**16) / 2**16
    keep = rng.random(n) >= 0.125
    return v * keep if signed_zeros else np.where(keep, v, 0.0)


def exact_bound(x, kern):
    """The certificate's bound: max|b| + max_c sum_t |w_c,t| * max|x|."""
    w_rows = kern.weights.array.reshape(kern.weights.shape[0], -1)
    return np.abs(kern.bias.data).max() + np.abs(w_rows).sum(axis=1).max() * np.abs(x.data).max()


@pytest.mark.parametrize("cin, stride", [(1, 1), (1, 2), (3, 1), (3, 2)])
def test_certified_fixed_point_sums_take_blas(cin, stride):
    """Q16.16 batches whose bound stays under 2**20 are one matrix product
    per block of output rows of images (conv) or tile (dense), bitwise
    equal to the fold's oracles, saturations included; a budget for one
    row of two images per block or two images per tile leaves a partial
    last one. Zero weights and inputs carry both signs."""
    rng = np.random.default_rng(cin * 10 + stride)
    n, h, k, cout = 5, 9, 3, 4
    x = Tensor((cin, h, h, n), Q16_16, fixed_values(rng, n * cin * h * h, 190.0))
    kern = Kernel(
        Tensor((cout, cin, k, k), Q16_16, fixed_values(rng, cout * cin * k * k, 190.0)),
        Tensor((cout,), Q16_16, fixed_values(rng, cout, 190.0, signed_zeros=False)),
    )
    assert exact_bound(x, kern) < 2**20
    oh = (h - k) // stride + 1
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(T, "SCRATCH_BYTES", 8 * 2 * (cin * k * k + cout) * oh)
        sums = counting_products(mp)
        got = T.conv2d(x, kern, stride)
    assert sums == [3 * oh]
    want = [conv2d_naive(img, kern.weights, kern.bias, stride) for img in columns(x)]
    assert all(bitwise_equal(g, o) for g, o in zip(columns(got), want))
    assert got.saturations == sum(o.saturations for o in want) > 0

    m = 20
    flat = Tensor((m, n), Q16_16, fixed_values(rng, n * m, 220.0))
    dkern = Kernel(Tensor((cout, m), Q16_16, fixed_values(rng, cout * m, 220.0)), kern.bias)
    assert exact_bound(flat, dkern) < 2**20
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(T, "SCRATCH_BYTES", 8 * 2 * cout)
        sums = counting_products(mp)
        got = T.dense(flat, dkern)
    assert sums == [3]
    want = [dense_naive(row, dkern.weights, dkern.bias) for row in columns(flat)]
    assert all(bitwise_equal(g, o) for g, o in zip(columns(got), want))
    assert got.saturations == sum(o.saturations for o in want) > 0


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("case", ["f32-nonneg", "f32-signed", "q16"])
def test_product_blocks_of_output_rows_match_oracles(case, stride):
    """A budget that holds 3 output rows of window columns of every image,
    less than one image's rows: conv2d multiplies blocks of rows of all
    images, 3 + 3 + 3 (stride 1, 9 rows) or 3 + 2 (stride 2, 5 rows), one
    product each, images bitwise equal to the oracles."""
    rng = np.random.default_rng(stride)
    fixed = case == "q16"
    dtype = Q16_16 if fixed else FLOAT32
    n, cin, cout, k = 3, 2, 4, 3

    def values(shape, low):
        v = rng.uniform(low, 1.0, size=shape)
        return np.rint(v * 2**16) / 2**16 if fixed else v.astype(np.float32)

    x = Tensor((cin, 11, 7, n), dtype, values(n * cin * 77, 0.0 if case == "f32-nonneg" else -1.0))
    kern = Kernel(Tensor((cout, cin, k, k), dtype, values(cout * cin * k * k, -1.0)), Tensor((cout,), dtype, values(cout, -1.0)))
    oh, ow = (11 - k) // stride + 1, (7 - k) // stride + 1
    assert not fixed or exact_bound(x, kern) < 2**20
    held, per_column = product_geometry(x, kern)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(T, "SCRATCH_BYTES", held + per_column * (3 * ow * n + 1))
        sums = counting_products(mp)
        got = T.conv2d(x, kern, stride)
    assert sums == [-(-oh // 3)]
    want = [conv2d_naive(img, kern.weights, kern.bias, stride) for img in columns(x)]
    assert all(bitwise_equal(g, o) for g, o in zip(columns(got), want))


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("case", ["f32-nonneg", "f32-signed", "q16"])
def test_product_blocks_of_one_row_of_some_images_match_oracles(case, stride):
    """A budget that holds one output row of window columns of 3 of the 7
    images, less than a row of all of them: conv2d multiplies blocks of one
    output row of 3 + 3 + 1 images, one product each, for each of the 9
    (stride 1) or 5 (stride 2) rows, images bitwise equal to the
    oracles."""
    rng = np.random.default_rng(10 + stride)
    fixed = case == "q16"
    dtype = Q16_16 if fixed else FLOAT32
    n, cin, cout, k = 7, 2, 4, 3

    def values(shape, low):
        v = rng.uniform(low, 1.0, size=shape)
        return np.rint(v * 2**16) / 2**16 if fixed else v.astype(np.float32)

    x = Tensor((cin, 11, 7, n), dtype, values(n * cin * 77, 0.0 if case == "f32-nonneg" else -1.0))
    kern = Kernel(Tensor((cout, cin, k, k), dtype, values(cout * cin * k * k, -1.0)), Tensor((cout,), dtype, values(cout, -1.0)))
    oh, ow = (11 - k) // stride + 1, (7 - k) // stride + 1
    assert not fixed or exact_bound(x, kern) < 2**20
    held, per_column = product_geometry(x, kern)
    budget = held + per_column * (3 * ow + 1)
    assert product_block(budget, n, oh, ow, held, per_column) == (3, 1)
    got, sums = tiled(T.conv2d, budget, x, kern, stride)
    assert sums == 3 * oh
    want = [conv2d_naive(img, kern.weights, kern.bias, stride) for img in columns(x)]
    assert all(bitwise_equal(g, o) for g, o in zip(columns(got), want))


@pytest.mark.parametrize("bias", [-0.0, 0.0], ids=["minus-zero", "plus-zero"])
def test_minus_zero_bias_is_folded(bias):
    """Over an all-zero window the fold of -0.0 + (-0.5 * 0) + (-0.25 * 0)
    ends on -0.0, while a product that starts from +0.0 and adds the bias
    after ends on +0.0: both biases take the product, the zero sum of the
    -0.0 one is refolded, and both match the oracles' sign."""
    kern = Kernel(Tensor((1, 1, 1, 2), Q16_16, np.array([-0.5, -0.25])), Tensor((1,), Q16_16, np.array([bias])))
    dkern = Kernel(kern.weights.reshaped((1, 2)), kern.bias)
    x = Tensor((1, 1, 2, 1), Q16_16, np.zeros(2))
    with pytest.MonkeyPatch.context() as mp:
        sums = counting_products(mp)
        got = T.conv2d(x, kern, 1)
        got_dense = T.dense(x.reshaped((2, 1)), dkern)
    assert sums == [2]
    want = conv2d_naive(columns(x)[0], kern.weights, kern.bias, 1)
    assert bitwise_equal(columns(got)[0], want)
    want = dense_naive(columns(x.reshaped((2, 1)))[0], dkern.weights, dkern.bias)
    assert bitwise_equal(columns(got_dense)[0], want)
    assert np.signbit(got.data[0]) == np.signbit(got_dense.data[0]) == np.signbit(bias)


def test_fixed_point_sums_past_the_bound_take_the_certificate():
    """The scale-300 saturating values over 27-term sums: the bound reaches
    2**20, so conv2d and dense take the per-element certificate, one
    product each on this signed input, and still match the oracles."""
    rng = np.random.default_rng(5)
    n, cin, h, k, cout = 3, 3, 5, 3, 4
    x = Tensor((cin, h, h, n), Q16_16, batch_values(rng, (cin, h, h, n), Q16_16))
    kern = Kernel(
        Tensor((cout, cin, k, k), Q16_16, batch_values(rng, (cout, cin, k, k), Q16_16)),
        Tensor((cout,), Q16_16, batch_values(rng, (cout,), Q16_16)),
    )
    flat = Tensor((cin * k * k, n), Q16_16, batch_values(rng, (cin * k * k, n), Q16_16))
    dkern = Kernel(kern.weights.reshaped((cout, cin * k * k)), kern.bias)
    assert exact_bound(x, kern) >= 2**20 and exact_bound(flat, dkern) >= 2**20
    with pytest.MonkeyPatch.context() as mp:
        sums = counting_products(mp)
        got = T.conv2d(x, kern, 1)
        got_dense = T.dense(flat, dkern)
    assert sums == [2]
    want = [conv2d_naive(img, kern.weights, kern.bias, 1) for img in columns(x)]
    assert all(bitwise_equal(g, o) for g, o in zip(columns(got), want))
    assert got.saturations == sum(o.saturations for o in want) > 0
    want = [dense_naive(row, dkern.weights, dkern.bias) for row in columns(flat)]
    assert all(bitwise_equal(g, o) for g, o in zip(columns(got_dense), want))
    assert got_dense.saturations == sum(o.saturations for o in want) > 0


# Q16.16 inputs and, one row per output channel, weights and biases of sums
# past the exact bound: 2**11 * 2**10 = 2**21 terms that cancel exactly,
# and what is left lands where only the fold's bits settle the result
RES = 2.0**-16
PAST_BOUND_INPUT = np.array([2.0**10, RES, 2.0**10, RES, 2 - RES, -1.0])
PAST_BOUND_SUMS = {
    # 3 + 1/2 units: a rounding midpoint, rounds to 4 (even)
    "midpoint": ([2.0**11, 0, -(2.0**11), 0.5, 0, 0], 3 * RES),
    # the fold adds 2**-32 to 2**21 + 2**-15, a tie that rounds it away,
    # and ends on the midpoint 2 + 1/2 units, which rounds to 2; the exact
    # sum rounds to 3
    "order-dependent": ([2.0**11, RES, -(2.0**11), 0.5, 0, 0], 2 * RES),
    # 32767 + 1 - 2**-17: halfway between the format's max and one unit
    # past it; rounds past the max and saturates
    "max-midpoint": ([2.0**11, 0, -(2.0**11), 0, 0.5, 0], 32767.0),
    # -32768 + 2**-17: halfway between the min and one unit above it;
    # rounds to the min (even)
    "min-midpoint": ([2.0**11, 0, -(2.0**11), 0, -0.5, 0], -32767.0),
    # the big terms cancel to +0.0, then -2**-18 is left: rounds to -0.0
    "negative-zero": ([2.0**11, 0, -(2.0**11), -0.25, 0, 0], 0.0),
    # the big terms cancel and nothing is left: +0.0
    "cancelled-zero": ([2.0**11, 0, -(2.0**11), 0, 0, 0], 0.0),
    # a -0.0 bias and -0.0 terms on this input: only the fold gives -0.0
    "minus-zero-bias": ([-0.0, -0.0, -0.0, -0.0, -0.0, 0.0], -0.0),
}


def test_fixed_point_certificate_refolds_what_it_cannot_settle():
    """Q16.16 conv2d and dense on sums past the exact bound (PAST_BOUND_SUMS)
    over signed input, one product each: every row bitwise equal to the
    oracles, saturations and signs of zero included, with the refold
    deciding midpoints, a saturation and zero signs. The images are the
    input, its negation and its big terms zeroed; conv2d runs two windows
    per image, the input and its negation."""
    weights = np.array([w for w, _ in PAST_BOUND_SUMS.values()])
    biases = np.array([b for _, b in PAST_BOUND_SUMS.values()])
    terms = weights.shape[1]
    small = np.where(np.abs(PAST_BOUND_INPUT) > 2, 0.0, PAST_BOUND_INPUT)
    images = np.stack([PAST_BOUND_INPUT, -PAST_BOUND_INPUT, small], axis=-1)
    flat = Tensor(images.shape, Q16_16, images.ravel())
    dkern = Kernel(Tensor(weights.shape, Q16_16, weights.ravel()), Tensor(biases.shape, Q16_16, biases))
    x = Tensor((1, 2, terms, 3), Q16_16, np.stack([images, -images]).ravel())
    kern = Kernel(dkern.weights.reshaped((len(biases), 1, 1, terms)), dkern.bias)
    assert exact_bound(x, kern) >= 2**20 and exact_bound(flat, dkern) >= 2**20
    with pytest.MonkeyPatch.context() as mp:
        sums = counting_products(mp)
        folded = counting_refolds(mp)
        got = T.conv2d(x, kern, 1)
        conv_folded = folded[0]
        got_dense = T.dense(flat, dkern)
    assert sums == [2]
    assert conv_folded > 0 and folded[0] - conv_folded > 0
    want = [conv2d_naive(img, kern.weights, kern.bias, 1) for img in columns(x)]
    assert all(bitwise_equal(g, o) for g, o in zip(columns(got), want))
    assert got.saturations == sum(o.saturations for o in want) > 0
    want = [dense_naive(row, dkern.weights, dkern.bias) for row in columns(flat)]
    assert all(bitwise_equal(g, o) for g, o in zip(columns(got_dense), want))
    assert got_dense.saturations == sum(o.saturations for o in want) > 0
    # the first image's sums, as the comments of PAST_BOUND_SUMS give them
    first = dict(zip(PAST_BOUND_SUMS, got_dense.array[:, 0]))
    assert first["midpoint"] == 4 * RES and first["order-dependent"] == 2 * RES
    exact = math.fsum([2.0**-15] + list(weights[1] * PAST_BOUND_INPUT))
    assert np.rint(exact / RES) == 3
    assert first["max-midpoint"] == Q16_16.max_value and first["min-midpoint"] == Q16_16.min_value
    assert np.signbit(first["negative-zero"]) and np.signbit(first["minus-zero-bias"])
    assert first["cancelled-zero"] == 0 and not np.signbit(first["cancelled-zero"])
    assert got.array[:, 0, 0, 0].tobytes() == got_dense.array[:, 0].tobytes()


def capturing_refolds(mp):
    """Patch tensor._fold_elements to record, per call, a mask of the
    elements it folds in its destination, the kernel's output (channel,
    ..., image), in the returned list."""
    masks = []
    real = T._fold_elements

    def fold(dtype, dst, w_rows, bias, at, *inputs):
        mask = np.zeros(dst.shape, dtype=bool)
        mask.reshape(-1)[at] = True
        masks.append(mask)
        return real(dtype, dst, w_rows, bias, at, *inputs)

    mp.setattr(T, "_fold_elements", fold)
    return masks


def bound_values(rng, size, fixed, special):
    """float32 values of every class the bound must cover: signed normals
    from 2**-30 to 2**30, subnormals, signed zeros, values near the float32
    max and, if special, infinities and NaNs; or Q16.16 values over the
    whole range, multiples of a few units, and signed zeros."""
    kind = rng.integers(0, 5 if special else 4, size)
    sign = rng.choice([-1.0, 1.0], size)
    if fixed:
        return np.select(
            [kind == 0, kind == 1, kind == 2],
            [rng.integers(-(2**31), 2**31, size) * RES, rng.integers(-8, 9, size) * RES, sign * 0.0],
            rng.integers(-(2**20), 2**20, size) * RES,
        )
    v = np.select(
        [kind == 0, kind == 1, kind == 2, kind == 3],
        [
            sign * rng.uniform(1, 2, size) * 2.0 ** rng.integers(-30, 31, size),
            sign * rng.integers(1, 2**10, size) * 2.0**-149,
            sign * 0.0,
            sign * rng.uniform(0.5, 1, size) * 2.0**127,
        ],
        rng.choice(SPECIAL_VALUES, size).astype(np.float64),
    )
    return v.astype(np.float32)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    fixed=st.booleans(),
    special=st.booleans(),
    n=st.integers(1, 2),
    cin=st.integers(1, 3),
    cout=st.integers(1, 3),
    h=st.integers(1, 5),
    w=st.integers(1, 5),
    kh=st.integers(1, 3),
    kw=st.integers(1, 3),
    stride=st.integers(1, 2),
)
def test_bounds_cover_the_exact_magnitude_sum(seed, fixed, special, n, cin, cout, h, w, kh, kw, stride):
    """Every window's bound, as conv2d computes it (_window_bounds, on
    square and rectangular kernels, at strides 1 and 2) and as dense does
    (_to_bounds on the column norms), is at least (n + 4) 2**-51 A for every
    output channel, n the element's terms (the bias and the products) and
    A the math.fsum of |b| and the |w x|, on signed, subnormal, zero and
    near-max float32 values and on Q16.16 values past the exact bound. An
    element with a NaN or infinite term or bound is always refolded, and every row
    is bitwise equal to the oracles, every NaN the canonical quiet NaN
    whatever the payloads of its terms."""
    rng = np.random.default_rng(seed)
    special = special and not fixed
    dtype = Q16_16 if fixed else FLOAT32
    kh, kw = min(kh, h), min(kw, w)
    x = bound_values(rng, n * cin * h * w, fixed, special)
    weights = bound_values(rng, cout * cin * kh * kw, fixed, special)
    dense_weights = bound_values(rng, cout * cin * h * w, fixed, special)
    bias = bound_values(rng, cout, fixed, special)
    if fixed:
        # 64 * 30000 takes both kernels past the exact bound 2**20
        x[0], weights[0], dense_weights[0] = -30000.0, 64.0, 64.0
    x = Tensor((cin, h, w, n), dtype, x)
    flat = x.reshaped((cin * h * w, n))
    kern = Kernel(Tensor((cout, cin, kh, kw), dtype, weights), Tensor((cout,), dtype, bias))
    dkern = Kernel(Tensor((cout, cin * h * w), dtype, dense_weights), kern.bias)
    oh, ow = (h - kh) // stride + 1, (w - kw) // stride + 1

    def conv_bounds(inp, factors):
        return T._window_bounds(inp.array, kh, kw, stride, factors).ravel().copy()

    def dense_bounds(inp, factors):
        bounds = np.sqrt(np.einsum("ij,ij->j", *[inp.array.astype(np.float64)] * 2))
        T._to_bounds(bounds, factors)
        return bounds

    # per kernel: its input, the oracle of one image, every element's input
    # window or column, keyed by (output position, image) in C order, and
    # the bounds as the kernel computes them
    cases = [
        (x, kern, lambda img: conv2d_naive(img, kern.weights, kern.bias, stride),
         {(r, q, i): x.array[:, r * stride:r * stride + kh, q * stride:q * stride + kw, i].ravel()
          for r in range(oh) for q in range(ow) for i in range(n)},
         conv_bounds),
        (flat, dkern, lambda row: dense_naive(row, dkern.weights, dkern.bias),
         {(i,): flat.array[:, i] for i in range(n)},
         dense_bounds),
    ]
    for inp, kernel, oracle, windows, window_bounds in cases:
        with np.errstate(invalid="ignore", over="ignore"), pytest.MonkeyPatch.context() as mp:
            masks = capturing_refolds(mp)
            got = T.conv2d(inp, kernel, stride) if kernel is kern else T.dense(inp, kernel)
            wants = [oracle(row) for row in columns(inp)]
        assert got.saturations == sum(o.saturations for o in wants)
        assert got.array.tobytes() == np.stack([o.array for o in wants], axis=-1).tobytes()
        folded = np.zeros(got.shape, dtype=bool)
        for mask in masks:
            folded |= mask
        w_rows, b, factors, _ = T._operands(kernel, inp.array)
        assert factors is not None
        with np.errstate(invalid="ignore"):  # as the kernels run it
            bounds = window_bounds(inp, factors)
        for c in range(cout):
            for (pos, window), e in zip(windows.items(), bounds):
                idx = (c,) + pos
                products = [float(wt) * float(xt) for wt, xt in zip(w_rows[c], window)]
                # another channel's infinite or NaN weight or bias makes
                # the window's bound +inf or NaN, which flags it too
                if not all(math.isfinite(v) for v in products + [b[c], e]):
                    assert folded[idx], idx
                    continue
                exact = math.fsum([abs(b[c])] + [abs(v) for v in products])
                assert Fraction(float(e)) >= Fraction(w_rows.shape[1] + 5, 2**51) * Fraction(exact), idx


def channel_bounds(kernel, norms):
    """Each output channel's own bound of the element-wise certificate,
    k (||w_c||, |b_c|) times (||x||, 1) as (channel, window) float64 with k
    = (n + 5) 2**-51, and the per-window bound F ||x|| + G of the kernels,
    F and G the channels' maxima of those factors."""
    w_rows = kernel.weight_rows
    k = (w_rows.shape[1] + 6) * 2.0**-51
    factors = np.stack([np.sqrt(np.einsum("ij,ij->i", w_rows, w_rows)) * k, np.abs(kernel.bias_values) * k], axis=1)
    with np.errstate(invalid="ignore", over="ignore"):
        per_channel = factors @ np.stack([norms, np.ones_like(norms)])
        bounds = norms.copy()
        T._to_bounds(bounds, kernel.bound_factors)
    return per_channel, bounds


# float32 weight classes for the bound's maxima: mixed norms, signed
# zeros, subnormals, and infinities and NaNs
CHANNEL_VALUES = np.array([0.5, -3.0, 2.0**-20, 0.0, -0.0, 2.0**-149, -(2.0**-140), 2.0**100], dtype=np.float32)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    special=st.booleans(),
    cout=st.integers(1, 6),
    depth=st.integers(1, 12),
    n=st.integers(1, 4),
)
def test_window_bound_covers_every_channel_bound(seed, special, cout, depth, n):
    """The per-window bound F ||x|| + G is at least every output channel's
    own bound k ||w_c|| ||x|| + k |b_c| after rounding, on seeded kernels
    whose channels have norms apart by up to 2**120 (one channel scaled
    per example), and with +-0.0, subnormal and, if special, infinite and
    NaN weights and biases: where a channel's bound is NaN the window's is
    NaN too, and the window's bound is NaN or at least each channel's. It
    reads F and G from Kernel.bound_factors, which are the maxima over
    the channels, and the kernels give the oracles' bits."""
    rng = np.random.default_rng(seed)
    values = np.concatenate([CHANNEL_VALUES, SPECIAL_VALUES]) if special else CHANNEL_VALUES
    weights = rng.choice(values, size=(cout, depth)) * rng.uniform(0.5, 2, (cout, depth)).astype(np.float32)
    weights[rng.integers(cout)] *= np.float32(2.0 ** rng.integers(-20, 21))
    bias = rng.choice(values, size=cout)
    x = rng.choice(np.concatenate([CHANNEL_VALUES[:7], [np.float32(1e30)]]), size=(depth, n)).astype(np.float32)
    with np.errstate(over="ignore", invalid="ignore"):
        kern = Kernel(Tensor((cout, depth), FLOAT32, weights.astype(np.float32).ravel()),
                      Tensor((cout,), FLOAT32, bias.astype(np.float32)))
        norms = np.sqrt(np.einsum("ij,ij->j", *[x.astype(np.float64)] * 2))
    per_channel, bounds = channel_bounds(kern, norms)
    f, g = kern.bound_factors
    k = (depth + 6) * 2.0**-51
    with np.errstate(invalid="ignore"):
        want_f = np.sqrt(np.einsum("ij,ij->i", kern.weight_rows, kern.weight_rows)) * k
    assert np.array_equal(f, np.max(want_f), equal_nan=True)
    assert np.array_equal(g, np.max(np.abs(kern.bias_values) * k), equal_nan=True)
    nan = np.isnan(bounds)
    assert (nan | ~np.isnan(per_channel).any(axis=0)).all()
    assert (bounds[~nan] >= per_channel[:, ~nan]).all()
    inp = Tensor((depth, n), FLOAT32, x.ravel())
    with np.errstate(invalid="ignore", over="ignore"):
        got = T.dense(inp, kern)
        want = [dense_naive(row, kern.weights, kern.bias) for row in columns(inp)]
    assert all(bitwise_equal(g, o) for g, o in zip(columns(got), want))


@pytest.mark.parametrize(
    "n, cin, cout, h, w, kh, kw, stride, images, rows, products, groups",
    [
        (7, 2, 8, 8, 6, 3, 2, 1, 7, 3, 2, 1),
        (6, 1, 8, 20, 6, 3, 2, 1, 6, 3, 6, 2),
        (5, 2, 16, 17, 7, 2, 3, 2, 3, 1, 16, 4),
        (3, 3, 4, 8, 8, 3, 3, 2, 3, 3, 1, 1),
    ],
    ids=["one-group-of-image-blocks", "two-groups-of-image-blocks", "row-blocks-at-stride-2", "one-block"],
)
def test_conv_blocks_read_their_window_norms(n, cin, cout, h, w, kh, kw, stride, images, rows, products, groups):
    """conv2d takes the window bounds of a group of blocks' output rows at
    once and each block reads its own: the bounds its blocks hand to
    _round_sums, in call order, are bitwise the _window_bounds of each run
    of the blocks' images in turn, with blocks of `rows` output rows of
    all n images or of one row of `images` of them (3 + 2 at stride 2,
    each run in groups of 6 + 2 rows, so a later group's slab starts at
    input row top * stride), groups of several blocks or one, and a short
    last group (12 + 6 rows at stride 1). Every image is bitwise equal to
    the oracles."""
    rng = np.random.default_rng(8)
    x = Tensor((cin, h, w, n), FLOAT32, batch_values(rng, (cin, h, w, n), FLOAT32))
    kern = Kernel(
        Tensor((cout, cin, kh, kw), FLOAT32, batch_values(rng, (cout, cin, kh, kw), FLOAT32)),
        Tensor((cout,), FLOAT32, batch_values(rng, (cout,), FLOAT32)),
    )
    oh, ow = (h - kh) // stride + 1, (w - kw) // stride + 1
    held, per = product_geometry(x, kern)
    budget = scratch_budget(held, per, rows * ow * images)
    assert product_block(budget, n, oh, ow, held, per) == (images, rows)
    read, calls = [], [0]
    real_round, real_bounds = T._round_sums, T._window_bounds

    def round_sums(kernel, refold, sums, out, cap, bounds, *args):
        read.append(bounds.copy().ravel())
        return real_round(kernel, refold, sums, out, cap, bounds, *args)

    def window_bounds(*args):
        calls[0] += 1
        return real_bounds(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(T, "_round_sums", round_sums)
        mp.setattr(T, "_window_bounds", window_bounds)
        got, sums = tiled(T.conv2d, budget, x, kern, stride)
    assert (sums, calls[0]) == (products, groups)
    runs = [T._window_bounds(x.array[..., i:i + images], kh, kw, stride, kern.bound_factors).ravel()
            for i in range(0, n, images)]
    assert np.concatenate(read).tobytes() == np.concatenate(runs).tobytes()
    want = [conv2d_naive(img, kern.weights, kern.bias, stride) for img in columns(x)]
    assert all(bitwise_equal(g, o) for g, o in zip(columns(got), want))


# lenet layers in Q16.16 with weights scaled by 64 on inputs up to +-30000:
# nearly every sum saturates, by far more than E
SATURATING_LAYERS = {"conv1": (1, 28, 28), "conv2": (6, 12, 12), "fc1": (256,)}


@pytest.mark.parametrize("layer", list(SATURATING_LAYERS))
def test_saturated_ends_settle_without_a_refold(layer):
    """Q16.16 sums past the exact bound whose two ends, rint((s -+ E) 2**16),
    both lie past the same saturation limit are settled, saturation
    included: none of the refolded elements saturates in the oracles,
    while most elements do, and every row and the saturation count are
    bitwise those of the oracles."""
    model = quantize_model(seed_weights(build_lenet(), 2), Q16_16)
    kern = model.get_layer(layer).params
    kern = Kernel(Tensor(kern.weights.shape, Q16_16, kern.weights.data * 64), kern.bias)
    shape = SATURATING_LAYERS[layer]
    rng = np.random.default_rng(3)
    x = Tensor(shape + (2,), Q16_16, np.rint((rng.random(2 * math.prod(shape)) * 2 - 1) * 30000 * 2**16) / 2**16)
    assert exact_bound(x, kern) >= 2**20
    op = (lambda t: T.conv2d(t, kern, 1)) if len(shape) == 3 else (lambda t: T.dense(t, kern))
    with pytest.MonkeyPatch.context() as mp:
        masks = capturing_refolds(mp)
        got = op(x)
    if len(shape) == 3:
        want = [conv2d_naive(img, kern.weights, kern.bias, 1) for img in columns(x)]
    else:
        want = [dense_naive(row, kern.weights, kern.bias) for row in columns(x)]
    assert all(bitwise_equal(g, o) for g, o in zip(columns(got), want))
    assert got.saturations == sum(o.saturations for o in want) > got.size // 2
    assert len(masks) <= 1 and all(mask.shape == got.shape for mask in masks)
    saturated = np.stack([np.abs(o.array) >= Q16_16.max_value for o in want], axis=-1)
    assert not any((mask & saturated).any() for mask in masks)


# ranges [low, high) of the fixed-point certificate's bound B (exact_bound)
# and the B each case aims at: below half the Q16.16 range, 2**14, where
# the finish skips the saturation count; certified, past half the range,
# with sums that saturate; and past the exact bound 2**20
BOUND_RANGES = {
    "below-half-range": (0, 2**14, 2**13),
    "certified-saturating": (2**14, 2**20, 2**17),
    "past-exact-bound": (2**20, math.inf, 2**22),
}


@settings(max_examples=45, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    span=st.sampled_from(list(BOUND_RANGES)),
    sign=st.sampled_from([1.0, -1.0]),
    n=st.integers(1, 3),
    cin=st.integers(1, 3),
    cout=st.integers(1, 3),
    h=st.integers(1, 5),
    k=st.integers(1, 3),
)
def test_fixed_point_finish_in_every_range_of_the_bound(seed, span, sign, n, cin, cout, h, k):
    """Q16.16 conv2d and dense with B in each of BOUND_RANGES: inputs up to
    X and weights up to W in magnitude, the first image all sign * X and
    the first channel's weights all W, so that its sums there come within
    2 max|b| of B, saturating past the format's range. _operands certifies the first two
    ranges and caps the sums by B, every row is bitwise equal to the
    oracles, and the saturation counts are theirs."""
    rng = np.random.default_rng(seed)
    low, high, target = BOUND_RANGES[span]
    k = min(k, h)
    depth = cin * h * h

    def q16(v):
        return np.rint(np.asarray(v) * 2**16) / 2**16

    x_max = q16(math.sqrt(target / depth))
    x = q16(rng.uniform(-x_max, x_max, (cin, h, h, n)))
    x[..., 0] = sign * x_max
    bias = Tensor((cout,), Q16_16, q16(rng.uniform(-1, 1, cout)))

    def kernel(shape):
        w_max = q16(target / (math.prod(shape) * x_max))
        w = q16(rng.uniform(-w_max, w_max, (cout,) + shape))
        w[0] = w_max
        return Kernel(Tensor(w.shape, Q16_16, w.ravel()), bias)

    x = Tensor(x.shape, Q16_16, x.ravel())
    flat = x.reshaped((depth, n))
    kern, dkern = kernel((cin, k, k)), kernel((depth,))
    cases = [
        (T.conv2d(x, kern), [conv2d_naive(img, kern.weights, kern.bias, 1) for img in columns(x)], x, kern),
        (T.dense(flat, dkern), [dense_naive(row, dkern.weights, dkern.bias) for row in columns(flat)], flat, dkern),
    ]
    for got, want, inp, kernel in cases:
        bound = exact_bound(inp, kernel)
        assert low <= bound < high
        _, _, factors, cap = T._operands(kernel, inp.array)
        assert (factors is None) == (bound < 2**20)
        assert cap == (bound if factors is None else math.inf)
        assert all(bitwise_equal(g, o) for g, o in zip(columns(got), want))
        assert got.saturations == sum(o.saturations for o in want)
        assert (got.saturations > 0) == (span != "below-half-range")


# float32 values whose products (1, 2**-12, 2**-24, 2**-27, 2**-39, 2**-54,
# ...) put sums on, next to and far from float32 rounding midpoints: 1 +
# 2**-24 lies halfway between 1 and its float32 successor, and 2**-54 terms
# move it by less than a float64 ulp, so such a sum's float32 bits depend on
# the order its terms are added in
MIDPOINT_VALUES = np.array(
    [0.0, -0.0, 1.0, -1.0, 2.0**-12, -(2.0**-12), 2.0**-27, -(2.0**-27), 1.0 + 2.0**-23, 3.0], dtype=np.float32
)
# both infinities and quiet NaNs of three payloads and both signs
SPECIAL_VALUES = np.concatenate([
    np.array([np.inf, -np.inf], dtype=np.float32),
    np.array([0x7FC00001, 0xFFC0ABCD, 0x7FD23456], dtype=np.uint32).view(np.float32),
])


def midpoint_values(rng, shape, special):
    """MIDPOINT_VALUES of the given shape, each replaced by one of
    SPECIAL_VALUES with probability special."""
    v = rng.choice(MIDPOINT_VALUES, size=shape)
    hit = rng.random(shape) < special
    v[hit] = rng.choice(SPECIAL_VALUES, size=int(hit.sum()))
    return v


def counting_refolds(mp):
    """Patch tensor._fold_elements to count the elements it folds in the
    returned one-element list."""
    folded = [0]
    real = T._fold_elements

    def counted(dtype, dst, w_rows, bias, at, *inputs):
        folded[0] += at.size
        return real(dtype, dst, w_rows, bias, at, *inputs)

    mp.setattr(T, "_fold_elements", counted)
    return folded


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    special=st.sampled_from([0.0, 0.05]),
    n=st.integers(1, 3),
    cin=st.integers(1, 3),
    cout=st.integers(1, 3),
    h=st.integers(1, 5),
    w=st.integers(1, 5),
    k=st.integers(1, 3),
    stride=st.integers(1, 2),
)
def test_float32_refolds_what_the_certificate_cannot_settle(seed, special, n, cin, cout, h, w, k, stride):
    """float32 conv2d and dense on sums on and next to rounding midpoints,
    on NaN and infinite inputs, weights and biases, and in one extra output
    channel of signed-zero weights and a -0.0 bias, whose exact zero sums
    only the fold gives a sign: every row bitwise equal to the oracles, NaN
    payloads and signs of zero included, and some elements refolded."""
    rng = np.random.default_rng(seed)
    k = min(k, h, w)
    signed_zeros = np.array([0.0, -0.0], dtype=np.float32)

    def kernel(shape):
        weights = midpoint_values(rng, (cout + 1,) + shape, special)
        weights[-1] = rng.choice(signed_zeros, size=shape)
        bias = midpoint_values(rng, (cout + 1,), special)
        bias[-1] = -0.0
        return Kernel(Tensor(weights.shape, FLOAT32, weights.ravel()), Tensor((cout + 1,), FLOAT32, bias))

    x = Tensor((cin, h, w, n), FLOAT32, midpoint_values(rng, (cin, h, w, n), special).ravel())
    kern = kernel((cin, k, k))
    flat = x.reshaped((cin * h * w, n))
    dkern = kernel((cin * h * w,))
    with np.errstate(invalid="ignore", over="ignore"), pytest.MonkeyPatch.context() as mp:
        folded = counting_refolds(mp)
        got = T.conv2d(x, kern, stride)
        conv_folded = folded[0]
        got_dense = T.dense(flat, dkern)
        want = [conv2d_naive(img, kern.weights, kern.bias, stride) for img in columns(x)]
        want_dense = [dense_naive(row, dkern.weights, dkern.bias) for row in columns(flat)]
    assert all(bitwise_equal(g, o) for g, o in zip(columns(got), want))
    assert all(bitwise_equal(g, o) for g, o in zip(columns(got_dense), want_dense))
    assert conv_folded >= got.size // got.shape[0] and folded[0] - conv_folded >= n


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 3),
    cin=st.integers(1, 3),
    cout=st.integers(1, 3),
    h=st.integers(1, 5),
    w=st.integers(1, 5),
    k=st.integers(1, 3),
    stride=st.integers(1, 2),
)
def test_nan_outputs_are_the_canonical_quiet_nan(seed, n, cin, cout, h, w, k, stride):
    """float32 conv2d and dense with a fifth of their inputs, weights and
    biases replaced by SPECIAL_VALUES, so that NaNs of different payloads
    and signs, and infinities of both signs, meet in one sum, and a NaN
    first input: every NaN output is the canonical quiet NaN, and every
    row is bitwise equal to the oracles."""
    rng = np.random.default_rng(seed)
    k = min(k, h, w)
    x = midpoint_values(rng, (cin, h, w, n), 0.2)
    x[0, 0, 0, 0] = rng.choice(SPECIAL_VALUES[2:])
    x = Tensor(x.shape, FLOAT32, x.ravel())
    flat = x.reshaped((cin * h * w, n))

    def kernel(shape):
        weights = midpoint_values(rng, (cout,) + shape, 0.2)
        bias = midpoint_values(rng, (cout,), 0.2)
        return Kernel(Tensor(weights.shape, FLOAT32, weights.ravel()), Tensor((cout,), FLOAT32, bias))

    kern, dkern = kernel((cin, k, k)), kernel((cin * h * w,))
    with np.errstate(invalid="ignore", over="ignore"):
        cases = [
            (T.conv2d(x, kern, stride), [conv2d_naive(img, kern.weights, kern.bias, stride) for img in columns(x)]),
            (T.dense(flat, dkern), [dense_naive(row, dkern.weights, dkern.bias) for row in columns(flat)]),
        ]
    for got, want in cases:
        nan = np.isnan(got.data)
        assert nan.any()
        assert (got.data[nan].view(np.uint32) == 0x7FC00000).all()
        assert all(bitwise_equal(g, o) for g, o in zip(columns(got), want))


def test_order_dependent_float32_sum_is_refolded():
    """1 + 2**-12 * 2**-12 + three 2**-27 * 2**-27 products: the fold adds
    each 2**-54 to 1 + 2**-24, a float32 midpoint, where it rounds away, and
    ends on the midpoint, which rounds to 1.0; the exact sum, and a sum that
    adds the small terms first, round to 1 + 2**-23. The certificate cannot
    settle it, and the refold gives the fold's 1.0."""
    terms = np.array([2.0**-12] + [2.0**-27] * 3, dtype=np.float32)
    x = Tensor((4, 1), FLOAT32, terms)
    kern = Kernel(Tensor((1, 4), FLOAT32, terms), Tensor((1,), FLOAT32, np.ones(1, dtype=np.float32)))
    assert np.float32(math.fsum([1.0] + [float(t) ** 2 for t in terms])) == 1.0 + 2.0**-23
    with pytest.MonkeyPatch.context() as mp:
        folded = counting_refolds(mp)
        got = T.dense(x, kern)
    assert folded == [1]
    assert bitwise_equal(columns(got)[0], dense_naive(columns(x)[0], kern.weights, kern.bias))
    assert got.data[0] == 1.0


def fold_budget(per, depth, itemsize=4):
    """A SCRATCH_BYTES whose quarter, the fold's room in a call without a
    window-column scratch of its own, holds `per` elements of `depth`
    terms beside a word of rounding: per term an index and a float64
    term, 8 bytes each, and an input as the call's input stores it, and
    the element's float64 bias."""
    return 4 * (per * ((16 + itemsize) * depth + 8) + 8)


@pytest.mark.parametrize("per", [1, 3, None], ids=["slices-of-1", "slices-of-3", "own-buffer"])
def test_fold_elements_sums_left_to_right(per):
    """The refold adds bias first, then term by term, as a scalar loop
    does, on terms where NumPy's pairwise sum gives other bits: 1 plus
    forty 2**-53-sized terms each round away when added to 1 one at a time,
    while pairwise partial sums of them do not. Five elements of a dense
    call's output are handed over at once by their positions, their terms
    read from the call's input columns, and written as float64: under a
    budget whose fold share holds one or three elements they are folded
    in slices of that many as the share fills (5 or 3 + 2; a lone element
    beside a copy of itself), under the real one in one slice at the
    flush."""
    rng = np.random.default_rng(11)
    depth, columns = 40, 5
    w_rows = np.full((2, depth), 2.0**-27)
    x = rng.choice(np.array([2.0**-26, 3 * 2.0**-26, -(2.0**-26)], dtype=np.float32), size=(depth, columns))
    bias = np.array([1.0, -1.0])
    kern = Kernel(Tensor((2, depth), FLOAT32, w_rows.ravel().astype(np.float32)),
                  Tensor((2,), FLOAT32, bias.astype(np.float32)))
    dst = np.zeros((2, columns))
    flat = np.arange(0, dst.size, 2)
    with pytest.MonkeyPatch.context() as mp:
        if per is not None:
            mp.setattr(T, "SCRATCH_BYTES", fold_budget(per, depth))
        masks = capturing_refolds(mp)
        refold = T._Refold(kern, dst, x, 0)
        refold.gather(flat, columns, 0)
        refold.flush()
    assert [int(m.sum()) for m in masks] == {1: [1] * 5, 3: [3, 2], None: [5]}[per]
    differs = 0
    for f in flat:
        c, j = divmod(int(f), columns)
        acc = float(bias[c])
        for t in range(depth):
            acc += float(w_rows[c, t]) * float(x[t, j])
        assert dst[c, j].tobytes() == np.float64(acc).tobytes()
        differs += np.sum(np.concatenate([bias[c:c + 1], w_rows[c] * x[:, j]])) != acc
    assert differs > 0
    untouched = np.setdiff1d(np.arange(dst.size), flat)
    assert not dst.reshape(-1)[untouched].any()


# inputs whose products with 2**-27 put 2**-53, then forty-seven 2**-54,
# after a bias of 1: added to 1 one at a time each rounds away, so the
# running sum stays 1, while a pairwise sum of one column of them adds the
# small ones together first and ends past 1
LONE_INPUTS = np.array([2.0**-26] + [2.0**-27] * 47, dtype=np.float32)


@pytest.mark.parametrize("case", ["one", "two", "all-minus-zero"])
def test_fold_elements_of_one_two_and_minus_zero_terms(case):
    """Folds of the sizes and signs the refold's reduction must get right,
    each one flush of a dense call's refold, written as float64 and held
    against a scalar running sum: a lone element, summed beside a copy of
    itself, whose terms a pairwise sum of their one column (np.add.reduce
    over a single column) adds in another order; two elements of two
    channels; and two elements whose -0.0 bias and terms are all -0.0,
    which the fold ends on -0.0 only because it starts from -0.0, where a
    reduction from +0.0 gives +0.0."""
    depth = LONE_INPUTS.size
    if case == "all-minus-zero":
        x = np.full((depth, 3), -0.0, dtype=np.float32)
        weights = np.full((2, depth), 1.0, dtype=np.float32)
        bias = np.full(2, -0.0, dtype=np.float32)
    else:
        x = np.stack([LONE_INPUTS, -LONE_INPUTS, LONE_INPUTS * 2], axis=1)
        weights = np.stack([np.full(depth, 2.0**-27), np.full(depth, -(2.0**-28))]).astype(np.float32)
        bias = np.array([1.0, -1.0], dtype=np.float32)
    kern = Kernel(Tensor(weights.shape, FLOAT32, weights.ravel()), Tensor((2,), FLOAT32, bias))
    at = {"one": [0], "two": [1, 5], "all-minus-zero": [2, 4]}[case]
    dst = np.zeros((2, 3))
    with pytest.MonkeyPatch.context() as mp:
        masks = capturing_refolds(mp)
        refold = T._Refold(kern, dst, x, 0)
        refold.gather(np.array(at), 3, 0)
        refold.flush()
    assert [int(m.sum()) for m in masks] == [len(at)]
    for f in at:
        c, j = divmod(f, 3)
        terms = [float(bias[c])] + [float(wt) * float(xt) for wt, xt in zip(weights[c], x[:, j])]
        acc = terms[0]
        for t in terms[1:]:
            acc += t
        assert dst[c, j].tobytes() == np.float64(acc).tobytes(), f
        if case == "one":
            assert np.add.reduce(np.array(terms)[:, None], axis=0)[0] != acc
    assert np.count_nonzero(dst) == np.count_nonzero(dst.reshape(-1)[at])
    if case == "all-minus-zero":
        assert np.signbit(dst.reshape(-1)[at]).all()


def test_cifar_conv2_refolds_as_the_fold_scratch_fills():
    """cifar's conv2 (depth 800) on the pool1 outputs of eight synthesized
    images runs 10 blocks of one output row of all eight. Each block hands
    the positions of its flagged elements to the call's refold, and they
    are folded when the fold's room (the blocks' window-column scratch,
    800 x 80 float64 values, holds 31 elements of 800 terms at 16008 bytes
    each, beside a word) fills and once more at the end of the call:
    fewer folds than blocks with flagged elements, each full but the
    last. Every refolded element is bitwise the scalar fold of its window
    (dense_naive of the window and its channel's weights), and every
    image is bitwise the oracle's."""
    model = seed_weights(build_cifar_net(), 2)
    images = synthesize(8, model.input_shape, 7, "uniform").pixels
    _, taps = forward_batch(model, images, ("pool1",))
    pool1 = np.moveaxis(taps["pool1"], 0, -1)
    x = Tensor(pool1.shape, FLOAT32, pool1.ravel())
    kern = model.get_layer("conv2").params
    gathered = []
    real_gather = T._Refold.gather

    def gather(self, flat, *args):
        gathered.append(flat.size)
        return real_gather(self, flat, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(T._Refold, "gather", gather)
        masks = capturing_refolds(mp)
        sums = counting_products(mp)
        got = T.conv2d(x, kern, 1)
    assert sums == [10] and len(gathered) == 10
    per = (8 * 800 * 80 - 8) // (20 * 800 + 8)
    folds = [int(m.sum()) for m in masks]
    total = sum(gathered)
    assert per == 31 and total > per
    assert folds == [per] * (total // per) + [total % per] * (total % per > 0)
    assert len(folds) < sum(size > 0 for size in gathered)
    w_rows = kern.weights.array.reshape(32, -1)
    for c, r, q, i in zip(*np.nonzero(np.logical_or.reduce(masks))):
        window = Tensor((800,), FLOAT32, x.array[:, r:r + 5, q:q + 5, i].ravel())
        row = Kernel(Tensor((1, 800), FLOAT32, w_rows[c]), Tensor((1,), FLOAT32, kern.bias.data[c:c + 1]))
        assert got.array[c, r, q, i].tobytes() == dense_naive(window, row.weights, row.bias).data.tobytes()
    want = [conv2d_naive(img, kern.weights, kern.bias, 1) for img in columns(x)]
    assert all(bitwise_equal(g, o) for g, o in zip(columns(got), want))


def refold_across_blocks_cases():
    """A float32 conv2d and a dense call, each with flagged sums in three or
    more product blocks or tiles, and the SCRATCH_BYTES under which they
    meet them: a NaN, a 0 * inf and an inf - inf sum, and zero sums of the
    -0.0 bias of channel 1 over -0.0 inputs. conv2d: 2 output channels over 3x1x2 windows
    of 5 images of 3x6x3, in blocks of 2 output rows of all 5 images,
    flagged sums in rows 0, 2, 4 and 5. dense: 2 outputs of 64 inputs on
    170 images, in tiles of 12, flagged sums in images 5, 70, 120 and 130.
    The fold's room, the blocks' window columns (conv2d: 6 x 20 float64
    values) or the tiles' input copy (dense: 64 x 12), holds exactly 7
    (conv2d: 952 // 128, 20 bytes per term and 8 per element) or 4 (dense:
    6136 // 1288) elements."""
    rng = np.random.default_rng(4)
    bias = Tensor((2,), FLOAT32, np.array([0.25, -0.0], dtype=np.float32))
    x = rng.uniform(0.5, 1.0, (3, 6, 3, 5)).astype(np.float32)
    w = rng.uniform(0.5, 1.0, (2, 3, 1, 2)).astype(np.float32)
    w[0, 1, 0, 0] = 0.0
    x[0, 0, 0, 1] = np.nan
    x[1, 2, 0, 3] = np.inf  # times channel 0's zero weight: NaN
    x[0, 4, 0, 0], x[2, 4, 0, 0] = -np.inf, np.inf
    x[:, 5, :, 2] = -0.0
    conv = (Tensor(x.shape, FLOAT32, x.ravel()), Kernel(Tensor(w.shape, FLOAT32, w.ravel()), bias), 2400)
    x = rng.uniform(0.5, 1.0, (64, 170)).astype(np.float32)
    w = rng.uniform(0.5, 1.0, (2, 64)).astype(np.float32)
    w[0, 1] = 0.0
    x[0, 5] = np.nan
    x[:, 70] = -0.0
    x[1, 120] = np.inf
    x[2, 130], x[3, 130] = -np.inf, np.inf
    dense = (Tensor(x.shape, FLOAT32, x.ravel()), Kernel(Tensor(w.shape, FLOAT32, w.ravel()), bias), 7640)
    return {"conv2d": conv, "dense": dense}


@pytest.mark.parametrize("name", ["conv2d", "dense"])
def test_refold_gathers_across_blocks(name):
    """A call's flagged sums, handed over by position block by block
    (_Refold.gather, only by blocks that flag any), are folded whenever
    the fold's scratch fills and once more at the end (_fold_elements
    calls): 2 + 2 + 4 into folds of 7 and 1 (conv2d), 2 + 1 + 4 into 4
    and 3 (dense). Every column is bitwise the oracles', NaN,
    infinities and the -0.0 bias's signed zeros included. The folds run
    under the caller's error state: its invalid warnings are the ones the
    fold gives (from the products' multiply and the running sum), an
    errstate that raises on them stops the call, and one that ignores
    them leaves none."""
    x, kern, budget = refold_across_blocks_cases()[name]
    call = (lambda: T.conv2d(x, kern, 1)) if name == "conv2d" else (lambda: T.dense(x, kern))
    gathered = []
    real_gather = T._Refold.gather

    def gather(self, flat, *args):
        gathered.append(flat.size)
        return real_gather(self, flat, *args)

    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        mp.setattr(T, "SCRATCH_BYTES", budget)
        mp.setattr(T._Refold, "gather", gather)
        masks = capturing_refolds(mp)
        sums = counting_products(mp)
        got = call()
    folds = [int(m.sum()) for m in masks]
    if name == "conv2d":
        assert (sums, gathered, folds) == ([3], [2, 2, 4], [7, 1])
    else:
        assert (sums, gathered, folds) == ([15], [2, 1, 4], [4, 3])
    with np.errstate(invalid="ignore", over="ignore"):
        oracle = conv2d_naive if name == "conv2d" else dense_naive
        want = [oracle(img, kern.weights, kern.bias, *([1] if name == "conv2d" else [])) for img in columns(x)]
    assert all(bitwise_equal(g, o) for g, o in zip(columns(got), want))
    assert np.isnan(got.data).any() and np.signbit(got.array[1][got.array[1] == 0]).all()
    assert {(w.category, str(w.message)) for w in caught} == {
        (RuntimeWarning, "invalid value encountered in multiply"),
        (RuntimeWarning, "invalid value encountered in reduce"),
    }
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(T, "SCRATCH_BYTES", budget)
        with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
            call()
        with warnings.catch_warnings(record=True) as caught, np.errstate(all="ignore"):
            warnings.simplefilter("always")
            assert call().data.tobytes() == got.data.tobytes()
        assert not caught


@pytest.mark.parametrize("bias", [0.0, -0.0], ids=["plus-zero", "minus-zero"])
def test_all_zero_float32_sums_refold_only_for_a_minus_zero_bias(bias):
    """Sums of signed-zero inputs and a signed-zero bias: the fold ends on
    -0.0 only when the bias and every term are -0.0, so with a +0.0 bias
    the products' +0.0 stands and nothing is refolded, while with a -0.0
    bias every sum is. Image 0 is all -0.0 and channel 0's weights are
    positive, so its terms are all -0.0; rows bitwise equal to the
    oracles."""
    rng = np.random.default_rng(5)
    values = np.array([1.0, -2.0, 2.0**-12, 0.0, -0.0], dtype=np.float32)
    x = rng.choice(np.array([0.0, -0.0], dtype=np.float32), size=(2, 5, 5, 3))
    x[..., 0] = -0.0
    x = Tensor(x.shape, FLOAT32, x.ravel())
    weights = rng.choice(values, size=(4, 2, 3, 3))
    weights[0] = 1.0
    biases = Tensor((4,), FLOAT32, np.full(4, bias, dtype=np.float32))
    kern = Kernel(Tensor(weights.shape, FLOAT32, weights.ravel()), biases)
    flat = x.reshaped((50, 3))
    dense_weights = rng.choice(values, size=(4, 50))
    dense_weights[0] = 1.0
    dkern = Kernel(Tensor((4, 50), FLOAT32, dense_weights.ravel()), biases)
    with pytest.MonkeyPatch.context() as mp:
        folded = counting_refolds(mp)
        got = T.conv2d(x, kern, 1)
        got_dense = T.dense(flat, dkern)
    assert folded == [got.size + got_dense.size if np.signbit(bias) else 0]
    want = [conv2d_naive(img, kern.weights, kern.bias, 1) for img in columns(x)]
    assert all(bitwise_equal(g, o) for g, o in zip(columns(got), want))
    want = [dense_naive(row, dkern.weights, dkern.bias) for row in columns(flat)]
    assert all(bitwise_equal(g, o) for g, o in zip(columns(got_dense), want))
    assert (got.data == 0).all() and (got_dense.data == 0).all()
    assert np.signbit(got.array[0, ..., 0]).all() == np.signbit(bias)
    assert np.signbit(got_dense.array[0, 0]) == np.signbit(bias)


# channel 0's bias b0 sets G = k |b0| with k = (2 + 6) 2**-51 = 2**-48, as
# the bound factor of a depth-2 kernel: well below, just below and at the
# 2**-148 from which float32 calls skip the zero pass
ZERO_PASS_BIASES = {
    "well-below": 2.0**-103,
    "just-below": 2.0**-100 * (1 - 2.0**-24),
    "at": 2.0**-100,
}


@pytest.mark.parametrize("bias", [0.0, -0.0], ids=["plus-zero", "minus-zero"])
@pytest.mark.parametrize("case", list(ZERO_PASS_BIASES))
def test_zero_pass_at_the_bound_factor_boundary(case, bias):
    """float32 conv2d and dense with G = max_c k |b_c| just at, and below,
    2**-148, over all-zero windows (+-0.0 inputs) and a +0.0 or -0.0 bias
    in channel 1: every zero sum's sign is the fold's, bitwise equal to
    the oracles. Below 2**-148 the zero pass runs: at G = 2**-151 a zero
    sum's lower end s - G rounds to -0.0 beside an upper end of +0.0, so
    only the zero pass refolds it, and without it a +0.0 sum would read
    -0.0. From 2**-148 on every zero lower end differs from its upper end
    and the pass is skipped, and every zero sum is still refolded."""
    rng = np.random.default_rng(12)
    b0 = np.float32(ZERO_PASS_BIASES[case])
    assert float(b0) == ZERO_PASS_BIASES[case]
    biases = Tensor((2,), FLOAT32, np.array([b0, bias], dtype=np.float32))
    x = rng.choice(np.array([0.0, -0.0], dtype=np.float32), size=(1, 3, 4, 3))
    conv = Kernel(Tensor((2, 1, 1, 2), FLOAT32, np.array([0.5, -1.0, 0.25, 2.0], dtype=np.float32)), biases)
    flat = x.reshape(-1, 3)[:2]
    dense = Kernel(Tensor((2, 2), FLOAT32, np.array([0.5, -1.0, 0.25, 2.0], dtype=np.float32)), biases)
    g = conv.bound_factors[1]
    assert g == dense.bound_factors[1] == float(b0) * 2.0**-48
    assert (g < 2.0**-148) == (case != "at")
    cases = [
        (lambda t: T.conv2d(t, conv, 1), x, lambda img: conv2d_naive(img, conv.weights, conv.bias, 1)),
        (lambda t: T.dense(t, dense), flat, lambda row: dense_naive(row, dense.weights, dense.bias)),
    ]
    for call, values, oracle in cases:
        inp = Tensor(values.shape, FLOAT32, values.ravel())
        passes, real = [], T._flag_zeros
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(T, "_flag_zeros", lambda *args: passes.append(1) or real(*args))
            folded = counting_refolds(mp)
            got = call(inp)
        want = [oracle(img) for img in columns(inp)]
        assert all(bitwise_equal(gc, o) for gc, o in zip(columns(got), want))
        assert bool(passes) == (case != "at")
        # channel 1 is all zero sums, and each is refolded
        assert (got.array[1] == 0).all() and folded[0] == got.array[1].size
        assert np.signbit(got.array[1]).any() == np.signbit(bias)


def test_a_tap_only_pass_stops_at_its_deepest_tap():
    """forward_batch without labels runs no kernel past the deepest layer
    it keeps, and writes the taps of a full pass bitwise: keeping lenet's
    fc1 it calls dense once per chunk (fc1 alone), keeping conv2 never;
    collect_observations and stream_hit_rate take that walk."""
    model = seed_weights(build_lenet(), 2)
    data = synthesize(2 * forward_chunk(model) + 3, model.input_shape, 6, "uniform")
    fc = {id(model.get_layer(name).params): name for name in ("fc1", "fc2", "fc3")}
    _, full = forward_batch(model, data.pixels, ("conv2", "fc1"))
    for keep, runs in [(("fc1",), ["fc1"] * 3), (("conv2",), []), (("conv2", "fc1"), ["fc1"] * 3)]:
        called, real = [], T.dense
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(T, "dense", lambda x, kernel, **kw: called.append(fc[id(kernel)]) or real(x, kernel, **kw))
            labels, taps = forward_batch(model, data.pixels, keep, labels=False)
            observed = collect_observations(model, data, keep[-1])
            hits = stream_hit_rate(model, [SigmaBand(keep[-1], 0.0, 1.0, "upper", 3.0, 4.0)], data, keep[-1])
        assert labels is None
        assert called == runs * 3
        for name in keep:
            assert taps[name].tobytes() == full[name].tobytes()
        assert observed.tobytes() == full[keep[-1]].reshape(-1).astype(np.float64).tobytes()
        assert hits[1] == len(data)


def test_kernels_never_see_an_empty_batch():
    """A tensor has no zero-length axis, so conv2d and dense always get at
    least one image; forward_batch answers an empty image list without
    calling them (test_forward_batch_dtype_on_empty_input)."""
    for shape in [(0, 1, 5, 5), (0, 25)]:
        with pytest.raises(DimensionError):
            Tensor.from_array(np.zeros(shape, dtype=np.float32))


@pytest.mark.parametrize("n", [1, 2, 37, 76, 90])
@pytest.mark.parametrize("case", ["f32", "f32-minus-zero-bias", "f32-nan-input", "q16", "q16-certified-minus-zero-bias"])
def test_batch_column_is_the_kernel_on_its_image_alone(case, n):
    """The layout contract at the real budget: column i of a conv2d,
    maxpool2d or dense result on a batch of n images, image axis last, is
    bitwise the same kernel on a batch of image i alone, and the
    saturations are summed over the columns. The conv blocks hold 2
    output rows of all 37 images (certified: 3), one row of all 76, and
    one row of 45 of the 90 (certified: of all 90). Image 0 of the -0.0
    bias cases is all zeros, whose sums only the fold gives a sign; the
    Q16.16 values are past the exact bound but for the certified case."""
    rng = np.random.default_rng(n)
    dtype = FLOAT32 if case.startswith("f32") else Q16_16
    shape = (3, 32, 32)

    def values(size):
        if case.startswith("q16-certified"):
            return fixed_values(rng, size, 4.0)
        return batch_values(rng, (size,), dtype)

    x = values(math.prod(shape) * n).reshape(shape + (n,))
    if case.endswith("minus-zero-bias"):
        x[..., 0] = 0.0
    if case.endswith("nan-input"):
        x[1, 5, 7, n // 2] = np.nan
    x = Tensor(x.shape, dtype, x.ravel())

    def kernel(w_shape):
        bias = values(w_shape[0])
        if case.endswith("minus-zero-bias"):
            bias[0] = -0.0
        return Kernel(Tensor(w_shape, dtype, values(math.prod(w_shape))), Tensor(w_shape[:1], dtype, bias))

    conv, fc = kernel((8, 3, 3, 3)), kernel((10, math.prod(shape)))
    if dtype == Q16_16:
        assert (exact_bound(x, conv) < 2**20) == case.startswith("q16-certified")
    calls = {
        "conv2d": (x, lambda t: T.conv2d(t, conv, 1)),
        "maxpool2d": (x, lambda t: T.maxpool2d(t, 2, 2)),
        "dense": (x.reshaped((math.prod(shape), n)), lambda t: T.dense(t, fc)),
    }
    for name, (inp, call) in calls.items():
        with np.errstate(invalid="ignore", over="ignore"):
            got = call(inp)
            alone = [call(img.reshaped(img.shape + (1,))) for img in columns(inp)]
        assert got.shape[-1] == n, name
        assert all(got.array[..., i].tobytes() == a.data.tobytes() for i, a in enumerate(alone)), name
        assert got.saturations == sum(a.saturations for a in alone), name
        assert np.isnan(got.data).any() == case.endswith("nan-input"), name


def test_quantized_lenet_fc2_takes_the_product():
    """quantize rounds fc2.bias[3], -5.7e-6, to -0.0; the layer still takes the
    matrix product (one per tile), and its relu3 inputs, zeros among them,
    give the oracles' bits."""
    model = quantize_model(seed_weights(build_lenet(), 2), Q16_16)
    fc2 = model.get_layer("fc2").params
    assert np.signbit(fc2.bias.data[3]) and fc2.bias.data[3] == 0
    images = saturating_images(model.input_shape, 4, seed=3)
    _, taps = forward_batch(model, stacked(images), ("relu3",))
    x = Tensor(taps["relu3"].T.shape, Q16_16, taps["relu3"].T.ravel())
    assert (x.data == 0).any()
    with pytest.MonkeyPatch.context() as mp:
        sums = counting_products(mp)
        got = T.dense(x, fc2)
    assert sums == [1]
    want = [dense_naive(row, fc2.weights, fc2.bias) for row in columns(x)]
    assert all(bitwise_equal(g, o) for g, o in zip(columns(got), want))


@pytest.mark.parametrize(
    "case, build, layer, whole",
    [
        ("f32", build_lenet, "conv1", 4),
        ("f32", build_lenet, "fc1", 4),
        ("f32", build_cifar_net, "conv1", 4),
        ("f32", build_cifar_net, "conv2", 1),
        ("q16", build_lenet, "conv1", 4),
        ("q16", build_lenet, "fc1", 4),
        ("q16", build_cifar_net, "conv1", 4),
        ("q16", build_cifar_net, "conv2", 1),
        ("q16-past", build_lenet, "conv1", 4),
        ("q16-past", build_lenet, "fc1", 4),
        ("q16-past-signed", build_lenet, "fc1", 4),
        ("q16-past-signed", build_cifar_net, "conv1", 4),
        ("q16-past", build_cifar_net, "conv2", 1),
    ],
    ids=[
        "conv1", "fc1", "cifar-conv1", "cifar-conv2",
        "q16-conv1", "q16-fc1", "q16-cifar-conv1", "q16-cifar-conv2",
        "q16-past-conv1", "q16-past-fc1", "q16-past-signed-fc1", "q16-past-signed-cifar-conv1",
        "q16-past-cifar-conv2",
    ],
)
def test_kernel_scratch_stays_within_budget(case, build, layer, whole):
    """A batch of `whole` budgets of images and one more (dense: `whole`
    full tiles and a partial one) peaks at its output plus one block's or
    tile's scratch: no kernel holds a whole batch's float64 accumulator,
    which for each of these batches would exceed the bound. Every block or
    tile is one matrix product: of Q16.16 inputs in [0, 1), which are
    certified, of float32 inputs >= 0, and of Q16.16 inputs up to 30000,
    or signed, on weights scaled by 64 (past the bound), which take the
    per-element certificate. A conv block holds output rows of all the
    images where one row of them fits the budget, else one output row of
    a run of them."""
    model = seed_weights(build(), 2)
    if case != "f32":
        model = quantize_model(model, Q16_16)
    spec = model.get_layer(layer)
    kern = spec.params
    if case.startswith("q16-past"):
        kern = Kernel(Tensor(kern.weights.shape, Q16_16, kern.weights.data * 64), kern.bias)
    in_shape = {l.name: i for l, i, _ in iter_layer_shapes(model)}[layer]
    out_shape = layer_output_shapes(model)[layer]
    depth = kern.weights.size // out_shape[0]
    window = math.prod(out_shape[1:])
    # bytes per output position: certified fixed point, the float64
    # K-major column (conv) and product per output element; otherwise the
    # column (conv) or input row (dense) and its bound, and per output
    # element the product, the rounding test's upper end as the output
    # stores it and the flag bytes (three, or one for float32, whose
    # seeded kernels skip the zero pass), beside the float64 weights and
    # bias
    if case == "q16":
        per_column, held = 8 * ((depth if spec.kind == "conv" else 0) + out_shape[0]), 0
    else:
        upper, flags = (4, 1) if case == "f32" else (8, 3)
        assert kern.zero_pass == (case != "f32")
        per_column = 8 * (depth + 1) + out_shape[0] * (8 + upper + flags)
        held = 8 * (kern.weights.size + out_shape[0])
    per_image = per_column * window
    columns = (T.SCRATCH_BYTES - held) // per_column
    n = whole * max(1, columns // window) + 1
    if spec.kind == "dense":
        blocks = whole + 1
    elif columns >= out_shape[2] * n:
        # output rows of all n images, in blocks of at most columns // (width n) rows
        blocks = -(-out_shape[1] // (columns // (out_shape[2] * n)))
    else:
        # one output row of at most columns // width images
        blocks = out_shape[1] * -(-n // (columns // out_shape[2]))
    values = np.random.default_rng(0).random(n * math.prod(in_shape))
    if case == "f32":
        x = Tensor(in_shape + (n,), FLOAT32, values.astype(np.float32))
    else:
        if case != "q16":
            values = (values * 2 - 1 if case.endswith("signed") else values) * 30000
        x = Tensor(in_shape + (n,), Q16_16, np.rint(values * 2**16) / 2**16)
        assert (exact_bound(x, kern) >= 2**20) == (case != "q16")
    slack = 256 << 10  # NumPy's own ufunc buffers (8192 elements per operand)
    assert n * per_image > T.SCRATCH_BYTES + slack

    vars(T._SCRATCH).clear()  # this thread's kernel scratch grows anew, whatever ran before
    with pytest.MonkeyPatch.context() as mp:
        sums = counting_products(mp)
        tracemalloc.start()
        try:
            if spec.kind == "conv":
                got = T.conv2d(x, kern, 1)
            else:
                got = T.dense(x, kern)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert got.shape == out_shape + (n,)
    assert peak <= got.data.nbytes + T.SCRATCH_BYTES + slack
    assert sums == [blocks]


def cancelling_model(spec, seed):
    """spec with every weight and bias set to ±1 or ±2**-30, by the sign and
    size of its seeded value."""

    def crafted(t):
        a = t.data
        v = np.sign(a) * np.where(np.abs(a) > np.median(np.abs(a)), 1.0, TINY)
        return Tensor(t.shape, FLOAT32, v.astype(np.float32))

    params = model_params(seed_weights(spec, seed))
    return apply_weights(spec, {name: crafted(t) for name, t in params.items()})


def cancelling_images(shape, count, seed):
    """Images with one pixel in ten drawn from cancelling_values, the rest 0."""
    rng = np.random.default_rng(seed)
    n = int(np.prod(shape))
    return [
        Tensor(shape, FLOAT32, cancelling_values(rng, n) * (rng.random(n) < 0.1).astype(np.float32))
        for _ in range(count)
    ]


def saturating_images(shape, count, seed):
    # above Q16.16's 32767 some pixels saturate in quantize, and conv1 sums
    # of 25 terms of this size saturate too
    rng = np.random.default_rng(seed)
    n = int(np.prod(shape))
    return [Tensor(shape, FLOAT32, (rng.random(n) * 40000.0).astype(np.float32)) for _ in range(count)]


def build_mlp():
    return ModelSpec(
        "mlp",
        (1, 8, 8),
        (
            LayerSpec("flatten", "flatten", {}),
            LayerSpec("fc1", "dense", {"units": 512}),
            LayerSpec("relu1", "relu", {}),
            LayerSpec("fc2", "dense", {"units": 10}),
        ),
    )


# model, image maker, and a SCRATCH_BYTES for forward_batch that cuts a
# small chunk of at least 5 images (cifar 5, lenet 9 in both dtypes, mlp 8)
# while every conv's float64 weights still fit, so that the conv blocks
# stay wide enough to run quickly
MODELS = {
    "mlp-f32": (lambda: cancelling_model(build_mlp(), 4), cancelling_images, 1 << 14),
    "lenet-f32": (lambda: cancelling_model(build_lenet(), 2), cancelling_images, 1 << 17),
    "lenet-q16": (lambda: quantize_model(seed_weights(build_lenet(), 2), Q16_16), saturating_images, 1 << 18),
    "cifar-f32": (lambda: cancelling_model(build_cifar_net(), 3), cancelling_images, 1 << 19),
}

# forward_batch's image counts per test id, from a model's chunk: none,
# one, the chunk -1, exact and +1 (a short last chunk of one image), and
# past two full chunks
COUNTS = {
    "zero": lambda chunk: 0,
    "one": lambda chunk: 1,
    "chunk-1": lambda chunk: chunk - 1,
    "chunk": lambda chunk: chunk,
    "chunk+1": lambda chunk: chunk + 1,
    "two-batches": lambda chunk: 2 * chunk + 1,
}


def counting_saturations(mp):
    """Patch the saturating kernels on the tensor module, where the layer
    walk looks them up, to add every result's saturations to the returned
    one-element list."""
    total = [0]

    def counting(kernel):
        def counted(*args, **kwargs):
            result = kernel(*args, **kwargs)
            total[0] += result.saturations
            return result

        return counted

    for name in ("conv2d", "dense", "quantize"):
        mp.setattr(T, name, counting(getattr(T, name)))
    return total


@pytest.fixture(scope="module", params=sorted(MODELS))
def model_case(request):
    """The model, its chunk under its patched budget, and enough images for
    the largest count of COUNTS with their per-image forward traces and
    saturation counts (forward at the real budget)."""
    build, make_images, budget = MODELS[request.param]
    model = build()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(T, "SCRATCH_BYTES", budget)
        chunk = forward_chunk(model)
    images = make_images(model.input_shape, 2 * chunk + 1, seed=3)
    traces, saturations = [], []
    with pytest.MonkeyPatch.context() as mp:
        total = counting_saturations(mp)
        for img in images:
            total[0] = 0
            traces.append(forward(model, img))
            saturations.append(total[0])
    return model, budget, chunk, images, traces, saturations


@pytest.mark.parametrize("counts_id", list(COUNTS))
def test_forward_batch_matches_forward_on_every_tap(model_case, counts_id, monkeypatch):
    """forward_batch at the counts of COUNTS, so that the pass meets a
    short, a full and a spilling chunk, and more than two chunks."""
    model, budget, chunk, images, traces, saturations = model_case
    n = COUNTS[counts_id](chunk)
    monkeypatch.setattr(T, "SCRATCH_BYTES", budget)
    total = counting_saturations(monkeypatch)
    shapes = layer_output_shapes(model)
    labels, taps = forward_batch(model, stacked(images[:n], model.input_shape), list(shapes))
    assert labels.shape == (n,)
    assert labels.tolist() == [t.final_label for t in traces[:n]]
    assert total[0] == sum(saturations[:n]), n
    if n and model_numeric_dtype(model) == Q16_16:
        assert total[0] > 0  # the images force saturation
    for name, shape in shapes.items():
        assert taps[name].shape == (n,) + shape, name
        for i, trace in enumerate(traces[:n]):
            tap = trace.taps[name]
            assert taps[name].dtype == tap.data.dtype, name
            assert taps[name][i].tobytes() == tap.data.tobytes(), (name, i, n)


def test_forward_taps_carry_their_kernels_saturations(model_case):
    """forward's conv and dense taps are the kernels' own outputs: with
    the input's quantize, their saturation counts are every saturation of
    the image's walk, and the Q16.16 images saturate conv1."""
    model, _, _, images, traces, saturations = model_case
    mode = model_numeric_dtype(model)
    kinds = {layer.name: layer.kind for layer in model.layers}
    at_taps = []
    for img, trace, want in zip(images, traces, saturations):
        at_taps.append(sum(tap.saturations for name, tap in trace.taps.items() if kinds[name] in ("conv", "dense")))
        entry = T.quantize(img, mode).saturations if mode == Q16_16 else 0
        assert entry + at_taps[-1] == want
    assert (sum(at_taps) > 0) == (mode == Q16_16)


@pytest.mark.parametrize("build, q16", [(build_lenet, False), (build_lenet, True), (build_cifar_net, False)],
                         ids=["lenet-f32", "lenet-q16", "cifar-f32"])
def test_forward_batch_at_the_real_chunk_matches_forward(build, q16):
    """The seeded models at the real budget: forward_batch over chunk - 1,
    chunk, chunk + 1 and 2 chunk + 1 images, whose short last chunks run
    through the pass buffers viewed in their own shapes, gives every label
    and tap of the per-image forward bitwise."""
    model = seed_weights(build(), 2)
    if q16:
        model = quantize_model(model, Q16_16)
    chunk = forward_chunk(model)
    data = synthesize(2 * chunk + 1, model.input_shape, 9, "uniform")
    traces = [forward(model, img) for img in data.images()]
    shapes = layer_output_shapes(model)
    for n in (chunk - 1, chunk, chunk + 1, 2 * chunk + 1):
        labels, taps = forward_batch(model, data.pixels[:n], list(shapes))
        assert labels.tolist() == [t.final_label for t in traces[:n]], n
        for name, tap in taps.items():
            assert tap.tobytes() == b"".join(t.taps[name].data.tobytes() for t in traces[:n]), (name, n)


@pytest.mark.parametrize(
    "name, chunk",
    [("mlp-f32", 512), ("lenet-f32", 75), ("lenet-q16", 37), ("cifar-f32", 10)],
    ids=["mlp-f32", "lenet-f32", "lenet-q16", "cifar-f32"],
)
def test_stage_chunks_at_the_real_budget(name, chunk):
    """The chunk is the budget over the widest per-image activation as
    stored: conv1's output for the convnets (lenet 6·24·24 float32 or
    float64 values, cifar 32·28·28 float32), fc1's 512 float32 for mlp."""
    assert forward_chunk(MODELS[name][0]()) == chunk


@pytest.mark.parametrize(
    "build, q16, blocks",
    [
        (build_lenet, False, {"conv1": [3600] * 12, "conv2": [600] * 8}),
        (build_lenet, True, {"conv1": [3552] * 6, "conv2": [592] * 4}),
        (build_cifar_net, False, {"conv1": [840] * 9 + [280], "conv2": [100] * 10}),
    ],
    ids=["lenet-f32", "lenet-q16", "cifar-f32"],
)
def test_conv_product_blocks_at_the_real_chunk(build, q16, blocks):
    """The product blocks of every conv layer in forward_batch over one
    full chunk at the real budget, as the columns of each product in call
    order: float32 lenet conv1 two output rows of all 75 images (2 x 24
    x 75 columns) and conv2 one row of all 75 (8 x 75); Q16.16 lenet,
    certified, 4 and 2 rows of all 37; cifar conv1 three rows of all 10,
    the 28 rows in 9 such blocks and one of the last row, and conv2 one
    row of all 10. The per-window bound takes no bytes per output element
    and a conv column's lies in its group's bounds, which lets lenet
    conv1's blocks hold two rows and cifar conv1's three."""
    model = seed_weights(build(), 2)
    if q16:
        model = quantize_model(model, Q16_16)
    convs = {id(layer.params.weight_rows): layer.name for layer in model.layers if layer.kind == "conv"}
    got = {name: [] for name in convs.values()}
    real = T._sum_products

    def spy(a, b, bias, out):
        if id(a) in convs:
            got[convs[id(a)]].append(b.shape[1])
        return real(a, b, bias, out)

    images = synthesize(forward_chunk(model), model.input_shape, 9, "uniform").pixels
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(T, "_sum_products", spy)
        forward_batch(model, images, ())
    assert got == blocks


@pytest.mark.parametrize("name", ["cifar-f32", "lenet-f32", "lenet-q16"])
def test_forward_batch_memory_stays_within_four_budgets(name):
    """300 images, far more than the chunk: the pass holds one chunk's
    stacked input and activations and one kernel's scratch, never the whole
    input's activations."""
    build, make_images, _ = MODELS[name]
    model = build()
    images = stacked(make_images(model.input_shape, 300, seed=1))
    vars(T._SCRATCH).clear()  # this thread's kernel scratch grows anew, whatever ran before
    tracemalloc.start()
    try:
        labels, _ = forward_batch(model, images, ())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert labels.shape == (300,)
    assert peak <= 4 * T.SCRATCH_BYTES


# a second 300-image pass in a fresh interpreter, after one pass to warm up:
# the benchmark's weights (seed 2) and uniform images; prints the minor
# page faults of the second pass per image
FAULTS_PER_IMAGE = """
import resource, sys
from trojansim import models, tensor
from trojansim.data import synthesize
model = models.seed_weights(models.build_model(sys.argv[1]), 2)
if sys.argv[2] == "q16":
    model = models.quantize_model(model, tensor.Q16_16)
images = synthesize(300, model.input_shape, 1, "uniform").pixels
models.forward_batch(model, images, ())
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
models.forward_batch(model, images, ())
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 300)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc's malloc thresholds")
@pytest.mark.parametrize("name, dtype", [("cifar", "f32"), ("lenet", "f32"), ("lenet", "q16")],
                         ids=["cifar-f32", "lenet-f32", "lenet-q16"])
def test_a_pass_takes_no_fresh_pages_per_chunk(name, dtype):
    """glibc maps every block of 128 KiB or more afresh and unmaps it when
    freed under these settings, and gives back the heap's free top at
    once, so every activation or kernel scratch a chunk made anew would
    touch fresh pages: a chunk's output of conv1 alone is 1 MB, 250 faults.
    A pass reuses its two activation buffers and the kernels their
    per-thread scratch, and takes a few faults per image (the batch-last
    copy of each chunk's input and small temporaries), where making them
    per chunk took 18 to 85. One BLAS thread, as in the benchmark: a
    threaded OpenBLAS product maps its own job array afresh on every
    call."""
    env = dict(os.environ, MALLOC_MMAP_THRESHOLD_="131072", MALLOC_TRIM_THRESHOLD_="0", OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(Path(T.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run([sys.executable, "-c", FAULTS_PER_IMAGE, name, dtype],
                            env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert float(result.stdout) < 5


def test_concurrent_passes_match_sequential_ones():
    """Two threads run forward_batch at once, each pass many times over,
    float32 cifar and Q16.16 lenet with every layer kept: each thread's
    kernels use scratch of their own, so every label and tap keeps the
    bits of the same pass run alone."""
    cifar = seed_weights(build_cifar_net(), 2)
    q16 = MODELS["lenet-q16"][0]()
    jobs = [
        (cifar, synthesize(25, cifar.input_shape, 4, "uniform").pixels),
        (q16, stacked(saturating_images(q16.input_shape, 80, seed=4))),
    ]
    alone = [forward_batch(model, images, list(layer_output_shapes(model))) for model, images in jobs]
    start = threading.Barrier(len(jobs))

    def passes(model, images):
        start.wait(timeout=60)
        return [forward_batch(model, images, list(layer_output_shapes(model))) for _ in range(3)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # the threads' Python steps interleave too
    try:
        with concurrent.futures.ThreadPoolExecutor(len(jobs)) as pool:
            running = [pool.submit(passes, *job) for job in jobs]
            together = [r.result(timeout=300) for r in running]
    finally:
        sys.setswitchinterval(interval)
    for (labels, taps), runs in zip(alone, together):
        for got_labels, got_taps in runs:
            assert got_labels.tolist() == labels.tolist()
            assert got_taps.keys() == taps.keys()
            for name, tap in taps.items():
                assert got_taps[name].tobytes() == tap.tobytes(), name


@pytest.mark.parametrize(
    "name, parts",
    [("cifar-f32", [10] * 30), ("lenet-q16", [37] * 8 + [4])],
    ids=["cifar-f32", "lenet-q16"],
)
def test_first_stage_parts_at_the_real_budget(name, parts, monkeypatch):
    """conv1's parts in a 300-image pass: whole chunks, then what is left
    (cifar's chunk of 10 divides 300, Q16.16 lenet's 37 leaves 4)."""
    build, make_images, _ = MODELS[name]
    model = build()
    real, conv1 = T.conv2d, []

    def counting(input, kernel, *args, **kwargs):
        if input.shape[:-1] == model.input_shape:
            conv1.append(input.shape[-1])
        return real(input, kernel, *args, **kwargs)

    monkeypatch.setattr(T, "conv2d", counting)
    forward_batch(model, stacked(make_images(model.input_shape, 300, seed=2)), ())
    assert conv1 == parts


def test_forward_batch_dtype_on_empty_input():
    model = quantize_model(seed_weights(build_lenet(), 2), Q16_16)
    labels, taps = forward_batch(model, stacked([], model.input_shape), ("fc1",))
    assert labels.shape == (0,) and taps["fc1"].shape == (0, 120)
    assert taps["fc1"].dtype == np.float64
    _, taps = forward_batch(seed_weights(build_lenet(), 2), stacked([], model.input_shape), ("fc1",))
    assert taps["fc1"].dtype == np.float32


def test_forward_batch_rejects_mismatched_image_shape():
    model = seed_weights(build_lenet(), 2)
    bad = cancelling_images((1, 27, 27), 1, seed=1)
    with pytest.raises(DimensionError):
        forward_batch(model, stacked(bad), ())
    good = stacked(cancelling_images((1, 28, 28), 3, seed=0))
    with pytest.raises(DimensionError, match=r"images of shape \(28, 28\) do not match"):
        forward_batch(model, good[:, 0], ("fc1",))


def test_forward_batch_gates_the_input_dtype():
    """float32 pixels for any model; float64 only for a fixed-point model,
    whose format must hold every value, as a Tensor of it checks them."""
    f32 = seed_weights(build_lenet(), 2)
    q16 = quantize_model(f32, Q16_16)
    pixels = synthesize(3, f32.input_shape, 4).pixels
    quantized = T.quantize(Tensor.from_array(pixels), Q16_16).array
    for bad in (pixels.astype(np.float16), pixels.astype(np.int64), quantized):
        with pytest.raises(ValueError, match="model 'lenet' takes float32"):
            forward_batch(f32, bad, ())
    with pytest.raises(ValueError, match="not representable in Q16.16"):
        forward_batch(q16, pixels.astype(np.float64), ())
    with pytest.raises(ValueError, match="outside Q16.16 range"):
        forward_batch(q16, quantized + 40000.0, ())
    want = [forward(q16, Tensor(f32.input_shape, Q16_16, img.reshape(-1))).final_label for img in quantized]
    assert forward_batch(q16, quantized, ())[0].tolist() == want == forward_batch(q16, pixels, ())[0].tolist()


def test_batched_stream_hit_rate_matches_per_image_check_trigger():
    model = seed_weights(build_lenet(), 2)
    chunk = forward_chunk(model)
    data = synthesize(2 * chunk + 3, model.input_shape, seed=5)
    per_image = collect_observations(model, data, "fc1").reshape(len(data), -1)
    # bands between the median and the extreme of the per-image max (min), so
    # that about half the images hit each
    tops, bottoms = per_image.max(axis=1), per_image.min(axis=1)
    upper = SigmaBand("fc1", float(np.median(tops)), float(tops.max()), "upper", 3.0, 4.0)
    lower = SigmaBand("fc1", float(bottoms.min()), float(np.median(bottoms)), "lower", 3.0, 4.0)
    cases = [[], [upper], [upper, lower]]
    for bands in cases:
        want = sum(
            1 for img in data.images() if check_trigger_naive(forward(model, img).taps["fc1"].data, bands) is not None
        )
        assert stream_hit_rate(model, bands, data, "fc1") == (want, len(data))
        if bands:
            assert 0 < want < len(data)  # the bands split the images
    empty = dataset_of("none", (), model.input_shape)
    assert stream_hit_rate(model, cases[1], empty, "fc1") == (0, 0)


# M: a lane length (a draw of 3 * B takes lanes of M); B: a record's words
M, B = 256, BLOCK_DRAWS


def scalar_doubles(rng, n):
    return np.array([rng.next_double() for _ in range(n)], dtype=np.float64)


@pytest.mark.parametrize("n", [0, 1, M - 1, M, M + 1, B - 1, B, B + 1, 2 * B + 1])
def test_next_doubles_equals_next_double_calls(n):
    bulk, scalar = Xoshiro256StarStar(2024), Xoshiro256StarStar(2024)
    got = bulk.next_doubles(n)
    want = scalar_doubles(scalar, n)
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
    assert [bulk.next_u64() for _ in range(4)] == [scalar.next_u64() for _ in range(4)]


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_next_doubles_at_extreme_seeds(seed):
    ref = Xoshiro256StarStar(seed)
    words = [ref.next_u64() for _ in range(2 * B + 5)]
    doubles = np.array([(w >> 11) * 2.0**-53 for w in words])
    for n in (1, M - 1, M + 1, B + 1, 2 * B + 1):
        bulk = Xoshiro256StarStar(seed)
        assert bulk.next_doubles(n).tobytes() == doubles[:n].tobytes(), n
        assert [bulk.next_u64() for _ in range(4)] == words[n:n + 4], n


@pytest.mark.parametrize("k, j", [(1, M - 1), (M + 1, B + 3), (B - 1, 2), (0, 2 * M)])
def test_next_doubles_continue_across_mixed_calls(k, j):
    bulk, scalar = Xoshiro256StarStar(77), Xoshiro256StarStar(77)
    first, word, second = bulk.next_doubles(k), bulk.next_u64(), bulk.next_doubles(j)
    assert first.tobytes() == scalar_doubles(scalar, k).tobytes()
    assert word == scalar.next_u64()
    assert second.tobytes() == scalar_doubles(scalar, j).tobytes()
    assert bulk.next_double() == scalar.next_double()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**64 - 1), n=st.integers(0, 3 * B))
def test_next_doubles_equals_scalar_walk_property(seed, n):
    bulk, scalar = Xoshiro256StarStar(seed), Xoshiro256StarStar(seed)
    assert bulk.next_doubles(n).tobytes() == scalar_doubles(scalar, n).tobytes()
    assert bulk.next_u64() == scalar.next_u64()


def test_next_double_rows_return_one_array_of_every_row():
    rng = Xoshiro256StarStar(3)
    assert rng.next_double_rows(3 * (B // 1000) + 4, 1000).shape == (3 * (B // 1000) + 4, 1000)
    assert rng.next_double_rows(2, B + 1).shape == (2, B + 1)
    assert rng.next_double_rows(0, 5).shape == (0, 5)
    for dtype in (np.float64, np.float32):
        assert rng.next_double_rows([1, 4], 3, dtype).dtype == dtype


# draws of 256 * 2^k and one more, for k = 0 ... 9, and three records'
# words: lanes of every length from 4 to 256, 33 to 1536 of them, every
# second draw's last lane one draw long
DOUBLING_EDGES = {
    **{f"{2**k}-lanes": 2**k * M for k in range(10)},
    **{f"{2**k}-lanes+1": 2**k * M + 1 for k in range(10)},
    "3-blocks": 3 * B,
}


@functools.cache
def scalar_words(seed):
    """next_u64 words from seed, for every draw count of DOUBLING_EDGES and
    four more."""
    ref = Xoshiro256StarStar(seed)
    return tuple(ref.next_u64() for _ in range(max(DOUBLING_EDGES.values()) + 4))


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("n", list(DOUBLING_EDGES.values()), ids=list(DOUBLING_EDGES))
def test_next_doubles_at_lane_doubling_edges(seed, n):
    words = scalar_words(seed)
    bulk = Xoshiro256StarStar(seed)
    want = np.array([w >> 11 for w in words[:n]], dtype=np.float64) * 2.0**-53
    assert bulk.next_doubles(n).tobytes() == want.tobytes()
    assert [bulk.next_u64() for _ in range(4)] == list(words[n:n + 4])


def test_next_doubles_block_memory():
    """A whole block holds its output, one SCRATCH_BYTES record of the
    lanes' words and little else; the jump tables are built beforehand."""
    rng = Xoshiro256StarStar(5)
    rng.next_doubles(B)
    tracemalloc.start()
    try:
        out = rng.next_doubles(B)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + T.SCRATCH_BYTES + 64 * 1024


def scalar_doubles_of(words):
    return (np.array(words, dtype=np.uint64) >> np.uint64(11)) * 2.0**-53


# run starts at lane, block and doubling edges of the jumps: 2^k draws for
# every jump table below a block's lanes and every doubling of the lanes,
# and a draw either side
JUMP_OFFSETS = sorted({0, 1, 2, 3, 2 * B - 3, *(2**k + d for k in range(2, 18) for d in (-1, 0, 1))})


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("n", [1, M + 1, 4 * M + 1])
def test_draws_at_an_offset_equal_the_scalar_walk(seed, n):
    """A run of n draws from any offset, through one-draw rows, has the
    scalar walk's bits, and leaves its state."""
    words = scalar_words(seed)
    for offset in JUMP_OFFSETS:
        rng = Xoshiro256StarStar(seed)
        got = rng.next_double_rows(range(offset, offset + n), 1)
        assert got.tobytes() == scalar_doubles_of(words[offset:offset + n]).tobytes(), offset
        assert [rng.next_u64() for _ in range(4)] == list(words[offset + n:offset + n + 4]), offset


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.sampled_from([0, 2**64 - 1]),
    width=st.sampled_from([1, 3, 26, M - 1, M, M + 1, 784, B + 1]),
    data=st.data(),
)
def test_rows_at_any_indices_equal_the_scalar_walk(seed, width, data):
    """Any ascending set of rows, each block's runs jumped together and the
    lanes of a run doubled, has the scalar walk's bits and leaves its
    state; rows between them are jumped over."""
    words = scalar_words(seed)
    total = (len(words) - 4) // width
    picks = data.draw(st.lists(st.integers(0, total - 1), max_size=min(total, 700), unique=True))
    rows = sorted(picks)
    rng = Xoshiro256StarStar(seed)
    got = rng.next_double_rows(rows, width)
    assert got.shape == (len(rows), width)
    want = [scalar_doubles_of(words[r * width:(r + 1) * width]) for r in rows]
    assert got.tobytes() == np.concatenate([*want, []]).tobytes()
    end = (rows[-1] + 1) * width if rows else 0
    assert rng.next_u64() == words[end]


def run_lanes(rows, width):
    """The lanes each run of a next_double_rows(rows, width) draw takes."""
    _, counts = R._row_runs(np.asarray(rows, dtype=np.int64), width)
    return -(-counts // R._lane_length(int(counts.sum())))


def tail_rows(width, singles, lanes=BLOCK_LANES + 1):
    """singles one-row runs (every other row), then the fewest consecutive
    rows with which the draw needs the given number of lanes: with
    BLOCK_LANES + 1, the long run takes the block's last lane and one lane
    of the next block."""
    head = list(range(0, 2 * singles, 2))
    for m in range(1, 4 * BLOCK_LANES):
        rows = head + list(range(2 * singles, 2 * singles + m))
        if run_lanes(rows, width).sum() == lanes:
            return rows
    raise AssertionError(f"no tail of {width}-draw rows after {singles} single rows")


# rows of one bulk draw whose runs need more lanes than a block: single
# rows, then consecutive rows to the end of the draw, the long run needing
# the block's last lane and one more; and 1800 one-lane rows, 2000
# consecutive rows across the block edge, then 1500 one-lane rows
CUT_RUNS = {
    "26-tail": lambda: (26, tail_rows(26, 1500)),
    "257-tail": lambda: (M + 1, tail_rows(M + 1, 7)),
    "784-tail": lambda: (784, tail_rows(784, 10)),
    "26-middle": lambda: (26, [*range(0, 3600, 2), *range(3601, 5601), *range(5602, 8602, 2)]),
}


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("case", list(CUT_RUNS))
def test_a_run_cut_at_a_block_edge_goes_on_in_the_next_block(seed, case):
    """A run cut at a lane edge goes on in the next block, from where the
    block before ended, beside the runs jumped to there."""
    width, rows = CUT_RUNS[case]()
    lanes = np.cumsum(run_lanes(rows, width))
    cut = np.searchsorted(lanes, BLOCK_LANES)  # the run across the block edge
    assert lanes[-1] > BLOCK_LANES and lanes[cut] > BLOCK_LANES and lanes[cut] - lanes[cut - 1] > 1
    words = scalar_words(seed)
    rng = Xoshiro256StarStar(seed)
    got = rng.next_double_rows(rows, width).ravel()
    want = [scalar_doubles_of(words[r * width:(r + 1) * width]) for r in rows]
    assert got.tobytes() == np.concatenate(want).tobytes()
    assert rng.next_u64() == words[(rows[-1] + 1) * width]


# contiguous draws at lane and segment edges: (draws, lane length, lanes,
# draws of the last lane). Around BLOCK_LANES lanes of 128 draws, the cap,
# and with the last of 1024 lanes of 128 ending at the last step of the
# walk's first segment, and one draw later at the first of its second
SEGMENT = R._segment_steps(1024)
LANE_EDGES = {
    "cap-1": (128 * BLOCK_LANES - 1, 256, BLOCK_LANES // 2, 255),
    "cap": (128 * BLOCK_LANES, 128, BLOCK_LANES, 128),
    "cap+1": (128 * BLOCK_LANES + 1, 256, BLOCK_LANES // 2 + 1, 1),
    "segment-end": (1023 * 128 + SEGMENT, 128, 1024, SEGMENT),
    "segment-end+1": (1023 * 128 + SEGMENT + 1, 128, 1024, SEGMENT + 1),
}


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("case", list(LANE_EDGES))
def test_draws_at_lane_and_segment_edges_equal_the_scalar_walk(case, seed, dtype):
    """Doubles, and doubles rounded once to float32, of a contiguous draw
    whose lanes fill the cap or its last lane ends at a segment edge, have
    the scalar walk's bits and leave its state."""
    n, length, lanes, last = LANE_EDGES[case]
    assert R._lane_length(n) == length and -(-n // length) == lanes and n - (lanes - 1) * length == last
    assert length > SEGMENT  # the walk takes more than one segment
    words = scalar_words(seed)
    rng = Xoshiro256StarStar(seed)
    got = rng.next_double_rows(1, n, dtype)
    assert got.dtype == dtype
    assert got.tobytes() == scalar_doubles_of(words[:n]).astype(dtype).tobytes()
    assert [rng.next_u64() for _ in range(4)] == list(words[n:n + 4])


# rows whose runs fill every lane of a block, the last run ending in its
# last lane; and 3 * BLOCK_LANES one-draw runs, three blocks
ROW_EDGES = {
    "last-lane": lambda: (26, tail_rows(26, 1500, BLOCK_LANES)),
    "more-runs-than-lanes": lambda: (1, list(range(0, 6 * BLOCK_LANES, 2))),
}


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("case", list(ROW_EDGES))
def test_rows_at_block_edges_equal_the_scalar_walk(case, seed, dtype):
    """Rows whose runs end in a block's last lane, or take three blocks of
    lanes, have the scalar walk's bits in float64 and float32 and leave
    its state."""
    width, rows = ROW_EDGES[case]()
    lanes = run_lanes(rows, width)
    assert lanes.sum() == (BLOCK_LANES if case == "last-lane" else 3 * BLOCK_LANES)
    words = scalar_words(seed)
    rng = Xoshiro256StarStar(seed)
    got = rng.next_double_rows(rows, width, dtype)
    want = np.concatenate([scalar_doubles_of(words[r * width:(r + 1) * width]) for r in rows])
    assert got.shape == (len(rows), width) and got.tobytes() == want.astype(dtype).tobytes()
    assert rng.next_u64() == words[(rows[-1] + 1) * width]


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_next_u64s_equal_next_u64_calls(seed):
    words = scalar_words(seed)
    for n in (0, 1, M + 1, B + 1):
        rng = Xoshiro256StarStar(seed)
        got = rng.next_u64s(n)
        assert got.dtype == np.uint64 and got.tolist() == list(words[:n])
        assert rng.next_u64() == words[n]


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize(
    "shape, mode",
    [((1, 28, 28), "uniform"), ((1, 5, 5), "gaussianActivationProbe")],
)
def test_synthesized_subsets_equal_the_whole_set(seed, shape, mode):
    """An image drawn with any others is the image of the whole set: the
    first and last image, neighbours across a bulk draw, and every other
    image (runs cut at block edges). (1, 5, 5) probes take 26 draws."""
    n = int(np.prod(shape))
    per_image = n if mode == "uniform" else 2 * ((n + 1) // 2)
    group = B // per_image  # images per bulk draw
    count = 2 * group + 3
    whole = synthesize(count, shape, seed, mode)
    subsets = [[0], [count - 1], [0, count - 1], [group - 1, group],
               list(range(1, count, 2)), list(range(0, count - 2, 3)) + [count - 1], []]
    for indices in subsets:
        part = synthesize(count, shape, seed, mode, indices)
        assert part.name == whole.name
        assert part.labels.tolist() == [i % 10 for i in indices]
        for img, i in zip(part.pixels, indices):
            assert img.tobytes() == whole.pixels[i].tobytes(), (indices[:3], i)


# per image beside its pixels: its label and index (16 bytes), and a
# split's index lists of the whole set (under 100 bytes per image drawn)
IMAGE_SLACK = 512

# (datasets, images drawn): 2000 contiguous LeNet images, and a split's 800
# scattered ones of 2000
SYNTHESIZED = {
    "2000-images": (lambda: [synthesize(2000, (1, 28, 28), 5)], 2000),
    "800-of-2000": (lambda: synthesize_split(2000, (1, 28, 28), 5, "uniform", SplitPlan(300, 500, 3)), 800),
}


@pytest.mark.parametrize("case", list(SYNTHESIZED))
def test_synthesized_dataset_memory(case):
    """A uniform dataset is one float32 array of its pixels, drawn in one
    walk through one SCRATCH_BYTES record, and one array of its labels: no
    float64 copy of the dataset, and no copy of a split's rows, is ever
    made."""
    draw, images = SYNTHESIZED[case]
    draw()
    tracemalloc.start()
    try:
        datasets = draw()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(map(len, datasets)) == images
    assert peak <= images * 784 * 4 + T.SCRATCH_BYTES + images * IMAGE_SLACK


def test_synthesize_refuses_unordered_indices():
    for indices in ([1, 1], [2, 1], [-1], [5]):
        with pytest.raises(ConfigError):
            synthesize(5, (1, 2, 2), 0, "uniform", indices)


@pytest.mark.parametrize("width, step", [(784, 2), (26, 2), (784, 11)])
def test_jumped_draw_memory(width, step):
    """A jumped draw of image rows, every other image or one in eleven,
    holds its output, one SCRATCH_BYTES record of the lanes' words and
    little else: the jumps gather in slices and the runs stay arrays."""
    rows = range(0, 3 * (B // width), step)
    Xoshiro256StarStar(5).next_double_rows(rows, width)
    rng = Xoshiro256StarStar(5)
    tracemalloc.start()
    try:
        out = rng.next_double_rows(rows, width)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(out) == len(rows)
    assert peak <= out.nbytes + T.SCRATCH_BYTES + 64 * 1024


def sha256_of(tensors):
    digest = hashlib.sha256()
    for name, t in tensors:
        digest.update(name.encode())
        digest.update(t.data.tobytes())
    return digest.hexdigest()


def lenet_q16_forward_digest():
    """SHA-256 of every tap and the saturation total of a 70-image (two
    batch) Q16.16 LeNet forward_batch on saturating images, whose sums
    every layer takes as matrix products."""
    model = quantize_model(seed_weights(build_lenet(), 2), Q16_16)
    images = saturating_images(model.input_shape, 70, seed=5)
    with pytest.MonkeyPatch.context() as mp:
        total = counting_saturations(mp)
        sums = counting_products(mp)
        _, taps = forward_batch(model, stacked(images), list(layer_output_shapes(model)))
    assert sums[0] > 0
    digest = hashlib.sha256()
    for name, tap in taps.items():
        digest.update(name.encode())
        digest.update(tap.tobytes())
    digest.update(str(total[0]).encode())
    return digest.hexdigest()


def float32_forward_digest(build, count, seed):
    """SHA-256 of every tap and the labels of a float32 forward_batch of
    the model with weights seed 2 on `count` synthesized images: realistic
    sums, which the certificate settles almost everywhere."""
    model = seed_weights(build(), 2)
    images = synthesize(count, model.input_shape, seed).pixels
    labels, taps = forward_batch(model, images, list(layer_output_shapes(model)))
    digest = hashlib.sha256()
    for name, tap in taps.items():
        digest.update(name.encode())
        digest.update(tap.tobytes())
    digest.update(labels.tobytes())
    return digest.hexdigest()


# the draws were recorded with the per-lane jump walk that bulk draws
# replaced, itself bitwise equal to the scalar walk, and the forwards with
# every sum folded term by term (Q16.16 and float32): a path that is
# deterministic but wrong fails these, where the rerun gates would not
RECORDED_DIGESTS = {
    "lenet-1100-uniform": (
        lambda: sha256_of(("", img) for img in synthesize(1100, (1, 28, 28), 11).images()),
        "9f5099ea84d246fcf15abafd3b61f12cc32e4590122e48fae9146e7c4b9f28ce",
    ),
    "cifar-60-probes": (
        lambda: sha256_of(
            ("", img) for img in synthesize(60, (3, 32, 32), 7, "gaussianActivationProbe").images()
        ),
        "b97a8777f603eb46973d02fdc16b03cfe5cd9b118b09a34bbcd76d90f0804b3c",
    ),
    "lenet-weights-2": (
        lambda: sha256_of(model_params(seed_weights(build_lenet(), 2)).items()),
        "0d42a92056ea1fccf25a1d1cb5c2697b489885156d7761d57f7dd6502f7249f6",
    ),
    "lenet-q16-forward-70": (
        lenet_q16_forward_digest,
        "3d651d31166e5c6d41ffd814c86f9a3a41febfda1f48a0f6ff0acaccddd28ff9",
    ),
    "lenet-f32-forward-70": (
        lambda: float32_forward_digest(build_lenet, 70, 11),
        "ca73f670e50613ff96cba701497ab3e0f97e95d0c0a2388016e4114773367646",
    ),
    "cifar-f32-forward-12": (
        lambda: float32_forward_digest(build_cifar_net, 12, 21),
        "67a4467c5db225b7cb7f49a5ea62018c17333f53c6ac56b6e38f43a097da8028",
    ),
}


@pytest.mark.parametrize("case", list(RECORDED_DIGESTS))
def test_seeded_outputs_match_recorded_digests(case):
    digest, want = RECORDED_DIGESTS[case]
    assert digest() == want


@pytest.mark.parametrize("seed", [0, 2, 2**64 - 1])
@pytest.mark.parametrize("build", [build_lenet, build_cifar_net, build_mlp], ids=["lenet", "cifar", "mlp"])
def test_seeded_parameters_equal_per_layer_draws(build, seed):
    """seed_weights' parameters, which it draws in one bulk call, equal
    one next_doubles call per conv or dense layer, in layer order, weights
    then bias, scaled to [-s, s], s = float32(1 / sqrt(fan_in))."""
    model = build()
    rng = Xoshiro256StarStar(seed)
    want = {}
    for layer, in_shape, _ in iter_layer_shapes(model):
        if layer.kind == "conv":
            k = layer.hyperparams["kernelSize"]
            shape = (layer.hyperparams["outChannels"], in_shape[0], k, k)
        elif layer.kind == "dense":
            shape = (layer.hyperparams["units"], in_shape[0])
        else:
            continue
        s = float(np.float32(1.0 / math.sqrt(math.prod(shape[1:]))))
        size = math.prod(shape)
        vals = (-s + 2 * s * rng.next_doubles(size + shape[0])).astype(np.float32)
        want[f"{layer.name}.weight"], want[f"{layer.name}.bias"] = vals[:size].reshape(shape), vals[size:]
    got = model_params(seed_weights(model, seed))
    assert list(got) == list(want)
    for name, t in got.items():
        assert t.shape == want[name].shape and t.data.dtype == np.float32
        assert t.data.tobytes() == want[name].tobytes(), name


def scalar_synthesize(count, shape, seed, mode):
    """synthesize's images, drawn one scalar call at a time."""
    rng = Xoshiro256StarStar(seed)
    n = int(np.prod(shape))
    images = []
    for _ in range(count):
        if mode == "uniform":
            vals = [rng.next_double() for _ in range(n)]
        else:
            vals = []
            for _ in range((n + 1) // 2):
                radius = math.sqrt(-2.0 * math.log(1.0 - rng.next_double()))
                angle = 2.0 * math.pi * rng.next_double()
                vals += [radius * math.cos(angle), radius * math.sin(angle)]
        images.append(np.array(vals[:n], dtype=np.float32))
    return images


@pytest.mark.parametrize(
    "shape, mode",
    [((1, 28, 28), "uniform"), ((1, 5, 5), "gaussianActivationProbe")],
)
def test_synthesize_matches_per_image_scalar_draws(shape, mode):
    n = int(np.prod(shape))
    per_image = n if mode == "uniform" else 2 * ((n + 1) // 2)
    group = B // per_image  # images per bulk draw
    for count in (0, 1, group, group + 1):
        data = synthesize(count, shape, seed=9, mode=mode)
        want = scalar_synthesize(count, shape, 9, mode)
        assert len(data) == count
        assert data.labels.tolist() == [i % 10 for i in range(count)]
        for img, ref in zip(data.pixels, want):
            assert img.shape == shape and img.tobytes() == ref.tobytes()
