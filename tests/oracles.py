"""Naive reference implementations used as oracles.

Everything here is deliberately dumb: scalar Python loops, one multiply-add
at a time, accumulating in float64 (Python floats) in the declared order and
rounding to the output type once at the end. The production kernels must
match these bitwise.

Beside the kernels: the per-cycle payload machine (`step`), which
`run_compromised` must reproduce from its one batched pass; the partitioned
run (`run_view`, `run_partitioned`), which must reproduce the whole model's
output; and writers of the IDX and CIFAR-10 formats that the parsers read.
"""

import math
import struct
from pathlib import Path

import numpy as np

from trojansim.data import IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC, Dataset
from trojansim.defense import DesignerView
from trojansim.errors import ConfigError, DimensionError
from trojansim.models import ForwardTrace, ModelSpec, _layer_outputs, forward
from trojansim.tensor import FLOAT32, FixedFormat, Tensor
from trojansim.trojan import ARMED, DORMANT, TriggerEvent, TrojanConfig, TrojanState


def bitwise_equal(a: Tensor, b: Tensor) -> bool:
    """Same shape, dtype and bytes: -0.0 and +0.0 differ, as do NaNs of
    different payloads."""
    return (
        a.shape == b.shape
        and a.dtype == b.dtype
        and a.data.dtype == b.data.dtype
        and a.data.tobytes() == b.data.tobytes()
    )


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
    the one image x; the image axis, the last, is taken off the result
    again, which keeps its saturation count, so it compares with an
    oracle's result."""
    out = kernel_op(x.reshaped(x.shape + (1,)), *args)
    assert out.shape[-1] == 1
    return out.reshaped(out.shape[:-1])


def columns(t: Tensor) -> list[Tensor]:
    """The images of a batch, whose image axis is the last, as tensors of
    their own: column i is image i."""
    per_image = t.array.reshape(-1, t.shape[-1])
    return [Tensor(t.shape[:-1], t.dtype, per_image[:, i].copy()) for i in range(t.shape[-1])]


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


def step(
    state: TrojanState,
    model: ModelSpec,
    config: TrojanConfig,
    cycle: int,
    legitimate_input: Tensor,
) -> tuple[Tensor, TrojanState, list[TriggerEvent], ForwardTrace]:
    """Advance the payload machine by one image cycle.

    Returns the input that actually entered the pipeline, the new state, the
    events logged this cycle, and the forward trace of the effective input
    (so callers never run the pipeline twice per cycle).
    """
    if legitimate_input.shape != model.input_shape:
        raise DimensionError(
            f"cycle {cycle}: input shape {legitimate_input.shape} != model {model.input_shape}"
        )
    events: list[TriggerEvent] = []
    if state.mode == ARMED:
        ordinal = sum(1 for e in state.log if e.kind == "Substituted")
        used_idx, effective = config.select_image(ordinal)
        trace = forward(model, effective)
        # trigger evaluation is suppressed for the substituted image
        events.append(TriggerEvent(cycle, "Substituted", used_malicious_index=used_idx))
        new_state = TrojanState(DORMANT, state.fired_count, state.log + tuple(events))
        return effective, new_state, events, trace

    effective = legitimate_input
    trace = forward(model, effective)
    hit = check_trigger_naive(trace.taps[config.watch_layer].data, config.bands)
    if hit is None:
        return effective, state, events, trace
    hit_index, hit_value = hit
    events.append(TriggerEvent(cycle, "Triggered", hit_value=hit_value, hit_index=hit_index))
    new_state = TrojanState(ARMED, state.fired_count + 1, state.log + tuple(events))
    return effective, new_state, events, trace


def run_view(view: DesignerView, x: Tensor) -> Tensor:
    """Execute one group's slice; the designer's whole computational world."""
    if x.shape != view.input_dims:
        raise ConfigError(
            f"group {view.group_index} expects input dims {view.input_dims}, got {x.shape}"
        )
    taps = dict(_layer_outputs(view.layers, x.reshaped(x.shape + (1,))))
    out = taps[view.layers[-1].name]
    return out.reshaped(out.shape[:-1])


def run_partitioned(views: list[DesignerView], image: Tensor) -> Tensor:
    out = image
    for view in views:
        out = run_view(view, out)
    return out


def write_idx(dataset: Dataset, images_path: str | Path, labels_path: str | Path) -> None:
    """Write a single-channel dataset back to the IDX pair format.

    Pixels are mapped to bytes by round(v*255), so datasets that came from
    IDX files round-trip exactly.
    """
    shape = dataset.image_shape
    if shape is None:
        shape = (1, 0, 0)
    if len(shape) != 3 or shape[0] != 1:
        raise ConfigError(f"IDX writer needs (1, H, W) images, got {shape}")
    _, rows, cols = shape
    img_blob = bytearray(struct.pack(">IIII", IDX_IMAGES_MAGIC, len(dataset), rows, cols))
    lab_blob = bytearray(struct.pack(">II", IDX_LABELS_MAGIC, len(dataset)))
    for img, label in dataset.items:
        raw = np.clip(np.rint(img.data.astype(np.float64) * 255.0), 0, 255).astype(np.uint8)
        img_blob += raw.tobytes()
        lab_blob.append(label)
    Path(images_path).write_bytes(bytes(img_blob))
    Path(labels_path).write_bytes(bytes(lab_blob))


def write_cifar10(dataset: Dataset, bin_path: str | Path) -> None:
    """Write a (3, 32, 32) dataset to the CIFAR-10 binary record format."""
    shape = dataset.image_shape
    if shape is not None and shape != (3, 32, 32):
        raise ConfigError(f"CIFAR-10 writer needs (3, 32, 32) images, got {shape}")
    blob = bytearray()
    for img, label in dataset.items:
        blob.append(label)
        blob += np.clip(np.rint(img.data.astype(np.float64) * 255.0), 0, 255).astype(np.uint8).tobytes()
    Path(bin_path).write_bytes(bytes(blob))
