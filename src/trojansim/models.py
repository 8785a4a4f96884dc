"""Model architecture specs, forward execution with per-layer taps, and
deterministic weight seeding.

Layer kinds are conv, maxpool, relu, flatten, and dense. A dense layer's tap
is its raw output; activations are separate relu layers, so profiling a dense
layer by name always observes pre-activation values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

import numpy as np

from . import tensor as T
from .errors import ConfigError, DataError, DimensionError
from .rng import Xoshiro256StarStar
from .tensor import FLOAT32, FixedFormat, Kernel, Tensor

PARAMETERIZED_KINDS = ("conv", "dense")


@dataclass(frozen=True, eq=False)
class LayerSpec:
    name: str
    kind: str
    hyperparams: dict
    params: Kernel | None = None

    def __post_init__(self):
        if self.kind not in ("conv", "maxpool", "relu", "flatten", "dense"):
            raise ConfigError(f"unknown layer kind {self.kind!r} in layer {self.name!r}")


@dataclass(frozen=True, eq=False)
class ModelSpec:
    name: str
    input_shape: tuple[int, ...]
    layers: tuple[LayerSpec, ...]

    def __post_init__(self):
        names = [layer.name for layer in self.layers]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate layer names in model {self.name!r}: {names}")
        if not any(layer.kind == "dense" for layer in self.layers):
            raise ConfigError(f"model {self.name!r} has no dense layer")
        # walking the shapes validates layer-to-layer compatibility
        list(iter_layer_shapes(self))

    def layer_names(self) -> list[str]:
        return [layer.name for layer in self.layers]

    def get_layer(self, name: str) -> LayerSpec:
        for layer in self.layers:
            if layer.name == name:
                return layer
        raise ConfigError(f"no layer {name!r} in model {self.name!r}; valid: {self.layer_names()}")


@dataclass(frozen=True, eq=False)
class ForwardTrace:
    final_label: int
    taps: dict[str, Tensor]


def output_shape_of(kind: str, hyperparams: dict, in_shape: tuple[int, ...]) -> tuple[int, ...]:
    """Shape propagation rule for one layer."""
    if kind == "conv":
        if len(in_shape) != 3:
            raise DimensionError(f"conv expects (C, H, W) input, got {in_shape}")
        c, h, w = in_shape
        k = hyperparams["kernelSize"]
        s = hyperparams.get("stride", 1)
        if k > h or k > w:
            raise DimensionError(f"conv kernel {k} larger than input {in_shape}")
        return (hyperparams["outChannels"], (h - k) // s + 1, (w - k) // s + 1)
    if kind == "maxpool":
        if len(in_shape) != 3:
            raise DimensionError(f"maxpool expects (C, H, W) input, got {in_shape}")
        c, h, w = in_shape
        win = hyperparams["window"]
        s = hyperparams.get("stride", win)
        if win > h or win > w:
            raise DimensionError(f"pool window {win} larger than input {in_shape}")
        return (c, (h - win) // s + 1, (w - win) // s + 1)
    if kind == "relu":
        return in_shape
    if kind == "flatten":
        return (math.prod(in_shape),)
    if kind == "dense":
        if len(in_shape) != 1:
            raise DimensionError(f"dense expects 1-D input, got {in_shape}")
        return (hyperparams["units"],)
    raise ConfigError(f"unknown layer kind {kind!r}")


def iter_layer_shapes(model: ModelSpec) -> Iterator[tuple[LayerSpec, tuple[int, ...], tuple[int, ...]]]:
    """Yield (layer, input_shape, output_shape) down the pipeline."""
    shape = model.input_shape
    for layer in model.layers:
        out = output_shape_of(layer.kind, layer.hyperparams, shape)
        yield layer, shape, out
        shape = out


def layer_output_shapes(model: ModelSpec) -> dict[str, tuple[int, ...]]:
    return {layer.name: out for layer, _, out in iter_layer_shapes(model)}


def build_lenet() -> ModelSpec:
    """LeNet-5 style MNIST classifier: 1x28x28 in, 10 classes out.

    Valid 5x5 convolutions and 2x2 pools give the classic 24/12/8/4 spatial
    progression and a 256-long flatten into fc1.
    """
    return ModelSpec(
        name="lenet",
        input_shape=(1, 28, 28),
        layers=(
            LayerSpec("conv1", "conv", {"outChannels": 6, "kernelSize": 5, "stride": 1}),
            LayerSpec("relu1", "relu", {}),
            LayerSpec("pool1", "maxpool", {"window": 2, "stride": 2}),
            LayerSpec("conv2", "conv", {"outChannels": 16, "kernelSize": 5, "stride": 1}),
            LayerSpec("relu2", "relu", {}),
            LayerSpec("pool2", "maxpool", {"window": 2, "stride": 2}),
            LayerSpec("flatten", "flatten", {}),
            LayerSpec("fc1", "dense", {"units": 120}),
            LayerSpec("relu3", "relu", {}),
            LayerSpec("fc2", "dense", {"units": 84}),
            LayerSpec("relu4", "relu", {}),
            LayerSpec("fc3", "dense", {"units": 10}),
        ),
    )


def build_cifar_net() -> ModelSpec:
    """Small CIFAR-10 classifier: 3x32x32 in, 10 classes out."""
    return ModelSpec(
        name="cifar",
        input_shape=(3, 32, 32),
        layers=(
            LayerSpec("conv1", "conv", {"outChannels": 32, "kernelSize": 5, "stride": 1}),
            LayerSpec("relu1", "relu", {}),
            LayerSpec("pool1", "maxpool", {"window": 2, "stride": 2}),
            LayerSpec("conv2", "conv", {"outChannels": 32, "kernelSize": 5, "stride": 1}),
            LayerSpec("relu2", "relu", {}),
            LayerSpec("pool2", "maxpool", {"window": 2, "stride": 2}),
            LayerSpec("flatten", "flatten", {}),
            LayerSpec("fc1", "dense", {"units": 64}),
            LayerSpec("relu3", "relu", {}),
            LayerSpec("fc2", "dense", {"units": 10}),
        ),
    )


def build_model(name: str) -> ModelSpec:
    if name == "lenet":
        return build_lenet()
    if name == "cifar":
        return build_cifar_net()
    raise ConfigError(f"unknown model name {name!r}; expected 'lenet' or 'cifar'")


def model_numeric_dtype(model: ModelSpec):
    """dtype of the model's parameters; None when no params are attached."""
    for layer in model.layers:
        if layer.kind in PARAMETERIZED_KINDS and layer.params is not None:
            return layer.params.dtype
    return None


def _pass_buffers(layers: Sequence[LayerSpec]) -> list[int | None]:
    """Which of forward_batch's two buffers each layer writes its output
    into: conv, maxpool and dense the one that does not hold their input,
    relu its input's (the first if the input is in neither), and flatten
    none, as it stays a view of its input. An output is thus overwritten
    two layers on or by the next relu."""
    held, plan = None, []
    for layer in layers:
        if layer.kind != "flatten" and (layer.kind != "relu" or held is None):
            held = 1 if held == 0 else 0
        plan.append(None if layer.kind == "flatten" else held)
    return plan


def _layer_outputs(
    layers: Sequence[LayerSpec], x: Tensor, outs: Sequence[np.ndarray | None] | None = None
) -> Iterator[tuple[str, Tensor]]:
    """Yield (layer name, output) down a layer slice for a batch x, whose
    last axis, the image axis, flatten keeps. The kernels are looked up on the
    tensor module at each call, so wrappers installed there see every op.

    outs, if given, holds per layer the array the layer's output is
    written into, or None for a new one (flatten always returns a view).
    forward_batch's outs share two buffers, so an output must be read
    before the walk resumes."""
    for layer, out in zip(layers, outs or [None] * len(layers)):
        if layer.kind in PARAMETERIZED_KINDS and layer.params is None:
            raise ConfigError(f"layer {layer.name!r} has no parameters loaded")
        if layer.kind == "conv":
            x = T.conv2d(x, layer.params, layer.hyperparams.get("stride", 1), out=out)
        elif layer.kind == "maxpool":
            hp = layer.hyperparams
            x = T.maxpool2d(x, hp["window"], hp.get("stride", hp["window"]), out=out)
        elif layer.kind == "relu":
            x = T.relu(x, out=out)
        elif layer.kind == "flatten":
            x = x.reshaped((x.size // x.shape[-1], x.shape[-1]))
        else:
            x = T.dense(x, layer.params, out=out)
        yield layer.name, x


def _input_chunks(model: ModelSpec, images: np.ndarray, chunk: int) -> Iterator[Tensor]:
    """The input gate of forward and forward_batch, checked as the first
    chunk is asked for: an (N, *model.input_shape) array of float32 pixels,
    quantized on entry into a fixed-point model, or of float64 values of its
    format, which Tensor checks. Yields chunk images at a time, image axis last."""
    mode = model_numeric_dtype(model) or FLOAT32
    if images.shape[1:] != model.input_shape:
        raise DimensionError(f"images of shape {images.shape[1:]} do not match model input {model.input_shape}")
    if images.dtype not in (np.float32, T._storage(mode)):
        raise ValueError(f"images are {images.dtype}, model {model.name!r} takes float32"
                         + ("" if mode == FLOAT32 else f", or float64 values of {mode}"))
    dtype = FLOAT32 if images.dtype == np.float32 else mode
    for start in range(0, len(images), chunk):
        x = np.moveaxis(images[start:start + chunk], 0, -1).copy()
        x = Tensor(x.shape, dtype, x.reshape(-1))
        yield x if dtype == mode else T.quantize(x, mode)


def forward(model: ModelSpec, image: Tensor) -> ForwardTrace:
    """One image through the model as a batch of one, every layer tapped
    into a tensor of its own: the per-image walk forward_batch is tested
    against, kept for the benchmark (perfbench) too."""
    (x,) = _input_chunks(model, image.array[np.newaxis], 1)
    outs = dict(_layer_outputs(model.layers, x))
    taps = {name: out.reshaped(out.shape[:-1]) for name, out in outs.items()}
    return ForwardTrace(final_label=int(np.argmax(outs[model.layers[-1].name].data)), taps=taps)


def forward_chunk(model: ModelSpec) -> int:
    """Images forward_batch runs through the layer walk at a time:
    tensor.SCRATCH_BYTES over the model's widest per-image activation, its
    input included, as stored (float32, or float64 for fixed point). The
    kernels block themselves by the same budget."""
    itemsize = np.dtype(T._storage(model_numeric_dtype(model) or FLOAT32)).itemsize
    widest = max(math.prod(shape) for shape in [model.input_shape, *layer_output_shapes(model).values()])
    return max(1, T.SCRATCH_BYTES // (itemsize * widest))


def forward_batch(
    model: ModelSpec, images: np.ndarray, keep: Sequence[str], labels: bool = True
) -> tuple[np.ndarray | None, dict[str, np.ndarray]]:
    """Run an (N, *model.input_shape) array of images through the model,
    forward_chunk(model) at a time: float32 pixels, quantized on entry into
    a fixed-point model, or float64 values of a fixed-point model's format.

    Returns (labels, taps): labels[i] is forward(model, image i)'s label
    and taps[name][i] its tap data for each layer named in keep (float32,
    or float64 for fixed point), every value bitwise equal. A pass without
    labels (labels=False) returns None for them and walks the layers only
    down to the deepest one kept. Each chunk is copied image axis last,
    walked through those layers once, and its kept taps and labels are
    written before the next chunk is copied, so a pass holds one chunk's
    activations whatever its length. Every chunk's layers write into two
    buffers allocated once per pass, each as long as the chunk's widest
    output that _pass_buffers puts in it (conv1's in the first and pool1's
    in the second for both convnets) and viewed in each chunk's own
    shapes, so a short last chunk's outputs are whole arrays.
    """
    shapes = layer_output_shapes(model)
    names = model.layer_names()
    for name in keep:
        model.get_layer(name)  # unknown layer -> error listing valid names
    layers = model.layers if labels else model.layers[:1 + max(map(names.index, keep), default=-1)]
    n = len(images)
    store = T._storage(model_numeric_dtype(model) or FLOAT32)
    found = np.empty(n, dtype=np.int64) if labels else None
    taps = {name: np.empty((n,) + shapes[name], dtype=store) for name in keep}
    chunk = forward_chunk(model)
    plan = [(held, shapes[layer.name]) for held, layer in zip(_pass_buffers(layers), layers)]
    buffers = [
        np.empty(min(n, chunk) * max((math.prod(shape) for held, shape in plan if held == b), default=0), dtype=store)
        for b in (0, 1)
    ]
    for k, x in enumerate(_input_chunks(model, images, chunk)):
        start, m = k * chunk, x.shape[-1]
        outs = [None if held is None else buffers[held][:math.prod(shape) * m].reshape(shape + (m,))
                for held, shape in plan]
        for name, x in _layer_outputs(layers, x, outs):
            if name in taps:
                taps[name][start:start + m] = np.moveaxis(x.array, -1, 0)
        if labels:
            found[start:start + m] = np.argmax(x.array, axis=0)
    return found, taps


def seed_weights(model: ModelSpec, seed: int) -> ModelSpec:
    """Fill all conv/dense parameters from one xoshiro256** stream.

    Tensors are filled in layer order, weights before bias, flat row-major,
    with values uniform in [-s, s] where s = 1/sqrt(fan_in) evaluated in
    float32. The same seed always reproduces the same bits.
    """
    shapes = [
        _weight_shape(layer, in_shape) if layer.kind in PARAMETERIZED_KINDS else None
        for layer, in_shape, _ in iter_layer_shapes(model)
    ]
    # one bulk draw for every layer: the same values as a draw per layer
    draws = Xoshiro256StarStar(seed).next_doubles(sum(math.prod(w) + w[0] for w in shapes if w is not None))
    new_layers, start = [], 0
    for layer, w_shape in zip(model.layers, shapes):
        if w_shape is None:
            new_layers.append(layer)
            continue
        s = float(np.float32(1.0 / math.sqrt(math.prod(w_shape[1:]))))
        n_w = math.prod(w_shape)
        end = start + n_w + w_shape[0]
        lo, hi = -s, s
        # the same float64 sequence as rng.uniform(lo, hi), one draw after another
        vals = (lo + (hi - lo) * draws[start:end]).astype(np.float32)
        start = end
        kernel = Kernel(
            weights=Tensor(w_shape, FLOAT32, vals[:n_w]),
            bias=Tensor((w_shape[0],), FLOAT32, vals[n_w:]),
        )
        new_layers.append(replace(layer, params=kernel))
    return ModelSpec(model.name, model.input_shape, tuple(new_layers))


def quantize_model(model: ModelSpec, fmt: FixedFormat) -> ModelSpec:
    """Convert all attached parameters to a fixed-point format."""
    new_layers = []
    for layer in model.layers:
        if layer.kind in PARAMETERIZED_KINDS and layer.params is not None:
            kernel = Kernel(
                weights=T.quantize(layer.params.weights, fmt),
                bias=T.quantize(layer.params.bias, fmt),
            )
            new_layers.append(replace(layer, params=kernel))
        else:
            new_layers.append(layer)
    return ModelSpec(model.name, model.input_shape, tuple(new_layers))


def _weight_shape(layer: LayerSpec, in_shape: tuple[int, ...]) -> tuple[int, ...]:
    """Parameter layout of a conv or dense layer on in_shape input: weights
    are (out, in, k, k) for conv and (out, in) for dense; the bias is (out,)."""
    if layer.kind == "conv":
        k = layer.hyperparams["kernelSize"]
        return (layer.hyperparams["outChannels"], in_shape[0], k, k)
    return (layer.hyperparams["units"], in_shape[0])


def _param_keys(layer_name: str) -> tuple[str, str]:
    """Weight-file entry names of a layer's weights and bias."""
    return f"{layer_name}.weight", f"{layer_name}.bias"


def apply_weights(model: ModelSpec, params: dict[str, Tensor]) -> ModelSpec:
    """Attach `name.weight` / `name.bias` tensors to their layers.

    Every layer needs both entries and every entry a layer, each tensor must
    have its layer's layout (DimensionError) and all of them one dtype; any
    other mismatch is a DataError too, as the entries come from a weight
    file.
    """
    used: list[str] = []
    new_layers = []
    for layer, in_shape, _ in iter_layer_shapes(model):
        if layer.kind not in PARAMETERIZED_KINDS:
            new_layers.append(layer)
            continue
        w_key, b_key = _param_keys(layer.name)
        if w_key not in params or b_key not in params:
            raise DataError(f"missing weights for layer {layer.name!r} ({w_key}, {b_key})")
        w_shape = _weight_shape(layer, in_shape)
        for key, shape in ((w_key, w_shape), (b_key, w_shape[:1])):
            tensor = params[key]
            if tensor.shape != shape:
                raise DimensionError(f"{key} must be {shape}, file has {tensor.shape}")
            if used and tensor.dtype != params[used[0]].dtype:
                raise DataError(
                    f"{key} is {tensor.dtype} but {used[0]} is {params[used[0]].dtype}; "
                    "all parameters must share one dtype"
                )
            used.append(key)
        new_layers.append(replace(layer, params=Kernel(weights=params[w_key], bias=params[b_key])))
    extra = set(params) - set(used)
    if extra:
        raise DataError(f"weight entries do not match any layer: {sorted(extra)}")
    return ModelSpec(model.name, model.input_shape, tuple(new_layers))


def model_params(model: ModelSpec) -> dict[str, Tensor]:
    """Collect attached parameters as `name.weight` / `name.bias` entries.
    Only model.layers is read, so a designer view's slice works too."""
    out: dict[str, Tensor] = {}
    for layer in model.layers:
        if layer.kind in PARAMETERIZED_KINDS:
            if layer.params is None:
                raise ConfigError(f"layer {layer.name!r} has no parameters to save")
            w_key, b_key = _param_keys(layer.name)
            out[w_key], out[b_key] = layer.params.weights, layer.params.bias
    return out


def layers_to_json(layers: Sequence[LayerSpec]) -> list[dict]:
    """Layer listing of an architecture record, parameters left out."""
    return [
        {"name": l.name, "kind": l.kind, "hyperparams": dict(l.hyperparams), "params": None}
        for l in layers
    ]


def _positive_ints(values) -> bool:
    return all(isinstance(v, int) and not isinstance(v, bool) and v > 0 for v in values)


def model_from_json(obj: dict) -> ModelSpec:
    """Architecture from its JSON record; a malformed record is a ConfigError."""
    try:
        shape = obj["inputShape"]
        if not (isinstance(shape, list) and shape and _positive_ints(shape)):
            raise ConfigError(
                f"model JSON field inputShape must be a list of positive integers, got {shape!r}"
            )
        layers = tuple(
            LayerSpec(l["name"], l["kind"], dict(l["hyperparams"])) for l in obj["layers"]
        )
        for l in layers:
            if not _positive_ints(l.hyperparams.values()):
                raise ConfigError(
                    f"model JSON layer {l.name!r} hyperparams must be positive integers, "
                    f"got {l.hyperparams}"
                )
        return ModelSpec(obj["name"], tuple(shape), layers)
    except KeyError as e:
        raise ConfigError(f"model JSON missing field {e}") from e
    except (TypeError, ValueError, DimensionError) as e:
        raise ConfigError(f"model JSON is malformed: {e}") from e
