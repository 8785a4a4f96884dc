import numpy as np
import pytest

from oracles import bitwise_equal, stacked
from trojansim import tensor as T
from trojansim import models, weightfile
from trojansim.errors import ConfigError, DataError, DimensionError, ParseError
from trojansim.models import (
    LayerSpec,
    ModelSpec,
    apply_weights,
    build_cifar_net,
    build_lenet,
    forward,
    forward_batch,
    layer_output_shapes,
    quantize_model,
    seed_weights,
)
from trojansim.tensor import FLOAT32, Q16_16, Tensor


def uniform_image(shape, seed):
    rng = np.random.default_rng(seed)
    return Tensor(shape, FLOAT32, rng.random(int(np.prod(shape))).astype(np.float32))


# --- architecture --------------------------------------------------------


def test_lenet_shape_progression():
    shapes = layer_output_shapes(build_lenet())
    assert shapes["conv1"] == (6, 24, 24)
    assert shapes["pool1"] == (6, 12, 12)
    assert shapes["conv2"] == (16, 8, 8)
    assert shapes["pool2"] == (16, 4, 4)
    assert shapes["flatten"] == (256,)
    assert shapes["fc1"] == (120,)
    assert shapes["fc2"] == (84,)
    assert shapes["fc3"] == (10,)


def test_cifar_net_shape_progression():
    shapes = layer_output_shapes(build_cifar_net())
    assert shapes["conv1"] == (32, 28, 28)
    assert shapes["pool2"] == (32, 5, 5)
    assert shapes["flatten"] == (800,)
    assert shapes["fc1"] == (64,)
    assert shapes["fc2"] == (10,)


def test_model_validation_rejects_bad_builds():
    with pytest.raises(ConfigError):
        ModelSpec("dup", (4,), (LayerSpec("a", "dense", {"units": 2}),
                               LayerSpec("a", "dense", {"units": 2})))
    with pytest.raises(ConfigError):  # no dense layer anywhere
        ModelSpec("p", (1, 4, 4), (LayerSpec("p1", "maxpool", {"window": 2, "stride": 2}),))
    with pytest.raises(DimensionError):  # dense straight after conv (3-D input)
        ModelSpec("x", (1, 6, 6), (
            LayerSpec("c", "conv", {"outChannels": 2, "kernelSize": 3}),
            LayerSpec("d", "dense", {"units": 4}),
        ))
    with pytest.raises(ConfigError):
        LayerSpec("z", "softmax", {})


@pytest.mark.parametrize("late", [
    LayerSpec("late", "conv", {"outChannels": 1, "kernelSize": 1}),
    LayerSpec("late", "maxpool", {"window": 1, "stride": 1}),
], ids=["conv", "maxpool"])
@pytest.mark.parametrize("between", [(), ("relu",), ("flatten",), ("relu", "flatten")],
                         ids=["none", "relu", "flatten", "relu-flatten"])
def test_model_refuses_conv_or_maxpool_after_dense(late, between):
    """Only relu, flatten and dense follow a dense layer, so the last layer
    output, which forward and forward_batch label, is always 1-D."""
    layers = (
        LayerSpec("flatten0", "flatten", {}),
        LayerSpec("fc", "dense", {"units": 4}),
        *(LayerSpec(f"{kind}1", kind, {}) for kind in between),
        late,
    )
    with pytest.raises(DimensionError):
        ModelSpec("late", (1, 3, 3), layers)


def test_get_layer_lists_valid_names():
    m = build_lenet()
    with pytest.raises(ConfigError, match="fc1"):
        m.get_layer("fc9")


# --- forward -------------------------------------------------------------


def test_forward_matches_manual_composition():
    """The pipeline is nothing more than the tensor ops chained in order."""
    m = seed_weights(build_lenet(), 3)
    img = uniform_image((1, 28, 28), 0)
    trace = forward(m, img)

    x = img.reshaped(img.shape + (1,))
    x = T.conv2d(x, m.get_layer("conv1").params, 1)
    x = T.relu(x)
    x = T.maxpool2d(x, 2, 2)
    x = T.conv2d(x, m.get_layer("conv2").params, 1)
    x = T.relu(x)
    x = T.maxpool2d(x, 2, 2)
    x = x.reshaped((x.size, 1))
    fc1 = T.dense(x, m.get_layer("fc1").params)
    x = T.relu(fc1)
    x = T.dense(x, m.get_layer("fc2").params)
    x = T.relu(x)
    logits = T.dense(x, m.get_layer("fc3").params)

    assert bitwise_equal(trace.taps["fc1"], fc1.reshaped((120,)))
    assert bitwise_equal(trace.taps["fc3"], logits.reshaped((10,)))
    assert trace.final_label == int(np.argmax(logits.data))


def test_forward_and_forward_batch_label_ties_to_lowest_index():
    """Zero weights leave only the biases, whose maximum is tied between
    classes 1 and 2: both forward paths label the lower index, 1."""
    m = apply_weights(ModelSpec("tie", (4,), (LayerSpec("fc", "dense", {"units": 3}),)), {
        "fc.weight": Tensor.from_array(np.zeros((3, 4))),
        "fc.bias": Tensor.from_array(np.array([1.0, 3.0, 3.0], dtype=np.float32)),
    })
    images = [uniform_image((4,), seed) for seed in range(3)]
    for model in (m, quantize_model(m, Q16_16)):
        assert [forward(model, img).final_label for img in images] == [1, 1, 1]
        labels, _ = forward_batch(model, stacked(images), ())
        assert labels.tolist() == [1, 1, 1]


def test_forward_taps_every_layer():
    m = seed_weights(build_lenet(), 3)
    trace = forward(m, uniform_image((1, 28, 28), 1))
    assert list(trace.taps) == m.layer_names()
    assert trace.taps["fc1"].shape == (120,)


def test_forward_rejects_wrong_shape_and_missing_params():
    m = seed_weights(build_lenet(), 3)
    with pytest.raises(DimensionError):
        forward(m, uniform_image((1, 27, 27), 0))
    with pytest.raises(ConfigError, match="conv1"):
        forward(build_lenet(), uniform_image((1, 28, 28), 0))


def test_fc1_tap_is_pre_activation():
    # relu lives in its own layer, so the dense tap keeps negative values
    m = seed_weights(build_lenet(), 3)
    trace = forward(m, uniform_image((1, 28, 28), 2))
    fc1 = trace.taps["fc1"].data
    assert (fc1 < 0).any()
    assert np.array_equal(trace.taps["relu3"].data, np.maximum(fc1, 0))


# --- seeding -------------------------------------------------------------


def test_seed_weights_deterministic_and_seed_sensitive():
    a = seed_weights(build_lenet(), 9)
    b = seed_weights(build_lenet(), 9)
    c = seed_weights(build_lenet(), 10)
    for name in ("conv1", "fc3"):
        assert bitwise_equal(a.get_layer(name).params.weights, b.get_layer(name).params.weights)
    assert not bitwise_equal(a.get_layer("conv1").params.weights,
                             c.get_layer("conv1").params.weights)


def test_seed_weights_range_contract():
    m = seed_weights(build_lenet(), 4)
    fan_in = {"conv1": 25, "conv2": 150, "fc1": 256, "fc2": 120, "fc3": 84}
    for name, fi in fan_in.items():
        s = np.float32(1.0 / np.sqrt(fi))
        layer = m.get_layer(name)
        for t in (layer.params.weights, layer.params.bias):
            assert np.all(np.abs(t.data) <= s), name
        # the draws actually spread over the range, not collapse near 0
        assert np.abs(layer.params.weights.data).max() > 0.5 * s


def test_quantize_model_runs_fixed_pipeline():
    m = models.quantize_model(seed_weights(build_lenet(), 3), Q16_16)
    trace = forward(m, uniform_image((1, 28, 28), 0))
    assert trace.taps["fc3"].dtype == Q16_16
    assert 0 <= trace.final_label < 10


# --- weight files --------------------------------------------------------


def test_weight_roundtrip_float32(tmp_path):
    m = seed_weights(build_lenet(), 5)
    path = tmp_path / "w.dlaw"
    weightfile.write_entries(models.model_params(m), path)
    loaded = models.apply_weights(build_lenet(), weightfile.read_entries(path))
    for name in ("conv1", "conv2", "fc1", "fc2", "fc3"):
        assert bitwise_equal(m.get_layer(name).params.weights, loaded.get_layer(name).params.weights)
        assert bitwise_equal(m.get_layer(name).params.bias, loaded.get_layer(name).params.bias)


def test_weight_roundtrip_fixed(tmp_path):
    m = models.quantize_model(seed_weights(build_lenet(), 5), Q16_16)
    path = tmp_path / "w.dlaw"
    weightfile.write_entries(models.model_params(m), path)
    back = weightfile.read_entries(path)
    assert bitwise_equal(back["fc1.weight"], m.get_layer("fc1").params.weights)
    assert back["fc1.weight"].dtype == Q16_16


def test_weightfile_bad_magic_offset_zero(tmp_path):
    path = tmp_path / "bad.dlaw"
    path.write_bytes(b"NOPE" + bytes(8))
    with pytest.raises(ParseError) as e:
        weightfile.read_entries(path)
    assert e.value.offset == 0


def test_weightfile_truncated_payload(tmp_path):
    m = seed_weights(build_lenet(), 5)
    path = tmp_path / "w.dlaw"
    weightfile.write_entries({"fc3.bias": m.get_layer("fc3").params.bias}, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-12])  # drop 3 of the 10 payload floats
    with pytest.raises(ParseError, match="payload") as e:
        weightfile.read_entries(path)
    assert e.value.offset == len(blob) - 40


def test_weightfile_bad_version_and_dtype(tmp_path):
    path = tmp_path / "w.dlaw"
    weightfile.write_entries({"a": Tensor.from_array(np.ones(2, dtype=np.float32))}, path)
    blob = bytearray(path.read_bytes())
    blob[4] = 9
    path.write_bytes(bytes(blob))
    with pytest.raises(ParseError) as e:
        weightfile.read_entries(path)
    assert e.value.offset == 4

    weightfile.write_entries({"a": Tensor.from_array(np.ones(2, dtype=np.float32))}, path)
    blob = bytearray(path.read_bytes())
    dtype_off = 12 + 2 + 1  # count header, name length, name "a"
    blob[dtype_off] = 7
    path.write_bytes(bytes(blob))
    with pytest.raises(ParseError) as e:
        weightfile.read_entries(path)
    assert e.value.offset == dtype_off


def test_weightfile_trailing_bytes(tmp_path):
    path = tmp_path / "w.dlaw"
    weightfile.write_entries({"a": Tensor.from_array(np.ones(2, dtype=np.float32))}, path)
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(ParseError, match="trailing"):
        weightfile.read_entries(path)


def test_apply_weights_shape_mismatch_and_extras(tmp_path):
    m = seed_weights(build_lenet(), 5)
    params = models.model_params(m)
    bad = dict(params)
    bad["fc1.weight"] = Tensor.from_array(np.zeros((120, 200), dtype=np.float32))
    with pytest.raises(DimensionError, match="fc1"):
        models.apply_weights(build_lenet(), bad)
    with pytest.raises(DataError, match="missing"):
        models.apply_weights(build_lenet(), {k: v for k, v in params.items() if k != "fc2.bias"})
    extra = dict(params)
    extra["ghost.weight"] = params["fc3.bias"]
    with pytest.raises(DataError, match="ghost"):
        models.apply_weights(build_lenet(), extra)


def model_to_json(model):
    """Architecture record; parameters travel separately in weight files."""
    return {
        "name": model.name,
        "inputShape": list(model.input_shape),
        "layers": models.layers_to_json(model.layers),
    }


def test_model_json_roundtrip():
    m = build_cifar_net()
    again = models.model_from_json(model_to_json(m))
    assert again.layer_names() == m.layer_names()
    assert layer_output_shapes(again) == layer_output_shapes(m)
    with pytest.raises(ConfigError):
        models.model_from_json({"name": "x"})
