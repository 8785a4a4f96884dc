from dataclasses import replace

import numpy as np
import pytest

from oracles import run_partitioned, run_view
from trojansim.data import Dataset, synthesize, split
from trojansim.data import SplitPlan
from trojansim.defense import (
    PER_IMAGE,
    PER_PIXEL,
    DefenseReport,
    DesignerView,
    ScalePlan,
    alter_validation,
    evaluate_altered_defense,
    evaluate_distributed_defense,
    partition,
    save_view,
    scale_factors,
    stream_hit_rate,
    view_to_json,
)
from trojansim.errors import ConfigError
from trojansim.models import (
    LayerSpec,
    ModelSpec,
    build_lenet,
    forward,
    model_params,
    seed_weights,
)
from trojansim.rng import BLOCK_DRAWS, Xoshiro256StarStar
from trojansim.tensor import Kernel, Tensor
from trojansim.weightfile import read_entries


def seeded_lenet():
    return seed_weights(build_lenet(), 2)


def zero_weight_model():
    w = np.zeros((3, 2), dtype=np.float32)
    k = Kernel(Tensor.from_array(w), Tensor.from_array(np.zeros(3, dtype=np.float32)))
    return ModelSpec("flatline", (2,), (LayerSpec("out", "dense", {"units": 3}, k),))


def tiny_dataset(count, shape=(2,), seed=0):
    return synthesize(count, shape, seed)


def bias_free_stack():
    """conv/pool/relu/flatten/dense with every bias zeroed: forward is
    positively homogeneous, so doubling the input doubles every tap."""
    m = seed_weights(
        ModelSpec(
            "homog",
            (1, 6, 6),
            (
                LayerSpec("c", "conv", {"outChannels": 2, "kernelSize": 3, "stride": 1}),
                LayerSpec("r", "relu", {}),
                LayerSpec("p", "maxpool", {"window": 2, "stride": 2}),
                LayerSpec("f", "flatten", {}),
                LayerSpec("d", "dense", {"units": 4}),
            ),
        ),
        seed=9,
    )
    layers = []
    for l in m.layers:
        if l.params is not None:
            zero = Tensor.from_array(np.zeros_like(l.params.bias.data))
            layers.append(replace(l, params=Kernel(l.params.weights, zero)))
        else:
            layers.append(l)
    return ModelSpec(m.name, m.input_shape, tuple(layers))


# --- scaled validation ----------------------------------------------------


def test_scale_plan_validation_and_json():
    with pytest.raises(ConfigError):
        ScalePlan(0, mode="perBatch")
    with pytest.raises(ConfigError):
        ScalePlan(0, r_min=0.0)
    with pytest.raises(ConfigError):
        ScalePlan(0, r_min=2.0, r_max=0.5)
    plan = ScalePlan(3, PER_PIXEL, 0.5, 2.0)
    obj = plan.to_json()
    assert obj == {"seed": 3, "mode": "perPixel", "range": [0.5, 2.0]}
    assert ScalePlan.from_json(obj) == plan


def test_scale_factors_shapes_and_range():
    data = tiny_dataset(6, shape=(2, 3, 3), seed=4)
    per_image = scale_factors(ScalePlan(1, PER_IMAGE, 0.5, 2.0), data)
    assert len(per_image) == 6 and all(f.size == 1 for f in per_image)
    per_pixel = scale_factors(ScalePlan(1, PER_PIXEL, 0.5, 2.0), data)
    assert all(f.size == 18 for f in per_pixel)
    for factors in (per_image, per_pixel):
        for f in factors:
            assert np.all(f >= 0.5) and np.all(f < 2.0)
    assert not np.array_equal(per_image[0], scale_factors(ScalePlan(2), data)[0])
    again = scale_factors(ScalePlan(1, PER_IMAGE, 0.5, 2.0), data)
    assert all(np.array_equal(a, b) for a, b in zip(per_image, again))


@pytest.mark.parametrize("mode", [PER_IMAGE, PER_PIXEL])
def test_scale_factors_equal_scalar_uniform_calls_across_a_block_edge(mode):
    if mode == PER_IMAGE:
        img, count = Tensor.from_array(np.zeros((1, 1, 1))), BLOCK_DRAWS + 1
    else:
        img, count = Tensor.from_array(np.zeros((1, 28, 28))), BLOCK_DRAWS // 784 + 1
    data = Dataset("d", ((img, 0),) * count)
    factors = scale_factors(ScalePlan(21, mode, 0.5, 2.0), data)
    rng = Xoshiro256StarStar(21)
    assert isinstance(factors, list) and len(factors) == count
    for f in factors:
        want = np.array([rng.uniform(0.5, 2.0) for _ in range(f.size)])
        assert f.size == (1 if mode == PER_IMAGE else img.size)
        assert f.tobytes() == want.tobytes()


def test_identity_plan_is_bitwise_noop():
    data = tiny_dataset(10, seed=5)
    altered = alter_validation(data, ScalePlan(7, PER_IMAGE, 1.0, 1.0))
    assert len(altered) == len(data)
    for (a, la), (b, lb) in zip(data.items, altered.items):
        assert la == lb
        assert a.data.tobytes() == b.data.tobytes()


def test_power_of_two_scaling_is_exact():
    data = tiny_dataset(4, shape=(1, 3, 3), seed=6)
    altered = alter_validation(data, ScalePlan(0, PER_IMAGE, 2.0, 2.0))
    for (a, _), (b, _) in zip(data.items, altered.items):
        assert np.array_equal(b.data, a.data * np.float32(2.0))


def test_per_pixel_scaling_matches_declared_factors():
    data = tiny_dataset(3, shape=(1, 2, 2), seed=8)
    plan = ScalePlan(11, PER_PIXEL, 0.5, 2.0)
    factors = scale_factors(plan, data)
    altered = alter_validation(data, plan)
    for (img, _), (scaled, _), f in zip(data.items, altered.items, factors):
        expect = (img.data.astype(np.float64) * f).astype(np.float32)
        assert np.array_equal(scaled.data, expect)


@pytest.mark.parametrize("mode", [PER_IMAGE, PER_PIXEL])
def test_altered_images_equal_the_per_image_products(mode):
    """Each altered image is (A as float64 * r) rounded once to float32,
    as one image at a time computes it, across the slices the images are
    multiplied in."""
    per_slice = BLOCK_DRAWS // 784
    data = synthesize(2 * per_slice + 3, (1, 28, 28), 13)
    plan = ScalePlan(5, mode, 0.9, 1.1)
    altered = alter_validation(data, plan)
    assert altered.name == "synthetic-uniform-13/altered" and altered.labels() == data.labels()
    for (img, _), (scaled, _), r in zip(data.items, altered.items, scale_factors(plan, data)):
        want = (img.data.astype(np.float64) * r).astype(np.float32)
        assert scaled.shape == img.shape and scaled.data.tobytes() == want.tobytes()
        assert not scaled.data.flags.writeable


def test_forward_is_homogeneous_under_power_of_two_scaling():
    m = bias_free_stack()
    img = tiny_dataset(1, shape=(1, 6, 6), seed=12).items[0][0]
    doubled = Tensor.from_array(img.data.reshape(img.shape) * np.float32(2.0))
    t1, t2 = forward(m, img), forward(m, doubled)
    for name in ("c", "r", "p", "d"):
        assert np.array_equal(t2.taps[name].data, t1.taps[name].data * np.float32(2.0))
    assert t1.final_label == t2.final_label


def test_identity_plan_leaves_attack_intact():
    # scaling by exactly 1 changes nothing: the adversary's bands work as
    # designed, so the report must say so
    m = seeded_lenet()
    base = synthesize(1100, (1, 28, 28), seed=11)
    val, stream = split(base, SplitPlan(100, 1000, seed=3))
    short_stream = Dataset("s", stream.items[:300])
    report = evaluate_altered_defense(
        m, val, ScalePlan(5, PER_IMAGE, 1.0, 1.0), short_stream, probe_count=400
    )
    assert report.kind == "alteredValidation"
    assert report.verdict == "ineffective"
    assert report.band_collision_count == 0
    assert any("designed rate" in f for f in report.exposure_findings)


def test_random_scaling_defeats_band_forging():
    m = seeded_lenet()
    base = synthesize(1100, (1, 28, 28), seed=11)
    val, stream = split(base, SplitPlan(100, 1000, seed=3))
    short_stream = Dataset("s", stream.items[:50])
    report = evaluate_altered_defense(
        m, val, ScalePlan(5, PER_IMAGE, 0.5, 2.0), short_stream, probe_count=50
    )
    assert_bandless_report(report, "effective", "adversary cannot forge collision-free bands")


def test_degenerate_adversary_stats_are_inconclusive():
    m = zero_weight_model()
    val = tiny_dataset(5)
    report = evaluate_altered_defense(
        m, val, ScalePlan(0, PER_IMAGE, 0.5, 2.0), val, watch_layer="out", probe_count=10
    )
    assert_bandless_report(report, "inconclusive", "adversary profiling degenerate: ")


def assert_bandless_report(report, verdict, finding_start):
    """The report of an adversary left without bands: no rates, no
    collisions, one finding that says why."""
    doc = report.to_json()
    (finding,) = doc.pop("exposureFindings")
    assert finding.startswith(finding_start)
    assert doc == {
        "kind": "alteredValidation",
        "adversaryTriggerRateDesigned": 0.0,
        "adversaryTriggerRateActual": 0.0,
        "bandCollisionCount": 0,
        "verdict": verdict,
    }


def test_defense_report_validation_and_json():
    with pytest.raises(ConfigError):
        DefenseReport("distributed", 0.0, 0.0, 0, (), "maybe")
    with pytest.raises(ConfigError):
        DefenseReport("distributed", 1.5, 0.0, 0, (), "effective")
    report = DefenseReport("distributed", 0.0, 0.0, 0, ("a",), "effective")
    assert set(report.to_json()) == {
        "kind", "adversaryTriggerRateDesigned", "adversaryTriggerRateActual",
        "bandCollisionCount", "exposureFindings", "verdict",
    }


def test_stream_hit_rate_counts_images_not_elements():
    m = seeded_lenet()
    base = synthesize(1100, (1, 28, 28), seed=11)
    val, _ = split(base, SplitPlan(100, 1000, seed=3))
    from trojansim.profiling import forge_bands, profile_layer

    bands = forge_bands(profile_layer(m, val, "fc1"))
    hits, n = stream_hit_rate(m, bands, val, "fc1")
    assert (hits, n) == (0, 100)  # bands were forged to miss this very set


# --- distributed implementation ------------------------------------------


def test_partition_balanced_sizes():
    m = seeded_lenet()
    views = partition(m, k=5)
    assert [len(v.layers) for v in views] == [3, 3, 2, 2, 2]
    assert [v.group_index for v in views] == [0, 1, 2, 3, 4]


def test_partition_cuts_layer_listing():
    m = seeded_lenet()
    g0, g1 = partition(m, cuts=[7])
    assert [l.name for l in g0.layers] == [
        "conv1", "relu1", "pool1", "conv2", "relu2", "pool2", "flatten"]
    assert [l.name for l in g1.layers] == ["fc1", "relu3", "fc2", "relu4", "fc3"]
    assert g0.input_dims == (1, 28, 28)
    assert g0.output_dims == (256,) == g1.input_dims
    assert g1.output_dims == (10,)


def test_partition_argument_validation():
    m = seeded_lenet()
    with pytest.raises(ConfigError):
        partition(m)
    with pytest.raises(ConfigError):
        partition(m, k=2, cuts=[3])
    for bad_k in (1, 13):
        with pytest.raises(ConfigError):
            partition(m, k=bad_k)
    for bad_cuts in ([0], [12], []):
        with pytest.raises(ConfigError):
            partition(m, cuts=bad_cuts)
    with pytest.raises(ConfigError):
        partition(build_lenet(), k=2)  # no parameters to hand out


def test_partitioned_composition_is_bitwise_exact():
    m = seeded_lenet()
    images = [img for img, _ in synthesize(2, (1, 28, 28), seed=21).items]
    for k in (2, 5, 12):
        views = partition(m, k=k)
        for img in images:
            whole = forward(m, img)
            pieced = run_partitioned(views, img)
            assert np.array_equal(pieced.data, whole.taps["fc3"].data)


def test_run_view_rejects_wrong_dims():
    m = seeded_lenet()
    views = partition(m, k=2)
    with pytest.raises(ConfigError):
        run_view(views[1], Tensor.from_array(np.zeros((1, 28, 28), dtype=np.float32)))


def test_distributed_verdict_effective_for_real_partition():
    m = seeded_lenet()
    for k in (2, 6):
        report = evaluate_distributed_defense(partition(m, k=k), m)
        assert report.kind == "distributed"
        assert report.verdict == "effective"
        assert not any("VIOLATION" in f for f in report.exposure_findings)
        assert any("lacks parameters" in f for f in report.exposure_findings)


def test_distributed_rejects_non_tiling_views():
    m = seeded_lenet()
    views = partition(m, k=2)
    with pytest.raises(ConfigError):
        evaluate_distributed_defense([views[0]], m)  # missing layers
    with pytest.raises(ConfigError):
        evaluate_distributed_defense([views[1], views[1]], m)
    with pytest.raises(ConfigError):
        evaluate_distributed_defense([], m)


def test_distributed_flags_all_seeing_group():
    m = seeded_lenet()
    everything = DesignerView(0, m.layers, (1, 28, 28), (10,))
    stub = DesignerView(1, (), (10,), (10,))
    report = evaluate_distributed_defense([everything, stub], m)
    assert report.verdict == "ineffective"
    joined = "\n".join(report.exposure_findings)
    assert "holds every parameterized layer" in joined
    assert "ends at the model's final layer" in joined
    assert "sees both model input and output dims" in joined


def test_view_serialization_strips_params(tmp_path):
    m = seeded_lenet()
    views = partition(m, k=2)
    for v in views:
        obj = view_to_json(v)
        assert set(obj) == {"groupIndex", "inputDims", "outputDims", "layers"}
        assert all(l["params"] is None for l in obj["layers"])
        save_view(v, tmp_path)

    e0 = read_entries(tmp_path / "view0.dlaw")
    e1 = read_entries(tmp_path / "view1.dlaw")
    assert sorted(e0) == ["conv1.bias", "conv1.weight", "conv2.bias", "conv2.weight"]
    assert sorted(e1) == [
        "fc1.bias", "fc1.weight", "fc2.bias", "fc2.weight", "fc3.bias", "fc3.weight"]
    # the union of the per-group weight files is exactly the full model
    full = model_params(m)
    for name, tensor in {**e0, **e1}.items():
        assert tensor.data.tobytes() == full[name].data.tobytes()
        assert tensor.shape == full[name].shape
    assert len(e0) + len(e1) == len(full)
