import csv

import numpy as np
import pytest

from oracles import check_trigger_naive, dataset_of, stacked, step
from trojansim import models, trojan
from trojansim.data import synthesize
from trojansim.errors import ConfigError, DataError, DimensionError
from trojansim.models import (
    LayerSpec,
    ModelSpec,
    build_lenet,
    forward,
    forward_batch,
    forward_chunk,
    quantize_model,
    seed_weights,
)
from trojansim.profiling import SigmaBand, in_bands
from trojansim.rng import Xoshiro256StarStar
from trojansim.tensor import Q16_16, Kernel, Tensor, quantize
from trojansim.trojan import (
    ARMED,
    DORMANT,
    FIXED_INDEX,
    ROUND_ROBIN,
    AttackReport,
    TriggerEvent,
    TrojanConfig,
    TrojanState,
    evaluate_attack,
    run_compromised,
    substituted_cycles,
    write_labels_csv,
)


def mirror_model():
    """Input (1,) -> dense (x, -x): label 0 iff x >= 0, watchable output."""
    w = np.array([[1.0], [-1.0]], dtype=np.float32)
    k = Kernel(Tensor.from_array(w), Tensor.from_array(np.zeros(2, dtype=np.float32)))
    return ModelSpec("mirror", (1,), (LayerSpec("out", "dense", {"units": 2}, k),))


def scalar_image(v):
    return Tensor.from_array(np.array([v], dtype=np.float32))


def scalar_stream(values, name="stream"):
    return dataset_of(name, ((scalar_image(v), 0) for v in values), (1,))


def band(lo, hi, side="upper", layer="out"):
    return SigmaBand(layer, lo, hi, side, 3.0, 4.0)


UPPER = band(3.0, 4.0)


def make_config(malicious_values=(3.6,), **kw):
    return TrojanConfig("out", (UPPER,), tuple(scalar_image(v) for v in malicious_values), **kw)


# --- check_trigger_naive -------------------------------------------------


def test_check_trigger_examples():
    t = Tensor.from_array(np.array([0.0, 3.5, 0.0], dtype=np.float32))
    assert check_trigger_naive(t.data, [UPPER]) == (1, 3.5)
    assert check_trigger_naive(Tensor.from_array(np.zeros(4, dtype=np.float32)).data, [UPPER]) is None
    assert check_trigger_naive(t.data, []) is None


def test_check_trigger_bounds_inclusive():
    for v in (3.0, 4.0):
        assert check_trigger_naive(Tensor.from_array(np.array([v], dtype=np.float32)).data, [UPPER]) == (0, v)
    for v in (2.9999998, 4.0000005):
        got = check_trigger_naive(Tensor.from_array(np.array([v], dtype=np.float32)).data, [UPPER])
        assert got is None


def test_check_trigger_reports_first_hit():
    t = Tensor.from_array(np.array([1.0, 3.2, 3.9], dtype=np.float32))
    idx, val = check_trigger_naive(t.data, [UPPER])
    assert idx == 1
    assert val == np.float64(np.float32(3.2))


def test_check_trigger_multiple_bands():
    lower = band(-4.0, -3.0, side="lower")
    t = Tensor.from_array(np.array([0.0, -3.5], dtype=np.float32))
    assert check_trigger_naive(t.data, [UPPER, lower]) == (1, -3.5)


def test_check_trigger_fuzz_matches_oracle():
    rng = Xoshiro256StarStar(909)
    for _ in range(300):
        n = 1 + rng.next_u64() % 30
        vals = np.array([rng.next_double() * 12 - 6 for _ in range(n)], dtype=np.float32)
        bands = []
        for _ in range(rng.next_u64() % 4):
            lo = rng.next_double() * 10 - 5
            hi = lo + rng.next_double() * 2 + 1e-9
            side = "upper" if rng.next_u64() % 2 else "lower"
            bands.append(band(lo, hi, side=side))
        # the first hit of in_bands, the rule run_compromised applies
        hits = np.flatnonzero(in_bands(vals, bands))
        first = (int(hits[0]), float(vals[hits[0]])) if hits.size else None
        assert first == check_trigger_naive(vals, bands)


# --- state machine -------------------------------------------------------


def test_scripted_run_timing_and_suppression():
    m = mirror_model()
    config = make_config(malicious_values=(3.6,))  # in-band on purpose
    stream_vals = [0.0, 3.5, 3.9, 0.5, 3.2, 3.25, 0.0]
    stream = scalar_stream(stream_vals)

    state = TrojanState()
    effective_inputs = []
    images = stream.images()
    for cycle, img in enumerate(images):
        eff, state, _, _ = step(state, m, config, cycle, img)
        effective_inputs.append(eff)

    kinds = [(e.cycle, e.kind) for e in state.log]
    assert kinds == [(1, "Triggered"), (2, "Substituted"), (4, "Triggered"), (5, "Substituted")]
    assert state.mode == DORMANT
    assert state.fired_count == 2

    # the substituted cycle ran the stored image, not the legit one
    assert np.array_equal(effective_inputs[2].data, config.malicious_images[0].data)
    # every other cycle ran the stream image unmodified
    for c in (0, 1, 3, 4, 6):
        assert effective_inputs[c] is images[c]
    # cycle 2's legit input (3.9, in-band) was dropped without ever being
    # evaluated, and the in-band malicious tap did not re-arm the machine:
    # cycle 3 stayed dormant.
    assert 2 not in {e.cycle for e in state.log if e.kind == "Triggered"}
    assert 3 not in substituted_cycles(state)


def test_substitution_exactly_one_cycle_after_trigger():
    m = mirror_model()
    config = make_config(malicious_values=(0.25,))
    stream = scalar_stream([3.5, 0.0, 3.5, 0.0, 3.1, 3.2, 0.0, 3.9])
    _, _, state = run_compromised(m, config, stream)
    trig = sorted(e.cycle for e in state.log if e.kind == "Triggered")
    subs = sorted(substituted_cycles(state))
    assert trig == [0, 2, 4, 7]
    assert subs == [c + 1 for c in trig if c + 1 < len(stream)]
    # never two substitutions back to back
    assert all(b - a >= 2 for a, b in zip(subs, subs[1:]))


def test_trigger_on_final_cycle_leaves_machine_armed():
    m = mirror_model()
    config = make_config()
    labels, report, state = run_compromised(m, config, scalar_stream([0.0, 3.5]))
    assert state.mode == ARMED
    assert report.trigger_count == 1
    assert report.substitutions == 0
    assert labels == [0, 0]


def test_substituted_label_is_clean_forward_of_malicious():
    m = mirror_model()
    config = make_config(malicious_values=(-5.0,))
    stream = scalar_stream([0.5, 3.5, 1.0, 2.0, 3.2, 1.5])
    labels, report, state = run_compromised(m, config, stream)
    mal_label = forward(m, config.malicious_images[0]).final_label
    assert mal_label == 1
    for c in substituted_cycles(state):
        assert labels[c] == mal_label
    assert labels == [0, 0, 1, 0, 0, 1]
    assert report.misclassifications == 2
    assert report.substitutions == 2
    assert report.clean_equivalence is True
    assert report.trigger_rate == pytest.approx(2 / 6)


def test_unreachable_bands_leave_pipeline_bitwise_clean():
    m = seed_weights(build_lenet(), 2)
    stream = synthesize(20, (1, 28, 28), seed=77)
    mal = synthesize(1, (1, 28, 28), seed=78).images()[0]
    config = TrojanConfig("fc1", (SigmaBand("fc1", 1e6, 2e6, "upper", 3.0, 4.0),), (mal,))
    labels, report, state = run_compromised(m, config, stream)
    assert state.log == () and state.mode == DORMANT
    assert report.trigger_count == 0 and report.substitutions == 0
    assert report.clean_equivalence is True
    for img, label in zip(stream.images(), labels):
        trace = forward(m, img)
        assert label == trace.final_label


def test_round_robin_cycles_through_images():
    m = mirror_model()
    config = make_config(malicious_values=(0.1, 0.2, 0.3), selection=ROUND_ROBIN)
    stream = scalar_stream([3.5, 0.0, 3.5, 0.0, 3.5, 0.0, 3.5, 0.0])
    _, _, state = run_compromised(m, config, stream)
    used = [e.used_malicious_index for e in state.log if e.kind == "Substituted"]
    assert used == [0, 1, 2, 0]


def test_fixed_index_selection():
    m = mirror_model()
    config = make_config(malicious_values=(0.1, 0.2, 0.3), selection=FIXED_INDEX, fixed_index=2)
    stream = scalar_stream([3.5, 0.0, 3.5, 0.0])
    _, _, state = run_compromised(m, config, stream)
    used = [e.used_malicious_index for e in state.log if e.kind == "Substituted"]
    assert used == [2, 2]


def test_step_rejects_wrong_input_shape():
    m = mirror_model()
    with pytest.raises(DimensionError):
        step(TrojanState(), m, make_config(), 0,
             Tensor.from_array(np.zeros(2, dtype=np.float32)))


# --- validation ----------------------------------------------------------


def test_config_validation():
    with pytest.raises(ConfigError):
        TrojanConfig("out", (UPPER,), ())
    with pytest.raises(ConfigError):
        TrojanConfig("out", (UPPER,), (scalar_image(1.0),
                                       Tensor.from_array(np.zeros(2, dtype=np.float32))))
    with pytest.raises(ConfigError):
        TrojanConfig("fc1", (UPPER,), (scalar_image(1.0),))  # band targets "out"
    with pytest.raises(ConfigError):
        TrojanConfig("out", (UPPER,), (scalar_image(1.0),), selection="always")
    with pytest.raises(ConfigError):
        TrojanConfig("out", (UPPER,), (scalar_image(1.0),), selection=FIXED_INDEX, fixed_index=1)


def test_run_rejects_unknown_watch_layer():
    m = mirror_model()
    config = TrojanConfig("elsewhere", (band(3, 4, layer="elsewhere"),), (scalar_image(1.0),))
    with pytest.raises(ConfigError):
        run_compromised(m, config, scalar_stream([0.0]))


def test_evaluate_attack_length_mismatch():
    stream = scalar_stream([0.0, 1.0])
    with pytest.raises(DataError):
        evaluate_attack([0], ([0, 0], TrojanState()), stream)


def test_event_json_shapes():
    t = TriggerEvent(7, "Triggered", hit_value=3.25, hit_index=4)
    assert t.to_json() == {"cycle": 7, "kind": "Triggered", "hitValue": 3.25, "hitIndex": 4}
    s = TriggerEvent(8, "Substituted", used_malicious_index=1)
    assert s.to_json() == {"cycle": 8, "kind": "Substituted", "usedMaliciousIndex": 1}
    report = AttackReport(10, 2, 0.2, 2, 1, True)
    assert set(report.to_json()) == {
        "imagesProcessed", "triggerCount", "triggerRate",
        "substitutions", "misclassifications", "cleanEquivalence",
    }


# --- labels csv ----------------------------------------------------------


def read_labels_csv(path):
    with open(path, encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))
    if not rows or rows[0] != ["cycle", "label", "substituted"]:
        raise DataError(f"{path} is not a labels CSV")
    return [(int(c), int(l), int(s)) for c, l, s in rows[1:]]


def test_labels_csv_roundtrip(tmp_path):
    m = mirror_model()
    config = make_config(malicious_values=(-5.0,))
    stream = scalar_stream([0.5, 3.5, 1.0, 0.0])
    labels, _, state = run_compromised(m, config, stream)
    path = tmp_path / "labels.csv"
    write_labels_csv(labels, state, path)
    text = path.read_text()
    assert text.splitlines()[0] == "cycle,label,substituted"
    rows = read_labels_csv(path)
    assert [r[0] for r in rows] == list(range(4))
    assert [r[1] for r in rows] == labels
    subs = substituted_cycles(state)
    assert [r[2] for r in rows] == [1 if c in subs else 0 for c in range(4)]


# --- run_compromised against the step reference ----------------------------


def step_reference(model, config, stream):
    """Drive step cycle by cycle: the per-cycle definition of the payload."""
    state = TrojanState()
    labels = []
    for cycle, img in enumerate(stream.images()):
        _, state, _, trace = step(state, model, config, cycle, img)
        labels.append(trace.final_label)
    return labels, state


def assert_matches_step(model, config, stream):
    labels, _, state = run_compromised(model, config, stream)
    ref_labels, ref_state = step_reference(model, config, stream)
    assert labels == ref_labels
    assert state.log == ref_state.log
    assert state.mode == ref_state.mode
    assert state.fired_count == ref_state.fired_count
    return state


def isolated_band(layer, row, index, others):
    """A band around row[index] that holds none of the other values."""
    v = float(row[index])
    gap = float(np.min(np.abs(np.asarray(others, dtype=np.float64) - v)))
    assert gap > 0
    return SigmaBand(layer, v - gap / 2, v + gap / 2, "upper", 3.0, 4.0)


def lenet_pool(model, watch, seed):
    """Six images and their flattened watch taps. The tests band elements of
    images 0 and 1 (hot) and keep every tap element of images 2-5 (cold)
    out of the bands."""
    pool = synthesize(6, (1, 28, 28), seed=seed).images()
    flat = forward_batch(model, stacked(pool), (watch,))[1][watch].reshape(len(pool), -1)
    return pool, flat


def pool_stream(pool, picks):
    return dataset_of("stream", ((pool[p], 0) for p in picks))


def test_chunk_edges_final_trigger_and_in_band_malicious_image():
    model = seed_weights(build_lenet(), 4)
    chunk = forward_chunk(model)
    pool, flat = lenet_pool(model, "fc1", 40)
    cold = flat[2:].ravel()
    bands = (isolated_band("fc1", flat[0], int(np.argmax(flat[0])), cold),)
    # hot on the last cycle of forward_batch's chunk 0 (substituted at the
    # start of chunk 1, where a hot legitimate image is dropped unevaluated),
    # on the last cycle of chunk 1, and on the final cycle of a stream longer
    # than two chunks
    n = 2 * chunk + 4
    picks = [2 + c % 4 for c in range(n)]
    for c in (chunk - 1, chunk, 2 * chunk - 1, n - 1):
        picks[c] = 0
    stream = pool_stream(pool, picks)
    # round robin over three images; the first is in-band and must not re-arm
    config = TrojanConfig("fc1", bands, (pool[0], pool[2], pool[3]), selection=ROUND_ROBIN)
    state = assert_matches_step(model, config, stream)
    kinds = [(e.cycle, e.kind) for e in state.log]
    assert kinds == [
        (chunk - 1, "Triggered"), (chunk, "Substituted"),
        (2 * chunk - 1, "Triggered"), (2 * chunk, "Substituted"),
        (n - 1, "Triggered"),
    ]
    assert [e.used_malicious_index for e in state.log if e.kind == "Substituted"] == [0, 1]
    assert state.mode == ARMED and state.fired_count == 3


def test_q16_conv_watch_hit_index_follows_row_major_flattening():
    model = quantize_model(seed_weights(build_lenet(), 6), Q16_16)
    pool, flat = lenet_pool(model, "conv1", 41)
    per_channel = flat.shape[1] // 6
    # two elements of image 0: late in channel 0 and early in channel 5, so a
    # channel-last flattening would report the second one first
    first = per_channel - 1
    second = 5 * per_channel
    others = np.concatenate([flat[2:].ravel(), np.delete(flat[0], [first, second])])
    bands = (
        isolated_band("conv1", flat[0], second, others),
        isolated_band("conv1", flat[0], first, others),
    )
    stream = pool_stream(pool, [2, 0, 3, 4, 0, 5, 2, 0])
    config = TrojanConfig("conv1", bands, (pool[4],), selection=FIXED_INDEX)
    state = assert_matches_step(model, config, stream)
    hits = [(e.cycle, e.hit_index, e.hit_value) for e in state.log if e.kind == "Triggered"]
    assert hits == [(1, first, float(flat[0][first])), (4, first, float(flat[0][first])),
                    (7, first, float(flat[0][first]))]


@pytest.mark.parametrize("quantized", [False, True], ids=["f32-fc1", "q16-conv1"])
def test_run_compromised_matches_step_fuzz(quantized):
    model = seed_weights(build_lenet(), 8)
    watch = "fc1"
    if quantized:
        model, watch = quantize_model(model, Q16_16), "conv1"
    chunk = forward_chunk(model)
    pool, flat = lenet_pool(model, watch, 42)
    cold = flat[2:].ravel()
    bands = tuple(
        isolated_band(watch, flat[h], int(np.argmax(flat[h])), np.concatenate([cold, flat[1 - h]]))
        for h in (0, 1)
    )
    rng = np.random.default_rng(2024 + quantized)
    triggers = 0
    for trial, n in enumerate([1, 2, chunk - 1, chunk, chunk + 1, 2 * chunk + 3]):
        picks = rng.choice(6, size=n, p=[0.2, 0.15, 0.2, 0.15, 0.15, 0.15]).tolist()
        if trial % 2:
            picks[-1] = 0  # trigger on the final cycle
        stream = pool_stream(pool, picks)
        if trial % 3 == 2:
            config = TrojanConfig(watch, bands, (pool[2], pool[1]), selection=FIXED_INDEX, fixed_index=1)
        else:
            config = TrojanConfig(watch, bands, (pool[1], pool[3], pool[0]), selection=ROUND_ROBIN)
        state = assert_matches_step(model, config, stream)
        triggers += state.fired_count
    assert triggers >= 10


def test_each_used_malicious_image_is_forwarded_once(monkeypatch):
    """The stream is one batched pass, and the malicious images the walk
    used are labelled by one more, each image once, in index order."""
    real = trojan.forward_batch
    passes = []

    def counting(model, images, keep):
        passes.append(images.tobytes())
        return real(model, images, keep)

    monkeypatch.setattr(trojan, "forward_batch", counting)
    m = mirror_model()
    config = make_config(malicious_values=(0.1, 0.2, 0.3), selection=ROUND_ROBIN)

    _, report, _ = run_compromised(m, config, scalar_stream([0.0, 1.0, 2.0, 0.5]))
    assert report.trigger_count == 0
    assert len(passes) == 1  # the stream's alone

    passes.clear()
    stream = scalar_stream([3.5, 0.0, 3.5, 0.0, 3.5, 0.0, 3.5, 0.0, 3.5, 0.0])
    _, report, state = run_compromised(m, config, stream)
    assert [e.used_malicious_index for e in state.log if e.kind == "Substituted"] == [0, 1, 2, 0, 1]
    assert passes[1:] == [stacked(config.malicious_images).tobytes()]

    passes.clear()
    _, _, state = run_compromised(m, config, scalar_stream([3.5, 0.0, 3.5, 0.0]))
    assert passes[1:] == [stacked(config.malicious_images[:2]).tobytes()]


def test_malicious_images_of_both_input_dtypes_label_as_forward_does():
    """A fixed-point model takes float32 images and images of its own
    format: run_compromised labels a mix of both, one batched pass per
    dtype, as the per-image forward does."""
    m = quantize_model(mirror_model(), Q16_16)
    images = (scalar_image(-5.0), quantize(scalar_image(0.25), Q16_16))
    config = TrojanConfig("out", (UPPER,), images)
    labels, _, state = run_compromised(m, config, scalar_stream([3.5, 0.0, 3.5, 0.0]))
    assert [e.used_malicious_index for e in state.log if e.kind == "Substituted"] == [0, 1]
    assert [labels[1], labels[3]] == [forward(m, img).final_label for img in images] == [1, 0]


def test_stream_is_forwarded_in_one_call(monkeypatch):
    real = trojan.forward_batch
    calls = []

    def counting(model, images, keep):
        calls.append(len(images))
        return real(model, images, keep)

    monkeypatch.setattr(trojan, "forward_batch", counting)
    model = seed_weights(build_lenet(), 2)
    n = 2 * forward_chunk(model) + 3
    stream = synthesize(n, model.input_shape, seed=5)
    mal = synthesize(1, model.input_shape, seed=6).images()[0]
    config = TrojanConfig("fc1", (SigmaBand("fc1", 1e6, 2e6, "upper", 3.0, 4.0),), (mal,))
    labels, _, _ = run_compromised(model, config, stream)
    assert calls == [n] and len(labels) == n


def test_empty_stream_runs_clean():
    labels, report, state = run_compromised(mirror_model(), make_config(), dataset_of("e", (), (1,)))
    assert labels == []
    assert report == AttackReport(0, 0, 0.0, 0, 0, True)
    assert state == TrojanState()
