"""End-to-end acceptance checks, one test per shipped claim.

Run with `pytest -v tests/test_acceptance.py`: the per-test PASSED/FAILED
line is the pass/fail record for each numbered claim; each test also prints
its measured figures (visible with -s or in the captured output).

The claims, in order:
  1 arithmetic kernels match scalar oracles bitwise (exhaustive small dims
    plus 1000 randomized larger configurations)
  2 a dormant implant is bitwise invisible over a 1000-image stream
  3 substitution happens exactly one cycle after a trigger, never twice in
    a row, and yields the malicious image's clean label (10^4 fuzz runs)
  4 Monte-Carlo trigger-rate estimation agrees with the closed form on an
    i.i.d. Gaussian layer (mu=0, sigma=1, 120 elements)
  5 full seeded-pipeline attack: forged bands dodge all validation
    observations and the observed stream trigger rate matches the
    designer's Monte-Carlo estimate
  6 scaled-validation countermeasure: identity scaling changes nothing
    (attack stays effective), random scaling in [0.5, 2.0] defeats band
    forging, and power-of-two scaling is exactly linear on a bias-free
    stack
  7 distributed implementation: every group count from 2 to layer-count
    composes bitwise to the full pipeline and every designer view
    underdetermines the model
  8 binary formats round-trip and malformed inputs fail with typed,
    offset-carrying errors
  9 hardware resource figures are explicitly out of scope: the package
    ships no synthesis artifacts and makes no such claim
"""

import math
import re
import time
from pathlib import Path

import numpy as np
import pytest

from oracles import conv2d_naive, dense_naive, maxpool2d_naive, on_image
from trojansim.data import (
    Dataset,
    SplitPlan,
    parse_cifar10,
    parse_idx,
    split,
    synthesize,
    write_cifar10,
    write_idx,
)
from trojansim.defense import (
    PER_IMAGE,
    ScalePlan,
    evaluate_altered_defense,
    evaluate_distributed_defense,
    partition,
    run_partitioned,
    stream_hit_rate,
)
from trojansim.errors import ParseError
from trojansim.models import (
    LayerSpec,
    ModelSpec,
    build_lenet,
    forward,
    model_params,
    seed_weights,
)
from trojansim.profiling import (
    SigmaBand,
    collect_observations,
    count_band_collisions,
    estimate_trigger_rate,
    forge_bands,
    make_probe_dataset,
    profile_layer,
    wilson_half_width,
)
from trojansim.tensor import (
    FLOAT32,
    Q16_16,
    Kernel,
    Tensor,
    bitwise_equal,
    conv2d,
    dense,
    maxpool2d,
)
from trojansim.trojan import TrojanConfig, TrojanState, run_compromised, step, substituted_cycles
from trojansim.weightfile import read_entries, write_entries

# frozen experiment coordinates shared by the stream-level claims
WEIGHT_SEED = 2
DATA_SEED = 11
SPLIT = SplitPlan(validation_count=100, stream_count=1000, seed=3)
PROBE_COUNT = 2000
PROBE_SEED = 7177

BUDGET_SECONDS = {1: 60, 2: 60, 3: 120, 4: 60, 5: 300, 6: 300, 7: 60, 8: 10}


def frozen_model():
    return seed_weights(build_lenet(), WEIGHT_SEED)


def frozen_datasets():
    base = synthesize(SPLIT.validation_count + SPLIT.stream_count, (1, 28, 28), seed=DATA_SEED)
    return split(base, SPLIT)


def finish(criterion, t0, detail):
    elapsed = time.monotonic() - t0
    print(f"criterion {criterion}: PASS in {elapsed:.1f}s - {detail}")
    assert elapsed < BUDGET_SECONDS[criterion]


def rand_tensor(rng, shape, dtype=FLOAT32, scale=1.0):
    vals = (rng.random(int(np.prod(shape))) * 2 - 1) * scale
    if dtype == FLOAT32:
        return Tensor(tuple(shape), FLOAT32, vals.astype(np.float32))
    scaled = np.rint(vals * (1 << dtype.frac_bits))
    lo = -(1 << (dtype.int_bits + dtype.frac_bits - 1))
    hi = (1 << (dtype.int_bits + dtype.frac_bits - 1)) - 1
    return Tensor(tuple(shape), dtype, np.clip(scaled, lo, hi) / (1 << dtype.frac_bits))


def rand_kernel(rng, w_shape, dtype=FLOAT32, scale=1.0):
    return Kernel(rand_tensor(rng, w_shape, dtype, scale),
                  rand_tensor(rng, (w_shape[0],), dtype, scale))


def assert_matches_oracle(got, want):
    assert bitwise_equal(got, want), f"value mismatch: {got.shape} {got.dtype}"
    assert got.saturations == want.saturations


def test_criterion_1_kernels_match_scalar_oracles():
    t0 = time.monotonic()
    rng = np.random.default_rng(20260822)
    checked = 0

    # exhaustive over every small spatial configuration
    for h in range(1, 9):
        for w in range(1, 9):
            for k in range(1, min(h, w) + 1):
                for s in (1, 2, 3):
                    x = rand_tensor(rng, (1, h, w))
                    kern = rand_kernel(rng, (1, 1, k, k))
                    assert_matches_oracle(
                        on_image(conv2d, x, kern, s),
                        conv2d_naive(x, kern.weights, kern.bias, s))
                    checked += 1
                for s in (1, 2):
                    x = rand_tensor(rng, (2, h, w))
                    assert_matches_oracle(
                        on_image(maxpool2d, x, k, s), maxpool2d_naive(x, k, s))
                    checked += 1
    for n in range(1, 9):
        for m in range(1, 9):
            x = rand_tensor(rng, (n,))
            kern = rand_kernel(rng, (m, n))
            assert_matches_oracle(on_image(dense, x, kern), dense_naive(x, kern.weights, kern.bias))
            checked += 1

    # 1000 randomized larger configurations across ops and dtypes
    fixed_scales = (0.5, 2.0, 300.0)  # the large scale forces Q16.16 saturation
    saturated_cases = 0
    for i in range(1000):
        dtype = FLOAT32 if i % 2 == 0 else Q16_16
        scale = 1.0 if dtype == FLOAT32 else fixed_scales[(i // 2) % 3]
        op = int(rng.integers(0, 3))
        if op == 0:
            h, w = (int(v) for v in rng.integers(8, 15, size=2))
            cin, cout = int(rng.integers(1, 4)), int(rng.integers(1, 5))
            k = int(rng.integers(1, min(h, w, 5) + 1))
            s = int(rng.integers(1, 4))
            x = rand_tensor(rng, (cin, h, w), dtype, scale)
            kern = rand_kernel(rng, (cout, cin, k, k), dtype, scale)
            got = on_image(conv2d, x, kern, s)
            want = conv2d_naive(x, kern.weights, kern.bias, s)
        elif op == 1:
            n, m = int(rng.integers(8, 25)), int(rng.integers(8, 25))
            x = rand_tensor(rng, (n,), dtype, scale)
            kern = rand_kernel(rng, (m, n), dtype, scale)
            got = on_image(dense, x, kern)
            want = dense_naive(x, kern.weights, kern.bias)
        else:
            c, h, w = int(rng.integers(1, 4)), int(rng.integers(8, 17)), int(rng.integers(8, 17))
            win = int(rng.integers(1, 5))
            s = int(rng.integers(1, 3))
            x = rand_tensor(rng, (c, h, w), dtype, scale)
            got = on_image(maxpool2d, x, win, s)
            want = maxpool2d_naive(x, win, s)
        assert_matches_oracle(got, want)
        saturated_cases += got.saturations > 0
        checked += 1

    assert saturated_cases > 0, "random sweep never exercised saturation"
    finish(1, t0, f"{checked} configurations bitwise-equal "
                  f"({saturated_cases} with fixed-point saturation)")


def test_criterion_2_dormant_implant_is_bitwise_invisible():
    t0 = time.monotonic()
    model = frozen_model()
    _, stream = frozen_datasets()
    mal = synthesize(1, (1, 28, 28), seed=99).items[0][0]
    unreachable = SigmaBand("fc1", 1e9, 2e9, "upper", 3.0, 4.0)
    config = TrojanConfig("fc1", (unreachable,), (mal,))

    state = TrojanState()
    for cycle, (img, _) in enumerate(stream.items):
        effective, state, events, trace = step(state, model, config, cycle, img)
        clean = forward(model, img)
        assert events == []
        assert effective is img
        assert trace.final_label == clean.final_label
        for name in clean.taps:
            assert bitwise_equal(trace.taps[name], clean.taps[name])
    assert state.log == () and state.fired_count == 0
    finish(2, t0, f"{len(stream)} images, every tap of every layer bitwise equal")


def test_criterion_3_substitution_timing_fuzz():
    t0 = time.monotonic()
    model = seed_weights(
        ModelSpec("tiny", (4,), (
            LayerSpec("h", "dense", {"units": 5}),
            LayerSpec("hr", "relu", {}),
            LayerSpec("out", "dense", {"units": 3}),
        )),
        seed=31,
    )
    rng = np.random.default_rng(424242)
    total_triggers = total_subs = 0
    for _ in range(10_000):
        length = int(rng.integers(4, 13))
        stream = Dataset(
            "fuzz",
            tuple(
                (Tensor.from_array(rng.uniform(-2, 2, 4).astype(np.float32)), 0)
                for _ in range(length)
            ),
        )
        center = float(rng.uniform(-1.2, 1.2))
        width = float(rng.uniform(0.05, 0.5))
        band = SigmaBand("h", center - width / 2, center + width / 2, "upper", 3.0, 4.0)
        mal = Tensor.from_array(rng.uniform(-2, 2, 4).astype(np.float32))
        config = TrojanConfig("h", (band,), (mal,))

        labels, report, state = run_compromised(model, config, stream)
        trig = sorted(e.cycle for e in state.log if e.kind == "Triggered")
        subs = sorted(substituted_cycles(state))
        # one substitution exactly one cycle after each trigger (a trigger on
        # the final cycle has no next cycle to poison)
        assert subs == [c + 1 for c in trig if c + 1 < length]
        assert all(b - a >= 2 for a, b in zip(subs, subs[1:]))
        assert not set(trig) & set(subs)

        mal_label = forward(model, mal).final_label
        for c in subs:
            assert labels[c] == mal_label
        assert report.clean_equivalence is True
        total_triggers += len(trig)
        total_subs += len(subs)

    assert total_subs > 1000, "fuzz bands almost never fired; rework placement"
    finish(3, t0, f"10000 runs, {total_triggers} triggers, {total_subs} substitutions, "
                  "timing exact in every case")


def test_criterion_4_gaussian_monte_carlo_matches_closed_form():
    t0 = time.monotonic()
    from trojansim.profiling import Histogram, LayerStats

    stats = LayerStats("fc1", 0, 0.0, 1.0, 0.0, 0.0, Histogram(101, 0.0, 0.0, (0,) * 101))
    bands = forge_bands(stats, 3.0, 4.0)
    est = estimate_trigger_rate(stats, bands, 120, mode="monteCarlo", samples=100_000, seed=0)
    assert est.samples == 100_000
    assert abs(est.analytic - 0.2715) < 5e-4
    diff = abs(est.monte_carlo - est.analytic)
    assert diff <= 3 * est.confidence_half_width
    finish(4, t0, f"analytic {est.analytic:.6f}, monte-carlo {est.monte_carlo:.6f} "
                  f"± {est.confidence_half_width:.6f} (95% Wilson), diff {diff:.6f}")


def test_criterion_5_seeded_pipeline_attack_and_rate_agreement():
    t0 = time.monotonic()
    model = frozen_model()
    validation, stream = frozen_datasets()

    stats = profile_layer(model, validation, "fc1")
    bands = forge_bands(stats, 3.0, 4.0)
    val_obs = collect_observations(model, validation, "fc1")
    collisions = count_band_collisions(bands, val_obs)
    assert collisions == 0, "forged bands must contain zero validation observations"

    probe = make_probe_dataset(model, PROBE_COUNT, PROBE_SEED)
    designed = estimate_trigger_rate((model, probe, "fc1"), bands, 120, mode="monteCarlo")

    hits, n = stream_hit_rate(model, bands, stream, "fc1")
    assert hits >= 1, "frozen configuration should fire on the stream (non-vacuous)"
    measured = hits / n
    hw_measured = wilson_half_width(hits, n)
    combined = math.sqrt(designed.confidence_half_width**2 + hw_measured**2)
    diff = abs(measured - designed.monte_carlo)
    assert diff <= 3 * combined, (
        f"stream rate {measured} vs designed {designed.monte_carlo}, "
        f"diff {diff} > 3*{combined}"
    )

    mal = synthesize(1, (1, 28, 28), seed=1337).items[0][0]
    labels, report, state = run_compromised(model, TrojanConfig("fc1", tuple(bands), (mal,)), stream)
    assert report.clean_equivalence is True
    assert report.trigger_count >= 1
    assert report.substitutions >= 1
    finish(5, t0, f"bands {[(round(b.lo, 4), round(b.hi, 4)) for b in bands]}, "
                  f"0 validation collisions, stream rate {measured:.4f} "
                  f"(n={n}) vs designed {designed.monte_carlo:.4f} "
                  f"(n={designed.samples}), diff {diff:.4f} <= {3 * combined:.4f}; "
                  f"attack: {report.trigger_count} triggers, "
                  f"{report.substitutions} substitutions, clean elsewhere")


def bias_free_stack():
    m = seed_weights(
        ModelSpec("homog", (1, 6, 6), (
            LayerSpec("c", "conv", {"outChannels": 2, "kernelSize": 3, "stride": 1}),
            LayerSpec("r", "relu", {}),
            LayerSpec("p", "maxpool", {"window": 2, "stride": 2}),
            LayerSpec("f", "flatten", {}),
            LayerSpec("d", "dense", {"units": 4}),
        )),
        seed=9,
    )
    from dataclasses import replace
    layers = tuple(
        replace(l, params=Kernel(l.params.weights,
                                 Tensor.from_array(np.zeros_like(l.params.bias.data))))
        if l.params is not None else l
        for l in m.layers
    )
    return ModelSpec(m.name, m.input_shape, layers)


def test_criterion_6_scaled_validation_countermeasure():
    t0 = time.monotonic()
    model = frozen_model()
    validation, stream = frozen_datasets()

    identity = evaluate_altered_defense(
        model, validation, ScalePlan(5, PER_IMAGE, 1.0, 1.0), stream,
        probe_count=PROBE_COUNT, probe_seed=PROBE_SEED)
    assert identity.verdict == "ineffective", (
        "scaling by exactly 1 must leave the attack working: " + repr(identity))

    randomized = evaluate_altered_defense(
        model, validation, ScalePlan(5, PER_IMAGE, 0.5, 2.0), stream,
        probe_count=PROBE_COUNT, probe_seed=PROBE_SEED)
    assert randomized.verdict == "effective"
    assert any("cannot forge" in f or "collision" in f
               for f in randomized.exposure_findings)

    # the countermeasure's premise: scaling commutes exactly with the
    # pipeline when biases are absent and the factor is a power of two
    m = bias_free_stack()
    img = synthesize(1, (1, 6, 6), seed=12).items[0][0]
    for r in (0.5, 2.0, 4.0):
        scaled = Tensor.from_array(img.data.reshape(img.shape) * np.float32(r))
        base_trace, scaled_trace = forward(m, img), forward(m, scaled)
        for name in base_trace.taps:
            assert np.array_equal(
                scaled_trace.taps[name].data,
                base_trace.taps[name].data * np.float32(r))
    finish(6, t0, f"identity plan verdict {identity.verdict!r}, "
                  f"randomized plan verdict {randomized.verdict!r} "
                  f"(adversary cannot forge); power-of-two linearity exact")


def test_criterion_7_distributed_views_compose_and_underdetermine():
    t0 = time.monotonic()
    model = frozen_model()
    images = [img for img, _ in synthesize(10, (1, 28, 28), seed=55).items]
    param_names = {l.name for l in model.layers if l.params is not None}
    n_layers = len(model.layers)

    for k in range(2, n_layers + 1):
        views = partition(model, k=k)
        assert len(views) == k
        for img in images:
            whole = forward(model, img)
            pieced = run_partitioned(views, img)
            assert bitwise_equal(pieced, whole.taps[model.layers[-1].name])
        # independent exposure checks, not via the evaluator
        for v in views:
            own_params = {l.name for l in v.layers if l.params is not None}
            assert own_params != param_names, (
                f"k={k}: group {v.group_index} holds every parameterized layer")
            if v.group_index < k - 1:
                assert v.layers[-1].name != model.layers[-1].name
            assert not (v.input_dims == model.input_shape and v.output_dims == (10,))
        report = evaluate_distributed_defense(views, model)
        assert report.verdict == "effective"
        assert not any("VIOLATION" in f for f in report.exposure_findings)
    finish(7, t0, f"k=2..{n_layers} all compose bitwise over 10 images; "
                  "every view underdetermines the pipeline")


def test_criterion_8_formats_roundtrip_and_malformed_inputs_carry_offsets(tmp_path):
    t0 = time.monotonic()

    # IDX round-trip stability
    images = tmp_path / "img.idx"
    labels = tmp_path / "lab.idx"
    first = synthesize(12, (1, 28, 28), seed=8)
    write_idx(first, images, labels)
    once = parse_idx(images, labels)
    write_idx(once, images, labels)
    twice = parse_idx(images, labels)
    assert all(
        np.array_equal(a.data, b.data) and la == lb
        for (a, la), (b, lb) in zip(once.items, twice.items)
    )

    # IDX malformed: wrong magic, truncated pixels, bad label
    img_bytes = bytearray(images.read_bytes())
    lab_bytes = bytearray(labels.read_bytes())
    bad = tmp_path / "bad.idx"
    bad.write_bytes(b"\x00\x00\x08\x01" + img_bytes[4:])
    with pytest.raises(ParseError) as e:
        parse_idx(bad, labels)
    assert e.value.offset == 0
    bad.write_bytes(bytes(img_bytes[:-5]))
    with pytest.raises(ParseError) as e:
        parse_idx(bad, labels)
    assert e.value.offset == 16
    lab_bytes[8 + 3] = 77
    bad_lab = tmp_path / "badlab.idx"
    bad_lab.write_bytes(bytes(lab_bytes))
    with pytest.raises(ParseError) as e:
        parse_idx(images, bad_lab)
    assert e.value.offset == 8 + 3

    # CIFAR-10 round-trip and malformed record
    cifar_set = synthesize(6, (3, 32, 32), seed=9)
    cbin = tmp_path / "batch.bin"
    write_cifar10(cifar_set, cbin)
    c_once = parse_cifar10(cbin)
    write_cifar10(c_once, cbin)
    c_twice = parse_cifar10(cbin)
    assert all(
        np.array_equal(a.data, b.data) and la == lb
        for (a, la), (b, lb) in zip(c_once.items, c_twice.items)
    )
    raw = bytearray(cbin.read_bytes())
    raw[3073 * 2] = 33  # label byte of record 2
    cbad = tmp_path / "badbatch.bin"
    cbad.write_bytes(bytes(raw))
    with pytest.raises(ParseError) as e:
        parse_cifar10(cbad)
    assert e.value.offset == 3073 * 2
    cbad.write_bytes(bytes(raw[: 3073 + 100]))
    with pytest.raises(ParseError) as e:
        parse_cifar10(cbad)
    assert e.value.offset == 3073

    # weight-file round-trip (both dtypes) and malformed headers
    entries = model_params(seed_weights(build_lenet(), 4))
    wpath = tmp_path / "w.dlaw"
    write_entries(entries, wpath)
    back = read_entries(wpath)
    assert set(back) == set(entries)
    assert all(back[k].data.tobytes() == entries[k].data.tobytes() for k in entries)

    wraw = bytearray(wpath.read_bytes())
    wbad = tmp_path / "bad.dlaw"
    wbad.write_bytes(b"WALD" + wraw[4:])
    with pytest.raises(ParseError) as e:
        read_entries(wbad)
    assert e.value.offset == 0
    wbad.write_bytes(bytes(wraw[:40]))
    with pytest.raises(ParseError) as e:
        read_entries(wbad)
    assert e.value.offset > 8
    finish(8, t0, "image-set, label, and weight formats round-trip; "
                  "6 malformed fixtures raised ParseError with byte offsets")


def test_criterion_9_no_hardware_resource_claims():
    t0 = time.monotonic()
    src = Path(__file__).resolve().parent.parent / "src" / "trojansim"
    offending = []
    for path in sorted(src.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        if re.search(r"(?i)fpga|verilog|bitstream|lut count|slice utilization", text):
            offending.append(path.name)
    assert offending == []
    synth_artifacts = list(src.parent.parent.glob("**/*.v")) + list(src.parent.parent.glob("**/*.xdc"))
    assert synth_artifacts == []
    elapsed = time.monotonic() - t0
    print(f"criterion 9: PASS in {elapsed:.1f}s - hardware cost figures are out of "
          "scope for this software simulation and the package claims none")
