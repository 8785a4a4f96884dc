"""Tests of the benchmark itself: tracer mechanics, the forward counts the
traced run reports, the correctness checks, and BENCHMARK.json.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from hostprobe import REFERENCE_UNIT_S, HostProbe  # noqa: E402
from tracer import PER_LAYER, Tracer, layer_shapes  # noqa: E402
from worker import run_iteration  # noqa: E402
from workloads import WORKLOADS, events_failures, sized  # noqa: E402

from trojansim import models  # noqa: E402


def traced_iteration(workload, workdir: Path):
    by_shape, macs = layer_shapes(models.build_model(workload.model))
    tracer = Tracer(by_shape)
    tracer.install()
    try:
        ctx = workload.setup(0, workdir)
        _, ops = run_iteration(workload, ctx, tracer, False)
    finally:
        tracer.uninstall()
    assert [op for op in ops if op[2]] == []
    return ctx, tracer.metrics(macs)


def test_tracer_records_nested_spans_and_restores_functions():
    original = models.forward
    model = models.seed_weights(models.build_lenet(), 2)
    images = [img for img, _ in models_inputs(3)]
    by_shape, macs = layer_shapes(model)
    tracer = Tracer(by_shape)
    tracer.install()
    try:
        assert models.forward is not original
        for img in images + images[:1]:
            models.forward(model, img)
    finally:
        tracer.uninstall()
    assert models.forward is original
    m = tracer.metrics(macs)
    assert m["models.forward.calls"] == 4
    assert m["tensor.conv2d.calls"] == 8 and m["tensor.dense.calls"] == 12
    assert m["models.forward.distinct_ratio"] == 0.75
    assert m["tensor.conv2.macs_per_img"] == 16 * 8 * 8 * 6 * 5 * 5
    for i, name in enumerate(tracer.names):
        if name.startswith("tensor.conv2d"):
            p = tracer.parent[i]
            while tracer.names[p] != "models.forward":
                p = tracer.parent[p]
            assert tracer.start[p] <= tracer.start[i] <= tracer.end[i] <= tracer.end[p]
    assert 0 <= m["models.forward.self_s"] <= sum(
        tracer.end[i] - tracer.start[i] for i, n in enumerate(tracer.names) if n == "models.forward"
    )


def models_inputs(n):
    from trojansim import data

    return data.synthesize(n, (1, 28, 28), 5).items


def test_forward_counts_at_benchmark_sizes():
    # the counts the traced run must report at the recorded commit
    assert WORKLOADS["lenet-readme"].expected_forwards() == {
        "profile": 100, "forge": 2200, "attack": 3200, "defend": 0, "report": 0,
    }
    storm = WORKLOADS["q16-trigger-storm"].expected_forwards()
    n = WORKLOADS["q16-trigger-storm"].sizes["stream"]
    assert storm["profile"] + storm["attack"] == 100 + 2 * n


@pytest.mark.parametrize(
    "name, sizes",
    [
        ("lenet-readme", {"validation": 20, "stream": 30, "probes": 10}),
        ("cifar-altered", {"validation": 8, "stream": 6, "probes": 4}),
        ("q16-trigger-storm", {"validation": 20, "stream": 40, "probes": 10}),
    ],
)
def test_traced_forward_counts_match_reality(name, sizes, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    workload = sized(WORKLOADS[name], **sizes)
    ctx, m = traced_iteration(workload, tmp_path)
    expected = workload.expected_forwards()
    assert {p: m[f"phase.{p}.forwards"] for p in ("profile", "forge", "attack", "defend")} == {
        p: expected[p] for p in ("profile", "forge", "attack", "defend")
    }
    assert m["models.forward.calls"] == sum(expected.values())
    assert m["trojan.forwards_per_cycle"] == 2.0
    assert workload.invariants(ctx) == []
    assert all(v >= 0 for k, v in m.items() if k != "trace.untraced_s")


def test_storm_fires_on_every_dormant_cycle(tmp_path):
    workload = sized(WORKLOADS["q16-trigger-storm"], validation=20, stream=40, probes=10)
    ctx, m = traced_iteration(workload, tmp_path)
    assert m["trojan.triggers"] == m["trojan.substitutions"] == 20
    assert m["trojan.step.calls"] == 40


def test_probe_reports_a_call_at_the_reference_speed():
    probe = HostProbe()
    # the host runs at half the reference speed for the first 10 s, then at it
    probe.samples = [(t / 5, 2 * REFERENCE_UNIT_S if t < 50 else REFERENCE_UNIT_S) for t in range(100)]
    # a long call: its own samples, whose time is taken out of it
    inside = 10 * 2 * REFERENCE_UNIT_S
    assert probe.seconds(2.0, 4.0) == pytest.approx((2.0 - inside) / 2)
    assert probe.seconds(12.0, 14.0) == pytest.approx(2.0 - 10 * REFERENCE_UNIT_S)
    # a call shorter than MIN_SAMPLES periods: the samples nearest to it
    assert probe.seconds(4.01, 4.05) == pytest.approx(0.04 / 2)


def test_probe_samples_while_active():
    with HostProbe() as probe:
        deadline = time.perf_counter() + 1.0
        while time.perf_counter() < deadline:
            sum(range(1000))
    assert len(probe.samples) >= 3
    assert probe.seconds(probe.samples[0][0], deadline) > 0


def test_events_failures_finds_misplaced_substitution():
    good = [{"cycle": 3, "kind": "Triggered"}, {"cycle": 4, "kind": "Substituted"}]
    assert events_failures(good, 10) == []
    assert events_failures(good[:1], 10) == ["trigger at cycle 3 not followed by a substitution"]
    assert events_failures(good[:1], 4) == []  # a trigger on the last cycle
    late = [{"cycle": 3, "kind": "Triggered"}, {"cycle": 5, "kind": "Substituted"}]
    assert len(events_failures(late, 10)) == 2


def test_digest_mismatch_fails_the_writing_phase():
    result = {
        "ops": [["profile", "a", None], ["attack", "b", None], ["attack", "c", None]],
        "failures": [],
        "artifacts": {"profile:x": "1", "attack:y": "2"},
    }
    assert run.count_failures([result], {"profile:x": "1", "attack:y": "2"})[:2] == (3, 0)
    attempted, failed, messages = run.count_failures([result], {"profile:x": "1", "attack:y": "3"})
    assert (attempted, failed) == (3, 1)
    assert messages == ["attack: digest of attack:y differs from reference"]


def test_benchmark_json_lists_the_reported_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [tuple(m) for m in PER_LAYER]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lenet-readme", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
