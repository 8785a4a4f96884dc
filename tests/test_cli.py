import contextlib
import copy
import hashlib
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import write_cifar10, write_idx
from trojansim import cli, defense, models, profiling, trojan
from trojansim import data as data_mod
from trojansim.data import SplitPlan, split, synthesize
from trojansim.errors import ParseError
from trojansim.models import build_lenet, forward, model_params, quantize_model, seed_weights
from trojansim.profiling import SigmaBand, collect_observations, count_band_collisions
from trojansim.tensor import Q16_16, Tensor, quantize
from trojansim.weightfile import read_entries, write_entries


def base_config(out_dir, **extra):
    cfg = {
        "modelName": "lenet",
        "weights": {"seed": 2},
        "dataset": {
            "kind": "synthetic",
            "seed": 11,
            "count": 110,
            "split": {"validationCount": 30, "streamCount": 80, "seed": 3},
        },
        "estimator": {"samples": 2000, "probeCount": 200, "probeSeed": 7177},
        "outputDir": str(out_dir),
    }
    cfg.update(extra)
    return cfg


def write_config(tmp_path, cfg, name="exp.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")
    return str(path)


def run(command, config_path, *extra):
    return cli.main([command, "--config", config_path, *extra])


def load(out_dir, name):
    return json.loads((out_dir / name).read_text(encoding="utf-8"))


def test_pipeline_end_to_end(tmp_path):
    out = tmp_path / "out"
    cfg = base_config(out, defense={"kind": "distributed", "k": 2})
    config_path = write_config(tmp_path, cfg)

    assert run("profile", config_path) == 0
    assert sorted(p.name for p in out.iterdir()) == ["histogram.csv", "stats.json"]
    stats_doc = load(out, "stats.json")
    assert stats_doc["formatVersion"] == 1
    assert stats_doc["config"]["modelName"] == "lenet"
    assert stats_doc["stats"]["layerName"] == "fc1"
    assert stats_doc["stats"]["count"] == 30 * 120

    assert run("forge", config_path) == 0
    bands_doc = load(out, "bands.json")
    assert len(bands_doc["bands"]) == 2
    assert {b["side"] for b in bands_doc["bands"]} == {"upper", "lower"}
    assert all(b["layerName"] == "fc1" for b in bands_doc["bands"])
    est = load(out, "estimate.json")["estimate"]
    assert set(est) == {"analytic", "monteCarlo", "samples", "confidenceHalfWidth"}
    assert est["samples"] == 200  # model-source estimate: one sample per probe image

    assert run("attack", config_path) == 0
    report = load(out, "attack_report.json")["attackReport"]
    assert report["imagesProcessed"] == 80
    assert report["cleanEquivalence"] is True
    assert report["substitutions"] <= report["triggerCount"]
    labels_rows = (out / "labels.csv").read_text().splitlines()
    assert labels_rows[0] == "cycle,label,substituted"
    assert len(labels_rows) == 81
    clean_rows = (out / "clean_labels.csv").read_text().splitlines()
    assert len(clean_rows) == 81
    events = load(out, "events.json")["events"]
    kinds = [e["kind"] for e in events]
    assert kinds.count("Triggered") == report["triggerCount"]
    assert (out / "malicious.dlaw").exists()

    assert run("defend", config_path) == 0
    defense = load(out, "defense_report.json")
    assert defense["defenseReport"]["kind"] == "distributed"
    assert defense["defenseReport"]["verdict"] == "effective"
    assert defense["groupCount"] == 2
    for g in (0, 1):
        assert (out / "views" / f"view{g}.json").exists()
        assert (out / "views" / f"view{g}.dlaw").exists()

    assert run("report", config_path) == 0
    summary = load(out, "summary.json")
    assert set(summary["phases"]) == {"profile", "forge", "estimate", "attack", "events", "defend"}
    assert all(v is not None for v in summary["phases"].values())
    assert "config" not in summary["phases"]["profile"]


def test_empty_stream_runs_every_phase(tmp_path):
    out = tmp_path / "out"
    dataset = {"kind": "synthetic", "seed": 11, "count": 30,
               "split": {"validationCount": 30, "streamCount": 0, "seed": 3}}
    cfg = base_config(out, dataset=dataset, defense={"kind": "distributed", "k": 2})
    config_path = write_config(tmp_path, cfg)
    for phase in ("profile", "forge", "attack", "defend", "report"):
        assert run(phase, config_path) == 0, phase
    assert load(out, "attack_report.json")["attackReport"]["imagesProcessed"] == 0
    assert (out / "labels.csv").read_text() == "cycle,label,substituted\n"


def test_profile_rerun_is_byte_identical(tmp_path):
    out = tmp_path / "out"
    config_path = write_config(tmp_path, base_config(out))
    assert run("profile", config_path) == 0
    first = {n: (out / n).read_bytes() for n in ("stats.json", "histogram.csv")}
    assert run("profile", config_path) == 0
    second = {n: (out / n).read_bytes() for n in ("stats.json", "histogram.csv")}
    assert first == second


def test_forged_bands_miss_every_validation_observation(tmp_path):
    out = tmp_path / "out"
    config_path = write_config(tmp_path, base_config(out))
    assert run("forge", config_path) == 0
    bands = [SigmaBand.from_json(b) for b in load(out, "bands.json")["bands"]]
    model = seed_weights(build_lenet(), 2)
    base = synthesize(110, (1, 28, 28), seed=11)
    val, _ = split(base, SplitPlan(30, 80, seed=3))
    obs = collect_observations(model, val, "fc1")
    assert count_band_collisions(bands, obs) == 0


def test_altered_validation_defense_command(tmp_path):
    out = tmp_path / "out"
    cfg = base_config(
        out,
        defense={"kind": "alteredValidation",
                 "scale": {"seed": 5, "mode": "perImage", "range": [1.0, 1.0]}},
    )
    config_path = write_config(tmp_path, cfg)
    assert run("defend", config_path) == 0
    doc = load(out, "defense_report.json")
    assert doc["defenseReport"]["kind"] == "alteredValidation"
    assert doc["scalePlan"] == {"seed": 5, "mode": "perImage", "range": [1.0, 1.0]}
    assert doc["defenseReport"]["verdict"] == "ineffective"


def test_out_flag_overrides_config_dir(tmp_path):
    other = tmp_path / "elsewhere"
    config_path = write_config(tmp_path, base_config(tmp_path / "ignored"))
    assert run("profile", config_path, "--out", str(other)) == 0
    assert (other / "stats.json").exists()
    assert not (tmp_path / "ignored").exists()


def test_seed_override_changes_profile_and_can_break_forge(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    config_path = write_config(tmp_path, base_config(out_a))
    assert run("profile", config_path) == 0
    assert run("profile", config_path, "--out", str(out_b), "--seed", "4") == 0
    a = load(out_a, "stats.json")["stats"]
    b = load(out_b, "stats.json")["stats"]
    assert a != b
    # seed 4's distribution has outliers inside its own 3..4 sigma window,
    # so band forging must refuse
    assert run("forge", config_path, "--out", str(out_b), "--seed", "4") == 4


def test_seed_override_rejected_for_weight_files(tmp_path, capsys):
    entries = model_params(seed_weights(build_lenet(), 2))
    weights_path = tmp_path / "w.dlaw"
    write_entries(entries, weights_path)
    cfg = base_config(tmp_path / "out", weights={"path": str(weights_path)})
    config_path = write_config(tmp_path, cfg)
    assert run("profile", config_path, "--seed", "9") == 2
    assert "--seed" in capsys.readouterr().err


def test_weight_file_config_runs_and_matches_seeded(tmp_path):
    entries = model_params(seed_weights(build_lenet(), 2))
    weights_path = tmp_path / "w.dlaw"
    write_entries(entries, weights_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    path_a = write_config(tmp_path, base_config(out_a), "a.json")
    path_b = write_config(
        tmp_path, base_config(out_b, weights={"path": str(weights_path)}), "b.json")
    assert run("profile", path_a) == 0
    assert run("profile", path_b) == 0
    a = load(out_a, "stats.json")["stats"]
    b = load(out_b, "stats.json")["stats"]
    assert a == b


def test_zero_weights_degenerate_forge_exit(tmp_path):
    shapes = model_params(seed_weights(build_lenet(), 0))
    zeros = {
        name: Tensor.from_array(np.zeros(t.shape, dtype=np.float32))
        for name, t in shapes.items()
    }
    weights_path = tmp_path / "zero.dlaw"
    write_entries(zeros, weights_path)
    cfg = base_config(tmp_path / "out", weights={"path": str(weights_path)})
    config_path = write_config(tmp_path, cfg)
    assert run("profile", config_path) == 0  # stats are writable even when flat
    assert run("forge", config_path) == 4


@pytest.mark.parametrize("poison", ["nan", "inf", "overflow"])
def test_non_finite_activations_exit_4_without_traceback(tmp_path, capsys, recwarn, poison):
    """One NaN or Inf in conv1.weight, or finite conv1 weights whose float32
    activations overflow, leave no statistics to profile or forge from."""
    entries = model_params(seed_weights(build_lenet(), 2))
    w = entries["conv1.weight"].array.copy()
    if poison == "overflow":
        w[...] = 3e38
    else:
        w.flat[7] = float(poison)
    entries["conv1.weight"] = Tensor.from_array(w)
    write_entries(entries, tmp_path / "w.dlaw")
    cfg = base_config(
        tmp_path / "out",
        weights={"path": str(tmp_path / "w.dlaw")},
        defense={"kind": "alteredValidation",
                 "scale": {"seed": 5, "mode": "perImage", "range": [0.9, 1.1]}},
    )
    config_path = write_config(tmp_path, cfg)
    codes, errs = {}, {}
    for phase in ("profile", "forge", "attack", "defend"):
        codes[phase] = run(phase, config_path)
        errs[phase] = capsys.readouterr().err
    assert codes == {"profile": 4, "forge": 4, "attack": 4, "defend": 0}
    assert "Traceback" not in "".join(errs.values())
    # one error line per failing phase, and no NumPy warning ahead of it
    for phase in ("profile", "forge", "attack"):
        assert errs[phase].startswith("error: ") and errs[phase].count("\n") == 1
    assert errs["defend"] == ""
    assert [str(w.message) for w in recwarn if issubclass(w.category, RuntimeWarning)] == []
    assert load(tmp_path / "out", "defense_report.json")["defenseReport"]["verdict"] == "inconclusive"


def test_config_error_exits(tmp_path, capsys):
    out = tmp_path / "out"

    assert run("profile", str(tmp_path / "nope.json")) == 2
    assert "not found" in capsys.readouterr().err

    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json", encoding="utf-8")
    assert run("profile", str(bad_json)) == 2

    cfg = base_config(out)
    del cfg["dataset"]
    assert run("profile", write_config(tmp_path, cfg, "c1.json")) == 2
    assert "dataset" in capsys.readouterr().err

    cfg = base_config(out)
    cfg["dataset"]["kind"] = "imagenet"
    assert run("profile", write_config(tmp_path, cfg, "c2.json")) == 2

    cfg = base_config(out, kLo=4.0, kHi=3.0)
    assert run("forge", write_config(tmp_path, cfg, "c3.json")) == 2

    # an integer beyond the float range is no finite number
    cfg = base_config(out, kHi=10**400)
    assert run("forge", write_config(tmp_path, cfg, "c8.json")) == 2
    assert "kHi must be a finite number" in capsys.readouterr().err

    cfg = base_config(out)
    assert run("defend", write_config(tmp_path, cfg, "c4.json")) == 2
    assert "defense" in capsys.readouterr().err

    cfg = base_config(out, defense={"kind": "quarantine"})
    assert run("defend", write_config(tmp_path, cfg, "c5.json")) == 2

    cfg = base_config(out, defense={"kind": "alteredValidation"})
    assert run("defend", write_config(tmp_path, cfg, "c6.json")) == 2
    assert "defense.scale" in capsys.readouterr().err

    cfg = base_config(out, modelName="resnet50")
    assert run("profile", write_config(tmp_path, cfg, "c7.json")) == 2


def test_missing_dataset_fields_and_files(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = base_config(out)
    cfg["dataset"] = {"kind": "mnist", "imagesPath": str(tmp_path / "i.idx")}
    assert run("profile", write_config(tmp_path, cfg, "m1.json")) == 2
    assert "dataset.labelsPath" in capsys.readouterr().err

    cfg["dataset"]["labelsPath"] = str(tmp_path / "l.idx")
    assert run("profile", write_config(tmp_path, cfg, "m2.json")) == 3


def test_report_with_no_phase_outputs(tmp_path):
    out = tmp_path / "empty"
    out.mkdir()
    config_path = write_config(tmp_path, base_config(out))
    assert run("report", config_path) == 3


# file contents; None makes the path a directory
DAMAGES = {"malformed": b'{"stats": \n', "array": b"[1,2]\n", "non-utf8": b"\xff", "directory": None}


@pytest.mark.parametrize("damage", DAMAGES)
@pytest.mark.parametrize("target, command, code", [
    ("config", "profile", 2),
    ("model", "profile", 2),
    ("phase", "report", 3),
])
def test_damaged_json_file_exits_without_traceback(tmp_path, capsys, target, command, code, damage):
    out = tmp_path / "out"
    damaged = tmp_path / "damaged.json"
    if DAMAGES[damage] is None:
        damaged.mkdir()
    else:
        damaged.write_bytes(DAMAGES[damage])
    config_path = str(damaged)
    if target == "model":
        config_path = write_config(tmp_path, base_config(out, modelName=str(damaged)))
    elif target == "phase":
        out.mkdir()
        damaged.replace(out / "stats.json")
        config_path = write_config(tmp_path, base_config(out))
    assert run(command, config_path) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    named = {"config": "config file", "model": "model JSON file", "phase": "phase output"}[target]
    assert err.startswith(f"error: {named}") and err.count("\n") == 1


def test_report_keeps_a_missing_phase_output_null(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "stats.json").write_text('{"formatVersion": 1, "config": {}, "stats": {}}\n', encoding="utf-8")
    assert run("report", write_config(tmp_path, base_config(out))) == 0
    phases = load(out, "summary.json")["phases"]
    assert phases["profile"] == {"stats": {}}
    assert all(phases[p] is None for p in phases if p != "profile")


def test_unknown_subcommand_is_usage_error(tmp_path):
    with pytest.raises(SystemExit):
        cli.main(["demolish", "--config", "x.json"])


# one wrong-kind value for every row of cli._FIELDS
BAD_FIELDS = [
    ("dataset.split", "validationCount", "abc"),
    ("dataset.split", "streamCount", -1),
    ("dataset.split", "seed", True),
    ("dataset.split", "seed", 2**64),
    ("dataset", "count", 1.5),
    ("dataset", "seed", "11"),
    ("weights", "seed", "abc"),
    ("trojan", "maliciousCount", "x"),
    ("trojan", "maliciousSeed", -1),
    ("estimator", "probeSeed", None),
    ("", "dataset", "mnist"),
    ("dataset", "split", [1, 2]),
    ("", "trojan", "x"),
    ("", "estimator", [1]),
    ("", "outputDir", 5),
    ("weights", "path", 5),
    ("dataset", "imagesPath", 5),
    ("", "kLo", True),
    ("", "kHi", float("inf")),
    ("", "weights", 2),
    ("", "modelName", ["lenet"]),
    ("dataset", "labelsPath", None),
    ("dataset", "binPath", 1.0),
    ("trojan", "maliciousImagesPath", {}),
    ("trojan", "fixedIndex", -1),
    ("estimator", "probeCount", 2.0),
    ("", "defense", "distributed"),
    ("defense", "scale", 7),
    ("defense.scale", "seed", -1),
    ("defense.scale", "range", [0.5, float("nan")]),
    ("defense", "k", True),
    ("defense", "cuts", [3, "6"]),
]


@pytest.mark.parametrize("section, key, value", BAD_FIELDS)
def test_bad_config_integers_exit_2_without_traceback(tmp_path, capsys, section, key, value):
    cfg = base_config(tmp_path / "out")
    fields = cfg
    for name in filter(None, section.split(".")):
        fields = fields.setdefault(name, {})
    fields[key] = value
    path = f"{section}.{key}".lstrip(".")
    # every phase checks every field, so a bad defense field stops profile too
    phase = "profile" if path.startswith("defense") else "attack"
    assert run(phase, write_config(tmp_path, cfg)) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"{path} must be" in err


def test_every_config_field_has_a_bad_value_case():
    assert {f"{section}.{key}".lstrip(".") for section, key, _ in BAD_FIELDS} == set(cli._FIELDS)


@pytest.mark.parametrize(
    "field, cfg_extra",
    [
        ("weights.seed", {"weights": {"path": "w.dlaw", "seed": "2"}}),
        ("dataset.seed", {"dataset": {"kind": "mnist", "imagesPath": "i", "labelsPath": "l", "seed": -1}}),
        ("dataset.count", {"dataset": {"kind": "cifar10", "binPath": "c.bin", "count": "9"}}),
    ],
)
def test_fields_are_checked_where_the_config_does_not_use_them(tmp_path, capsys, field, cfg_extra):
    cfg = base_config(tmp_path / "out", **cfg_extra)
    assert run("profile", write_config(tmp_path, cfg)) == 2
    assert f"config field {field} must be" in capsys.readouterr().err


@pytest.mark.parametrize(
    "arch",
    [
        {"name": "m", "inputShape": 5, "layers": []},
        {"name": "m", "inputShape": [1, 0, 28], "layers": []},
        {"name": "m", "inputShape": [1, 28, 28], "layers": "flatten"},
        {"name": "m", "inputShape": [1, 28, 28], "layers": [
            {"name": "conv1", "kind": "conv", "hyperparams": {"outChannels": 2, "kernelSize": 29}},
            {"name": "fc1", "kind": "dense", "hyperparams": {"units": 2}},
        ]},
        {"name": "m", "inputShape": [1, 28, 28], "layers": [
            {"name": "flatten", "kind": "flatten", "hyperparams": {}},
            {"name": "fc1", "kind": "dense", "hyperparams": {"units": "2"}},
        ]},
        {"name": "m", "inputShape": [1, 28, 28], "layers": [
            {"name": "flatten", "kind": "flatten", "hyperparams": {}},
            {"name": "fc1", "kind": "dense", "hyperparams": {"units": 0}},
        ]},
        [1, 28, 28],
    ],
)
def test_bad_model_json_exits_2_without_traceback(tmp_path, capsys, arch):
    (tmp_path / "m.json").write_text(json.dumps(arch), encoding="utf-8")
    cfg = base_config(tmp_path / "out", modelName=str(tmp_path / "m.json"))
    assert run("profile", write_config(tmp_path, cfg)) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: model JSON") and err.count("\n") == 1


@pytest.mark.parametrize(
    "swap",
    [
        lambda e: {"fc1.weight": Tensor.from_array(np.zeros((120, 255)))},
        lambda e: {"fc1.bias": Tensor.from_array(np.zeros((119,)))},
        lambda e: {"fc1.bias": Tensor.from_array(np.zeros((120, 1)))},
        lambda e: {"fc1.bias": quantize(e["fc1.bias"], Q16_16)},
        lambda e: {k: quantize(e[k], Q16_16) for k in ("fc2.weight", "fc2.bias")},
    ],
    ids=["weight-shape", "bias-length", "bias-rank", "bias-dtype", "layer-dtype"],
)
def test_weight_file_layout_errors_exit_3_without_traceback(tmp_path, capsys, swap):
    entries = model_params(seed_weights(build_lenet(), 2))
    entries.update(swap(entries))
    write_entries(entries, tmp_path / "w.dlaw")
    cfg = base_config(tmp_path / "out", weights={"path": str(tmp_path / "w.dlaw")})
    assert run("profile", write_config(tmp_path, cfg)) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith(f"error: {next(iter(swap(entries)))}") and err.count("\n") == 1


def test_non_utf8_entry_name_exits_3_with_its_offset(tmp_path, capsys):
    path = tmp_path / "malicious.dlaw"
    write_entries({"m0": Tensor.from_array(np.zeros((1, 28, 28)))}, path)
    blob = bytearray(path.read_bytes())
    blob[14] ^= 0x80  # the name's first byte: "m" becomes a bare UTF-8 lead byte
    path.write_bytes(bytes(blob))
    with pytest.raises(ParseError) as e:
        read_entries(path)
    assert e.value.offset == 14
    cfg = base_config(tmp_path / "out", trojan={"maliciousImagesPath": str(path)})
    assert run("attack", write_config(tmp_path, cfg)) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    offset = int(re.search(r"at byte offset (\d+)", err).group(1))
    assert 0 <= offset < len(blob)


def test_damaged_entry_name_exits_3_without_traceback(tmp_path, capsys):
    # one flipped letter leaves conv1 without weights and an entry without a
    # layer: the file is damaged, not the config
    path = tmp_path / "w.dlaw"
    write_entries(model_params(seed_weights(build_lenet(), 2)), path)
    blob = path.read_bytes()
    assert blob.count(b"conv1.weight") == 1
    path.write_bytes(blob.replace(b"conv1.weight", b"aonv1.weight"))
    cfg = base_config(tmp_path / "out", weights={"path": str(path)})
    assert run("profile", write_config(tmp_path, cfg)) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: missing weights for layer 'conv1'") and err.count("\n") == 1


def test_malicious_image_of_wrong_shape_exits_3_without_traceback(tmp_path, capsys):
    wrong = tmp_path / "wrong.dlaw"
    write_entries({"m0": Tensor.from_array(np.zeros((3, 32, 32)))}, wrong)
    cfg = base_config(tmp_path / "out", trojan={"maliciousImagesPath": str(wrong)})
    assert run("attack", write_config(tmp_path, cfg)) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "'m0' is (3, 32, 32), model expects (1, 28, 28)" in err

    right = tmp_path / "right.dlaw"
    write_entries({"m0": Tensor.from_array(np.zeros((1, 28, 28)))}, right)
    cfg = base_config(tmp_path / "out", trojan={"maliciousImagesPath": str(right)})
    assert run("attack", write_config(tmp_path, cfg, "right.json")) == 0


def test_malicious_image_of_foreign_dtype_exits_3_without_traceback(tmp_path, capsys):
    fixed = tmp_path / "fixed.dlaw"
    write_entries({"m0": Tensor.from_array(np.zeros((1, 28, 28)), Q16_16)}, fixed)
    cfg = base_config(tmp_path / "out", trojan={"maliciousImagesPath": str(fixed)})
    assert run("attack", write_config(tmp_path, cfg)) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "'m0' is Q16.16, model takes float32" in err


@pytest.mark.parametrize("pixel", [np.nan, np.inf])
def test_non_finite_malicious_image_exits_3_without_traceback(tmp_path, capsys, pixel):
    """A float32 image quantized on entry into a Q16.16 model keeps a NaN, which
    no Q16.16 tensor can hold; the config is refused before the stream runs."""
    write_entries(model_params(quantize_model(seed_weights(build_lenet(), 2), Q16_16)), tmp_path / "w.dlaw")
    image = np.zeros((1, 28, 28), dtype=np.float32)
    image[0, 3, 4] = pixel
    write_entries({"m0": Tensor.from_array(image)}, tmp_path / "m.dlaw")
    # this stream substitutes at least once, so the image would be forwarded
    dataset = {"kind": "synthetic", "seed": 16,
               "split": {"validationCount": 30, "streamCount": 200, "seed": 3}}
    cfg = base_config(tmp_path / "out", weights={"path": str(tmp_path / "w.dlaw")}, dataset=dataset,
                      trojan={"maliciousImagesPath": str(tmp_path / "m.dlaw")})
    assert run("attack", write_config(tmp_path, cfg)) == 3
    assert capsys.readouterr().err == "error: malicious image 'm0' holds non-finite values\n"


@pytest.fixture(scope="module")
def binary_inputs(tmp_path_factory):
    """name -> (file, phase, config path): each binary input and a config
    whose phase reads it through cli.main."""
    root = tmp_path_factory.mktemp("binary")
    write_idx(synthesize(16, (1, 28, 28), seed=8), root / "img.idx", root / "lab.idx")
    write_cifar10(synthesize(6, (3, 32, 32), seed=9), root / "c.bin")
    write_entries(model_params(seed_weights(build_lenet(), 2)), root / "w.dlaw")
    write_entries({"m0": synthesize(1, (1, 28, 28), seed=5).images()[0]}, root / "m.dlaw")
    mnist = {"kind": "mnist", "imagesPath": str(root / "img.idx"), "labelsPath": str(root / "lab.idx"),
             "split": {"validationCount": 8, "streamCount": 8, "seed": 3}}
    cifar = {"kind": "cifar10", "binPath": str(root / "c.bin"),
             "split": {"validationCount": 3, "streamCount": 3, "seed": 3}}
    out = root / "out"
    readers = {
        "img.idx": ("profile", base_config(out, dataset=mnist)),
        "lab.idx": ("profile", base_config(out, dataset=mnist)),
        "c.bin": ("profile", base_config(out, modelName="cifar", dataset=cifar)),
        "w.dlaw": ("profile", base_config(out, weights={"path": str(root / "w.dlaw")})),
        "m.dlaw": ("attack", base_config(out, trojan={"maliciousImagesPath": str(root / "m.dlaw")})),
    }
    return {name: (root / name, phase, write_config(root, cfg, f"{name}.json"))
            for name, (phase, cfg) in readers.items()}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_truncated_or_bit_flipped_inputs_exit_without_traceback(binary_inputs, data):
    name = data.draw(st.sampled_from(sorted(binary_inputs)))
    path, phase, config_path = binary_inputs[name]
    clean = path.read_bytes()
    blob = bytearray(clean)
    at = data.draw(st.integers(0, len(blob) - 1))
    if data.draw(st.booleans()):
        del blob[at:]
    else:
        blob[at] ^= 1 << data.draw(st.integers(0, 7))
    path.write_bytes(bytes(blob))
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            code = cli.main([phase, "--config", config_path])
    finally:
        path.write_bytes(clean)
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    assert all(int(o) <= len(blob) for o in re.findall(r"at byte offset (\d+)", err.getvalue()))


# each binary input's config field and the exit code of a path there that
# names no file: the weights are part of the config, the others data
INPUT_FIELDS = {
    "img.idx": ("dataset.imagesPath", 3),
    "lab.idx": ("dataset.labelsPath", 3),
    "c.bin": ("dataset.binPath", 3),
    "w.dlaw": ("weights.path", 2),
    "m.dlaw": ("trojan.maliciousImagesPath", 3),
}


@pytest.mark.parametrize("kind", ["missing", "directory"])
@pytest.mark.parametrize("name", sorted(INPUT_FIELDS))
def test_unusable_input_paths_exit_naming_the_field(binary_inputs, tmp_path, name, kind):
    """A binary input's field naming no file or a directory ends the phase
    that reads it in one error line that names the field, without a
    traceback, with the field's exit code."""
    _, phase, config_path = binary_inputs[name]
    field, code = INPUT_FIELDS[name]
    bad = tmp_path / name
    if kind == "directory":
        bad.mkdir()
    cfg = json.loads(Path(config_path).read_text(encoding="utf-8"))
    section, key = field.split(".")
    cfg[section][key] = str(bad)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        got = cli.main([phase, "--config", write_config(tmp_path, cfg)])
    problem = "file not found" if kind == "missing" else "is a directory"
    assert (got, err.getvalue()) == (code, f"error: config field {field}: {problem}: {bad}\n")


@pytest.mark.parametrize(
    "defense",
    [
        {"kind": "alteredValidation", "scale": {"mode": "perImage"}},
        {"kind": "alteredValidation", "scale": {"seed": "7"}},
        {"kind": "alteredValidation", "scale": {"seed": True}},
        {"kind": "alteredValidation", "scale": {"seed": -1}},
        {"kind": "alteredValidation", "scale": {"seed": 2**64}},
        {"kind": "alteredValidation", "scale": {"seed": 7, "range": [0.5]}},
        {"kind": "alteredValidation", "scale": {"seed": 7, "range": ["0.5", 2.0]}},
        {"kind": "alteredValidation", "scale": {"seed": 7, "range": 1.0}},
        {"kind": "alteredValidation", "scale": [7]},
        {"kind": "distributed", "k": "2"},
        {"kind": "distributed", "k": 2.5},
        {"kind": "distributed", "cuts": "3"},
        {"kind": "distributed", "cuts": [3, "6"]},
        {"kind": "distributed", "cuts": [3.0]},
        ["distributed", 2],
    ],
)
def test_bad_defense_section_exits_2_without_traceback(tmp_path, capsys, defense):
    cfg = base_config(tmp_path / "out", defense=defense)
    assert run("defend", write_config(tmp_path, cfg)) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: config field") and "defense" in err and err.count("\n") == 1


# every phase that builds the model or writes the output directory, with
# the defense it runs
WRITING_PHASES = [("profile", None), ("forge", None), ("attack", None),
                  ("defend", "alteredValidation"), ("defend", "distributed")]


@pytest.mark.parametrize("blocked", ["outputDir", "views", "weights.path"])
@pytest.mark.parametrize("phase, defense", WRITING_PHASES,
                         ids=["profile", "forge", "attack", "defend-altered", "defend-distributed"])
def test_unusable_config_paths_exit_2_naming_the_field(fuzz_base, tmp_path, phase, defense, blocked):
    """An outputDir under a regular file, a file where the distributed
    defense writes views/, and a weights.path that is a directory are bad
    configs: one error line that names the field, exit 2. A file named
    views blocks only the distributed defense."""
    _, cfg = fuzz_base
    cfg = json.loads(json.dumps(cfg))
    if defense == "distributed":
        cfg["defense"] = {"kind": "distributed", "k": 2}
    (tmp_path / "afile").write_text("", encoding="utf-8")
    out = tmp_path / "out"
    if blocked == "outputDir":
        cfg["outputDir"] = str(tmp_path / "afile" / "sub")
    elif blocked == "views":
        out.mkdir()
        (out / "views").write_text("", encoding="utf-8")
        cfg["outputDir"] = str(out)
    else:
        (tmp_path / "cfgdir").mkdir()
        cfg["weights"] = {"path": str(tmp_path / "cfgdir")}
        cfg["outputDir"] = str(out)
    code, err = fuzz_phases(write_config(tmp_path, cfg))[PHASES.index(phase)]
    if blocked == "views" and defense != "distributed":
        assert (code, err) == (0, "")
        return
    field = "weights.path" if blocked == "weights.path" else "outputDir"
    assert code == 2, err
    assert err.startswith(f"error: config field {field}: ") and err.count("\n") == 1, err


def test_report_under_a_regular_file_finds_no_phase_outputs(fuzz_base, tmp_path):
    """report writes only where phase outputs are: an outputDir under a
    regular file holds none, a data error (exit 3)."""
    _, cfg = fuzz_base
    (tmp_path / "afile").write_text("", encoding="utf-8")
    cfg = dict(cfg, outputDir=str(tmp_path / "afile" / "sub"))
    code, err = fuzz_phases(write_config(tmp_path, cfg))[-1]
    assert code == 3 and err.startswith("error: no phase outputs found under ") and err.count("\n") == 1


def test_attack_clean_labels_are_the_dropped_images_labels(tmp_path):
    # a small MLP whose seeded labels vary across the stream, so that a
    # substituted cycle's malicious label can differ from its clean label
    arch = {"name": "mlp", "inputShape": [1, 28, 28], "layers": [
        {"name": "flatten", "kind": "flatten", "hyperparams": {}},
        {"name": "fc1", "kind": "dense", "hyperparams": {"units": 64}},
        {"name": "relu1", "kind": "relu", "hyperparams": {}},
        {"name": "fc2", "kind": "dense", "hyperparams": {"units": 10}},
    ]}
    (tmp_path / "mlp.json").write_text(json.dumps(arch), encoding="utf-8")
    out = tmp_path / "out"
    cfg = base_config(out, modelName=str(tmp_path / "mlp.json"), weights={"seed": 5})
    resolved = cli.resolve_config(cfg, None, None)
    model = cli.build_model(resolved)
    _, stream = cli.build_datasets(resolved, model)
    clean = [forward(model, img).final_label for img in stream.images()]

    assert run("attack", write_config(tmp_path, cfg)) == 0
    dropped = [e["cycle"] for e in load(out, "events.json")["events"] if e["kind"] == "Substituted"]
    assert dropped
    # a malicious image whose label differs from every dropped image's
    malicious = next(img for img, label in zip(stream.images(), clean)
                     if all(label != clean[c] for c in dropped))
    write_entries({"m0": malicious}, tmp_path / "m.dlaw")
    cfg["trojan"] = {"maliciousImagesPath": str(tmp_path / "m.dlaw")}
    assert run("attack", write_config(tmp_path, cfg, "m.json")) == 0

    report = load(out, "attack_report.json")["attackReport"]
    assert report["misclassifications"] == len(dropped)
    rows = [r.split(",") for r in (out / "clean_labels.csv").read_text().splitlines()[1:]]
    assert [int(label) for _, label in rows] == clean
    rows = [r.split(",") for r in (out / "labels.csv").read_text().splitlines()[1:]]
    assert [int(s) for _, _, s in rows] == [int(c in dropped) for c in range(len(clean))]
    assert all(int(label) != clean[c] for c, (_, label, _) in enumerate(rows) if c in dropped)


# --- validation-only datasets ---------------------------------------------


README_DATASET = {"kind": "synthetic", "seed": 11, "count": 1100,
                  "split": {"validationCount": 100, "streamCount": 1000, "seed": 3}}
CIFAR_DATASET = {"kind": "synthetic", "seed": 21, "count": 110,
                 "split": {"validationCount": 50, "streamCount": 60, "seed": 5}}


@pytest.mark.parametrize(
    "model_name, dataset",
    [
        ("lenet", README_DATASET),
        ("cifar", CIFAR_DATASET),
        ("lenet", dict(README_DATASET, count=40, split={"validationCount": 0, "streamCount": 40, "seed": 3})),
        ("lenet", dict(README_DATASET, count=40, split={"validationCount": 25, "streamCount": 0, "seed": 3})),
        ("lenet", dict(README_DATASET, count=300, split={"validationCount": 30, "streamCount": 200, "seed": 3})),
        ("lenet", dict(README_DATASET, count=60, mode="gaussianActivationProbe",
                       split={"validationCount": 20, "streamCount": 30, "seed": 1})),
    ],
    ids=["readme", "cifar-altered", "no-validation", "no-stream", "unused-tail", "probe-mode"],
)
def test_validation_only_datasets_equal_the_split_of_the_whole_set(tmp_path, model_name, dataset):
    cfg = cli.resolve_config(base_config(tmp_path, modelName=model_name, dataset=dataset), None, None)
    model = cli.build_model(cfg)
    ds = cfg["dataset"]
    plan = SplitPlan(ds["split"]["validationCount"], ds["split"]["streamCount"], ds["split"]["seed"])
    want = split(synthesize(ds["count"], model.input_shape, ds["seed"], ds["mode"]), plan)
    validation, stream = cli.build_datasets(cfg, model)
    for got in ((cli.build_validation(cfg, model),), (validation, stream)):
        for a, b in zip(got, want):
            assert a.name == b.name and a.labels.tolist() == b.labels.tolist()
            assert [img.tobytes() for img in a.pixels] == [img.tobytes() for img in b.pixels]


# SHA-256 of every file the README Quick-start config's five phases write,
# as the per-image (Tensor, label) datasets wrote them: outputDir "out"
README_OUTPUTS = {
    "attack_report.json": "5d7d8883d7251a2252b53302ef10b943357ad9760cade23c00753a475ccace97",
    "bands.json": "a234611bce62ebc0ae896f542835c2a95786d068ec2658a770fc145b73bdb98f",
    "clean_labels.csv": "2f7e570258b1f1e133d81e6e8ef0f9eb5ed78839e5c3d1a63e15778d25c5c21b",
    "defense_report.json": "3af82cd0874b5982ef56d4b350cf43ce4eaf5e8151a8dcd00afc5b36d5e76e28",
    "estimate.json": "18914aba3329930325ca89891895d6d493fbf0e9b1892082cdc7dbbe224708e7",
    "events.json": "6266205595e581c8d624f4646009b977d28d26f6356b19651fdfe762fc7054be",
    "histogram.csv": "bc669a1c20192b0d30bdbcfc9eb1823ce6a08010a4e7cd82d07f6126501d236c",
    "labels.csv": "d34a33908ed08c3e6defb83f69342e268359b48813f1cd0bc70f2ed8f0256d23",
    "malicious.dlaw": "157b3956f8408997a38cafc0ad29f6b2ccb78ad2af109c66af50faea005d153d",
    "stats.json": "c6ab7c6c27a22b914adfb349aab2c15ffc722ca1eabfbcdf0a2029488f33b3e6",
    "summary.json": "a94c3a1982992ca609bd058e5d6f084c25cfc05692a68748546229d119f22106",
    "views/view0.dlaw": "01b86085a429ce5e93459274428f02dd201cb1a91bd77d03ca751ac2952c5828",
    "views/view0.json": "7590d6ec830c88b418ed64a2443995ccc7fb6e09ca02614544c028b3db694e91",
    "views/view1.dlaw": "375cb292a059f2fb329257b674facc73b998dab1526cc1b8d03950d5f4c5b9f8",
    "views/view1.json": "0c3c2f79bb335c92e2ce6bfefbad2eef77b7ee6952870ecf562407bb5da04e80",
}


def test_every_phase_passes_arrays_and_writes_the_recorded_bytes(tmp_path, monkeypatch):
    """The README Quick-start config's five phases never read
    Dataset.items, hand forward_batch arrays only, and build image tensors
    only for the attack's one malicious image; every file they write has
    the recorded bytes."""
    def no_items(dataset):
        raise AssertionError(f"Dataset.items read on {dataset.name!r}")

    real = models.forward_batch

    def arrays_only(model, images, keep, **labels):
        assert type(images) is np.ndarray
        return real(model, images, keep, **labels)

    tensors = []
    images = data_mod.Dataset.images

    def counting(dataset):
        tensors.append((phase, len(dataset)))
        return images(dataset)

    monkeypatch.setattr(data_mod.Dataset, "items", property(no_items))
    monkeypatch.setattr(data_mod.Dataset, "images", counting)
    for module in (models, profiling, trojan, defense):
        monkeypatch.setattr(module, "forward_batch", arrays_only)
    monkeypatch.chdir(tmp_path)
    config = write_config(tmp_path, {"modelName": "lenet", "weights": {"seed": 2}, "dataset": README_DATASET,
                                     "outputDir": "out", "defense": {"kind": "distributed", "k": 2}})
    for phase in ("profile", "forge", "attack", "defend", "report"):
        assert run(phase, config, "--out", "out") == 0, phase
    assert tensors == [("attack", 1)]
    written = {p.relative_to("out").as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in Path("out").rglob("*") if p.is_file()}
    assert written == README_OUTPUTS


@pytest.fixture
def dataset_rows(monkeypatch):
    """{seed: rows drawn}: the rows of every bulk draw of the data module's
    generators (the dataset's images and the split's words), by seed."""
    drawn = {}

    class Counting(data_mod.Xoshiro256StarStar):
        def __init__(self, seed):
            super().__init__(seed)
            self.seed = seed

        def next_double_rows(self, rows, width, dtype=np.float64):
            out = super().next_double_rows(rows, width, dtype)
            drawn[self.seed] = drawn.get(self.seed, 0) + len(out)
            return out

    monkeypatch.setattr(data_mod, "Xoshiro256StarStar", Counting)
    return drawn


ALTERED = {"kind": "alteredValidation", "scale": {"seed": 99, "range": [0.9, 1.1]}}


PHASES = ("profile", "forge", "attack", "defend")


@pytest.mark.parametrize("phase, images", [("profile", 30), ("forge", 30), ("attack", 110), ("defend", 110)])
def test_each_phase_draws_only_the_dataset_images_it_uses(tmp_path, dataset_rows, phase, images):
    """profile and forge draw the 30 validation images of the 110, attack
    and the altered-validation defend all of them."""
    cfg = base_config(tmp_path / "out", defense=ALTERED, estimator={"probeCount": 20, "probeSeed": 7177})
    for earlier in PHASES[: PHASES.index(phase)]:
        assert run(earlier, write_config(tmp_path, cfg)) == 0
    dataset_rows.clear()
    assert run(phase, write_config(tmp_path, cfg)) == 0
    assert dataset_rows[11] == images


# 7e13 images: the first array each sizes, the split's words or the
# images' indices, takes 5.6e14 bytes, past 2^48, which the allocator
# refuses outright
REFUSED_COUNT = 7 * 10**13


@pytest.mark.parametrize(
    "path, phases",
    [
        ("dataset.count", PHASES),
        ("estimator.probeCount", ("forge", "defend")),
        ("trojan.maliciousCount", ("attack",)),
    ],
    ids=["dataset.count", "estimator.probeCount", "trojan.maliciousCount"],
)
def test_counts_the_allocator_refuses_exit_2_naming_the_field(tmp_path, capsys, path, phases):
    """The identity plan lets the adversary forge, so defend reaches its probe set too."""
    cfg = base_config(tmp_path / "out", defense=dict(ALTERED, scale={"seed": 99, "range": [1.0, 1.0]}))
    section, key = path.split(".")
    cfg[section] = dict(cfg.get(section, {}), **{key: REFUSED_COUNT})
    config = write_config(tmp_path, cfg)
    for phase in PHASES:
        code, err = run(phase, config), capsys.readouterr().err
        if phase in phases:
            assert (code, err) == (2, f"error: config field {path} is too large: its arrays cannot be allocated\n")
        else:
            assert (code, err) == (0, "")


@pytest.mark.parametrize(
    "path, count, phases",
    [
        ("dataset.count", 2**62, PHASES),
        ("estimator.probeCount", 2**60, ("forge", "defend")),
        ("estimator.probeCount", 2**62, ("forge", "defend")),
        ("trojan.maliciousCount", 2**60, ("attack",)),
        ("trojan.maliciousCount", 2**62, ("attack",)),
    ],
    ids=["dataset.count-2^62", "estimator.probeCount-2^60", "estimator.probeCount-2^62",
         "trojan.maliciousCount-2^60", "trojan.maliciousCount-2^62"],
)
def test_counts_numpy_refuses_as_too_big_exit_2_naming_the_field(tmp_path, capsys, path, count, phases):
    """Counts whose first array would pass 2**63 bytes, which NumPy refuses
    (ValueError: array is too big) before it asks the allocator: the
    split's words or the images' indices of 2**62 images, and 2**60 or
    2**62 probe or malicious images. Each exits 2 naming the field, in
    every phase that draws it, as a count the allocator refuses does."""
    cfg = base_config(tmp_path / "out", defense=dict(ALTERED, scale={"seed": 99, "range": [1.0, 1.0]}))
    section, key = path.split(".")
    cfg[section] = dict(cfg.get(section, {}), **{key: count})
    config = write_config(tmp_path, cfg)
    for phase in PHASES:
        code, err = run(phase, config), capsys.readouterr().err
        if phase in phases:
            assert (code, err) == (2, f"error: config field {path} is too large: its arrays cannot be allocated\n")
        else:
            assert (code, err) == (0, "")


@pytest.mark.parametrize("phase", PHASES)
def test_a_short_dataset_exits_3_in_every_phase(tmp_path, capsys, dataset_rows, phase):
    dataset = {"kind": "synthetic", "seed": 11, "count": 109,
               "split": {"validationCount": 30, "streamCount": 80, "seed": 3}}
    cfg = base_config(tmp_path / "out", dataset=dataset, defense=ALTERED)
    assert run(phase, write_config(tmp_path, cfg)) == 3
    assert capsys.readouterr().err == (
        "error: split needs 110 items (30 validation + 80 stream) "
        "but dataset 'synthetic-uniform-11' has 109\n"
    )
    assert 11 not in dataset_rows


# --- config fuzz ----------------------------------------------------------


# a value of every JSON type (NaN and infinities as Python's json writes
# them), and the valid choices of the fields that take a fixed set of
# strings, which _FIELDS leaves to the code that uses them
FUZZ_VALUES = [None, True, False, 0, 1, 2, -1, 2**64, 0.5, -2.5, 1e308, float("inf"), float("-inf"),
               float("nan"), "", "x", "fc1", "lenet", [], [1], [0.5, 2.0], [3, "6"], {}, {"seed": 1}]
FUZZ_CHOICES = {
    "watchLayer": ["fc1", "fc2", "relu1", "flatten"],
    "dataset.kind": ["synthetic", "mnist", "cifar10"],
    "dataset.mode": ["uniform", "gaussianActivationProbe"],
    "trojan.selection": ["roundRobin", "fixedIndex"],
    "defense.kind": ["alteredValidation", "distributed"],
    "defense.scale.mode": ["perImage", "perPixel"],
}
FUZZ_PATHS = sorted({*cli._FIELDS, *FUZZ_CHOICES})
# counts size what a phase allocates: one past int64 exits 2, but one that
# fits would draw images until memory runs out, so those stay small
FUZZ_COUNTS = {path for path, kind in cli._FIELDS.items() if kind is cli._NATURAL}


@pytest.fixture(scope="module")
def fuzz_base(tmp_path_factory):
    """A config that runs every phase in milliseconds: a small MLP on 4x4
    images, and small datasets."""
    root = tmp_path_factory.mktemp("config-fuzz")
    arch = {"name": "mlp", "inputShape": [1, 4, 4], "layers": [
        {"name": "flatten", "kind": "flatten", "hyperparams": {}},
        {"name": "fc1", "kind": "dense", "hyperparams": {"units": 6}},
        {"name": "relu1", "kind": "relu", "hyperparams": {}},
        {"name": "fc2", "kind": "dense", "hyperparams": {"units": 10}},
    ]}
    (root / "mlp.json").write_text(json.dumps(arch), encoding="utf-8")
    cfg = {
        "modelName": str(root / "mlp.json"),
        "weights": {"seed": 2},
        "dataset": {"kind": "synthetic", "seed": 11, "count": 24, "mode": "uniform",
                    "split": {"validationCount": 10, "streamCount": 12, "seed": 3}},
        "watchLayer": "fc1",
        "kLo": 3.0,
        "kHi": 4.0,
        "trojan": {"maliciousCount": 2, "maliciousSeed": 1, "selection": "roundRobin", "fixedIndex": 0},
        "estimator": {"probeCount": 16, "probeSeed": 5},
        "defense": {"kind": "alteredValidation", "k": 2, "cuts": [1],
                    "scale": {"seed": 9, "mode": "perImage", "range": [0.9, 1.1]}},
        "outputDir": str(root / "out"),
    }
    return root, cfg


def fuzz_phases(config_path):
    """(exit code, stderr) of every phase in pipeline order."""
    results = []
    for phase in ("profile", "forge", "attack", "defend", "report"):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            results.append((cli.main([phase, "--config", config_path]), err.getvalue()))
    return results


def test_fuzz_base_config_runs_every_phase(fuzz_base):
    root, cfg = fuzz_base
    path = root / "base.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert fuzz_phases(str(path)) == [(0, "")] * 5


@settings(max_examples=50, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzzed_configs_exit_without_traceback(fuzz_base, data):
    root, base = fuzz_base
    cfg = json.loads(json.dumps(base))
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(FUZZ_PATHS))
        *sections, key = path.split(".")
        fields = cfg
        for name in sections:
            fields = fields.get(name) if isinstance(fields, dict) else None
        if not isinstance(fields, dict):
            continue
        op = data.draw(st.sampled_from(["set", "drop", "extra"]))
        if op == "drop":
            fields.pop(key, None)
        elif op == "extra":
            fields[f"{key}Extra"] = copy.deepcopy(data.draw(st.sampled_from(FUZZ_VALUES)))
        else:
            values = [*FUZZ_CHOICES.get(path, ()), *FUZZ_VALUES]
            if path in FUZZ_COUNTS:
                values = [v for v in values if not (type(v) is int and 1000 < v < 2**63)]
            fields[key] = copy.deepcopy(data.draw(st.sampled_from(values)))
    path = root / "fuzz.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    for code, err in fuzz_phases(str(path)):
        assert code in (0, 2, 3, 4), err
        assert "Traceback" not in err


@pytest.mark.parametrize("value", [2**63, 2**64])
@pytest.mark.parametrize("path", sorted(FUZZ_COUNTS))
def test_counts_past_int64_exit_2_in_every_phase(fuzz_base, path, value):
    root, base = fuzz_base
    cfg = json.loads(json.dumps(base))
    *sections, key = path.split(".")
    fields = cfg
    for name in sections:
        fields = fields[name]
    fields[key] = value
    config = root / "count.json"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    err = f"error: config field {path} must be an integer in [0, {2**63 - 1}], got {value}\n"
    assert fuzz_phases(str(config)) == [(2, err)] * 5
