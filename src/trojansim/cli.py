"""Batch CLI: profile -> forge -> attack -> defend -> report.

One JSON experiment config drives every subcommand; all randomness is
seeded there, so every output file is byte-identical across reruns. Exit
codes: 0 success, 2 config error, 3 data/parse error, 4 statistical
degeneracy, 5 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path

import numpy as np

from . import defense as defense_mod
from . import models, weightfile
from .data import Dataset, SplitPlan, parse_cifar10, parse_idx, split, synthesize, synthesize_split
from .errors import (
    ConfigError,
    DataError,
    DegenerateStatsError,
    ForgeError,
    InvariantViolation,
    ParseError,
)
from .profiling import (
    assert_bands_clear,
    collect_observations,
    estimate_trigger_rate,
    export_histogram,
    forge_bands,
    layer_stats,
    make_probe_dataset,
    profile_layer,
)
from .tensor import FLOAT32
from .trojan import TrojanConfig, run_compromised, substituted_cycles, write_labels_csv

FORMAT_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DEGENERATE = 4
EXIT_INTERNAL = 5


# --- config resolution ----------------------------------------------------

# merged under the config's own fields, section by section
_DEFAULTS = {
    "watchLayer": "fc1",
    "kLo": 3.0,
    "kHi": 4.0,
    "outputDir": "out",
    "trojan": {"maliciousCount": 1, "maliciousSeed": 1337, "selection": "roundRobin", "fixedIndex": 0},
    "estimator": {"samples": 100_000, "probeCount": 2000, "probeSeed": 7177},
}


def _finite(value) -> bool:
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


# the kinds a config field can have: (test, noun for the error message);
# JSON true and false are bools, and type(True) is not int
_OBJECT = (lambda v: isinstance(v, dict), "an object")
_STRING = (lambda v: isinstance(v, str), "a string")
# counts stay below 2**63, so that a count drawn as a NumPy int64 fits
_NATURAL = (lambda v: type(v) is int and 0 <= v < 2**63, f"an integer in [0, {2**63 - 1}]")
_SEED = (lambda v: type(v) is int and 0 <= v < 2**64, f"an integer in [0, {2**64 - 1}]")
_FINITE = (_finite, "a finite number")
_FINITE_PAIR = (lambda v: isinstance(v, list) and len(v) == 2 and all(map(_finite, v)), "two finite numbers")
_INT_LIST = (lambda v: isinstance(v, list) and all(type(c) is int for c in v), "a list of integers")

# every config field with a kind, by dotted path; each section comes before
# the fields inside it. Fields with a fixed set of values (dataset.kind,
# defense.kind, ...) are refused where that set is checked
_FIELDS = {
    "weights": _OBJECT,
    "dataset": _OBJECT,
    "dataset.split": _OBJECT,
    "trojan": _OBJECT,
    "estimator": _OBJECT,
    "defense": _OBJECT,
    "defense.scale": _OBJECT,
    "modelName": _STRING,
    "outputDir": _STRING,
    "weights.path": _STRING,
    "dataset.imagesPath": _STRING,
    "dataset.labelsPath": _STRING,
    "dataset.binPath": _STRING,
    "trojan.maliciousImagesPath": _STRING,
    "weights.seed": _SEED,
    "dataset.count": _NATURAL,
    "dataset.seed": _SEED,
    "dataset.split.validationCount": _NATURAL,
    "dataset.split.streamCount": _NATURAL,
    "dataset.split.seed": _SEED,
    "trojan.maliciousCount": _NATURAL,
    "trojan.maliciousSeed": _SEED,
    "trojan.fixedIndex": _NATURAL,
    "estimator.probeCount": _NATURAL,
    "estimator.probeSeed": _SEED,
    "kLo": _FINITE,
    "kHi": _FINITE,
    "defense.scale.seed": _SEED,
    "defense.scale.range": _FINITE_PAIR,
    "defense.k": _NATURAL,
    "defense.cuts": _INT_LIST,
}


def _check_fields(cfg: dict) -> None:
    """ConfigError unless every present field of _FIELDS has its kind."""
    for path, (test, noun) in _FIELDS.items():
        *sections, key = path.split(".")
        fields = cfg
        for name in sections:
            fields = fields.get(name, {})
        if key in fields and not test(fields[key]):
            raise ConfigError(f"config field {path} must be {noun}, got {fields[key]!r}")


def _read_json_object(path: str | Path, error: type[Exception], what: str) -> dict:
    """The JSON object in the UTF-8 file at path. A file that is missing,
    unreadable, not UTF-8, not JSON or not an object raises error, naming
    it as what."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise error(f"{what} not found: {path}")
    except OSError as e:  # a directory, or no permission to read
        raise error(f"{what} {path} cannot be read: {e.strerror}")
    # bad UTF-8, bad JSON and an integer past Python's digit limit are
    # ValueErrors; deep nesting exhausts the decoder's recursion
    except (ValueError, RecursionError) as e:
        raise error(f"{what} {path} is not valid JSON: {e}")
    if not isinstance(raw, dict):
        raise error(f"{what} {path} must be a JSON object")
    return raw


def load_config(path: str | Path) -> dict:
    return _read_json_object(path, ConfigError, "config file")


def resolve_config(raw: dict, out_override: str | None, seed_override: int | None) -> dict:
    """Apply CLI overrides, check field kinds and presence, then defaults.

    The returned dict is the canonical record embedded in every report.
    """
    cfg = dict(raw)
    if out_override is not None:
        cfg["outputDir"] = out_override
    if seed_override is not None and isinstance(cfg.get("weights"), dict):
        cfg["weights"] = dict(cfg["weights"], seed=seed_override)
    _check_fields(cfg)

    for key in ("modelName", "weights", "dataset"):
        if key not in cfg:
            raise ConfigError(f"config field missing: {key}")
    if not {"seed", "path"} & set(cfg["weights"]):
        raise ConfigError("config field weights must be an object with 'seed' or 'path'")
    if seed_override is not None and "path" in cfg["weights"]:
        raise ConfigError("--seed cannot override weights loaded from a path")
    ds = cfg["dataset"]
    kind = ds.get("kind")
    if kind not in ("mnist", "cifar10", "synthetic"):
        raise ConfigError("config field dataset.kind must be mnist, cifar10, or synthetic")
    for key in {"mnist": ("imagesPath", "labelsPath"), "cifar10": ("binPath",)}.get(kind, ()):
        if key not in ds:
            raise ConfigError(f"config field missing: dataset.{key}")

    split_cfg = {"validationCount": 100, "streamCount": 1000, "seed": 0, **ds.get("split", {})}
    ds = dict(ds, split=split_cfg)
    if kind == "synthetic":
        count = split_cfg["validationCount"] + split_cfg["streamCount"]
        ds = {"mode": "uniform", "seed": 0, "count": count, **ds}
    return {
        **_DEFAULTS,
        **cfg,
        "dataset": ds,
        "trojan": {**_DEFAULTS["trojan"], **cfg.get("trojan", {})},
        "estimator": {**_DEFAULTS["estimator"], **cfg.get("estimator", {})},
    }


# how NumPy refuses an array whose bytes it cannot index, before it asks
# the allocator
_TOO_BIG = "array is too big"


def _sized_by(field: str, make):
    """make(); an array it sizes that the allocator refuses, or that NumPy
    refuses as too big to index, is a ConfigError naming the config field,
    a count, that sized it."""
    try:
        return make()
    except (MemoryError, ValueError) as e:
        if isinstance(e, ValueError) and not str(e).startswith(_TOO_BIG):
            raise
        raise ConfigError(f"config field {field} is too large: its arrays cannot be allocated") from None


def _input_file(path: str, field: str, error: type[Exception]) -> str:
    """path, the input file that config field `field` names; error, naming
    the field, if nothing is there or it is a directory."""
    if not Path(path).exists():
        raise error(f"config field {field}: file not found: {path}")
    if Path(path).is_dir():
        raise error(f"config field {field}: is a directory: {path}")
    return path


def build_model(cfg: dict) -> models.ModelSpec:
    name = cfg["modelName"]
    if name.endswith(".json"):
        spec = models.model_from_json(_read_json_object(name, ConfigError, "model JSON file"))
    else:
        spec = models.build_model(name)
    weights = cfg["weights"]
    if "path" in weights:
        path = _input_file(weights["path"], "weights.path", ConfigError)
        return models.apply_weights(spec, weightfile.read_entries(path))
    return models.seed_weights(spec, weights["seed"])


def build_datasets(cfg: dict, model: models.ModelSpec) -> tuple[Dataset, Dataset]:
    """(validation, stream) per the config's dataset section."""
    return _split_dataset(cfg, model, stream=True)


def build_validation(cfg: dict, model: models.ModelSpec) -> Dataset:
    """The validation set of build_datasets; a synthetic dataset draws only
    its images."""
    return _split_dataset(cfg, model, stream=False)[0]


def _split_dataset(cfg: dict, model: models.ModelSpec, stream: bool) -> tuple[Dataset, Dataset | None]:
    ds = cfg["dataset"]
    plan = SplitPlan(
        validation_count=ds["split"]["validationCount"],
        stream_count=ds["split"]["streamCount"],
        seed=ds["split"]["seed"],
    )
    if ds["kind"] == "synthetic":
        return _sized_by("dataset.count", lambda: synthesize_split(
            ds["count"], model.input_shape, ds["seed"], ds["mode"], plan, stream))
    if ds["kind"] == "mnist":
        base = parse_idx(_input_file(ds["imagesPath"], "dataset.imagesPath", DataError),
                         _input_file(ds["labelsPath"], "dataset.labelsPath", DataError))
    else:
        base = parse_cifar10(_input_file(ds["binPath"], "dataset.binPath", DataError))
    if base.image_shape != model.input_shape:
        raise DataError(f"dataset images are {base.image_shape}, model expects {model.input_shape}")
    return split(base, plan)


def build_trojan_config(cfg: dict, model: models.ModelSpec, bands) -> tuple[TrojanConfig, dict]:
    """TrojanConfig plus the malicious-image tensors keyed for a weight file."""
    t = cfg["trojan"]
    if "maliciousImagesPath" in t:
        entries = weightfile.read_entries(
            _input_file(t["maliciousImagesPath"], "trojan.maliciousImagesPath", DataError))
        images = tuple(entries[k] for k in entries)
        if not images:
            raise ConfigError("trojan.maliciousImagesPath holds no tensors")
        # float32 images are quantized on entry into a fixed-point model
        mode = models.model_numeric_dtype(model)
        takes = "float32" if mode == FLOAT32 else f"float32 or {mode}"
        for key, img in entries.items():
            if img.shape != model.input_shape:
                raise DataError(
                    f"malicious image {key!r} is {img.shape}, model expects {model.input_shape}"
                )
            if img.dtype not in (FLOAT32, mode):
                raise DataError(f"malicious image {key!r} is {img.dtype}, model takes {takes}")
            if not np.isfinite(img.data).all():
                raise DataError(f"malicious image {key!r} holds non-finite values")
    else:
        noise = _sized_by("trojan.maliciousCount", lambda: synthesize(
            t["maliciousCount"], model.input_shape, t["maliciousSeed"]))
        images = tuple(noise.images())
    config = TrojanConfig(
        watch_layer=cfg["watchLayer"],
        bands=tuple(bands),
        malicious_images=images,
        selection=t["selection"],
        fixed_index=t["fixedIndex"],
    )
    blob = {f"malicious{i}": img for i, img in enumerate(images)}
    return config, blob


def _write_json(payload: dict, path: Path) -> None:
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8", newline="\n"
    )


def _output_dir(path: Path) -> Path:
    """path, the config's outputDir or a directory under it, made with its
    parents if missing; one that cannot be made (a file in the way, no
    permission) is a ConfigError naming the field."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"config field outputDir: cannot make directory {path}: {e.strerror}")
    return path


def _report(cfg: dict, **fields) -> dict:
    return {"formatVersion": FORMAT_VERSION, "config": cfg, **fields}


# --- subcommands ----------------------------------------------------------


def cmd_profile(cfg: dict) -> None:
    model = build_model(cfg)
    validation = build_validation(cfg, model)
    stats = profile_layer(model, validation, cfg["watchLayer"])
    out = _output_dir(Path(cfg["outputDir"]))
    _write_json(_report(cfg, stats=stats.to_json()), out / "stats.json")
    export_histogram(stats, out / "histogram.csv")


def _forge_phase(cfg: dict, model, validation):
    obs = collect_observations(model, validation, cfg["watchLayer"])
    stats = layer_stats(cfg["watchLayer"], obs)
    bands = forge_bands(stats, float(cfg["kLo"]), float(cfg["kHi"]))
    # exact stealthiness assertion behind the histogram-resolution forge check
    assert_bands_clear(bands, obs)
    return stats, bands


def cmd_forge(cfg: dict) -> None:
    model = build_model(cfg)
    validation = build_validation(cfg, model)
    stats, bands = _forge_phase(cfg, model, validation)
    layer_length = stats.count // len(validation) if len(validation) else 0
    est = cfg["estimator"]
    probe = _sized_by("estimator.probeCount", lambda: make_probe_dataset(model, est["probeCount"], est["probeSeed"]))
    estimate = estimate_trigger_rate(
        (model, probe, cfg["watchLayer"]), bands, layer_length, mode="monteCarlo"
    )
    out = _output_dir(Path(cfg["outputDir"]))
    _write_json(_report(cfg, bands=[b.to_json() for b in bands]), out / "bands.json")
    _write_json(_report(cfg, estimate=estimate.to_json()), out / "estimate.json")


def cmd_attack(cfg: dict) -> None:
    model = build_model(cfg)
    validation, stream = build_datasets(cfg, model)
    _, bands = _forge_phase(cfg, model, validation)
    trojan_cfg, malicious_blob = build_trojan_config(cfg, model, bands)
    labels, report, state = run_compromised(model, trojan_cfg, stream)
    # a dormant cycle's label is its clean label, so only the legitimate
    # images dropped on substituted cycles are forwarded again
    dropped = sorted(substituted_cycles(state))
    clean = np.array(labels, dtype=np.int64)
    clean[dropped] = models.forward_batch(model, stream.pixels[dropped], ())[0]

    out = _output_dir(Path(cfg["outputDir"]))
    weightfile.write_entries(malicious_blob, out / "malicious.dlaw")
    trojan_json = {
        "watchLayer": trojan_cfg.watch_layer,
        "bands": [b.to_json() for b in trojan_cfg.bands],
        "maliciousImagesRef": "malicious.dlaw",
        "selection": trojan_cfg.selection,
        "fixedIndex": trojan_cfg.fixed_index,
    }
    _write_json(
        _report(cfg, attackReport=report.to_json(), trojanConfig=trojan_json),
        out / "attack_report.json",
    )
    _write_json(
        _report(cfg, events=[e.to_json() for e in state.log]), out / "events.json"
    )
    write_labels_csv(labels, state, out / "labels.csv")
    with open(out / "clean_labels.csv", "w", encoding="utf-8", newline="\n") as f:
        f.write("cycle,label\n")
        for c, label in enumerate(clean.tolist()):
            f.write(f"{c},{label}\n")


def cmd_defend(cfg: dict) -> None:
    if "defense" not in cfg:
        raise ConfigError("config field missing: defense")
    d = cfg["defense"]
    kind = d.get("kind")
    model = build_model(cfg)
    out = Path(cfg["outputDir"])
    if kind == "alteredValidation":
        if "scale" not in d:
            raise ConfigError("config field missing: defense.scale")
        if "seed" not in d["scale"]:
            raise ConfigError("config field missing: defense.scale.seed")
        plan = defense_mod.ScalePlan.from_json(d["scale"])
        validation, stream = build_datasets(cfg, model)
        est = cfg["estimator"]
        probe = _sized_by("estimator.probeCount", lambda: make_probe_dataset(model, est["probeCount"], est["probeSeed"]))
        report = defense_mod.evaluate_altered_defense(
            model, validation, plan, stream, probe, float(cfg["kLo"]), float(cfg["kHi"]), cfg["watchLayer"])
        extra = {"scalePlan": plan.to_json()}
    elif kind == "distributed":
        views = defense_mod.partition(
            model,
            k=d.get("k"),
            cuts=d.get("cuts"),
        )
        report = defense_mod.evaluate_distributed_defense(views, model)
        views_dir = _output_dir(out / "views")
        for view in views:
            defense_mod.save_view(view, views_dir)
        extra = {"groupCount": len(views)}
    else:
        raise ConfigError(
            "config field defense.kind must be alteredValidation or distributed"
        )
    _output_dir(out)
    _write_json(
        _report(cfg, defenseReport=report.to_json(), **extra), out / "defense_report.json"
    )


_PHASE_FILES = {
    "profile": "stats.json",
    "forge": "bands.json",
    "estimate": "estimate.json",
    "attack": "attack_report.json",
    "events": "events.json",
    "defend": "defense_report.json",
}


def cmd_report(cfg: dict) -> None:
    out = Path(cfg["outputDir"])
    phases = {}
    found = False
    for phase, filename in _PHASE_FILES.items():
        path = out / filename
        if path.exists():
            found = True
            payload = _read_json_object(path, DataError, "phase output")
            payload.pop("config", None)
            payload.pop("formatVersion", None)
            phases[phase] = payload
        else:
            phases[phase] = None
    if not found:
        raise DataError(f"no phase outputs found under {out}")
    _write_json(_report(cfg, phases=phases), out / "summary.json")


_COMMANDS = {
    "profile": cmd_profile,
    "forge": cmd_forge,
    "attack": cmd_attack,
    "defend": cmd_defend,
    "report": cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="trojansim",
        description="Activation-statistics trigger attack simulator for CNN pipelines",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", default=None, help="override outputDir")
        p.add_argument("--seed", type=int, default=None, help="override weights seed")
    args = parser.parse_args(argv)

    try:
        cfg = resolve_config(load_config(args.config), args.out, args.seed)
        # non-finite activations end in one error line (exit 4), not warnings
        with np.errstate(invalid="ignore", over="ignore"):
            _COMMANDS[args.command](cfg)
        return EXIT_OK
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (ParseError, DataError, FileNotFoundError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except (DegenerateStatsError, ForgeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DEGENERATE
    except InvariantViolation as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
