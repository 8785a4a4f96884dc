"""The benchmark's workloads: inputs made from a seed, the timed phases, and
the outputs each run must reproduce.

A seed selects one of ``VARIANTS`` input variants, so every input the
benchmark can generate has reference digests recorded in ``reference.json``.
Variant seeds are ones on which every phase succeeds at the commit that
recorded the references (some dataset seeds make ``forge`` refuse with exit
4, which is the program's documented answer to a validation set that reaches
the 3-4 sigma region, not a failure to measure).

Each phase is a list of operations. An operation is one ``cli.main`` call
or one library call; it fails when it raises or returns an unexpected exit
code.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

VARIANTS = 8

PHASES = ("profile", "forge", "attack", "defend", "report")


@dataclass
class Op:
    """One operation of a phase: ``run(ctx)`` raises on failure."""

    name: str
    run: Callable[[dict], None]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def events_failures(events: list[dict], cycles: int) -> list[str]:
    """Every substitution comes exactly one cycle after a trigger, and every
    trigger before the last cycle is followed by a substitution."""
    kinds = {}
    for e in events:
        kinds[(e["cycle"], e["kind"])] = e
    out = []
    for cycle, kind in kinds:
        if kind == "Substituted" and (cycle - 1, "Triggered") not in kinds:
            out.append(f"substitution at cycle {cycle} without a trigger at {cycle - 1}")
        if kind == "Triggered" and cycle + 1 < cycles and (cycle + 1, "Substituted") not in kinds:
            out.append(f"trigger at cycle {cycle} not followed by a substitution")
    return out


# --- CLI workloads -----------------------------------------------------------

# Which phase writes each output file (README "Outputs land in outputDir").
_CLI_FILE_PHASE = {
    "stats.json": "profile",
    "histogram.csv": "profile",
    "bands.json": "forge",
    "estimate.json": "forge",
    "attack_report.json": "attack",
    "events.json": "attack",
    "labels.csv": "attack",
    "clean_labels.csv": "attack",
    "malicious.dlaw": "attack",
    "defense_report.json": "defend",
    "views": "defend",
    "summary.json": "report",
}


@dataclass
class CliWorkload:
    """A config written to disk and run phase by phase through ``cli.main``."""

    name: str
    model: str
    watch_layer: str
    sizes: dict  # validation, stream, probes
    variants: tuple  # (dataset seed, split seed, defense seed) per variant
    defense: Callable[[int], dict]
    samples: dict = field(default_factory=dict)  # phase -> calls per iteration

    def config(self, variant: int) -> dict:
        v, s, p = self.sizes["validation"], self.sizes["stream"], self.sizes["probes"]
        data_seed, split_seed, defense_seed = self.variants[variant]
        cfg = {
            "modelName": self.model,
            "weights": {"seed": 2},
            "dataset": {
                "kind": "synthetic",
                "seed": data_seed,
                "count": v + s,
                "split": {"validationCount": v, "streamCount": s, "seed": split_seed},
            },
            "outputDir": "out",
            "defense": self.defense(defense_seed),
        }
        # fields left at the CLI defaults stay out, so the README config is
        # written exactly as shipped
        if self.watch_layer != "fc1":
            cfg["watchLayer"] = self.watch_layer
        if p != 2000:
            cfg["estimator"] = {"probeCount": p}
        return cfg

    def setup(self, variant: int, workdir: Path) -> dict:
        from trojansim import cli

        path = workdir / "exp.json"
        path.write_text(json.dumps(self.config(variant), indent=2) + "\n", encoding="utf-8")
        return {"cli": cli, "config": str(path), "workdir": workdir}

    def phases(self) -> list[tuple[str, int, list[Op]]]:
        def call(phase):
            def run(ctx):
                code = ctx["cli"].main([phase, "--config", ctx["config"]])
                if code != 0:
                    raise RuntimeError(f"trojansim {phase} exited {code}")
            return [Op(f"cli.main {phase}", run)]

        return [(ph, self.samples.get(ph, 1), call(ph)) for ph in PHASES]

    def artifacts(self, ctx: dict) -> dict[str, str]:
        out = ctx["workdir"] / "out"
        digests = {}
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            rel = path.relative_to(out).as_posix()
            phase = _CLI_FILE_PHASE.get(rel.split("/")[0], "report")
            digests[f"{phase}:{rel}"] = sha256(path.read_bytes())
        return digests

    def invariants(self, ctx: dict) -> list[tuple[str, str]]:
        """The paper's invariants, checked on the files the phases wrote."""
        from trojansim import cli, profiling

        out = ctx["workdir"] / "out"
        failures = []
        attack = json.loads((out / "attack_report.json").read_text())["attackReport"]
        if attack["cleanEquivalence"] is not True:
            failures.append(("attack", "cleanEquivalence is not true"))
        events = json.loads((out / "events.json").read_text())["events"]
        cycles = attack["imagesProcessed"]
        failures += [("attack", m) for m in events_failures(events, cycles)]
        substituted = {e["cycle"] for e in events if e["kind"] == "Substituted"}
        rows = [ln.split(",") for ln in (out / "labels.csv").read_text().splitlines()[1:]]
        clean = [ln.split(",") for ln in (out / "clean_labels.csv").read_text().splitlines()[1:]]
        if len(rows) != cycles or len(clean) != cycles:
            failures.append(("attack", "labels.csv or clean_labels.csv has the wrong length"))
        for (c, label, sub), (_, clean_label) in zip(rows, clean):
            if (int(sub) == 1) != (int(c) in substituted):
                failures.append(("attack", f"labels.csv substituted flag wrong at cycle {c}"))
            elif not int(sub) and label != clean_label:
                failures.append(("attack", f"label differs from clean label at cycle {c}"))

        # no validation observation lies in a forged band (exact, not histogram)
        cfg = cli.resolve_config(cli.load_config(ctx["config"]), None, None)
        model = cli.build_model(cfg)
        validation, _ = cli.build_datasets(cfg, model)
        bands = [
            profiling.SigmaBand.from_json(b)
            for b in json.loads((out / "bands.json").read_text())["bands"]
        ]
        obs = profiling.collect_observations(model, validation, cfg["watchLayer"])
        hits = profiling.count_band_collisions(bands, obs)
        if hits:
            failures.append(("forge", f"{hits} validation observations lie in a forged band"))
        return failures

    def expected_forwards(self) -> dict[str, int]:
        """Forward passes per phase and iteration at the recorded commit."""
        v, s, p = self.sizes["validation"], self.sizes["stream"], self.sizes["probes"]
        counts = {
            "profile": v,
            "forge": 2 * v + p,  # profile_layer + collect_observations, then probes
            # validation twice, then run_compromised's clean baseline and run,
            # then the CLI's own clean baseline
            "attack": 2 * v + 3 * s,
            "defend": 0,
            "report": 0,
        }
        if self.defense(0)["kind"] == "alteredValidation":
            # altered profile, probes, true validation, stream
            counts["defend"] = 2 * v + p + s
        return counts


# --- library workload ----------------------------------------------------------


@dataclass
class StormWorkload:
    """Q16.16 LeNet with a trigger band placed inside the validation bulk, so
    it fires on every dormant cycle and the implant substitutes every other
    image."""

    name: str
    sizes: dict  # validation, stream, probes, malicious
    variants: tuple  # (dataset seed, split seed, aux seed) per variant
    samples: dict = field(default_factory=dict)
    model: str = "lenet"
    watch_layer: str = "fc1"

    def setup(self, variant: int, workdir: Path) -> dict:
        import trojansim as ts
        from trojansim import models, profiling, tensor

        data_seed, split_seed, aux_seed = self.variants[variant]
        v, n = self.sizes["validation"], self.sizes["stream"]
        model = models.quantize_model(
            models.seed_weights(models.build_model(self.model), 2), tensor.Q16_16
        )
        base = ts.synthesize(v + n, model.input_shape, data_seed)
        validation, stream = ts.split(base, ts.SplitPlan(v, n, split_seed))
        malicious = ts.synthesize(self.sizes["malicious"], model.input_shape, aux_seed)
        probe = profiling.make_probe_dataset(model, self.sizes["probes"], aux_seed + 1)
        saturations = [0]

        def counting(kernel):
            def counted(*args, **kwargs):
                result = kernel(*args, **kwargs)
                saturations[0] += result.saturations
                return result

            return counted

        # models calls the kernels through the tensor module, so this sees
        # every fixed-point op of the phases (the worker zeroes it per iteration)
        for name in ("conv2d", "dense", "quantize"):
            setattr(tensor, name, counting(getattr(tensor, name)))
        return {
            "model": model,
            "validation": validation,
            "stream": stream,
            "malicious": tuple(malicious.images()),
            "probe": probe,
            "variant": variant,
            "saturations": saturations,
        }

    def phases(self) -> list[tuple[str, int, list[Op]]]:
        from trojansim import defense, profiling, trojan

        layer = self.watch_layer

        def profile(ctx):
            ctx["stats"] = profiling.profile_layer(ctx["model"], ctx["validation"], layer)

        def forge(ctx):
            ctx["bands"] = profiling.forge_bands(ctx["stats"], 3.0, 4.0)

        def observe(ctx):
            ctx["obs"] = profiling.collect_observations(ctx["model"], ctx["validation"], layer)

        def clear(ctx):
            profiling.assert_bands_clear(ctx["bands"], ctx["obs"])

        def estimate(ctx):
            st = ctx["stats"]
            ctx["storm"] = profiling.SigmaBand(
                layer, st.mean + 0.5 * st.stddev, st.mean + st.stddev, "upper", 0.5, 1.0
            )
            length = st.count // len(ctx["validation"])
            ctx["estimate"] = profiling.estimate_trigger_rate(
                (ctx["model"], ctx["probe"], layer), [ctx["storm"]], length, mode="monteCarlo"
            )

        def attack(ctx):
            config = trojan.TrojanConfig(layer, (ctx["storm"],), ctx["malicious"], "roundRobin")
            ctx["labels"], ctx["report"], ctx["state"] = trojan.run_compromised(
                ctx["model"], config, ctx["stream"]
            )

        def audit(ctx):
            ctx["hits"] = defense.stream_hit_rate(ctx["model"], [ctx["storm"]], ctx["validation"], layer)

        def partition(ctx):
            ctx["views"] = defense.partition(ctx["model"], k=2)

        def evaluate(ctx):
            ctx["defense"] = defense.evaluate_distributed_defense(ctx["views"], ctx["model"])

        return [
            ("profile", self.samples.get("profile", 1), [Op("profiling.profile_layer", profile)]),
            (
                "forge",
                self.samples.get("forge", 1),
                [
                    Op("profiling.forge_bands", forge),
                    Op("profiling.collect_observations", observe),
                    Op("profiling.assert_bands_clear", clear),
                    Op("profiling.estimate_trigger_rate", estimate),
                ],
            ),
            ("attack", 1, [Op("trojan.run_compromised", attack)]),
            (
                "defend",
                self.samples.get("defend", 1),
                [
                    Op("defense.stream_hit_rate", audit),
                    Op("defense.partition", partition),
                    Op("defense.evaluate_distributed_defense", evaluate),
                ],
            ),
        ]

    def artifacts(self, ctx: dict) -> dict[str, str]:
        def js(obj):
            return sha256(json.dumps(obj, sort_keys=True).encode())

        return {
            "profile:stats": js(ctx["stats"].to_json()),
            "forge:bands": js([b.to_json() for b in ctx["bands"]]),
            "forge:storm_band": js(ctx["storm"].to_json()),
            "forge:estimate": js(ctx["estimate"].to_json()),
            "attack:labels": sha256(",".join(map(str, ctx["labels"])).encode()),
            "attack:report": js(ctx["report"].to_json()),
            "attack:events": js([e.to_json() for e in ctx["state"].log]),
            "defend:hits": js(ctx["hits"]),
            "defend:report": js(ctx["defense"].to_json()),
            "attack:saturations": sha256(str(ctx["saturations"][0]).encode()),
        }

    def invariants(self, ctx: dict) -> list[tuple[str, str]]:
        from trojansim import models

        failures = []
        report, labels, stream = ctx["report"], ctx["labels"], ctx["stream"]
        if report.clean_equivalence is not True:
            failures.append(("attack", "cleanEquivalence is not true"))
        events = [e.to_json() for e in ctx["state"].log]
        failures += [("attack", m) for m in events_failures(events, len(stream))]
        # labels off the substituted cycles equal clean labels, and substituted
        # cycles carry the malicious image's label: checked on a seeded sample
        used = {e["cycle"]: e["usedMaliciousIndex"] for e in events if e["kind"] == "Substituted"}
        rng = random.Random(ctx["variant"])
        for c in sorted(rng.sample(range(len(stream)), min(48, len(stream)))):
            image = ctx["malicious"][used[c]] if c in used else stream.items[c][0]
            if models.forward(ctx["model"], image).final_label != labels[c]:
                failures.append(("attack", f"label at cycle {c} does not match its input"))
        return failures

    def expected_forwards(self) -> dict[str, int]:
        v, n, p = self.sizes["validation"], self.sizes["stream"], self.sizes["probes"]
        return {
            "profile": v,
            "forge": v + p,  # collect_observations for assert_bands_clear, then probes
            "attack": 2 * n,  # run_compromised's clean baseline, then the run
            "defend": v,  # the band's hit rate on the validation set
            "report": 0,
        }


def _defense_distributed(_seed: int) -> dict:
    return {"kind": "distributed", "k": 2}


def _defense_altered(seed: int) -> dict:
    # narrow range: with the wide default the adversary cannot forge on the
    # altered set and evaluate_altered_defense returns before its probe and
    # stream passes
    return {"kind": "alteredValidation", "scale": {"seed": seed, "mode": "perImage", "range": [0.9, 1.1]}}


WORKLOADS = {
    w.name: w
    for w in (
        CliWorkload(
            name="lenet-readme",
            model="lenet",
            watch_layer="fc1",
            sizes={"validation": 100, "stream": 1000, "probes": 2000},
            # variant 0 is the README Quick-start config as shipped; the others
            # use dataset seeds 11 + 1000k, skipping k = 4, 6, 9 and 11, on
            # which forge refuses (exit 4)
            variants=(
                (11, 3, 0), (1011, 4, 0), (2011, 5, 0), (3011, 6, 0),
                (5011, 8, 0), (7011, 10, 0), (8011, 11, 0), (10011, 13, 0),
            ),
            defense=_defense_distributed,
            samples={"profile": 3, "defend": 30},
        ),
        CliWorkload(
            name="cifar-altered",
            model="cifar",
            # fc1 cannot be forged with weights seed 2 (exit 4)
            watch_layer="fc2",
            sizes={"validation": 50, "stream": 60, "probes": 60},
            variants=tuple((21 + 1000 * v, 5 + v, 99 + v) for v in range(VARIANTS)),
            defense=_defense_altered,
            samples={"profile": 2, "forge": 2, "defend": 2},
        ),
        StormWorkload(
            name="q16-trigger-storm",
            sizes={"validation": 100, "stream": 1500, "probes": 100, "malicious": 4},
            # dataset seeds 31 + 1000k, skipping k = 3 and 8, on which forge
            # refuses (exit 4)
            variants=tuple((31 + 1000 * v, 7 + v, 1337 + v) for v in (0, 1, 2, 4, 5, 6, 7, 9)),
            samples={"profile": 3, "forge": 2, "defend": 5},
        ),
    )
}


def sized(workload, **sizes):
    """A copy of a workload with some input sizes replaced (for tests)."""
    return replace(workload, sizes={**workload.sizes, **sizes})
